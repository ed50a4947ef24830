"""Package hygiene: module boundaries, the public name list, import discipline."""

import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import slabatten
from slabatten import cli
from slabatten.cli import main

PACKAGE = Path(slabatten.__file__).resolve().parent


def test_no_module_imports_another_modules_private_name():
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offences += [
                    f"{path.name}: from .{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offences == []


def _used_outside_own_definition():
    """Names the package's modules (``__init__`` aside, which only
    re-exports) load as ``X`` or ``module.X``, not counting uses inside
    the definition of ``X`` itself."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return used


def _documented_public_names():
    """Names of ``__all__`` the comment right above it gives a reason for."""
    lines = (PACKAGE / "__init__.py").read_text(encoding="utf-8").splitlines()
    end = next(i for i, line in enumerate(lines) if line.startswith("__all__"))
    start = end
    while start > 0 and lines[start - 1].startswith("#"):
        start -= 1
    words = set(re.findall(r"\w+", " ".join(lines[start:end])))
    return words & set(slabatten.__all__)


def test_every_public_function_and_class_has_a_caller_or_a_reason():
    public = {
        name
        for name in slabatten.__all__
        if inspect.isfunction(obj := getattr(slabatten, name)) or isinstance(obj, type)
    }
    orphans = public - _used_outside_own_definition() - _documented_public_names()
    assert orphans == set()


def test_every_public_name_resolves():
    missing = [name for name in slabatten.__all__ if not hasattr(slabatten, name)]
    assert missing == []
    assert len(set(slabatten.__all__)) == len(slabatten.__all__)


# Runs the CLI with scipy unimportable and reports, per command, the exit
# code and the numpy/scipy modules that were first imported during main(),
# then every numpy.polynomial module loaded by the import or the commands.
_IMPORT_PROBE = """
import json, sys
sys.modules["scipy"] = None
import slabatten.cli

def loaded():
    return {k for k in sys.modules if k.split(".")[0] in ("numpy", "scipy")}

results = []
for argv in json.loads(sys.argv[1]):
    before = loaded()
    code = slabatten.cli.main(argv)
    results.append({"code": code, "new": sorted(loaded() - before)})
sys.stderr.write("PROBE " + json.dumps(results) + "\\n")
polynomial = [k for k in sys.modules if k.split(".")[:2] == ["numpy", "polynomial"]]
sys.stderr.write("POLYNOMIAL " + json.dumps(sorted(polynomial)) + "\\n")
"""


def test_cli_runs_without_scipy_and_imports_nothing_inside_main(tmp_path):
    commands = [
        [],
        ["--kappa", "1", "--modes", "beer,mc,euler-check", "--paths", "200"],
        ["--kappa", "1", "--zeta", "0.05", "--modes", "beer"],  # 1001 points: subsampled depths
    ]
    argvs = [cmd + ["--out", str(tmp_path / f"sub{i}.csv")] for i, cmd in enumerate(commands)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(argvs)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = [line for line in proc.stderr.splitlines() if line.startswith("PROBE ")]
    results = json.loads(probe[-1][len("PROBE "):])
    # A module first loaded inside main() is an import paid in every run's
    # wall time; numpy submodules belong at module import.
    assert results == [{"code": 0, "new": []}] * len(commands)
    # The quadrature's rule is stored: numpy.polynomial would cost 3-4 ms
    # of import and about 1.4 MB of peak memory in every run.
    polynomial = [line for line in proc.stderr.splitlines() if line.startswith("POLYNOMIAL ")]
    assert json.loads(polynomial[-1][len("POLYNOMIAL "):]) == []
    for i, cmd in enumerate(commands):
        local = tmp_path / f"local{i}.csv"
        assert main(cmd + ["--out", str(local)]) == 0
        assert (tmp_path / f"sub{i}.csv").read_bytes() == local.read_bytes()


def _raised_or_warned_names():
    """Names of the classes some ``raise`` or ``warnings.warn`` in the
    package uses: ``raise X``, ``raise X(...)``, ``warn(msg, X)`` and
    ``warn(msg, category=X)``."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", None))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn":
                args = node.args[1:2] + [k.value for k in node.keywords if k.arg == "category"]
                names.update(getattr(arg, "id", None) for arg in args)
    return names


def test_every_public_error_and_warning_is_raised_somewhere():
    public = {
        name
        for name in slabatten.__all__
        if isinstance(obj := getattr(slabatten, name), type)
        and issubclass(obj, BaseException)
    }
    # SlabModelError is the base class callers catch; only subclasses are raised.
    unused = public - {"SlabModelError"} - _raised_or_warned_names()
    assert unused == set()


def _public_errors():
    return {
        name: obj
        for name in slabatten.__all__
        if isinstance(obj := getattr(slabatten, name), type)
        and issubclass(obj, Exception)
        and not issubclass(obj, Warning)
        and name != "SlabModelError"
    }


def test_every_public_error_is_a_value_error():
    # The CLI catches exactly this kind: another would end in a traceback.
    other = [
        name for name, error in _public_errors().items() if not issubclass(error, ValueError)
    ]
    assert other == []


@pytest.mark.parametrize("name", sorted(_public_errors()))
def test_main_maps_every_public_error_to_its_exit_code(
    tmp_path, capsys, monkeypatch, name
):
    error = getattr(slabatten, name)

    def fail(config):
        raise error("probe message")

    monkeypatch.setattr(cli, "run", fail)
    assert cli.main(["--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "slabatten: error: probe message\n"
