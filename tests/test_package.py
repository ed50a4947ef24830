"""Package hygiene: module boundaries and the public name list."""

import ast
from pathlib import Path

import slabatten

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


def test_every_public_name_resolves():
    missing = [name for name in slabatten.__all__ if not hasattr(slabatten, name)]
    assert missing == []
    assert len(set(slabatten.__all__)) == len(slabatten.__all__)
