"""The repository's tools run against the package as it is."""

import json
import os
import subprocess
import sys
from pathlib import Path

import slabatten

ROOT = Path(__file__).resolve().parents[1]


def test_ensemble_layers_replays_run_ensemble():
    # The tool replays run_ensemble's chunk loop by hand to time its
    # layers; a replay that drifts from it (another draw width, another
    # tile cut) gives another SEM over mean or skewness, or fails.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(slabatten.__file__).parents[1]), env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ensemble_layers.py"),
         "--paths", "64", "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["paths"] == 64
    configs = {"kappa2_51pts_51depths", "kappa2_501pts_256depths", "kappa1_501pts_501depths"}
    assert set(result["us_per_path"]) == set(result["replays_run_ensemble"]) == configs
    assert all(result["replays_run_ensemble"].values())
    assert set(result["minflt_per_run_ensemble"]) == configs
    for faults in result["minflt_per_run_ensemble"].values():
        assert faults["first"] >= 0 and faults["median"] >= 0
    for layers in result["us_per_path"].values():
        assert layers["run_ensemble"] > 0 and all(t >= 0 for t in layers.values())
