"""The repository's tools run against the package as it is."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from slabatten import CorrelationKernel, Grid, MediumSpec, StochasticMedium, run_ensemble
from slabatten.grf import AR1_ROUTE, CHOLESKY_ROUTE, PIVOTED_ROUTE

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ensemble_layers.py"
_spec = importlib.util.spec_from_file_location("ensemble_layers", TOOL)
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)
DENSE = ["run_ensemble", "factor", "basis", "normals", "product", "reduction", "moments", "rest"]
AR1 = ["run_ensemble", "factor", "normals", "transform", "running_integral", "reduction",
       "moments", "rest"]


def test_ensemble_layers_times_every_layer_of_run_ensemble(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [str(TOOL), "--paths", "64", "--repeat", "1"])
    assert tool.main() == 0
    result = json.loads(capsys.readouterr().out)
    assert result["paths"] == 64 and result["missing"] == []
    assert {key: list(figures) for key, figures in result["us_per_path"].items()} == dict(
        kappa2_51pts_51depths=DENSE, kappa2_501pts_256depths=DENSE, kappa1_501pts_501depths=AR1)
    assert set(result["minflt_per_run_ensemble"]) == set(result["us_per_path"])
    for figures in (*result["us_per_path"].values(), *result["minflt_per_run_ensemble"].values()):
        assert all(figure >= 0 for figure in figures.values())


@pytest.mark.parametrize("kappa, route", [(2, PIVOTED_ROUTE), (1.5, CHOLESKY_ROUTE), (1, AR1_ROUTE)])
def test_the_tools_wrappers_leave_run_ensemble_bit_identical(kappa, route):
    # two blocks of paths, and every layer of the route called
    sm = StochasticMedium(MediumSpec(sigma_a=1.0, alpha=0.3), CorrelationKernel(1.0, 1.0, kappa))
    grid, matmul = Grid(5.0, 51), np.matmul
    plain = run_ensemble(sm, grid, 6000, 7)
    with tool.timed_layers() as spent:
        wrapped = run_ensemble(sm, grid, 6000, 7)
    assert wrapped.sampler_route == route and np.matmul is matmul
    assert set(tool.AR1_LAYERS if kappa == 1 else tool.DENSE_LAYERS) <= spent.keys()
    assert np.array_equal(wrapped.mean, plain.mean) and np.array_equal(wrapped.sem, plain.sem)
    assert wrapped.integral_skewness == plain.integral_skewness
