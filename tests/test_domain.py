"""One depth rule for every route: each public call that takes a depth
rejects one outside its domain with OutOfDomain, a ValueError."""

import inspect
import math

import numpy as np
import pytest

import slabatten
from slabatten import (
    AveragedLaw,
    CorrelationKernel,
    Grid,
    MediumSpec,
    OutOfDomain,
    StochasticMedium,
    averaged_intensity,
    beer,
    cumulant_series_exponent,
    lognormal_oracle,
    ordered_double_integral,
    outer_y,
    path_intensity_em,
    run_ensemble,
    square_double_integral,
    theta,
)

from path_check import integral_at, path_intensity

SM = StochasticMedium(MediumSpec(sigma_a=1.0, alpha=0.3), CorrelationKernel(1.0, 1.0))
LAW = AveragedLaw(SM.medium, SM.kernel)
GRID = Grid(2.0, 21)
PATH = np.zeros(GRID.n_points)

# Calls whose depth domain is [0, inf).
UNBOUNDED = {
    "averaged_intensity": lambda z: averaged_intensity(LAW, z),
    "beer": lambda z: beer(SM.medium, z),
    "cumulant_series_exponent": lambda z: cumulant_series_exponent(SM.kernel, 0.3, 1.0, z),
    "lognormal_oracle": lambda z: lognormal_oracle(SM, z),
    "ordered_double_integral": lambda z: ordered_double_integral(SM.kernel, z),
    "outer_y": lambda z: outer_y(SM.kernel, z),
    "square_double_integral": lambda z: square_double_integral(SM.kernel, z),
    "theta": lambda z: theta(SM.kernel, z),
}
# Calls bound to GRID, whose depth domain is [0, L]; the first two are the
# tests' own referees (path_check), which check depths as the ensemble does.
REFEREES = {"integral_at", "path_intensity"}
GRID_BOUND = {
    "integral_at": lambda z: integral_at(GRID, PATH, z),
    "path_intensity": lambda z: path_intensity(SM.medium, GRID, PATH, z),
    "path_intensity_em": lambda z: path_intensity_em(SM.medium, GRID, PATH, z),
    "run_ensemble": lambda z: run_ensemble(SM, GRID, 4, master_seed=1, depths=z),
}
CALLS = {**UNBOUNDED, **GRID_BOUND}
BAD = [-0.5, -1e-300, math.nan]
CASES = [(name, z) for name in UNBOUNDED for z in BAD + [math.inf]] + [
    (name, z) for name in GRID_BOUND for z in BAD + [GRID.length + 1e-9]
]


def test_the_tables_name_every_public_call_that_takes_a_depth():
    takes_a_depth = {
        name
        for name in slabatten.__all__
        if inspect.isfunction(obj := getattr(slabatten, name))
        and {"z", "z1", "depths"} & set(inspect.signature(obj).parameters)
    }
    assert takes_a_depth == set(CALLS) - REFEREES


@pytest.mark.parametrize("name,z", CASES)
def test_a_depth_outside_the_domain_raises_out_of_domain(name, z):
    with pytest.raises(OutOfDomain) as err:
        CALLS[name](z)
    # callers that catch ValueError keep working
    assert isinstance(err.value, ValueError)


# Calls that take one depth at a time; the message names their argument z.
ONE_DEPTH = [
    "cumulant_series_exponent",
    "lognormal_oracle",
    "ordered_double_integral",
    "path_intensity_em",
    "square_double_integral",
]


@pytest.mark.parametrize("name", ONE_DEPTH)
def test_an_array_given_to_a_one_depth_call_is_rejected_by_name(name):
    for z in ([0.5, 1.0], [0.5], np.array([[0.5]])):
        with pytest.raises(ValueError, match="z must be one depth.*one depth at a time"):
            CALLS[name](z)
    # a 0-d array is one depth
    assert CALLS[name](np.array(0.5)) == CALLS[name](0.5)
