"""Laser attenuation in a slab with a Gaussian random absorption coefficient.

The package simulates a collimated beam entering a 1-D slab whose
absorption coefficient fluctuates in space as a stationary Gaussian
random field, evaluates the closed-form ensemble-averaged attenuation
law (Beer's decay times exp(gain * alpha^2 * sigma_a^2 * C * Y(z))), and
verifies it against quadrature of the same covariance integrals and a
Monte Carlo ensemble of exact per-path solutions.

Modules
-------
grf
    Correlation kernels, grid covariances, row-tile sampling
    (the exact AR(1) recursion as a prefix-sum scan for kappa = 1, at the
    grid's points or any increasing nodes, a low-rank pivoted Cholesky
    factor for kappa = 2 on resolved grids, dense Cholesky for other
    kernels and grids; the pivoted factor also where LAPACK fails), ou_bridge,
    the exact kappa-1 integral between two nodes, and running_integral,
    the one integrator of a path or block of paths, plain arrays of node
    values.
medium
    The purely absorbing slab: MediumSpec, Beer's decay (beer) and the
    fluctuating absorption coefficient (StochasticMedium).
averaged
    Error-function closed forms (kappa = 2) of the two covariance
    integrals, theta = C * W and outer_y = C * Y, each taking
    ``(kernel, z)``; the averaged intensity built on them and the
    quadrature cumulant exponent.
quadrature
    Gauss-Legendre evaluation of the ordered and square covariance
    integrals for any kernel, taking ``(kernel, z)``.
montecarlo
    Reproducible parallel ensembles of exact pathwise solutions, the Euler
    cross-check and the lognormal quadrature oracle.
cli
    The `slabatten` batch experiment runner (CSV curves plus report).
"""

from .averaged import (
    AveragedLaw,
    ExponentConvention,
    averaged_intensity,
    cumulant_series_exponent,
    outer_y,
    theta,
)
from .errors import (
    MemoryBudgetExceeded,
    OutOfDomain,
    ReliabilityWarning,
    SlabModelError,
)
from .grf import CorrelationKernel, FieldSampler, Grid, covariance_matrix
from .medium import MediumSpec, StochasticMedium, beer
from .montecarlo import (
    EnsembleStats,
    default_depths,
    lognormal_oracle,
    path_intensity_em,
    run_ensemble,
)
from .quadrature import ordered_double_integral, square_double_integral

__version__ = "0.1.0"

# EnsembleStats is the return type of run_ensemble; SlabModelError is the
# base class callers catch.  cumulant_series_exponent and lognormal_oracle
# are referees: the acceptance suite and the benchmark check the closed
# form and the ensemble against them; the exact pathwise intensity that
# referees the Euler integrator and the block/row tests is a test helper
# built on grf.running_integral, the ensemble's one integrator.  theta is
# the paper's drift C W(z), the derivative of outer_y; the closed form's
# drift-ODE check in the tests is built on it.
__all__ = [
    "AveragedLaw",
    "CorrelationKernel",
    "EnsembleStats",
    "ExponentConvention",
    "FieldSampler",
    "Grid",
    "MediumSpec",
    "MemoryBudgetExceeded",
    "OutOfDomain",
    "ReliabilityWarning",
    "SlabModelError",
    "StochasticMedium",
    "averaged_intensity",
    "beer",
    "covariance_matrix",
    "cumulant_series_exponent",
    "default_depths",
    "lognormal_oracle",
    "ordered_double_integral",
    "outer_y",
    "path_intensity_em",
    "run_ensemble",
    "square_double_integral",
    "theta",
    "__version__",
]
