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
    (the exact AR(1) recursion as a prefix-sum scan for kappa = 1, dense
    Cholesky for other kernels) and integral_at, the trapezoid integral
    of a path or block of paths, plain arrays of grid values, up to
    given depths.
medium
    The purely absorbing slab: MediumSpec, Beer's decay (beer) and the
    fluctuating absorption coefficient (StochasticMedium).
averaged
    Error-function closed forms (kappa = 2) of the two covariance
    integrals, theta = C * W and outer_y = C * Y, each taking
    ``(kernel, z)``; the averaged intensity built on them, its drift ODE
    residual and the quadrature cumulant exponent.
quadrature
    Gauss-Legendre evaluation of the ordered and square covariance
    integrals for any kernel, taking ``(kernel, z)``.
montecarlo
    Exact pathwise solutions, reproducible parallel ensembles and the
    lognormal quadrature oracle.
cli
    The `slabatten` batch experiment runner (CSV curves plus report).
"""

from .averaged import (
    AveragedLaw,
    ExponentConvention,
    averaged_intensity,
    cumulant_series_exponent,
    ode_residual,
    outer_y,
    theta,
)
from .errors import (
    FactorizationFailure,
    FluctuationWarning,
    MemoryBudgetExceeded,
    OutOfDomain,
    ReliabilityWarning,
    SlabModelError,
)
from .grf import CorrelationKernel, FieldSampler, Grid, covariance_matrix, integral_at
from .medium import MediumSpec, StochasticMedium, beer
from .montecarlo import (
    EnsembleStats,
    default_depths,
    lognormal_oracle,
    path_intensity,
    path_intensity_em,
    run_ensemble,
)
from .quadrature import ordered_double_integral, square_double_integral

__version__ = "0.1.0"

# EnsembleStats is the return type of run_ensemble; SlabModelError is the
# base class callers catch.  cumulant_series_exponent, lognormal_oracle and
# ode_residual are referees: the acceptance suite and the benchmark check
# the closed form and the ensemble against them.
__all__ = [
    "AveragedLaw",
    "CorrelationKernel",
    "EnsembleStats",
    "ExponentConvention",
    "FactorizationFailure",
    "FieldSampler",
    "FluctuationWarning",
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
    "integral_at",
    "lognormal_oracle",
    "ode_residual",
    "ordered_double_integral",
    "outer_y",
    "path_intensity",
    "path_intensity_em",
    "run_ensemble",
    "square_double_integral",
    "theta",
    "__version__",
]
