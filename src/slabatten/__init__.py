"""Laser attenuation in a slab with a Gaussian random absorption coefficient.

The package simulates a collimated beam entering a 1-D slab whose
absorption coefficient fluctuates in space as a stationary Gaussian
random field, evaluates the closed-form ensemble-averaged attenuation
law (Beer's decay times a boost factor), and verifies it against a
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
    Error-function closed forms for the averaged intensity, the drift
    ODE residual and the quadrature cumulant exponent.
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
    boost_factor,
    cumulant_series_exponent,
    inner_w,
    ode_residual,
    outer_y,
    theta,
)
from .errors import (
    DegenerateStep,
    FactorizationFailure,
    FluctuationWarning,
    MemoryBudgetExceeded,
    OutOfDomain,
    ReliabilityWarning,
    SlabModelError,
    UnsupportedKernel,
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
# base class callers catch.
__all__ = [
    "AveragedLaw",
    "CorrelationKernel",
    "DegenerateStep",
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
    "UnsupportedKernel",
    "averaged_intensity",
    "beer",
    "boost_factor",
    "covariance_matrix",
    "cumulant_series_exponent",
    "default_depths",
    "inner_w",
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
