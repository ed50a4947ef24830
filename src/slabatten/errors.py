"""Exception and warning types shared across the package.

Every error is a ValueError (bad input; CLI exit code 1) except the
numerical FactorizationFailure (exit code 2).
"""


class SlabModelError(Exception):
    """Base class for model-specific failures."""


class OutOfDomain(SlabModelError, ValueError):
    """Depth outside its domain: [0, L] for calls bound to a grid of
    length L, [0, inf) for the rest (NaN included).

    Raised by grf.checked_depths, which every call taking a depth uses.
    """


class FactorizationFailure(SlabModelError):
    """Covariance Cholesky failed even at the largest diagonal jitter.

    A guard on the dense route: every kernel CorrelationKernel accepts is
    positive definite, so only rounding in a nearly singular grid
    covariance can bring the factor here.
    """


class MemoryBudgetExceeded(SlabModelError, ValueError):
    """Grid too fine for the dense covariance factor within the memory budget."""


class FluctuationWarning(UserWarning):
    """Fluctuation magnitude outside the small-perturbation regime."""


class ReliabilityWarning(UserWarning):
    """Ensemble mean estimate may be unreliable (heavy-tailed weights)."""
