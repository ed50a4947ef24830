"""Exception and warning types shared across the package."""


class SlabModelError(Exception):
    """Base class for model-specific failures."""


class OutOfDomain(SlabModelError, ValueError):
    """Depth outside its domain: [0, L] for calls bound to a grid of
    length L, [0, inf) for the rest (NaN included).

    Raised by grf.checked_depths, which every call taking a depth uses.
    """


class FactorizationFailure(SlabModelError):
    """Covariance Cholesky failed even at maximum diagonal jitter.

    Signals an invalid or severely ill-conditioned kernel/grid pair
    (in practice: shape exponents above 2, where the correlation family
    is no longer positive semidefinite).
    """


class UnsupportedKernel(SlabModelError):
    """Closed-form evaluation requires the squared-exponential kernel."""


class MemoryBudgetExceeded(SlabModelError, ValueError):
    """Grid too fine for the dense covariance factor within the memory budget."""


class FluctuationWarning(UserWarning):
    """Fluctuation magnitude outside the small-perturbation regime."""


class ReliabilityWarning(UserWarning):
    """Ensemble mean estimate may be unreliable (heavy-tailed weights)."""
