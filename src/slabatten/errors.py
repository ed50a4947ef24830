"""Exception types and the one warning type shared across the package.

Every error is a ValueError (bad input; CLI exit code 1).
"""


class SlabModelError(Exception):
    """Base class for model-specific failures."""


class OutOfDomain(SlabModelError, ValueError):
    """Depth outside its domain: [0, L] for calls bound to a grid of
    length L, [0, inf) for the rest (NaN included).

    Raised by grf.checked_depths, which every call taking a depth uses.
    """


class MemoryBudgetExceeded(SlabModelError, ValueError):
    """Grid too fine for the dense covariance factor within the memory budget."""


class ReliabilityWarning(UserWarning):
    """Ensemble mean estimate may be unreliable (heavy-tailed weights)."""
