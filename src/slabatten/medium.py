"""The purely absorbing slab: its parameters, Beer's decay, the fluctuating
absorption coefficient and its moment series."""

from __future__ import annotations

import math
import warnings
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .errors import DivergentSeries, FluctuationWarning, NegativeDepth
from .grf import CorrelationKernel

# A trailing term this small relative to the accumulated sum counts as
# converged.
_CONVERGENCE_CUT = 1e-12
# Orders Q = 1.._MFP_ORDER of the mean-free-path series; its converged flag
# reports whether the last one was small enough.
_MFP_ORDER = 20


@dataclass(frozen=True)
class MediumSpec:
    """Parameters of a purely absorbing slab.

    sigma_a : mean absorption coefficient, 1/cm, >= 0.
    alpha   : relative magnitude of absorption fluctuations, >= 0.
    i0      : incident beam intensity, W/cm^2, > 0.

    Fields after sigma_a are keyword-only.  alpha >= 1 is allowed but
    emits a FluctuationWarning: the model is a small-fluctuation
    expansion about the mean coefficient.
    """

    sigma_a: float
    _: KW_ONLY
    alpha: float = 0.0
    i0: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma_a < 0:
            raise ValueError(f"sigma_a must be >= 0, got {self.sigma_a}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.i0 > 0:
            raise ValueError(f"i0 must be > 0, got {self.i0}")
        if self.alpha >= 1:
            # Skip this frame and the generated __init__: report the caller.
            warnings.warn(
                f"alpha = {self.alpha} is outside the small-fluctuation regime",
                FluctuationWarning,
                stacklevel=3,
            )


def beer(medium: MediumSpec, z):
    """Pure-absorption exponential decay I0 * exp(-sigma_a * z)."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise NegativeDepth("depth z must be >= 0")
    return medium.i0 * np.exp(-medium.sigma_a * z)


@dataclass(frozen=True)
class StochasticMedium:
    """Medium whose absorption coefficient carries a Gaussian fluctuation.

    Along a sampled path the coefficient is sigma_a * (1 + alpha * G(z));
    its ensemble mean is sigma_a and its standard deviation
    alpha * sigma_a * sqrt(C).  Gaussian tails make it negative at a plane
    with probability Phi(-1 / (alpha * sqrt(C))); such values are kept
    as-is, since clamping would bias the moments, and the ensemble runner
    reports their frequency.
    """

    medium: MediumSpec
    kernel: CorrelationKernel


def abs_moment(amplitude: float, order: int) -> float:
    """Absolute field moment 0.5 * (C^(l/2) + (-1)^l * C^(l/2)).

    Evaluates to C^(l/2) for even orders and 0 for odd orders; order 0 is
    the empty product, 1.
    """
    if order != int(order) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order}")
    order = int(order)
    half_power = amplitude ** (order / 2)
    return 0.5 * (half_power + (-1) ** order * half_power)


@dataclass(frozen=True)
class MfpSeries:
    """Partial sums of the averaged mean-free-path expansion."""

    shift: float
    terms: tuple
    converged: bool
    mean_free_path: float


def mfp_series(sm: StochasticMedium) -> MfpSeries:
    """Binomial expansion of the averaged reciprocal coefficient.

    The shift S sums ``binom(-1, Q) * |R|^Q`` for Q = 1..20 with
    ``R = alpha * abs_moment(C, Q)^(1/Q)`` and ``binom(-1, Q) = (-1)^Q``;
    the averaged mean free path is then ``(1 + S) / sigma_a``.  Only even
    orders contribute, so S is a geometric series in (alpha^2 * C).

    Raises DivergentSeries as soon as any R >= 1: the fluctuations are
    too large for the expansion.  ``converged`` reports whether the last
    computed term fell below 1e-12 relative to 1 + |S|.
    """
    alpha = sm.medium.alpha
    amplitude = sm.kernel.amplitude
    terms = []
    shift = 0.0
    for q in range(1, _MFP_ORDER + 1):
        ratio = alpha * abs_moment(amplitude, q) ** (1.0 / q)
        if ratio >= 1.0:
            raise DivergentSeries(
                f"R(alpha, C, Q={q}) = {ratio:.6g} >= 1; "
                "the mean-free-path series diverges"
            )
        term = (-1.0) ** q * abs(ratio) ** q
        terms.append(term)
        shift += term
    converged = abs(terms[-1]) < _CONVERGENCE_CUT * (1.0 + abs(shift))
    if sm.medium.sigma_a > 0:
        mean_free_path = (1.0 + shift) / sm.medium.sigma_a
    else:
        mean_free_path = math.inf
    return MfpSeries(shift, tuple(terms), converged, mean_free_path)

