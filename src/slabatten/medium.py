"""The randomly fluctuating absorption coefficient and its moment series."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .attenuation import MediumSpec
from .errors import DivergentSeries
from .grf import CorrelationKernel

# A trailing term this small relative to the accumulated sum counts as
# converged.
_CONVERGENCE_CUT = 1e-12


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

    @property
    def fluctuation_std(self) -> float:
        return self.medium.alpha * self.medium.sigma_a * math.sqrt(self.kernel.amplitude)


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


def mfp_series(sm: StochasticMedium, max_order: int = 20) -> MfpSeries:
    """Binomial expansion of the averaged reciprocal coefficient.

    The shift S sums ``binom(-1, Q) * |R|^Q`` for Q = 1..max_order with
    ``R = alpha * abs_moment(C, Q)^(1/Q)`` and ``binom(-1, Q) = (-1)^Q``;
    the averaged mean free path is then ``(1 + S) / sigma_a``.  Only even
    orders contribute, so S is a geometric series in (alpha^2 * C).

    Raises DivergentSeries as soon as any R >= 1: the fluctuations are
    too large for the expansion.  ``converged`` reports whether the last
    computed term fell below 1e-12 relative to 1 + |S|.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    alpha = sm.medium.alpha
    amplitude = sm.kernel.amplitude
    terms = []
    shift = 0.0
    for q in range(1, max_order + 1):
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

