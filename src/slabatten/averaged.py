"""Closed-form cumulant-averaged attenuation for the smooth kernel.

Averaging the exact pathwise solution over field realizations multiplies
Beer's decay by a boost factor ``exp(gain * alpha^2 * sigma_a^2 * C * Y(z))``
built from the ordered covariance double integral C * Y(z) (``outer_y``),
whose derivative C * W(z) (``theta``) is the drift.  Both take
``(kernel, z)``, as their quadrature twins do, and have error-function
closed forms when kappa = 2, evaluated with ``math.erf`` so the package
needs no scipy.  Two gains are implemented behind ExponentConvention: 1
(EXACT, the lognormal identity E<e^X> = e^{Var(X)/2} applied to the
ordered integral, which counts each unordered pair once) and 1/2
(PAPER_HALF, the halved-exponent variant kept selectable for comparison).
EXACT is the default; the Monte Carlo engine adjudicates between them.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .grf import CorrelationKernel, checked_depths
from .medium import MediumSpec, squared
from .quadrature import ordered_double_integral

_SQRT_PI = math.sqrt(math.pi)


def _erf(x):
    """``math.erf`` elementwise, keeping the shape of ``x``.

    The closed forms evaluate at most a few hundred depths per call, so a
    scalar loop costs microseconds and keeps scipy off the import path.  A
    scalar ``x`` (one depth per call, as in a depth sweep) skips the array
    round trip, which costs about 20 times the erf itself.
    """
    if isinstance(x, float):
        return math.erf(x)
    return np.fromiter(map(math.erf, x.ravel()), float, x.size).reshape(x.shape)


class ExponentConvention(enum.Enum):
    """Coefficient applied to the ordered variance integral in the boost."""

    PAPER_HALF = "paper"
    EXACT = "exact"

    @property
    def gain(self) -> float:
        return 0.5 if self is ExponentConvention.PAPER_HALF else 1.0


def _require_squared_exponential(kernel: CorrelationKernel) -> None:
    if kernel.exponent != 2:
        raise ValueError(
            f"closed form requires kappa = 2, got kappa = {kernel.exponent}"
        )


def theta(kernel: CorrelationKernel, z):
    """Drift integral theta(z) = C * W(z), W(z) = int_0^z exp(-u^2/zeta^2) du.

    Closed form C * (sqrt(pi)/2) * zeta * erf(z/zeta), erf from
    ``math.erf`` elementwise: zero at z = 0 and saturating at
    C * (sqrt(pi)/2) * zeta once z >> zeta.  A scalar depth gives a float.
    """
    _require_squared_exponential(kernel)
    zeta = kernel.correlation_length
    z = checked_depths(z)
    return kernel.amplitude * (0.5 * _SQRT_PI * zeta * _erf(z / zeta))


def _unit_outer_y(kernel: CorrelationKernel, z):
    """Y(z) of ``outer_y``: its value at amplitude C = 1."""
    _require_squared_exponential(kernel)
    zeta = kernel.correlation_length
    z = checked_depths(z)
    u = z / zeta
    # u * u, not u**2: a scalar's ** is libm pow, which differs from the
    # array square in the last bit for about 1 in 1 300 depths.  expm1, not
    # exp - 1, which cancels for z << zeta.
    return 0.5 * zeta * (_SQRT_PI * z * _erf(u) + zeta * np.expm1(-(u * u)))


def outer_y(kernel: CorrelationKernel, z):
    """Ordered covariance integral C * Y(z), Y(z) = int_0^z W(z1) dz1, in
    closed form: the erf twin of ``ordered_double_integral(kernel, z)``.

    Y(z) = (zeta/2) * [sqrt(pi)*z*erf(z/zeta) + zeta*(exp(-z^2/zeta^2) - 1)],
    erf from ``math.erf`` elementwise, nondecreasing with Y(0) = 0 and the
    large-z asymptote (zeta/2)*(sqrt(pi)*z - zeta).  Units cm^2.  A scalar
    depth gives a float.
    """
    return kernel.amplitude * _unit_outer_y(kernel, z)


@dataclass(frozen=True)
class AveragedLaw:
    """Closed-form averaged intensity evaluator (kappa = 2 only; any other
    kernel raises ValueError)."""

    medium: MediumSpec
    kernel: CorrelationKernel
    convention: ExponentConvention = ExponentConvention.EXACT

    def __post_init__(self) -> None:
        _require_squared_exponential(self.kernel)


def averaged_intensity(law: AveragedLaw, z):
    """Mean intensity I0 * exp(gain alpha^2 sigma_a^2 C Y(z) - sigma_a z).

    Beer's decay times a boost that is 1 at z = 0 and grows with z,
    formed in one exp: deep in the slab Beer's factor underflows and the
    boost overflows where the mean itself is finite.  The gain takes C before
    Y(z), and at alpha = 0 no Y(z) is formed, so neither a C Y(z) nor a Y(z)
    past the float range reads as an overflow (0 * inf): the law is exactly
    Beer's at alpha = 0, and the incident intensity at z = 0.
    """
    m = law.medium
    z = checked_depths(z)
    gain = law.convention.gain * squared(m.alpha, m.sigma_a) * law.kernel.amplitude
    boost = gain * _unit_outer_y(law.kernel, z) if gain else 0.0
    return m.i0 * np.exp(boost - m.sigma_a * z)


def cumulant_series_exponent(
    kernel: CorrelationKernel, alpha: float, sigma_a: float, z: float
) -> float:
    """Cumulant exponent of the averaged law, evaluated by quadrature.

    The series stops at order 2, and exactly: the order-1 term vanishes
    (the field is zero-mean) and a Gaussian field has no nonzero
    cumulants beyond order 2.  The order-2 term is alpha^2 sigma_a^2
    times the ordered double integral of the covariance, the EXACT gain,
    computed by the panelized lag-form rule (``int_0^z (z - u) phi(u)
    du``) so it can cross-check the erf closed form.
    """
    return squared(alpha, sigma_a) * ordered_double_integral(kernel, z)
