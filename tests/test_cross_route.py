"""One randomized check of the routes against each other over the valid domain.

Hand-picked sweeps miss what random draws find at once: a cancellation at
zeta = 1e8, or a quadrature that drifts at z/zeta near 1e9.  The draws come
from a fixed seed, so the test is deterministic.
"""

import math

import numpy as np
import pytest

from slabatten import (
    AveragedLaw,
    CorrelationKernel,
    MediumSpec,
    StochasticMedium,
    averaged_intensity,
    lognormal_oracle,
    ordered_double_integral,
    outer_y,
    square_double_integral,
)
from slabatten.cli import _decay_rate_limit

N_DRAWS = 450

# square / (2 ordered) - 1.  Both routes are exact to rounding for kappa 1
# and 2 (2e-15 seen).  For other kappa the square route leaves u**kappa
# unresolved at its lag-0 corners, up to 7.1e-8 near kappa 1.2.
SQUARE_REL = {"integer": 1e-13, "fractional": 1e-7}
# outer_y / ordered - 1 at kappa 2: both at rounding (1.2e-15 seen).
CLOSED_REL = 1e-13
# oracle / closed - 1 at kappa 2: the exponent reaches a few hundred, and
# exp turns its rounding into a relative error that large (1.4e-14 seen).
ORACLE_REL = 1e-12
# slope / (C zeta Gamma(1 + 1/kappa)) - 1 past the support (3.1e-15 seen),
# and the decay rate against the slope, relative to sigma_a + the drop.
SLOPE_REL = 1e-12


def _draws():
    """kappa in [1, 2] (a third each at 1, at 2 and uniform between), zeta
    log-uniform in [1e-6, 1e8], C log-uniform in [1e-3, 1e2], z log-uniform
    in [1e-8, 1e4].  alpha below 1 and an optical depth sigma_a z of at
    most 3 keep the exponent below about 400, so the mean is finite."""
    rng = np.random.default_rng(20261018)
    for i in range(N_DRAWS):
        kappa = (1.0, 2.0, rng.uniform(1.0, 2.0))[i % 3]
        zeta = 10 ** rng.uniform(-6.0, 8.0)
        amplitude = 10 ** rng.uniform(-3.0, 2.0)
        z = 10 ** rng.uniform(-8.0, 4.0)
        alpha = rng.uniform(0.0, 0.95)
        sigma_a = 10 ** rng.uniform(-3.0, math.log10(3.0)) / z
        yield kappa, zeta, amplitude, z, alpha, sigma_a


@pytest.mark.filterwarnings("error")
def test_the_routes_agree_over_the_valid_domain():
    for draw in _draws():
        kappa, zeta, amplitude, z, alpha, sigma_a = draw
        kernel = CorrelationKernel(amplitude, zeta, kappa)
        ordered = ordered_double_integral(kernel, z)
        square = square_double_integral(kernel, z)
        assert math.isfinite(ordered) and ordered > 0, draw
        kind = "integer" if kappa in (1.0, 2.0) else "fractional"
        assert abs(square / (2.0 * ordered) - 1.0) <= SQUARE_REL[kind], draw
        if kappa == 2.0:
            assert abs(outer_y(kernel, z) / ordered - 1.0) <= CLOSED_REL, draw
            medium = MediumSpec(sigma_a, alpha=alpha, i0=1.0)
            closed = averaged_intensity(AveragedLaw(medium, kernel), z)
            oracle = lognormal_oracle(StochasticMedium(medium, kernel), z)
            assert math.isfinite(closed) and closed > 0, draw
            assert abs(oracle / closed - 1.0) <= ORACLE_REL, draw


@pytest.mark.filterwarnings("error")
def test_the_decay_rate_is_the_ordered_slope_past_the_support():
    # Past the support U = zeta 40^(1/kappa) the ordered integral grows
    # linearly, at the kernel's whole integral C zeta Gamma(1 + 1/kappa).
    for draw in _draws():
        kappa, zeta, amplitude, _, alpha, sigma_a = draw
        kernel = CorrelationKernel(amplitude, zeta, kappa)
        z1 = 2.0 * zeta * 40.0 ** (1.0 / kappa)
        z2 = 2.0 * z1
        rise = ordered_double_integral(kernel, z2) - ordered_double_integral(kernel, z1)
        slope = rise / (z2 - z1)
        tail = amplitude * zeta * math.gamma(1.0 + 1.0 / kappa)
        assert abs(slope / tail - 1.0) <= SLOPE_REL, draw
        rate = _decay_rate_limit(MediumSpec(sigma_a, alpha=alpha), kernel)
        drop = alpha**2 * sigma_a**2 * slope
        assert abs(rate - (sigma_a - drop)) <= SLOPE_REL * (sigma_a + drop), draw
