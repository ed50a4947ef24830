"""Closed-form averaged law: erf pieces, the averaged intensity, ODE residual."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special

from slabatten import (
    AveragedLaw,
    CorrelationKernel,
    ExponentConvention,
    MediumSpec,
    OutOfDomain,
    StochasticMedium,
    averaged_intensity,
    beer,
    cumulant_series_exponent,
    lognormal_oracle,
    outer_y,
    theta,
)

from ode_check import ode_residual

SQRT_PI = math.sqrt(math.pi)

# Frozen oracle values (adaptive quadrature / nested trapezoid, rechecked
# by the in-test oracles below).
W_1_1 = 0.746824132812427
Y_1_1 = 0.430763853398148
PAPER_HALF_EXAMPLE = 4.222509105331  # I0=10, sigma=1, C=1, zeta=1, alpha=0.8, z=1
EXACT_EXAMPLE = 4.846583187098


def _kernel(amplitude=1.0, zeta=1.0):
    return CorrelationKernel(amplitude, zeta, 2.0)


def _law(alpha=0.8, sigma_a=1.0, i0=10.0, amplitude=1.0, zeta=1.0,
         convention=ExponentConvention.EXACT):
    return AveragedLaw(
        MediumSpec(sigma_a=sigma_a, alpha=alpha, i0=i0),
        _kernel(amplitude, zeta),
        convention,
    )


def _ordered_trapezoid(zeta, z, n=4001):
    """Nested composite-trapezoid oracle for the ordered double integral."""
    z1 = np.linspace(0.0, z, n)
    inner = np.empty(n)
    for i, x in enumerate(z1):
        z2 = np.linspace(0.0, x, n)
        inner[i] = np.trapezoid(np.exp(-(((x - z2) / zeta) ** 2)), z2)
    return float(np.trapezoid(inner, z1))


class TestInnerW:
    """The inner integral W(z) = int_0^z exp(-u^2/zeta^2) du, read as
    theta / C away from unit amplitude."""

    C = 2.5

    def _w(self, zeta, z):
        return theta(_kernel(self.C, zeta), z) / self.C

    def test_zero_at_origin(self):
        assert self._w(1.0, 0.0) == 0.0

    def test_saturates_far_from_the_boundary(self):
        zeta = 0.7
        assert self._w(zeta, 100.0 * zeta) == pytest.approx(
            0.5 * SQRT_PI * zeta, abs=1e-12
        )

    def test_against_adaptive_quadrature(self):
        oracle, err = integrate.quad(lambda u: math.exp(-((1.0 - u) ** 2)), 0.0, 1.0)
        assert err < 1e-10
        assert self._w(1.0, 1.0) == pytest.approx(oracle, abs=1e-6)
        assert self._w(1.0, 1.0) == pytest.approx(W_1_1, rel=1e-12)

    def test_negative_argument_rejected(self):
        with pytest.raises(OutOfDomain):
            self._w(1.0, -0.1)


class TestOuterY:
    def test_zero_at_origin(self):
        assert outer_y(_kernel(), 0.0) == 0.0

    def test_against_nested_trapezoid(self):
        got = outer_y(_kernel(), 1.0)
        assert got == pytest.approx(_ordered_trapezoid(1.0, 1.0), abs=1e-6)
        assert got == pytest.approx(Y_1_1, rel=1e-12)

    def test_scales_with_the_amplitude(self):
        got = outer_y(_kernel(amplitude=2.5), 1.0)
        assert got == pytest.approx(2.5 * Y_1_1, rel=1e-12)

    def test_large_depth_asymptote(self):
        zeta, z = 1.0, 50.0
        asymptote = 0.5 * zeta * (SQRT_PI * z - zeta)
        assert outer_y(_kernel(zeta=zeta), z) == pytest.approx(asymptote, rel=1e-9)

    def test_nondecreasing(self):
        z = np.linspace(0.0, 8.0, 300)
        vals = outer_y(_kernel(zeta=0.6), z)
        assert np.all(np.diff(vals) >= 0)


class TestScipyParity:
    """``math.erf`` against the ``scipy.special.erf`` expressions the closed
    forms were first written with."""

    ZETAS = [0.01, 0.25, 1.0, 7.0]
    # z = 0, tiny u = z/zeta down to the subnormal range, and far tails.
    DEPTHS = np.array([0.0, 5e-324, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0,
                       2.0, 5.0, 10.0, 60.0])

    @staticmethod
    def _scipy_theta(zeta, z):
        return 0.5 * SQRT_PI * zeta * special.erf(z / zeta)

    @staticmethod
    def _scipy_outer_y(zeta, z):
        u = z / zeta
        expm1 = special.expm1(-(u**2))
        return 0.5 * zeta * (SQRT_PI * z * special.erf(u) + zeta * expm1)

    PAIRS = ((theta, _scipy_theta), (outer_y, _scipy_outer_y))

    @pytest.mark.parametrize("zeta", ZETAS)
    def test_grid(self, zeta):
        for f, ref in self.PAIRS:
            np.testing.assert_allclose(
                f(_kernel(zeta=zeta), self.DEPTHS), ref(zeta, self.DEPTHS),
                rtol=1e-13, atol=0.0,
            )

    @pytest.mark.parametrize("zeta", ZETAS)
    def test_small_u_against_the_taylor_series(self, zeta):
        # Y = z^2 (1/2 - u^2/12 + u^4/60 - ...): exp(-u^2) - 1 would cancel
        # here, off by 2e-5 at u = 1e-6 and by a factor 2 below u = 1e-8.
        u = np.array([1e-3, 1e-4, 1e-6, 1e-9, 1e-12])
        z = zeta * u
        series = z * z * (0.5 - u * u / 12.0 + u**4 / 60.0)
        np.testing.assert_allclose(outer_y(_kernel(zeta=zeta), z), series, rtol=1e-13)

    def test_zero_d_input_gives_a_float(self):
        z = np.array(0.7)
        k = _kernel(zeta=0.3)
        for f, ref in self.PAIRS:
            assert isinstance(f(k, z), float) and np.ndim(f(k, z)) == 0
            assert isinstance(f(k, 0.7), float)
            assert f(k, z) == pytest.approx(ref(0.3, z), rel=1e-13, abs=0.0)

    def test_two_d_input_keeps_its_shape(self):
        z = self.DEPTHS[1:].reshape(3, 4)
        for f, ref in self.PAIRS:
            got = f(_kernel(zeta=0.25), z)
            assert got.shape == (3, 4)
            np.testing.assert_allclose(got, ref(0.25, z), rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("f", [theta, outer_y])
    def test_negative_depth_rejected(self, f):
        for bad in (-1e-300, math.nan):
            with pytest.raises(OutOfDomain):
                f(_kernel(), np.array([[0.5, 1.0], [bad, 2.0]]))
            with pytest.raises(OutOfDomain):
                f(_kernel(), bad)


class TestScalarArrayParity:
    """A depth passed alone gives the same bits as inside an array: the
    scalar fast paths run the same arithmetic on the same libm calls."""

    _rng = np.random.default_rng(20261018)
    DEPTHS = np.concatenate(
        [_rng.uniform(0.0, 10.0, 500), 10.0 ** _rng.uniform(-6.0, 1.5, 500)]
    )

    @pytest.mark.parametrize(
        "f",
        [
            lambda z: beer(MediumSpec(sigma_a=0.7, i0=2.0), z),
            lambda z: theta(_kernel(2.5, 0.3), z),
            lambda z: outer_y(_kernel(2.5, 0.3), z),
            lambda z: averaged_intensity(_law(zeta=0.3), z),
            lambda z: averaged_intensity(
                _law(zeta=2.0, convention=ExponentConvention.PAPER_HALF), z
            ),
        ],
        ids=["beer", "theta", "outer_y", "averaged_exact", "averaged_paper"],
    )
    def test_scalar_depth_matches_its_array_entry(self, f):
        together = f(self.DEPTHS)
        alone = np.array([f(float(z)) for z in self.DEPTHS])
        np.testing.assert_array_equal(alone, together)
        # numpy scalars take the same path as Python floats
        assert f(self.DEPTHS[7]) == together[7]


class TestTheta:
    def test_zero_at_origin(self):
        assert theta(_kernel(), 0.0) == 0.0

    def test_unit_value(self):
        assert theta(_kernel(), 1.0) == pytest.approx(W_1_1, rel=1e-12)

    def test_saturation_limit(self):
        k = _kernel(amplitude=2.0, zeta=0.5)
        assert theta(k, 100.0) == pytest.approx(2.0 * 0.5 * SQRT_PI * 0.5, rel=1e-12)

    def test_nondecreasing(self):
        vals = theta(_kernel(), np.linspace(0.0, 10.0, 400))
        assert np.all(np.diff(vals) >= 0)

    def test_requires_squared_exponential(self):
        with pytest.raises(ValueError, match="closed form requires kappa = 2"):
            theta(CorrelationKernel(1.0, 1.0, 1.0), 1.0)


class TestAveragedIntensity:
    def test_no_fluctuations_recovers_beer_exactly(self):
        z = np.linspace(0.0, 5.0, 64)
        for convention in ExponentConvention:
            law = _law(alpha=0.0, convention=convention)
            assert np.array_equal(averaged_intensity(law, z), beer(law.medium, z))

    def test_boundary_value_is_incident_intensity(self):
        for convention in ExponentConvention:
            assert averaged_intensity(_law(convention=convention), 0.0) == 10.0

    def test_paper_half_example(self):
        law = _law(convention=ExponentConvention.PAPER_HALF)
        assert averaged_intensity(law, 1.0) == pytest.approx(
            PAPER_HALF_EXAMPLE, rel=1e-11
        )

    def test_exact_example(self):
        law = _law(convention=ExponentConvention.EXACT)
        assert averaged_intensity(law, 1.0) == pytest.approx(EXACT_EXAMPLE, rel=1e-11)

    def test_composition_from_frozen_pieces(self):
        # the boost exponent is gain * alpha^2 * sigma^2 * C * Y(z)
        expected_half = 10.0 * math.exp(-1.0) * math.exp(0.5 * 0.64 * Y_1_1)
        expected_exact = 10.0 * math.exp(-1.0) * math.exp(0.64 * Y_1_1)
        assert PAPER_HALF_EXAMPLE == pytest.approx(expected_half, rel=1e-11)
        assert EXACT_EXAMPLE == pytest.approx(expected_exact, rel=1e-11)

    def test_convention_ordering(self):
        z = np.linspace(0.01, 8.0, 100)
        exact = averaged_intensity(_law(convention=ExponentConvention.EXACT), z)
        half = averaged_intensity(_law(convention=ExponentConvention.PAPER_HALF), z)
        base = beer(MediumSpec(sigma_a=1.0, alpha=0.8, i0=10.0), z)
        assert np.all(exact > half)
        assert np.all(half > base)

    def test_boost_bounds(self):
        law = _law()
        z = np.linspace(0.0, 10.0, 200)
        boost = averaged_intensity(law, z) / beer(law.medium, z)
        assert boost[0] == 1.0
        assert np.all(boost >= 1.0)
        assert np.all(np.diff(boost) >= 0)

    def test_white_noise_limit_recovers_beer(self):
        # boost exponent vanishes pointwise as the correlation length
        # shrinks
        gaps = []
        for zeta in (1e-2, 1e-3, 1e-4):
            law = _law(zeta=zeta)
            ratio = averaged_intensity(law, 3.0) / beer(law.medium, 3.0)
            gaps.append(ratio - 1.0)
        assert all(g > 0 for g in gaps)
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-3

    def test_requires_squared_exponential(self):
        with pytest.raises(ValueError, match="closed form requires kappa = 2"):
            AveragedLaw(MediumSpec(sigma_a=1.0), CorrelationKernel(1.0, 1.0, 1.0))

    def test_negative_depth_rejected(self):
        with pytest.raises(OutOfDomain):
            averaged_intensity(_law(), -0.5)

    def test_scalar_depth_gives_a_float(self):
        # numpy reduces 0-d input to a scalar, so no wrapper is needed
        value = averaged_intensity(_law(), 1.0)
        assert isinstance(value, float)
        assert value == averaged_intensity(_law(), np.array([1.0]))[0]

    @pytest.mark.parametrize("z", [700.0, 750.0, 800.0])
    def test_deep_in_the_slab_the_mean_stays_finite(self, z):
        # Beer's factor underflows near z = 745 and the boost overflows
        # near z = 710; their product is a finite mean, formed in one exp.
        medium = MediumSpec(sigma_a=1.0, alpha=0.8, i0=10.0)
        kernel = _kernel(zeta=1.7625)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = averaged_intensity(AveragedLaw(medium, kernel), z)
            oracle = lognormal_oracle(StochasticMedium(medium, kernel), z)
        assert math.isfinite(closed) and math.isfinite(oracle)
        assert closed == pytest.approx(oracle, rel=1e-9)

    def test_oracle_agrees_a_hundred_thousand_correlation_lengths_deep(self):
        # z / zeta = 1e5: the boost is exp(0.0142) on Beer's exp(-50), so a
        # square-route error of 1e-10 would show as 1.4e-12
        medium = MediumSpec(sigma_a=0.5, alpha=0.8, i0=10.0)
        kernel = _kernel(zeta=1e-3)
        closed = averaged_intensity(AveragedLaw(medium, kernel), 100.0)
        oracle = lognormal_oracle(StochasticMedium(medium, kernel), 100.0)
        assert oracle == pytest.approx(closed, rel=1e-12, abs=0.0)


class TestOdeResidual:
    def test_pure_beer_decay(self):
        law = _law(alpha=0.0)
        assert ode_residual(law, 2.0, 1e-4) < 1e-7

    @pytest.mark.parametrize("convention", list(ExponentConvention))
    def test_closed_form_satisfies_its_ode(self, convention):
        law = _law(alpha=0.5, convention=convention)
        assert ode_residual(law, 2.0, 1e-4) <= 1e-6

    def test_second_order_in_step(self):
        law = _law(alpha=0.5, convention=ExponentConvention.PAPER_HALF)
        coarse = ode_residual(law, 2.0, 4e-3)
        fine = ode_residual(law, 2.0, 2e-3)
        assert coarse / fine == pytest.approx(4.0, rel=0.2)

    def test_degenerate_step_rejected(self):
        with pytest.raises(ValueError, match="1e-12 z"):
            ode_residual(_law(), 1.0, 1e-13)

    def test_step_larger_than_depth_rejected(self):
        with pytest.raises(ValueError):
            ode_residual(_law(), 1e-5, 1e-4)


class TestCumulantSeriesExponent:
    @pytest.mark.parametrize("z", [-0.5, math.nan])
    def test_negative_depth_rejected(self, z):
        with pytest.raises(OutOfDomain):
            cumulant_series_exponent(_kernel(), 1.0, 1.0, z)

    def test_second_order_against_trapezoid_oracle(self):
        got = cumulant_series_exponent(_kernel(), 1.0, 1.0, 1.0)
        assert got == pytest.approx(_ordered_trapezoid(1.0, 1.0), abs=1e-6)

    def test_second_order_matches_closed_form(self):
        got = cumulant_series_exponent(_kernel(), 1.0, 1.0, 1.0)
        assert got == pytest.approx(Y_1_1, rel=1e-8)


class TestAsymptotics:
    def test_effective_attenuation_slope_far_from_the_boundary(self):
        # for z >> zeta the log-derivative settles at
        # -sigma + gain*alpha^2*sigma^2*C*(sqrt(pi)/2)*zeta
        zeta, h = 1.0, 1e-5
        for convention in ExponentConvention:
            law = _law(alpha=0.5, zeta=zeta, convention=convention)
            z = 50.0 * zeta
            slope = (
                math.log(averaged_intensity(law, z + h))
                - math.log(averaged_intensity(law, z - h))
            ) / (2.0 * h)
            expected = -1.0 + convention.gain * 0.25 * 0.5 * SQRT_PI * zeta
            assert slope == pytest.approx(expected, rel=1e-6)
