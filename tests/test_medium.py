"""The slab medium: its parameters, Beer's decay, the fluctuating
coefficient, its moments and the MFP series."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabatten import (
    CorrelationKernel,
    DivergentSeries,
    FieldPath,
    FieldSampler,
    FluctuationWarning,
    Grid,
    MediumSpec,
    NegativeDepth,
    StochasticMedium,
    abs_moment,
    beer,
    mfp_series,
    path_intensity_em,
)


def _block(sampler, seed, chunk, count):
    """Ensemble block ``chunk`` of master seed ``seed``: its tiles' rows."""
    return np.concatenate(list(sampler.tiles(seed, chunk, count)))


class TestMediumSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma_a=-0.1),
            dict(sigma_a=1.0, alpha=-0.5),
            dict(sigma_a=1.0, i0=0.0),
            dict(sigma_a=1.0, i0=-3.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MediumSpec(**kwargs)

    def test_fields_after_sigma_a_are_keyword_only(self):
        # the old positional order (sigma_a, sigma_s, alpha) must not
        # silently put the scattering slot into alpha
        with pytest.raises(TypeError):
            MediumSpec(1.0, 0.0, 0.8)

    def test_large_fluctuation_warns_but_constructs(self):
        with pytest.warns(FluctuationWarning):
            m = MediumSpec(sigma_a=1.0, alpha=1.2)
        assert m.alpha == 1.2

    def test_fluctuation_warning_points_at_the_caller(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            MediumSpec(sigma_a=1.0, alpha=1.2)
        [w] = caught
        assert w.category is FluctuationWarning
        assert w.filename == __file__

    def test_small_fluctuation_quiet(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            MediumSpec(sigma_a=1.0, alpha=0.8)


class TestBeer:
    def test_boundary_value(self):
        assert beer(MediumSpec(sigma_a=1.0, i0=10.0), 0.0) == 10.0

    def test_unit_depth(self):
        m = MediumSpec(sigma_a=1.0, i0=10.0)
        assert beer(m, 1.0) == pytest.approx(10.0 * math.exp(-1.0), rel=1e-15)

    def test_transparent_medium(self):
        assert beer(MediumSpec(sigma_a=0.0, i0=10.0), 5.0) == 10.0

    def test_strictly_decreasing(self):
        m = MediumSpec(sigma_a=0.7, i0=2.0)
        vals = beer(m, np.linspace(0.0, 10.0, 200))
        assert np.all(np.diff(vals) < 0)

    def test_negative_depth_rejected(self):
        with pytest.raises(NegativeDepth):
            beer(MediumSpec(sigma_a=1.0), -0.5)

    def test_scalar_depth_gives_a_float_and_arrays_keep_their_shape(self):
        m = MediumSpec(sigma_a=0.7, i0=2.0)
        assert isinstance(beer(m, 1.5), float)
        assert beer(m, np.zeros((2, 3))).shape == (2, 3)


def _medium(alpha=0.3, sigma_a=1.0, amplitude=1.0, zeta=1.0):
    return StochasticMedium(
        MediumSpec(sigma_a=sigma_a, alpha=alpha),
        CorrelationKernel(amplitude, zeta, 2.0),
    )


class TestAbsorptionAt:
    """The pathwise coefficient sigma_a * (1 + alpha * G(z))."""

    def test_deterministic_limit(self):
        # without fluctuations every sampled path steps with sigma_a
        # exactly, so its Euler intensity equals that of a null path
        sm = _medium(alpha=0.0)
        grid = Grid(2.0, 21)
        sampler = FieldSampler(sm.kernel, grid)
        null = FieldPath.from_values(grid, np.zeros(21))
        for seed in (1, 2, 3):
            path = FieldPath.from_values(grid, _block(sampler, seed, 0, 1))
            for z in (0.0, 0.5, 1.234, 2.0):
                assert path_intensity_em(sm.medium, path, z) == path_intensity_em(
                    sm.medium, null, z
                )

    def test_ensemble_mean_and_two_point_moment(self):
        # first and second moments of the coefficient across 1e5 paths
        sm = _medium(alpha=0.3)
        m, kernel = sm.medium, sm.kernel
        grid = Grid(2.0, 21)
        sampler = FieldSampler(kernel, grid)
        z1_idx, z2_idx = 5, 15
        z1, z2 = grid.points[z1_idx], grid.points[z2_idx]

        n = 100_000
        a1 = np.empty(n)
        a2 = np.empty(n)
        for chunk, start in enumerate(range(0, n, 8192)):
            count = min(8192, n - start)
            block = _block(sampler, 77, chunk, count)
            a1[start : start + count] = m.sigma_a * (1.0 + m.alpha * block[:, z1_idx])
            a2[start : start + count] = m.sigma_a * (1.0 + m.alpha * block[:, z2_idx])

        sem = a1.std(ddof=1) / math.sqrt(n)
        assert abs(a1.mean() - m.sigma_a) < 3.0 * sem

        product = a1 * a2
        expected = m.sigma_a**2 + m.alpha**2 * m.sigma_a**2 * kernel.evaluate(z1, z2)
        sem_prod = product.std(ddof=1) / math.sqrt(n)
        assert abs(product.mean() - expected) < 3.0 * sem_prod


class TestAbsMoment:
    def test_odd_order_vanishes(self):
        assert abs_moment(1.0, 3) == 0.0

    def test_even_order(self):
        assert abs_moment(4.0, 2) == 4.0

    def test_zeroth_order_is_one(self):
        assert abs_moment(1.0, 0) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        amplitude=st.floats(min_value=0.01, max_value=100.0),
        order=st.integers(min_value=0, max_value=30),
    )
    def test_parity_property(self, amplitude, order):
        value = abs_moment(amplitude, order)
        if order % 2:
            assert value == 0.0
        else:
            assert value == pytest.approx(amplitude ** (order / 2), rel=1e-12)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            abs_moment(1.0, -1)


def _direct_series_oracle(alpha, amplitude, max_order):
    """Hand-rolled partial sum straight from the printed series: kept
    deliberately separate from the library implementation."""
    shift = 0.0
    for q in range(1, max_order + 1):
        bracket = 0.5 * (amplitude ** (q / 2) + (-1) ** q * amplitude ** (q / 2))
        r = alpha * bracket ** (1.0 / q)
        shift += (-1) ** q * abs(r) ** q
    return shift


class TestMfpSeries:
    def test_no_fluctuations(self):
        result = mfp_series(_medium(alpha=0.0, sigma_a=2.0))
        assert result.shift == 0.0
        assert result.mean_free_path == 0.5
        assert result.converged

    def test_matches_direct_partial_sum_to_14_digits(self):
        sm = _medium(alpha=0.1, amplitude=1.0)
        result = mfp_series(sm)
        oracle = _direct_series_oracle(0.1, 1.0, 20)
        assert result.shift == pytest.approx(oracle, rel=1e-14)
        assert result.mean_free_path == pytest.approx(1.0 + oracle, rel=1e-14)

    def test_terms_structure(self):
        result = mfp_series(_medium(alpha=0.2, amplitude=1.0))
        assert len(result.terms) == 20
        assert all(t == 0.0 for t in result.terms[::2])  # odd orders Q=1,3,...
        assert all(t > 0.0 for t in result.terms[1::2])  # even orders

    def test_divergence_raised(self):
        with pytest.warns(Warning):
            sm = _medium(alpha=1.5, amplitude=1.0)
        with pytest.raises(DivergentSeries):
            mfp_series(sm)

    def test_divergence_at_unit_ratio(self):
        with pytest.warns(Warning):
            sm = _medium(alpha=1.0, amplitude=1.0)
        with pytest.raises(DivergentSeries):
            mfp_series(sm)

    def test_converged_flag(self):
        assert mfp_series(_medium(alpha=0.1)).converged
        # the 20th term at alpha = 0.9 is 0.9**20 = 0.12
        assert not mfp_series(_medium(alpha=0.9)).converged

