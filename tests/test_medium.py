"""The slab medium: its parameters, Beer's decay and the fluctuating
coefficient."""

import math
import warnings

import numpy as np
import pytest

from slabatten import (
    CorrelationKernel,
    FieldSampler,
    Grid,
    MediumSpec,
    OutOfDomain,
    StochasticMedium,
    beer,
    path_intensity_em,
)

from path_check import drawn_block


class TestMediumSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma_a=-0.1),
            dict(sigma_a=1.0, alpha=-0.5),
            dict(sigma_a=1.0, i0=0.0),
            dict(sigma_a=1.0, i0=-3.0),
            dict(sigma_a=math.nan),
            dict(sigma_a=1.0, alpha=math.nan),
            dict(sigma_a=math.inf),
            dict(sigma_a=1.0, alpha=math.inf),
            dict(sigma_a=1.0, i0=math.inf),
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

    @pytest.mark.parametrize("alpha", [0.8, 1.0, 1.2, 5.0])
    def test_small_fluctuation_quiet(self, alpha):
        # the field is Gaussian, so the averaged law holds at any alpha
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = MediumSpec(sigma_a=1.0, alpha=alpha)
        assert m.alpha == alpha


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
        for z in (-0.5, math.nan, [1.0, math.nan]):
            with pytest.raises(OutOfDomain):
                beer(MediumSpec(sigma_a=1.0), z)

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
        null = np.zeros(21)
        for seed in (1, 2, 3):
            path = drawn_block(sampler, seed, 0, 1)
            for z in (0.0, 0.5, 1.234, 2.0):
                assert path_intensity_em(sm.medium, grid, path, z) == path_intensity_em(
                    sm.medium, grid, null, z
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
            block = drawn_block(sampler, 77, chunk, count)
            a1[start : start + count] = m.sigma_a * (1.0 + m.alpha * block[:, z1_idx])
            a2[start : start + count] = m.sigma_a * (1.0 + m.alpha * block[:, z2_idx])

        sem = a1.std(ddof=1) / math.sqrt(n)
        assert abs(a1.mean() - m.sigma_a) < 3.0 * sem

        product = a1 * a2
        expected = m.sigma_a**2 + m.alpha**2 * m.sigma_a**2 * kernel.evaluate(z1, z2)
        sem_prod = product.std(ddof=1) / math.sqrt(n)
        assert abs(product.mean() - expected) < 3.0 * sem_prod

