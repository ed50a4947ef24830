"""Ensemble runner, pathwise solutions, and the lognormal oracle."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from slabatten import (
    CorrelationKernel,
    MemoryBudgetExceeded,
    ExponentConvention,
    FieldSampler,
    Grid,
    MediumSpec,
    OutOfDomain,
    ReliabilityWarning,
    StochasticMedium,
    averaged_intensity,
    AveragedLaw,
    beer,
    default_depths,
    lognormal_oracle,
    path_intensity,
    path_intensity_em,
    grf,
    integral_at,
    montecarlo,
    run_ensemble,
)
from slabatten.grf import CHUNK_PATHS

LOGNORMAL_EXAMPLE = 4.846583187098  # I0=10, sigma=1, C=1, zeta=1, alpha=0.8, z=1


def _sm(alpha=0.1, sigma_a=1.0, i0=10.0, amplitude=1.0, zeta=1.0):
    return StochasticMedium(
        MediumSpec(sigma_a=sigma_a, alpha=alpha, i0=i0),
        CorrelationKernel(amplitude, zeta, 2.0),
    )


def _block(sampler, seed, chunk, count):
    """Ensemble block ``chunk`` of master seed ``seed``: its tiles' rows."""
    return np.concatenate(list(sampler.tiles(seed, chunk, count)))


def _path(kernel, grid, seed, rows=1):
    """Ensemble paths [0, rows) of master seed ``seed`` as a block."""
    return _block(FieldSampler(kernel, grid), seed, 0, rows)


class TestPathIntensity:
    def test_deterministic_limit_equals_beer(self):
        medium = MediumSpec(sigma_a=1.0, alpha=0.0, i0=10.0)
        grid = Grid(3.0, 31)
        path = _path(CorrelationKernel(1.0, 1.0, 2.0), grid, 5)
        for z in (0.0, 1.0, 2.5, 3.0):
            assert path_intensity(medium, grid, path, z) == beer(medium, z)

    def test_constant_path_shifts_the_coefficient(self):
        medium = MediumSpec(sigma_a=0.8, alpha=0.5, i0=2.0)
        grid = Grid(3.0, 31)
        c = -0.6
        path = np.full(31, c)
        for z in (0.5, 1.7, 3.0):
            expected = 2.0 * math.exp(-0.8 * (1.0 + 0.5 * c) * z)
            got = path_intensity(medium, grid, path, z)
            assert got == pytest.approx(expected, rel=1e-13)

    def test_boundary_value(self):
        medium = MediumSpec(sigma_a=1.0, alpha=0.4, i0=7.0)
        grid = Grid(2.0, 21)
        path = _path(CorrelationKernel(1.0, 1.0, 2.0), grid, 8)
        assert path_intensity(medium, grid, path, 0.0) == 7.0

    def test_out_of_domain(self):
        medium = MediumSpec(sigma_a=1.0)
        grid = Grid(2.0, 21)
        path = _path(CorrelationKernel(1.0, 1.0, 2.0), grid, 8)
        with pytest.raises(OutOfDomain):
            path_intensity(medium, grid, path, 2.1)

    def test_block_matches_rows_one_at_a_time(self):
        sm = _sm(alpha=0.3)
        grid = Grid(2.0, 41)
        block = _path(sm.kernel, grid, 21, rows=6)
        depths = np.array([0.0, 0.33, 1.0, 1.77, 2.0])
        integral = integral_at(grid, block, depths)
        nodes = integral_at(grid, block, grid.points)
        exact = path_intensity(sm.medium, grid, block, depths)
        euler = path_intensity_em(sm.medium, grid, block, 1.23)
        assert integral.shape == exact.shape == (6, 5) and euler.shape == (6,)
        for r in range(6):
            row = block[r]
            assert np.array_equal(integral_at(grid, row, grid.points), nodes[r])
            assert np.array_equal(integral_at(grid, row, depths), integral[r])
            assert np.array_equal(path_intensity(sm.medium, grid, row, depths), exact[r])
            assert path_intensity_em(sm.medium, grid, row, 1.23) == euler[r]


class TestPathIntensityEuler:
    def test_boundary_value(self):
        medium = MediumSpec(sigma_a=1.0, alpha=0.4, i0=7.0)
        grid = Grid(2.0, 21)
        path = _path(CorrelationKernel(1.0, 1.0, 2.0), grid, 8)
        assert path_intensity_em(medium, grid, path, 0.0) == 7.0

    def test_out_of_domain(self):
        medium = MediumSpec(sigma_a=1.0, alpha=0.3)
        grid = Grid(2.0, 21)
        path = _path(CorrelationKernel(1.0, 1.0, 2.0), grid, 1)
        for z in (-0.1, 2.5, math.nan):
            with pytest.raises(OutOfDomain):
                path_intensity_em(medium, grid, path, z)

    def test_step_buffer_keeps_the_bits_of_the_direct_product(self):
        # the in-place step factors follow the direct formula's operation
        # order, so the result is bit-equal to it
        sm = _sm(alpha=0.3)
        medium, grid = sm.medium, Grid(2.0, 41)
        block = _path(sm.kernel, grid, 21, rows=6)
        coeff = medium.sigma_a * (1.0 + medium.alpha * block)
        for z, last in ((2.0, 40), (1.23, 24)):
            direct = medium.i0 * np.prod(1.0 - coeff[:, :last] * grid.spacing, axis=-1)
            partial = z - grid.points[last]
            if partial > 0:
                direct = direct * (1.0 - coeff[:, last] * partial)
            assert np.array_equal(path_intensity_em(medium, grid, block, z), direct)

    def test_shape_mismatch_rejected(self):
        medium = MediumSpec(sigma_a=1.0, alpha=0.3)
        grid = Grid(2.0, 21)
        for values in (np.zeros(20), np.zeros((3, 20)), 0.0, np.zeros((2, 3, 21))):
            with pytest.raises(ValueError, match=r"\(21,\) or \(rows, 21\)"):
                path_intensity_em(medium, grid, values, 1.0)

    def test_first_order_error_against_beer(self):
        medium = MediumSpec(sigma_a=1.0, alpha=0.0, i0=1.0)
        errors = []
        for n in (26, 51, 101, 201):
            grid = Grid(2.0, n)
            euler = path_intensity_em(medium, grid, np.zeros(n), 2.0)
            errors.append(abs(euler - beer(medium, 2.0)))
        for coarse, fine in zip(errors, errors[1:]):
            assert coarse / fine == pytest.approx(2.0, rel=0.15)

    def test_step_halving_richardson_extrapolation(self):
        # on nested subgrids of one sampled path, 2*I(h/2) - I(h)
        # converges an order faster than either Euler value
        sm = _sm(alpha=0.3)
        grid = Grid(2.0, 161)
        fine = _path(sm.kernel, grid, 12)
        exact = path_intensity(sm.medium, grid, fine, 2.0)
        values = {
            s: path_intensity_em(sm.medium, Grid(2.0, 160 // s + 1), fine[:, ::s], 2.0)
            for s in (8, 4, 2, 1)
        }
        rich_err_coarse = abs(2.0 * values[4] - values[8] - exact)
        rich_err_fine = abs(2.0 * values[1] - values[2] - exact)
        euler_err_fine = abs(values[1] - exact)
        assert rich_err_fine < euler_err_fine
        assert rich_err_coarse / rich_err_fine > 8.0  # about 16 for O(h^2)

    def test_interior_depth_partial_step(self):
        medium = MediumSpec(sigma_a=1.0, alpha=0.0, i0=1.0)
        grid = Grid(1.0, 11)
        z = 0.55  # lands mid-cell: five full steps plus half a step
        expected = (1.0 - 0.1) ** 5 * (1.0 - 0.05)
        got = path_intensity_em(medium, grid, np.zeros(11), z)
        assert got == pytest.approx(expected, rel=1e-14)


class TestRunEnsemble:
    def test_degenerate_ensemble_equals_beer_exactly(self):
        sm = _sm(alpha=0.0)
        grid = Grid(3.0, 31)
        stats = run_ensemble(sm, grid, 200, master_seed=4)
        np.testing.assert_array_equal(stats.mean, beer(sm.medium, stats.depths))
        assert np.all(stats.sem == 0.0)
        assert stats.negative_coefficient_fraction == 0.0

    def test_worker_count_does_not_change_bits(self):
        # 9000 paths are three fixed-size chunks; at 1001 points each chunk
        # is a product large enough for threaded BLAS
        sm = _sm(alpha=0.2)
        for grid in (Grid(2.0, 41), Grid(2.0, 1001)):
            a, *others = [
                run_ensemble(sm, grid, 9000, master_seed=11, workers=workers)
                for workers in (1, 2, 4)
            ]
            for b in others:
                assert np.array_equal(a.mean, b.mean)
                assert np.array_equal(a.sem, b.sem)
                assert a.integral_skewness == b.integral_skewness
                fraction = a.negative_coefficient_fraction
                assert fraction == b.negative_coefficient_fraction

    @pytest.mark.parametrize("kappa", [1.0, 2.0], ids=["kappa1", "kappa2"])
    def test_tiles_follow_the_chunk_streams(self, kappa):
        # Two chunks, the second short, each cut into several tiles: a tile
        # drawn from a fresh stream, or a dropped or repeated row, moves the
        # statistics away from those of the whole blocks.
        medium = MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0)
        sm = StochasticMedium(medium, CorrelationKernel(1.0, 0.5, kappa))
        grid = Grid(5.0, 1001)
        counts = (CHUNK_PATHS, 300)
        n = sum(counts)
        one, three = (run_ensemble(sm, grid, n, 41, workers=w) for w in (1, 3))
        assert np.array_equal(one.mean, three.mean)
        assert np.array_equal(one.sem, three.sem)
        sampler = FieldSampler(sm.kernel, grid)
        f_sum = f_sq = 0.0
        for chunk, count in enumerate(counts):
            block = _block(sampler, 41, chunk, count)
            # the pathwise factor path_intensity / beer, one row per path
            integral = integral_at(grid, block, one.depths)
            f = np.exp(-medium.alpha * medium.sigma_a * integral)
            f_sum = f_sum + f.sum(axis=0)
            f_sq = f_sq + (f**2).sum(axis=0)
        beer_depths = beer(medium, one.depths)
        mean = beer_depths * (f_sum / n)
        var = np.maximum((f_sq - f_sum**2 / n) / (n - 1), 0.0)
        sem = beer_depths * np.sqrt(var / n)
        # Sums taken tile by tile round differently from whole-block sums,
        # and the SEM's f_sq - f_sum**2/n cancellation near the surface
        # magnifies that; a dropped or repeated row moves both by about 1e-4.
        np.testing.assert_allclose(one.mean, mean, rtol=1e-13)
        np.testing.assert_allclose(one.sem, sem, rtol=1e-9)

    @pytest.mark.parametrize(
        "depths", [None, [0.33, 1.0, 2.71], 2.0], ids=["nodes", "mixed", "one"]
    )
    @pytest.mark.parametrize("kappa", [1.0, 2.0], ids=["kappa1", "kappa2"])
    def test_bit_identical_to_the_tile_formula(self, kappa, depths):
        # The reduction taken tile by tile and chunk by chunk, each factor
        # exp(-scale I) and its square a fresh array: run_ensemble must give
        # its bits exactly, as the byte-identical CSV needs (test_grf pins
        # integral_at's bits the same way).
        medium = MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0)
        sm = StochasticMedium(medium, CorrelationKernel(1.0, 0.5, kappa))
        grid = Grid(5.0, 101)
        counts = (CHUNK_PATHS, 300)
        n = sum(counts)
        got = run_ensemble(sm, grid, n, 43, depths=depths)
        sampler = FieldSampler(sm.kernel, grid)
        tile_depths = np.append(got.depths, grid.length)
        scale = medium.alpha * medium.sigma_a
        f_sum = np.zeros(got.depths.shape)
        f_sq = np.zeros(got.depths.shape)
        for chunk, count in enumerate(counts):
            chunk_sum = chunk_sq = 0.0
            tiles = list(sampler.tiles(43, chunk, count))
            assert len(tiles) > 1 or chunk == 1
            for values in tiles:
                f = np.exp(-scale * integral_at(grid, values, tile_depths)[:, :-1])
                chunk_sum = chunk_sum + f.sum(axis=0)
                chunk_sq = chunk_sq + (f**2).sum(axis=0)
            f_sum += chunk_sum
            f_sq += chunk_sq
        beer_depths = beer(medium, got.depths)
        var = np.maximum((f_sq - f_sum**2 / n) / (n - 1), 0.0)
        assert np.array_equal(got.mean, beer_depths * (f_sum / n))
        assert np.array_equal(got.sem, beer_depths * np.sqrt(var / n))

    def test_slab_integral_beyond_the_depths_does_not_overflow(self):
        # A nearly constant field (zeta 100 >> L) and scale 140: the slab
        # integral is about 5 G, and exp(-scale * 5 G) overflows on the paths
        # with G < -1.01, while the exponent std at the depth 0.005 is 0.7.
        # Only the requested depths may be exponentiated.
        medium = MediumSpec(sigma_a=1400.0, alpha=0.1)
        sm = StochasticMedium(medium, CorrelationKernel(1.0, 100.0, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = run_ensemble(sm, Grid(5.0, 1001), 200, 5, depths=[0.0, 0.005])
        assert np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.sem))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_peak_is_a_few_tiles(self, workers):
        # A whole 4096 x 2001 block is 62.5 MiB; one tile is 1 MiB.  Two
        # chunks, so two workers really stream tiles at the same time.
        sm = StochasticMedium(
            MediumSpec(sigma_a=1.0, alpha=0.1, i0=10.0),
            CorrelationKernel(1.0, 1.0, 1.0),
        )
        tracemalloc.start()
        try:
            run_ensemble(sm, Grid(5.0, 2001), 2 * CHUNK_PATHS, 3, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_memory_charge_counts_concurrent_workers(self, monkeypatch):
        class Drawn(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(grf, "default_rng", refuse)
        sm = StochasticMedium(
            MediumSpec(sigma_a=1.0, alpha=0.1, i0=10.0),
            CorrelationKernel(1.0, 1.0, 1.0),
        )
        # Tiles of 64 rows on 700 001 points: one worker's stream is charged
        # about 1.4 GB, two are past the 2 GiB budget.
        grid = Grid(5.0, 700_001)
        with pytest.raises(Drawn):
            run_ensemble(sm, grid, 2 * CHUNK_PATHS, 0, workers=1)
        with pytest.raises(MemoryBudgetExceeded, match="2 worker"):
            run_ensemble(sm, grid, 2 * CHUNK_PATHS, 0, workers=2)
        # a single chunk runs on one worker whatever the pool size
        with pytest.raises(Drawn):
            run_ensemble(sm, grid, CHUNK_PATHS, 0, workers=2)

    def test_memory_does_not_grow_with_the_chunk_count(self, monkeypatch):
        # Two-path chunks, so a run spans thousands of them.  Submitting
        # every chunk up front, or keeping every chunk's sums to the end,
        # costs about 2 kB per chunk: 4 MB more for 2000 chunks than for 200.
        monkeypatch.setattr(montecarlo, "CHUNK_PATHS", 2)
        sm = StochasticMedium(
            MediumSpec(sigma_a=1.0, alpha=0.1, i0=10.0),
            CorrelationKernel(1.0, 1.0, 1.0),
        )
        peaks = []
        for chunks in (200, 2000):
            tracemalloc.start()
            try:
                run_ensemble(sm, Grid(1.0, 11), 2 * chunks, 3, workers=2)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 64 * 2**10

    def test_repeat_run_is_identical(self):
        sm = _sm(alpha=0.2)
        grid = Grid(2.0, 41)
        a = run_ensemble(sm, grid, 1000, master_seed=11)
        b = run_ensemble(sm, grid, 1000, master_seed=11)
        assert np.array_equal(a.mean, b.mean)

    def test_oracle_triangle(self):
        # MC mean, lognormal oracle and the EXACT closed form must agree
        # pairwise: MC within 3 SEM of both, the analytic pair to 1e-8
        sm = _sm(alpha=0.1)
        law = AveragedLaw(sm.medium, sm.kernel, ExponentConvention.EXACT)
        grid = Grid(3.0, 151)
        stats = run_ensemble(sm, grid, 20_000, master_seed=31, depths=[1.0, 2.0, 3.0])
        for depth, mean, sem in zip(stats.depths, stats.mean, stats.sem):
            oracle = lognormal_oracle(sm, depth)
            closed = averaged_intensity(law, depth)
            assert abs(mean - oracle) < 3.0 * sem
            assert abs(mean - closed) < 3.0 * sem
            assert oracle == pytest.approx(closed, rel=1e-8)

    def test_sem_grows_with_fluctuation_magnitude(self):
        grid = Grid(3.0, 61)
        sems = [
            run_ensemble(_sm(alpha=a), grid, 2000, master_seed=13).sem
            for a in (0.05, 0.1, 0.2)
        ]
        for lo, hi in zip(sems, sems[1:]):
            assert np.all(hi[1:] > lo[1:])  # depth 0 stays pinned at SEM 0

    def test_negative_coefficient_fraction(self):
        grid = Grid(5.0, 101)
        quiet = run_ensemble(_sm(alpha=0.1), grid, 2000, master_seed=6)
        assert quiet.negative_coefficient_fraction == 0.0
        with pytest.warns(ReliabilityWarning):
            noisy = run_ensemble(_sm(alpha=0.8), grid, 2000, master_seed=6)
        # P(G < -1/0.8) for unit variance is about 0.106
        assert 0.08 < noisy.negative_coefficient_fraction < 0.13

    def test_no_negative_coefficient_without_absorption(self):
        # sigma_a (1 + alpha G) is identically 0, however negative G gets
        stats = run_ensemble(
            _sm(alpha=0.8, sigma_a=0.0), Grid(5.0, 101), 2000, master_seed=6
        )
        assert stats.negative_coefficient_fraction == 0.0

    def test_heavy_tail_warning_threshold(self):
        grid = Grid(5.0, 51)
        with pytest.warns(ReliabilityWarning):
            run_ensemble(_sm(alpha=0.8), grid, 100, master_seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ReliabilityWarning)
            run_ensemble(_sm(alpha=0.1), grid, 100, master_seed=1)

    def test_heavy_tail_check_evaluates_few_kernel_values(self, monkeypatch):
        # zeta 0.01 over L = 10 takes 1000 panels: (16*1000)^2 = 2.6e8 kernel
        # values on a grid of node pairs, 1.1e4 on the lags within the
        # kernel's support
        kernel = CorrelationKernel(20.0, 0.01, 1.0)
        sm = StochasticMedium(MediumSpec(sigma_a=1.0, alpha=0.8, i0=10.0), kernel)
        evaluate = CorrelationKernel.evaluate
        sizes = []

        def counting(self, z1, z2):
            out = evaluate(self, z1, z2)
            sizes.append(np.size(out))
            return out

        monkeypatch.setattr(CorrelationKernel, "evaluate", counting)
        with pytest.warns(ReliabilityWarning):
            run_ensemble(sm, Grid.for_kernel(10.0, kernel), 2, master_seed=1)
        assert 0 < sum(sizes) < 1e6

    def test_invariants_and_validation(self):
        sm = _sm(alpha=0.3)
        grid = Grid(2.0, 21)
        stats = run_ensemble(sm, grid, 500, master_seed=9)
        assert np.all(stats.sem >= 0.0)
        assert np.all(stats.mean > 0.0)
        assert stats.n_paths == 500
        with pytest.raises(ValueError):
            run_ensemble(sm, grid, 1, master_seed=9)
        with pytest.raises(OutOfDomain):
            run_ensemble(sm, grid, 10, master_seed=9, depths=[1.0, 2.5])
        with pytest.raises(OutOfDomain):
            run_ensemble(sm, grid, 10, master_seed=9, depths=[1.0, math.nan])

    @pytest.mark.parametrize("depths", [[], np.ones((2, 2))])
    def test_empty_or_two_d_depths_rejected_before_drawing(self, depths, monkeypatch):
        def no_sampler(*args):
            raise AssertionError("a sampler was built")

        monkeypatch.setattr(montecarlo, "FieldSampler", no_sampler)
        with pytest.raises(ValueError, match="depths must be a scalar or a non-empty 1-D"):
            run_ensemble(_sm(), Grid(2.0, 21), 10, master_seed=9, depths=depths)

    def test_scalar_depth_gives_one_row(self):
        stats = run_ensemble(_sm(alpha=0.3), Grid(2.0, 21), 10, master_seed=9, depths=1.0)
        assert stats.depths.shape == stats.mean.shape == (1,)

    @pytest.mark.parametrize("n_points", [257, 1001, 4001, 10001, 40001])
    def test_default_depths_subsampling(self, n_points):
        # Exactly 256 distinct depths: the rounded indices need no dedup.
        depths = default_depths(Grid(5.0, n_points))
        assert len(depths) == 256
        assert depths[0] == 0.0 and depths[-1] == 5.0
        assert np.all(np.diff(depths) > 0)


class TestLognormalOracle:
    def test_deterministic_limit(self):
        sm = _sm(alpha=0.0)
        for z in (0.0, 1.0, 4.0):
            assert lognormal_oracle(sm, z) == beer(sm.medium, z)

    @pytest.mark.parametrize("z", [-0.5, math.nan])
    def test_negative_depth_rejected(self, z):
        with pytest.raises(OutOfDomain):
            lognormal_oracle(_sm(alpha=0.8), z)

    def test_example_value(self):
        sm = _sm(alpha=0.8)
        assert lognormal_oracle(sm, 1.0) == pytest.approx(LOGNORMAL_EXAMPLE, rel=1e-9)

    def test_matches_exact_convention_closed_form(self):
        sm = _sm(alpha=0.8)
        law = AveragedLaw(sm.medium, sm.kernel, ExponentConvention.EXACT)
        for z in (0.5, 1.0, 2.0, 5.0):
            closed = averaged_intensity(law, z)
            assert lognormal_oracle(sm, z) == pytest.approx(closed, rel=1e-8)
