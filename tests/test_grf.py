"""Kernel, grid, covariance and path-sampling behavior."""

import math
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabatten import (
    CorrelationKernel,
    FieldSampler,
    Grid,
    MemoryBudgetExceeded,
    OutOfDomain,
    covariance_matrix,
    grf,
    square_double_integral,
)

from path_check import drawn_block, drawn_tiles, integral_at

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestCorrelationKernel:
    def test_coincident_points_give_amplitude(self):
        k = CorrelationKernel(amplitude=1.0, correlation_length=1.0, exponent=2.0)
        assert k.evaluate(0.7, 0.7) == 1.0

    def test_squared_exponential_value(self):
        k = CorrelationKernel(1.0, 1.0, 2.0)
        assert k.evaluate(0.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_colored_noise_value(self):
        k = CorrelationKernel(2.0, 0.5, 1.0)
        assert k.evaluate(0.0, 1.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
    def test_same_bits_as_the_textbook_expression(self, kappa):
        k = CorrelationKernel(1.3, 0.7, kappa)
        z = Grid(5.0, 301).points
        sep = np.abs(z[:, None] - z[None, :])
        expected = 1.3 * np.exp(-((sep / 0.7) ** kappa))
        assert np.array_equal(k.evaluate(z[:, None], z[None, :]), expected)
        scalar = k.evaluate(0.1, 0.5)
        assert type(scalar) is float
        assert scalar == 1.3 * np.exp(-((0.4 / 0.7) ** kappa))

    @pytest.mark.parametrize(
        "amplitude, kappa", [(1.0, 1.0), (1.0, 1.5), (1.3, 1.0), (1.0, 2.0), (1.3, 2.0)]
    )
    @pytest.mark.parametrize("zeta", [0.7, 1e-160])
    def test_skipped_identity_passes_keep_every_bit(self, amplitude, kappa, zeta):
        # kappa 1 skips the power and C = 1 the product.  zeta 1e-160 takes
        # the guarded branch: the second set of lags, over zeta, squares
        # past the float range.  The diagonal's lags are 0.
        k = CorrelationKernel(amplitude, zeta, kappa)
        z = np.concatenate([zeta * Grid(5.0, 101).points, Grid(5.0, 11).points])
        with np.errstate(over="ignore"):
            expected = (
                np.exp(-np.power(np.abs(z[:, None] - z[None, :]) / zeta, kappa)) * amplitude
            )
        assert np.array_equal(k.evaluate(z[:, None], z[None, :]), expected)

    @pytest.mark.parametrize("zeta", [1e-170, 5e-324])
    def test_lags_past_the_float_range_give_exact_zero(self, zeta):
        # |dz|/zeta (5e-324) or its square (1e-170) overflows; 0 is the
        # exact limit, and no warning is raised
        k = CorrelationKernel(1.3, zeta, 2.0)
        z = Grid(5.0, 11).points
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = k.evaluate(z[:, None], z[None, :])
        np.testing.assert_array_equal(m, np.diag(np.full(11, 1.3)))

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
    def test_scalar_separation_matches_its_array_entry(self, kappa):
        k = CorrelationKernel(1.3, 0.4, kappa)
        rng = np.random.default_rng(20261018)
        z = np.concatenate([rng.uniform(0.0, 10.0, 500), 10.0 ** rng.uniform(-6.0, 1.5, 500)])
        together = k.evaluate(z, 0.3)
        alone = np.array([k.evaluate(float(zi), 0.3) for zi in z])
        np.testing.assert_array_equal(alone, together)

    def test_integer_and_list_input_give_float64(self):
        k = CorrelationKernel(1.0, 1.0, 2.0)
        for z1, z2 in ((np.arange(3), 0), ([0, 1, 2], 0), (np.arange(3, dtype=np.float32), 0.0)):
            out = k.evaluate(z1, z2)
            assert out.dtype == np.float64
            np.testing.assert_array_equal(out, k.evaluate(np.arange(3.0), 0.0))
        for z1, z2 in ((1, 0), (1.0, 0), (np.float64(1.0), np.array(0.0))):
            assert type(k.evaluate(z1, z2)) is float

    @settings(max_examples=200, deadline=None)
    @given(z1=finite, z2=finite)
    def test_symmetry(self, z1, z2):
        k = CorrelationKernel(1.3, 0.8, 2.0)
        assert k.evaluate(z1, z2) == k.evaluate(z2, z1)

    # Shifts on a dyadic lattice so z + d is representable and the
    # separation is preserved bit-for-bit; only then can equality be exact.
    @settings(max_examples=200, deadline=None)
    @given(
        z1=st.integers(-200, 200).map(lambda q: q / 4.0),
        z2=st.integers(-200, 200).map(lambda q: q / 4.0),
        shift=st.integers(-200, 200).map(lambda q: q / 4.0),
    )
    def test_stationarity_is_exact(self, z1, z2, shift):
        k = CorrelationKernel(1.3, 0.8, 2.0)
        assert k.evaluate(z1 + shift, z2 + shift) == k.evaluate(z1, z2)

    def test_white_noise_limit_off_diagonal_decay(self):
        # For fixed separated points the covariance falls monotonically
        # to 0 as the correlation length shrinks.
        vals = [
            CorrelationKernel(1.0, zeta, 2.0).evaluate(0.0, 0.5)
            for zeta in (1.0, 0.5, 0.25, 0.125, 0.0625)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-27

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(amplitude=0.0, correlation_length=1.0),
            dict(amplitude=-1.0, correlation_length=1.0),
            dict(amplitude=1.0, correlation_length=0.0),
            dict(amplitude=1.0, correlation_length=-2.0),
            dict(amplitude=1.0, correlation_length=1.0, exponent=0.5),
            dict(amplitude=math.inf, correlation_length=1.0),
            dict(amplitude=1.0, correlation_length=math.inf),
            dict(amplitude=1.0, correlation_length=1.0, exponent=math.inf),
            # above 2 the kernel is not positive definite (Schoenberg 1938)
            dict(amplitude=1.0, correlation_length=1.0, exponent=2.0000001),
            dict(amplitude=1.0, correlation_length=1.0, exponent=2.5),
            dict(amplitude=1.0, correlation_length=1.0, exponent=5.0),
            dict(amplitude=1.0, correlation_length=1.0, exponent=math.nan),
            dict(amplitude=math.nan, correlation_length=1.0),
            # zeta**kappa overflows
            dict(amplitude=1.0, correlation_length=1e300, exponent=2.0),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CorrelationKernel(**kwargs)


class TestGrid:
    def test_points_and_spacing(self):
        g = Grid(length=2.0, n_points=5)
        assert g.spacing == 0.5
        np.testing.assert_allclose(g.points, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.points[0] == 0.0 and g.points[-1] == 2.0

    def test_for_kernel_resolves_correlation_length(self):
        k = CorrelationKernel(1.0, 1.0, 2.0)
        g = Grid.for_kernel(5.0, k)
        assert g.spacing <= k.correlation_length / 10

    @pytest.mark.parametrize(
        "length,n",
        [(0.0, 5), (-1.0, 5), (1.0, 1), (1.0, 0), (math.inf, 5), (math.nan, 5),
         (1.0, math.nan)],
    )
    def test_invalid_grid_rejected(self, length, n):
        with pytest.raises(ValueError):
            Grid(length, n)

    def test_node_array_beyond_the_memory_budget_is_rejected(self):
        with pytest.raises(MemoryBudgetExceeded, match="grid of 1e\\+10 points"):
            Grid(1.0, 10**10)

    @pytest.mark.parametrize("zeta", [1e-9, 1e-300, 1e-320])
    def test_for_kernel_checks_the_budget_before_counting_points(self, zeta):
        # 1e-300 overflows the point count to inf and 1e-320 underflows
        # the target spacing to 0; both must fail as a budget error, not
        # in np.linspace or an int conversion
        with pytest.raises(MemoryBudgetExceeded):
            Grid.for_kernel(5.0, CorrelationKernel(1.0, zeta, 2.0))


class TestCovarianceMatrix:
    def test_degenerate_grid_is_all_amplitude(self):
        # Shrinking the slab makes every separation negligible.
        k = CorrelationKernel(3.0, 1.0, 2.0)
        m = covariance_matrix(k, Grid(1e-12, 2))
        np.testing.assert_array_equal(m, np.full((2, 2), 3.0))

    def test_two_point_grid(self):
        k = CorrelationKernel(1.0, 1.0, 2.0)
        m = covariance_matrix(k, Grid(1.0, 2))
        e = math.exp(-1.0)
        np.testing.assert_allclose(m, [[1.0, e], [e, 1.0]], rtol=1e-15)

    def test_lags_past_the_float_range_give_zero_without_a_warning(self):
        # (1e159 / 1)**2 overflows to inf, and the kernel's exact limit there
        # is exp(-inf) = 0; the suite turns any RuntimeWarning into an error
        m = covariance_matrix(CorrelationKernel(2.5, 1.0, 2.0), Grid(1e160, 11))
        assert np.array_equal(m, np.diag(np.full(11, 2.5)))

    def test_symmetric_with_amplitude_diagonal(self):
        k = CorrelationKernel(2.5, 0.7, 1.5)
        m = covariance_matrix(k, Grid(3.0, 40))
        assert np.array_equal(m, m.T)
        np.testing.assert_array_equal(np.diag(m), np.full(40, 2.5))

    def test_positive_semidefinite_up_to_jitter(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            amp = float(rng.uniform(0.1, 5.0))
            zeta = float(rng.uniform(0.1, 3.0))
            expo = float(rng.uniform(1.0, 2.0))
            n = int(rng.integers(5, 200))
            k = CorrelationKernel(amp, zeta, expo)
            m = covariance_matrix(k, Grid(float(rng.uniform(0.5, 8.0)), n))
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -1e-10 * amp


def _assert_scan_is_the_recursion(sampler):
    """The sampler's paths are the AR(1) recursion, taken node by node."""
    n, amp = sampler.nodes.size, sampler.kernel.amplitude
    xi = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(1,))).standard_normal(
        (50, n)
    )
    expected = xi.copy()
    expected[:, 0] *= math.sqrt(amp)
    for i in range(1, n):
        expected[:, i] = (
            sampler.rho[i - 1] * expected[:, i - 1] + sampler.innovation[i - 1] * xi[:, i]
        )
    got = drawn_block(sampler, 5, 1, 50)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - expected)) <= 1e-13 * math.sqrt(amp)


def _path(kernel, grid, seed):
    """Ensemble path 0 of master seed ``seed`` as a one-row block."""
    return drawn_block(FieldSampler(kernel, grid), seed, 0, 1)


class TestSampling:
    def test_vanishing_amplitude_gives_null_paths(self):
        k = CorrelationKernel(1e-30, 1.0, 2.0)
        p = _path(k, Grid(2.0, 21), seed=1)
        assert np.max(np.abs(p)) < 1e-13

    def test_fixed_seed_is_deterministic(self):
        k = CorrelationKernel(1.0, 1.0, 2.0)
        g = Grid(2.0, 21)
        a = _path(k, g, seed=42)
        b = _path(k, g, seed=42)
        assert np.array_equal(a, b)
        assert np.array_equal(integral_at(g, a, g.points), integral_at(g, b, g.points))

    @pytest.mark.parametrize("kappa", [1.0, 2.0], ids=["kappa1", "kappa2"])
    def test_stream_is_keyed_by_seed_chunk_and_count(self, kappa):
        # the same (seed, chunk, count) gives the same bits, serially and
        # from more threads than cores; another chunk is another stream.
        # 300 x 201 blocks are large enough for threaded BLAS.
        sampler = FieldSampler(CorrelationKernel(1.0, 1.0, kappa), Grid(2.0, 201))
        keys = [(99, chunk, 300) for chunk in range(4)] * 2
        serial = [drawn_block(sampler, *key) for key in keys]
        assert serial[0].shape == (300, 201)
        assert np.array_equal(serial[0], serial[4])
        for other in serial[1:4]:
            assert not np.any(serial[0] == other)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda key: drawn_block(sampler, *key), keys))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_grid_beyond_the_memory_budget_is_rejected_before_allocating(
        self, monkeypatch
    ):
        class Built(Exception):
            pass

        def build(kernel, grid):
            raise Built

        # either builder of the dense routes
        monkeypatch.setattr(grf, "covariance_matrix", build)
        monkeypatch.setattr(grf, "_pivoted_cholesky", build)
        kernel = CorrelationKernel(1.0, 0.01, 2.0)
        with pytest.raises(MemoryBudgetExceeded, match="10001 points"):
            FieldSampler(kernel, Grid.for_kernel(10.0, kernel))
        assert issubclass(MemoryBudgetExceeded, ValueError)
        # the reference grid and the 4001-point Euler-check grid fit
        for n in (51, 4001):
            with pytest.raises(Built):
                FieldSampler(kernel, Grid(5.0, n))

    @pytest.mark.parametrize(
        "kappa,n", [(1.0, 40_000_001), (2.0, 1_000_001)], ids=["ar1", "dense"]
    )
    def test_sampler_beyond_the_memory_budget_allocates_nothing(self, kappa, n):
        # The AR(1) route builds 7 arrays of n (2.24 GiB here), the dense
        # route 3 n x n; both are refused before any of them, the grid's
        # points included, exists.
        grid = Grid(10.0, n)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetExceeded, match=f"{n} points"):
                FieldSampler(CorrelationKernel(1.0, 0.01, kappa), grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_ar1_block_beyond_the_memory_budget_is_rejected_before_drawing(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("allocating call reached")

        monkeypatch.setattr(grf, "covariance_matrix", refuse)
        kernel = CorrelationKernel(1.0, 0.01, 1.0)
        # the 10 001-point grid the dense route rejects takes no factor here
        sampler = FieldSampler(kernel, Grid.for_kernel(10.0, kernel))
        assert sampler.route == grf.AR1_ROUTE and sampler.factor is None
        monkeypatch.setattr(grf, "default_rng", refuse)
        # 4096 paths on 100 001 points stream in 64-row tiles and reach the
        # draw; a caller past the budget (the Euler check) is refused by its
        # own charge, before it builds its sampler.
        wide = FieldSampler(kernel, Grid(10.0, 100_001))
        assert grf.tile_rows(kernel, 100_001, 10.0) == 64
        with pytest.raises(AssertionError, match="allocating call reached"):
            next(drawn_tiles(wide, 0, 0, 4096))

    @pytest.mark.parametrize("zeta,n", [(1.0, 51), (0.3, 168), (0.05, 1001)])
    def test_ar1_recursion_is_the_cholesky_factor_of_the_covariance(self, zeta, n):
        kernel = CorrelationKernel(2.5, zeta, 1.0)
        grid = Grid(5.0, n)
        sampler = FieldSampler(kernel, grid)
        assert sampler.route == grf.AR1_ROUTE
        assert sampler.jitter == 0.0
        normals = np.random.default_rng(
            np.random.SeedSequence(31, spawn_key=(2,))
        ).standard_normal((200, n))
        factor = np.linalg.cholesky(covariance_matrix(kernel, grid))
        np.testing.assert_allclose(
            drawn_block(sampler, 31, 2, 200), normals @ factor.T, rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("n", [2, 3, 41, 1001])
    @pytest.mark.parametrize("amp", [1.0, 1e4, 1.7e308])
    @pytest.mark.parametrize(
        "steps",
        [1e-6, 0.025, 0.1, 1.0, 20.0, 40.0, 100.0, 149.0, 151.0, 299.0, 301.0,
         700.0, 730.0, 800.0],
    )
    def test_ar1_scan_matches_the_sequential_recursion(self, steps, amp, n):
        # h/zeta = steps: rho runs from 1 - 1e-6 through subnormal (730) to 0;
        # blocks end at steps past 150 and are scaled by up to e**300
        grid = Grid(steps * (n - 1), n)
        _assert_scan_is_the_recursion(FieldSampler(CorrelationKernel(amp, 1.0, 1.0), grid))

    @pytest.mark.parametrize("amp", [1.0, 1.7e308])
    def test_ar1_scan_of_mixed_steps_matches_the_sequential_recursion(self, amp):
        # log-uniform steps of 1e-3 to 1e3 zeta cut the row into runs next to
        # blocks; after the last far step come a block of four nodes, whose
        # steps sum to 300 zeta, and a lone last node
        steps = np.exp(np.random.default_rng(3).uniform(math.log(1e-3), math.log(1e3), 400))
        steps = np.concatenate((steps, [200.0, 100.0, 100.0, 100.0, 100.0]))
        nodes = np.concatenate(([0.0], np.cumsum(steps)))
        grid = Grid(nodes[-1], 2)
        sampler = FieldSampler(CorrelationKernel(amp, 1.0, 1.0), grid, nodes)
        lengths = np.diff(sampler._cuts)
        long_run = sampler._runs & (lengths > 1)
        assert np.any(long_run[1:] & ~sampler._runs[:-1])
        assert np.any(long_run[:-1] & ~sampler._runs[1:])
        assert lengths[-1] == 1 and lengths[-2] == 4 and not sampler._runs[-2]
        _assert_scan_is_the_recursion(sampler)

    @pytest.mark.parametrize("ratio", [0.025, 25.0, 100.0, 625.0])
    def test_ar1_sampler_holds_no_more_than_it_charges(self, ratio):
        # The Euler check's refined grid at h/zeta = ratio: scan blocks of
        # 12 001, 13 and 4 nodes, and one run.  The build may hold the 7
        # arrays of n that sampler_bytes charges, the sampler then keeps at
        # most 5.
        n = 100_001
        grid = Grid(5.0, n)
        kernel = CorrelationKernel(1.0, grid.spacing / ratio, 1.0)
        tracemalloc.start()
        try:
            sampler = FieldSampler(kernel, grid)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sampler.route == grf.AR1_ROUTE
        assert peak <= grf.sampler_bytes(kernel, n)
        assert kept <= 8 * 5 * n

    def test_ar1_with_rho_zero_is_scaled_white_noise(self):
        amp, n = 2.5, 41
        grid = Grid(800.0 * (n - 1), n)
        sampler = FieldSampler(CorrelationKernel(amp, 1.0, 1.0), grid)
        assert np.all(sampler.rho == 0.0)
        xi = np.random.default_rng(
            np.random.SeedSequence(5, spawn_key=(1,))
        ).standard_normal((50, n))
        assert np.array_equal(drawn_block(sampler, 5, 1, 50), math.sqrt(amp) * xi)

    @pytest.mark.parametrize("steps", [40.0, 100.0, 700.0])
    def test_ar1_keeps_the_memory_term_at_tiny_rho(self, steps):
        # rho * x_{i-1} is far below rounding of a typical x_i; with a zero
        # innovation it is all of x_i
        amp = 2.5
        sampler = FieldSampler(CorrelationKernel(amp, 1.0, 1.0), Grid(2 * steps, 3))
        assert np.all((0.0 < sampler.rho) & (sampler.rho < 2.0**-53))
        x = sampler.transform(np.array([[1.0, 0.0, 1.0]]))
        assert x[0, 1] == sampler.rho[0] * math.sqrt(amp)

    @pytest.mark.parametrize(
        "kappa, zeta, n, least, most",
        [
            (1.0, 0.05, 1001, 65, 65),  # fine AR(1): 512 KiB tiles of 1001 points
            # h/zeta 50: the same height, as the scan's cut is the sampler's
            (1.0, 1e-4, 1001, 65, 65),
            # L/zeta 100: one scan entry, so 512 KiB alone sets the height...
            (1.0, 0.05, 4001, 16, 16),
            # ...and L/zeta 500 may loop over many, so the floor holds
            (1.0, 0.01, 4001, 64, 64),
            (2.0, 0.5, 1001, 1001, None),  # dense: no fewer rows than the factor
        ],
    )
    def test_tile_height_follows_the_work_each_tile_repeats(
        self, kappa, zeta, n, least, most
    ):
        kernel = CorrelationKernel(1.0, zeta, kappa)
        rows = grf.tile_rows(kernel, n, 5.0)
        assert rows >= least
        assert most is None or rows <= most

    @pytest.mark.parametrize("thickness", [1.0, 100.0, 150.0, 151.0, 500.0, 1e5])
    def test_tiles_drop_the_floor_only_where_the_scan_has_one_entry(self, thickness):
        # tile_rows decides from L/zeta alone, before any sampler exists,
        # whether a tile repeats the scan's loop over several table entries.
        kernel = CorrelationKernel(1.0, 5.0 / thickness, 1.0)
        grid = Grid(5.0, 4001)
        rng = np.random.default_rng(7)
        inner = np.sort(rng.choice(grid.points[1:-1], 300, replace=False))
        floored = grf.tile_rows(kernel, 4001, grid.length) >= grf._MIN_TILE_ROWS
        assert floored == (thickness > 150)
        for nodes in (None, np.concatenate(([0.0], inner, [5.0])), [0.0, 5.0]):
            entries = len(FieldSampler(kernel, grid, nodes)._cuts) - 1
            assert entries == 1 or floored

    @pytest.mark.parametrize("count", [1, 300, 4096])
    @pytest.mark.parametrize("n", [51, 1001])
    @pytest.mark.parametrize("kappa", [1.0, 2.0], ids=["kappa1", "kappa2"])
    def test_tiles_are_the_rows_of_the_block(self, kappa, n, count):
        sampler = FieldSampler(CorrelationKernel(1.0, 0.5, kappa), Grid(5.0, n))
        tiles = list(drawn_tiles(sampler, 8, 3, count))
        heights = [len(tile) for tile in tiles]
        assert sum(heights) == count
        assert max(heights) == grf.tile_rows(sampler.kernel, n, 5.0, count)
        assert max(heights) <= grf.tile_rows(sampler.kernel, n, 5.0)
        assert max(heights) - min(heights) <= 1
        # the whole block as one draw from its keyed stream, one transform
        block = sampler.transform(
            np.random.default_rng(
                np.random.SeedSequence(8, spawn_key=(3,))
            ).standard_normal((count, sampler.rank))
        )
        if kappa == 1.0:
            # the scan acts row by row, so the cut does not move a bit
            assert np.array_equal(np.concatenate(tiles), block)
        else:
            # a product of another height may take another BLAS kernel
            np.testing.assert_allclose(
                np.concatenate(tiles), block, rtol=0, atol=1e-13
            )

    def test_ar1_variance_and_lag_one_covariance(self):
        amp, zeta = 1.7, 0.3
        grid = Grid(2.0, 41)
        sampler = FieldSampler(CorrelationKernel(amp, zeta, 1.0), grid)
        assert np.array_equal(sampler.rho, np.exp(-np.diff(grid.points) / zeta))
        rho = math.exp(-grid.spacing / zeta)
        n = 100_000
        sq_sum = np.zeros(41)
        lag_sum = np.zeros(40)
        for chunk, start in enumerate(range(0, n, 8192)):
            block = drawn_block(sampler, 606, chunk, min(8192, n - start))
            sq_sum += (block**2).sum(axis=0)
            lag_sum += (block[:, 1:] * block[:, :-1]).sum(axis=0)
        # Var(x^2) = 2 C^2 and Var(x_i x_{i+1}) = C^2 (1 + rho^2) for Gaussians
        var_se = amp * math.sqrt(2.0 / n)
        lag_se = amp * math.sqrt((1.0 + rho**2) / n)
        assert np.max(np.abs(sq_sum / n - amp)) < 3.0 * var_se
        assert np.max(np.abs(lag_sum / n - amp * rho)) < 3.0 * lag_se

    def test_normals_fill_a_buffer_with_the_bits_of_fresh_tiles(self):
        sampler = FieldSampler(CorrelationKernel(1.0, 1.0, 2.0), Grid(5.0, 51))
        rows = grf.tile_rows(sampler.kernel, 51, 5.0, 2048)
        buffer = np.empty((rows, sampler.rank))
        filled = [tile.copy() for tile in sampler.normals(9, 3, 2048, out=buffer)]
        assert len(filled) > 1
        assert all(len(tile) <= rows for tile in filled)
        # the tiles are consecutive draws from the block's one keyed stream
        whole = np.random.default_rng(
            np.random.SeedSequence(9, spawn_key=(3,))
        ).standard_normal((2048, sampler.rank))
        assert np.array_equal(np.concatenate(filled), whole)
        # a buffer too short or too narrow would draw another cut of the stream
        for shape in ((rows - 1, sampler.rank), (rows, sampler.rank + 1)):
            with pytest.raises(ValueError, match="out must hold"):
                next(sampler.normals(9, 3, 2048, out=np.empty(shape)))

    def test_integer_parameters_draw_as_floats(self):
        # An integer amplitude once made the pivoted factor's residual an
        # integer array, which its float updates cannot be written into.
        whole = FieldSampler(CorrelationKernel(1, 1, 2), Grid(5, 51))
        real = FieldSampler(CorrelationKernel(1.0, 1.0, 2.0), Grid(5.0, 51))
        assert whole.route == real.route == grf.PIVOTED_ROUTE
        assert np.array_equal(whole.factor, real.factor)

    @pytest.mark.parametrize(
        "amp,zeta,kappa,length,n,rank",
        [
            (2.5, 1.0, 1.5, 1.0, 11, 11),
            (0.7, 0.3, 1.2, 4.0, 41, 41),
            (4.0, 2.0, 1.8, 4.0, 41, 41),
            (2.5, 1.0, 2.0, 10.0, 41, 39),
        ],
        ids=["kappa1.5", "kappa1.2", "kappa1.8", "kappa2-coarse-grid"],
    )
    def test_a_lapack_failure_takes_the_pivoted_factor(
        self, monkeypatch, amp, zeta, kappa, length, n, rank
    ):
        # No accepted kernel fails at the jitter on these grids, so the one
        # LAPACK factorization is made to fail.  Kappa 2 on a grid coarser
        # than Grid.for_kernel's tries LAPACK, and its pivoted factor stops
        # short of full rank at the 1e-12 C bound.
        calls, released = [], []
        pivoted = grf._pivoted_cholesky

        def failing(matrix):
            calls.append(matrix[0, 0])
            released.append(weakref.ref(matrix))
            raise np.linalg.LinAlgError("not positive definite")

        def after_release(kernel, grid):
            # the covariance is freed before the pivoted factor's buffer
            assert [ref() for ref in released] == [None]
            return pivoted(kernel, grid)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        monkeypatch.setattr(grf, "_pivoted_cholesky", after_release)
        kernel, grid = CorrelationKernel(amp, zeta, kappa), Grid(length, n)
        sampler = FieldSampler(kernel, grid)
        # one LAPACK call, on M + 1e-12 C I
        assert calls == [amp + 1e-12 * amp]
        assert sampler.route == grf.PIVOTED_ROUTE
        assert (sampler.jitter, sampler.left_out) == (0.0, 1e-12 * amp)
        factor, matrix = sampler.factor, covariance_matrix(kernel, grid)
        assert factor.shape == (n, rank) and sampler.rank == rank
        assert np.max(np.abs(factor @ factor.T - matrix)) <= 1e-12 * amp
        assert next(drawn_tiles(sampler, 1, 0, 10)).shape == (10, n)

    def test_only_a_lapack_failure_takes_the_pivoted_factor(self, monkeypatch):
        # Any other error from the factorization, such as running out of
        # memory, is not a rank problem and reaches the caller unchanged.
        def failing(matrix):
            raise MemoryError("probe")

        def fallback(kernel, grid):
            raise AssertionError("pivoted factor built")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        monkeypatch.setattr(grf, "_pivoted_cholesky", fallback)
        with pytest.raises(MemoryError, match="probe"):
            FieldSampler(CorrelationKernel(2.5, 1.0, 1.5), Grid(1.0, 11))

    @pytest.mark.parametrize(
        "kappa,zeta,length,n",
        [(1.9999, 1e3, 5.0, 1001), (1.0001, 1e8, 5.0, 1001), (2.0, 1.0, 110.0, 1000)],
        ids=["kappa1.9999", "kappa1.0001", "kappa2-coarse-grid"],
    )
    def test_nearly_singular_covariances_factor_at_the_jitter(
        self, monkeypatch, kappa, zeta, length, n
    ):
        # Near the ends of the kernel family, and kappa 2 on a grid coarser
        # than Grid.for_kernel's, LAPACK factors M + 1e-12 C I itself.
        def fallback(kernel, grid):
            raise AssertionError("LAPACK failed at the jitter")

        monkeypatch.setattr(grf, "_pivoted_cholesky", fallback)
        amp = 2.5
        sampler = FieldSampler(CorrelationKernel(amp, zeta, kappa), Grid(length, n))
        assert sampler.route == grf.CHOLESKY_ROUTE
        assert (sampler.rank, sampler.jitter) == (n, 1e-12 * amp)
        assert np.all(np.isfinite(sampler.factor))

    @pytest.mark.parametrize("zeta", [1.0, 0.05])
    def test_ar1_at_uneven_nodes_is_the_cholesky_factor_of_their_covariance(
        self, zeta
    ):
        # Steps from 1e-4 zeta to 40 zeta, so at zeta 0.05 the scan cuts the
        # row into blocks of uneven widths and one step is a block of its own.
        kernel = CorrelationKernel(2.5, zeta, 1.0)
        rng = np.random.default_rng(20261019)
        nodes = np.sort(np.concatenate(([0.0, 5.0], rng.uniform(0.0, 5.0, 150))))
        nodes = np.concatenate((nodes[nodes < 2.0], [2.0 + 1e-4 * zeta, 4.0]))
        sampler = FieldSampler(kernel, Grid(5.0, 11), nodes)
        assert sampler.route == grf.AR1_ROUTE and sampler.rho.shape == (nodes.size - 1,)
        normals = np.random.default_rng(
            np.random.SeedSequence(31, spawn_key=(2,))
        ).standard_normal((200, nodes.size))
        factor = np.linalg.cholesky(kernel.evaluate(nodes[:, None], nodes[None, :]))
        np.testing.assert_allclose(
            drawn_block(sampler, 31, 2, 200), normals @ factor.T, rtol=0, atol=1e-9
        )

    def test_nodes_are_checked(self):
        grid = Grid(5.0, 11)
        with pytest.raises(ValueError, match="kappa = 1"):
            FieldSampler(CorrelationKernel(1.0, 1.0, 2.0), grid, [0.0, 1.0])
        # the grid's own points, as grf.stepping_nodes gives them, are no
        # other nodes
        dense = FieldSampler(CorrelationKernel(1.0, 1.0, 2.0), grid, grid.points)
        assert dense.route == grf.CHOLESKY_ROUTE
        assert np.array_equal(dense.nodes, grid.points)
        kernel = CorrelationKernel(1.0, 1.0, 1.0)
        for nodes in ([0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [[0.0, 1.0]]):
            with pytest.raises(ValueError, match="strictly increasing 1-D"):
                FieldSampler(kernel, grid, nodes)
        with pytest.raises(OutOfDomain):
            FieldSampler(kernel, grid, [0.0, 5.5])

    def test_sample_variance_matches_amplitude(self):
        amp = 1.0
        sampler = FieldSampler(CorrelationKernel(amp, 1.0, 2.0), Grid(2.0, 21))
        n = 40_000
        sq_sum = np.zeros(21)
        for chunk, start in enumerate(range(0, n, 8192)):
            block = drawn_block(sampler, 2024, chunk, min(8192, n - start))
            sq_sum += (block**2).sum(axis=0)
        variance = sq_sum / n
        three_se = 3.0 * amp * math.sqrt(2.0 / n)
        assert np.max(np.abs(variance - amp)) < three_se


class TestPivotedCholesky:
    @pytest.mark.parametrize("n", [51, 501, 2001])
    def test_factor_leaves_out_at_most_the_bound(self, n):
        amp = 2.5
        kernel, grid = CorrelationKernel(amp, 1.0, 2.0), Grid(5.0, n)
        sampler = FieldSampler(kernel, grid)
        assert sampler.route == grf.PIVOTED_ROUTE and sampler.jitter == 0.0
        factor, matrix = sampler.factor, covariance_matrix(kernel, grid)
        assert factor.shape == (n, sampler.rank) and sampler.rank < 30
        assert sampler.left_out == 1e-12 * amp
        assert np.max(np.abs(factor @ factor.T - matrix)) <= 1e-12 * amp
        left_out = np.diag(matrix) - np.einsum("ij,ij->i", factor, factor)
        # 0 up to the rounding of a sum of rank squares
        assert left_out.min() >= -sampler.rank * np.finfo(float).eps * amp
        assert left_out.max() <= 1e-12 * amp

    def test_readme_grid_has_rank_23(self):
        kernel = CorrelationKernel(1.0, 1.0, 2.0)
        sampler = FieldSampler(kernel, Grid.for_kernel(5.0, kernel))
        assert (sampler.grid.n_points, sampler.rank) == (51, 23)
        assert next(drawn_tiles(sampler, 1, 0, 10)).shape == (10, 51)

    @pytest.mark.parametrize(
        "kappa,zeta", [(1.5, 1.0), (2.0, 2.01)], ids=["kappa1.5", "kappa2-coarse-grid"]
    )
    def test_other_kernels_and_coarse_grids_keep_the_lapack_factor(self, kappa, zeta):
        # zeta 2.01 on 101 points over L 25: h = 0.25 > zeta / 10
        amp = 2.5
        kernel, grid = CorrelationKernel(amp, zeta, kappa), Grid(25.0, 101)
        sampler = FieldSampler(kernel, grid)
        assert sampler.route == grf.CHOLESKY_ROUTE
        assert (sampler.rank, sampler.left_out, sampler.jitter) == (101, 0.0, 1e-12 * amp)
        matrix = covariance_matrix(kernel, grid)
        matrix[np.diag_indices(101)] += 1e-12 * amp
        assert np.array_equal(sampler.factor, np.linalg.cholesky(matrix))

    @pytest.mark.parametrize(
        "length,zeta", [(5.0, 1.0), (2.0, 1.0), (5.0, 0.05), (3.0, 0.7), (0.5, 0.01)]
    )
    def test_route_follows_the_grid_of_for_kernel(self, length, zeta):
        kernel = CorrelationKernel(1.0, zeta, 2.0)
        n = Grid.for_kernel(length, kernel).n_points
        routes = [FieldSampler(kernel, Grid(length, m)).route for m in (n - 1, n, n + 1)]
        assert routes == [grf.CHOLESKY_ROUTE, grf.PIVOTED_ROUTE, grf.PIVOTED_ROUTE]

    def test_grid_whose_for_kernel_passes_the_budget_keeps_the_lapack_factor(self):
        kernel = CorrelationKernel(1.0, 1e-170, 2.0)
        with pytest.raises(MemoryBudgetExceeded):
            Grid.for_kernel(5.0, kernel)
        assert FieldSampler(kernel, Grid(5.0, 11)).route == grf.CHOLESKY_ROUTE


def _tanh(u):
    """tanh of a Decimal in the context's precision."""
    e = (-2 * u).exp()
    return (1 - e) / (1 + e)


class TestOUBridge:
    """``ou_bridge``: each step's integral given its two ends."""

    # x = h/zeta from 1e-8 to 1e3, with both sides of the series' switch
    X = np.concatenate((np.logspace(-8.0, 3.0, 221), [1e-2, 2.0 - 2**-52, 2.0]))

    def test_coefficients_match_forty_digit_arithmetic(self):
        amp, zeta = 1.7, 0.3
        steps = self.X * zeta
        weights, variances = grf.ou_bridge(CorrelationKernel(amp, zeta, 1.0), steps)
        with localcontext() as ctx:
            ctx.prec = 40
            for h, w, v in zip(steps, weights, variances):
                z = Decimal(zeta)
                x = Decimal(h) / z
                w_exact = z * _tanh(x / 2)
                v_exact = 2 * Decimal(amp) * z * z * (x - 2 * _tanh(x / 2))
                assert abs(Decimal(w) - w_exact) <= Decimal("1e-14") * w_exact
                assert abs(Decimal(v) - v_exact) <= Decimal("1e-14") * v_exact

    def test_ends_and_bridge_make_up_the_step_variance(self):
        # w^2 Var(X_0 + X_1) + v = Var int over the step = 2 C zeta^2 (x - 1 + e^-x)
        amp, zeta = 1.7, 0.3
        weights, variances = grf.ou_bridge(
            CorrelationKernel(amp, zeta, 1.0), self.X * zeta
        )
        with localcontext() as ctx:
            ctx.prec = 40
            c, z = Decimal(amp), Decimal(zeta)
            for h, w, v in zip(self.X * zeta, weights, variances):
                x = Decimal(h) / z
                r = Decimal(math.exp(-h / zeta))
                total = 2 * c * z * z * (x - 1 + (-x).exp())
                parts = Decimal(w) ** 2 * 2 * c * (1 + r) + Decimal(v)
                assert abs(parts - total) <= Decimal("1e-14") * total

    @pytest.mark.parametrize("zeta", [1e-3, 1e-300, 5e-324])
    def test_no_warning_where_rho_underflows(self, zeta):
        # h/zeta from 746 up to inf: rho = 0, tanh(x/2) = 1, so w = zeta and
        # v = 2 C zeta (h - 2 zeta)
        kernel = CorrelationKernel(2.0, zeta, 1.0)
        nodes = np.array([0.0, 0.746, 1.746, 4.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, variances = grf.ou_bridge(kernel, np.diff(nodes))
            sampler = FieldSampler(kernel, Grid(5.0, 11), nodes)
            values = drawn_block(sampler, 3, 0, 50)
        assert np.all(sampler.rho == 0.0)
        assert np.all(weights == zeta)
        np.testing.assert_allclose(
            variances, 4.0 * zeta * (np.diff(nodes) - 2 * zeta), rtol=1e-15
        )
        assert np.all(np.isfinite(values))

    def test_no_overflow_near_the_float_maximum(self):
        # 2 zeta overflows here, and x/2 is subnormal: tanh(x/2) = x/2 and
        # the series is its leading term, so w = h/2 and v = C h^3 / (6 zeta)
        # to the subnormal's precision
        amp, zeta = 1.5, 1.7e308
        steps = np.array([0.5, 1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights, variances = grf.ou_bridge(
                CorrelationKernel(amp, zeta, 1.0), steps
            )
        np.testing.assert_allclose(weights, steps / 2, rtol=1e-12)
        np.testing.assert_allclose(
            variances, amp * steps**3 / 6 / zeta, rtol=1e-12
        )


def _interpolated_trapezoid(grid, values, depths):
    """Running trapezoid integral at ``depths`` by the row-wise formula:
    per-row segment sums, scaled, summed, then both neighbouring nodes
    weighted linearly, also at a node."""
    values = np.asarray(values, dtype=float)
    depths = np.asarray(depths, dtype=float)
    cumulative = np.empty(values.shape)
    cumulative[..., 0] = 0.0
    segments = cumulative[..., 1:]
    np.add(values[..., 1:], values[..., :-1], out=segments)
    segments *= 0.5 * grid.spacing
    np.cumsum(segments, axis=-1, out=segments)
    points = grid.points
    idx = np.searchsorted(points, depths, side="right") - 1
    upper = np.minimum(idx + 1, grid.n_points - 1)
    frac = (depths - points[idx]) / grid.spacing
    return cumulative[..., idx] * (1.0 - frac) + cumulative[..., upper] * frac


class TestStochasticIntegral:
    """``integral_at``, the running integral of the field."""

    def test_trapezoid_accumulation(self):
        g = Grid(1.0, 5)
        got = integral_at(g, [0.0, 1.0, 2.0, 3.0, 4.0], g.points)
        h = g.spacing
        expected = np.concatenate(
            ([0.0], np.cumsum(h * 0.5 * (np.arange(4) + np.arange(1, 5))))
        )
        assert got[0] == 0.0
        np.testing.assert_allclose(got, expected, rtol=1e-15)

    def test_shape_mismatch_rejected(self):
        g = Grid(1.0, 5)
        with pytest.raises(ValueError):
            integral_at(g, [1.0, 2.0], 0.5)
        with pytest.raises(ValueError):
            integral_at(g, np.zeros((2, 3, 5)), 0.5)

    def test_zero_at_origin(self):
        g = Grid(2.0, 21)
        p = _path(CorrelationKernel(1.0, 1.0, 2.0), g, seed=3)
        assert integral_at(g, p, 0.0) == 0.0

    def test_constant_path_integrates_exactly(self):
        g = Grid(2.0, 21)
        p = np.full(21, 1.7)
        for z in (0.05, 0.5, 1.0, 1.33, 2.0):
            assert integral_at(g, p, z) == pytest.approx(1.7 * z, rel=1e-13)
        depths = [0.05, 0.5, 1.0, 1.33, 2.0]
        np.testing.assert_allclose(integral_at(g, p, depths), 1.7 * np.array(depths),
                                   rtol=1e-13)

    @pytest.mark.parametrize("n", [51, 1001])
    def test_exact_at_grid_nodes(self, n):
        # at a node the interpolation weight of the upper node is 0, so the
        # result is the trapezoid accumulation itself, bit for bit
        grid = Grid(5.0, n)
        values = np.random.default_rng(n).standard_normal((8, n))
        cumulative = np.zeros((8, n))
        segments = (values[:, 1:] + values[:, :-1]) * (0.5 * grid.spacing)
        cumulative[:, 1:] = np.cumsum(segments, axis=1)
        assert np.array_equal(integral_at(grid, values, grid.points), cumulative)

    @pytest.mark.parametrize("n", [51, 1001])
    @pytest.mark.parametrize("where", ["nodes", "mixed"])
    def test_bit_identical_to_the_interpolated_row_formula(self, n, where):
        # The one-pass segments and the direct read at nodes must give the
        # bits of the row-wise formula, on which the byte-identical CSV rests.
        grid = Grid(5.0, n)
        depths = grid.points
        if where == "mixed":
            depths = np.concatenate([depths[::7], [0.33, 1.0 + 1e-9, 2.71, 4.999]])
        values = np.random.default_rng(n).standard_normal((9, n))
        expected = _interpolated_trapezoid(grid, values, depths)
        assert np.array_equal(integral_at(grid, values, depths), expected)
        for row in (0, 8):  # one path, shape (n,)
            assert np.array_equal(integral_at(grid, values[row], depths), expected[row])

    @pytest.mark.parametrize("depth", [2.0, 2.71])
    def test_one_path_at_one_depth_is_a_numpy_scalar(self, depth):
        grid = Grid(5.0, 51)
        path = np.random.default_rng(4).standard_normal(51)
        got = integral_at(grid, path, depth)
        expected = _interpolated_trapezoid(grid, path, depth)
        assert type(got) is type(expected) is np.float64
        assert got == expected

    @pytest.mark.parametrize("depths", ["nodes", [0.33, 2.71, 5.0]])
    def test_strided_view_is_bit_identical(self, depths):
        # The Euler check passes its coarser grids as strided views of a tile.
        fine = Grid(5.0, 201)
        coarse = Grid(5.0, 101)
        values = np.random.default_rng(5).standard_normal((7, fine.n_points))
        view = values[:, ::2]
        if depths == "nodes":
            depths = coarse.points
        expected = _interpolated_trapezoid(coarse, view, depths)
        assert np.array_equal(integral_at(coarse, view, depths), expected)
        assert np.array_equal(integral_at(coarse, view[3], depths), expected[3])

    @pytest.mark.parametrize("kappa", [1.0, 2.0], ids=["kappa1", "kappa2"])
    def test_step_weights_give_each_route_its_integral(self, kappa):
        # One running sum for both routes: with the dense route's weights
        # it is the trapezoid integral on the grid; with the AR(1) route's
        # at the stepping nodes, the sum of the steps' OU-bridge means.
        grid = Grid(5.0, 51)
        kernel = CorrelationKernel(1.0, 0.5, kappa)
        nodes = grf.stepping_nodes(kernel, grid, [2.71, 0.33])
        sampler = FieldSampler(kernel, grid, nodes)
        weights, variances = sampler.step_weights()
        values = drawn_block(sampler, 5, 0, 9)
        got = grf.running_integral(values, weights)
        if kappa == 2.0:
            assert np.array_equal(nodes, grid.points) and not variances.any()
            assert np.array_equal(got, integral_at(grid, values, grid.points))
            return
        assert np.array_equal(nodes, [0.0, 0.33, 2.71, 5.0])
        w, v = grf.ou_bridge(kernel, np.diff(nodes))
        expected = np.zeros(values.shape)
        expected[:, 1:] = np.cumsum(w * (values[:, 1:] + values[:, :-1]), axis=1)
        assert np.array_equal(got, expected)
        assert variances[0] == 0.0 and np.array_equal(variances[1:], v)

    @pytest.mark.parametrize("z", [-0.1, 2.0001, 50.0, math.nan])
    def test_out_of_domain_rejected(self, z):
        g = Grid(2.0, 21)
        p = _path(CorrelationKernel(1.0, 1.0, 2.0), g, seed=3)
        with pytest.raises(OutOfDomain):
            integral_at(g, p, z)
        with pytest.raises(OutOfDomain):
            integral_at(g, p, [1.0, z])


class TestIntegralStatistics:
    """Moment checks on the path integral at moderate ensemble size;
    the full-size Gaussianity gate lives in the acceptance suite."""

    def _integrals(self, n, seed, grid, kernel):
        sampler = FieldSampler(kernel, grid)
        out = np.empty(n)
        for chunk, start in enumerate(range(0, n, 8192)):
            count = min(8192, n - start)
            block = drawn_block(sampler, seed, chunk, count)
            segs = 0.5 * grid.spacing * (block[:, 1:] + block[:, :-1])
            out[start : start + count] = segs.sum(axis=1)
        return out

    def test_mean_integral_vanishes_and_variance_matches_quadrature(self):
        kernel = CorrelationKernel(1.0, 1.0, 2.0)
        grid = Grid(3.0, 61)
        n = 30_000
        t = self._integrals(n, 515, grid, kernel)
        sem = t.std(ddof=1) / math.sqrt(n)
        assert abs(t.mean()) < 3.0 * sem

        var = t.var(ddof=1)
        expected = square_double_integral(kernel, grid.length)
        three_se_var = 3.0 * expected * math.sqrt(2.0 / (n - 1))
        assert abs(var - expected) < three_se_var
