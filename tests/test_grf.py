"""Kernel, grid, covariance and path-sampling behavior."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabatten import (
    CorrelationKernel,
    FactorizationFailure,
    FieldSampler,
    Grid,
    MemoryBudgetExceeded,
    OutOfDomain,
    covariance_matrix,
    grf,
    integral_at,
    square_double_integral,
)

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
        expected = 1.3 * np.exp(-(sep**kappa) / 0.7**kappa)
        assert np.array_equal(k.evaluate(z[:, None], z[None, :]), expected)
        scalar = k.evaluate(0.1, 0.5)
        assert type(scalar) is float
        assert scalar == 1.3 * np.exp(-(0.4**kappa) / 0.7**kappa)

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


def _block(sampler, seed, chunk, count):
    """Ensemble block ``chunk`` of master seed ``seed``: its tiles' rows."""
    return np.concatenate(list(sampler.tiles(seed, chunk, count)))


def _path(kernel, grid, seed):
    """Ensemble path 0 of master seed ``seed`` as a one-row block."""
    return _block(FieldSampler(kernel, grid), seed, 0, 1)


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
        serial = [_block(sampler, *key) for key in keys]
        assert serial[0].shape == (300, 201)
        assert np.array_equal(serial[0], serial[4])
        for other in serial[1:4]:
            assert not np.any(serial[0] == other)
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda key: _block(sampler, *key), keys))
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)

    def test_grid_beyond_the_memory_budget_is_rejected_before_allocating(
        self, monkeypatch
    ):
        class Built(Exception):
            pass

        def build(kernel, grid):
            raise Built

        monkeypatch.setattr(grf, "covariance_matrix", build)
        kernel = CorrelationKernel(1.0, 0.01, 2.0)
        with pytest.raises(MemoryBudgetExceeded, match="10001 points"):
            FieldSampler(kernel, Grid.for_kernel(10.0, kernel))
        assert issubclass(MemoryBudgetExceeded, ValueError)
        # the reference grid and the 4001-point Euler-check grid fit
        for n in (51, 4001):
            with pytest.raises(Built):
                FieldSampler(kernel, Grid(5.0, n))

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
        # A block is charged one tile at a time: 4096 paths on 100 001
        # points stream in 64-row tiles and reach the draw...
        wide = FieldSampler(kernel, Grid(10.0, 100_001))
        assert wide.tile_rows == 64
        with pytest.raises(AssertionError, match="allocating call reached"):
            next(wide.tiles(0, 0, 4096))
        # ...while one 64-row tile on 2 200 001 points is past the budget.
        big = FieldSampler(kernel, Grid(10.0, 2_200_001))
        with pytest.raises(MemoryBudgetExceeded, match="64 paths on 2200001") as err:
            next(big.tiles(0, 0, 4096))
        assert "covariance" not in str(err.value)
        assert "factor" not in str(err.value)

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
            _block(sampler, 31, 2, 200), normals @ factor.T, rtol=0, atol=1e-9
        )

    @pytest.mark.parametrize("n", [2, 3, 41, 1001])
    @pytest.mark.parametrize("amp", [1.0, 1e4])
    @pytest.mark.parametrize(
        "steps", [1e-6, 0.025, 0.1, 1.0, 20.0, 40.0, 100.0, 700.0, 730.0, 800.0]
    )
    def test_ar1_scan_matches_the_sequential_recursion(self, steps, amp, n):
        # h/zeta = steps: rho runs from 1 - 1e-6 through subnormal (730) to 0
        grid = Grid(steps * (n - 1), n)
        sampler = FieldSampler(CorrelationKernel(amp, 1.0, 1.0), grid)
        xi = np.random.default_rng(
            np.random.SeedSequence(5, spawn_key=(1,))
        ).standard_normal((50, n))
        expected = xi.copy()
        expected[:, 0] *= math.sqrt(amp)
        for i in range(1, n):
            expected[:, i] = (
                sampler.rho * expected[:, i - 1] + sampler.innovation * xi[:, i]
            )
        got = _block(sampler, 5, 1, 50)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expected)) <= 1e-13 * math.sqrt(amp)

    def test_ar1_with_rho_zero_is_scaled_white_noise(self):
        amp, n = 2.5, 41
        grid = Grid(800.0 * (n - 1), n)
        sampler = FieldSampler(CorrelationKernel(amp, 1.0, 1.0), grid)
        assert sampler.rho == 0.0
        xi = np.random.default_rng(
            np.random.SeedSequence(5, spawn_key=(1,))
        ).standard_normal((50, n))
        assert np.array_equal(_block(sampler, 5, 1, 50), math.sqrt(amp) * xi)

    @pytest.mark.parametrize("steps", [40.0, 100.0, 700.0])
    def test_ar1_keeps_the_memory_term_at_tiny_rho(self, steps):
        # rho * x_{i-1} is far below rounding of a typical x_i; with a zero
        # innovation it is all of x_i
        amp = 2.5
        sampler = FieldSampler(CorrelationKernel(amp, 1.0, 1.0), Grid(2 * steps, 3))
        assert 0.0 < sampler.rho < 2.0**-53
        x = sampler._transform(np.array([[1.0, 0.0, 1.0]]))
        assert x[0, 1] == sampler.rho * math.sqrt(amp)

    @pytest.mark.parametrize(
        "kappa, zeta, least, most",
        [
            (1.0, 0.05, 65, 65),  # fine AR(1): 512 KiB tiles of 1001 points
            (1.0, 1e-4, 4096, None),  # h/zeta 50: one-column scan blocks
            (2.0, 0.5, 1001, None),  # dense: no fewer rows than the factor
        ],
    )
    def test_tile_height_follows_the_work_each_tile_repeats(
        self, kappa, zeta, least, most
    ):
        kernel = CorrelationKernel(1.0, zeta, kappa)
        rows = FieldSampler(kernel, Grid(5.0, 1001)).tile_rows
        assert rows >= least
        assert most is None or rows <= most

    @pytest.mark.parametrize("count", [1, 300, 4096])
    @pytest.mark.parametrize("n", [51, 1001])
    @pytest.mark.parametrize("kappa", [1.0, 2.0], ids=["kappa1", "kappa2"])
    def test_tiles_are_the_rows_of_the_block(self, kappa, n, count):
        sampler = FieldSampler(CorrelationKernel(1.0, 0.5, kappa), Grid(5.0, n))
        tiles = list(sampler.tiles(8, 3, count))
        heights = [len(tile) for tile in tiles]
        assert sum(heights) == count
        assert max(heights) <= sampler.tile_rows
        assert max(heights) - min(heights) <= 1
        # the whole block as one draw from its keyed stream, one transform
        block = sampler._transform(
            np.random.default_rng(
                np.random.SeedSequence(8, spawn_key=(3,))
            ).standard_normal((count, n))
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
        rho = math.exp(-grid.spacing / zeta)
        assert sampler.rho == rho
        n = 100_000
        sq_sum = np.zeros(41)
        lag_sum = np.zeros(40)
        for chunk, start in enumerate(range(0, n, 8192)):
            block = _block(sampler, 606, chunk, min(8192, n - start))
            sq_sum += (block**2).sum(axis=0)
            lag_sum += (block[:, 1:] * block[:, :-1]).sum(axis=0)
        # Var(x^2) = 2 C^2 and Var(x_i x_{i+1}) = C^2 (1 + rho^2) for Gaussians
        var_se = amp * math.sqrt(2.0 / n)
        lag_se = amp * math.sqrt((1.0 + rho**2) / n)
        assert np.max(np.abs(sq_sum / n - amp)) < 3.0 * var_se
        assert np.max(np.abs(lag_sum / n - amp * rho)) < 3.0 * lag_se

    @pytest.mark.parametrize("failures", range(8))
    def test_jitter_ladder_climbs_one_rung_per_failure(self, monkeypatch, failures):
        # No accepted kernel fails at the first rung on a small grid, so the
        # first `failures` factorizations are made to fail.
        calls = []
        cholesky = np.linalg.cholesky

        def failing(matrix):
            calls.append(matrix[0, 0])
            if len(calls) <= failures:
                raise np.linalg.LinAlgError("not positive definite")
            return cholesky(matrix)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        amp = 2.5
        kernel, grid = CorrelationKernel(amp, 1.0, 2.0), Grid(1.0, 11)
        if failures == 7:
            with pytest.raises(FactorizationFailure, match="positive definite"):
                FieldSampler(kernel, grid)
            assert len(calls) == 7
            return
        sampler = FieldSampler(kernel, grid)
        jitter = 1e-12 * 10**failures * amp
        assert sampler.jitter == pytest.approx(jitter, rel=1e-15)
        # each rung adds its jitter to the original diagonal
        assert calls == pytest.approx(
            [amp + 1e-12 * 10**k * amp for k in range(failures + 1)], rel=1e-15
        )

    def test_sample_variance_matches_amplitude(self):
        amp = 1.0
        sampler = FieldSampler(CorrelationKernel(amp, 1.0, 2.0), Grid(2.0, 21))
        n = 40_000
        sq_sum = np.zeros(21)
        for chunk, start in enumerate(range(0, n, 8192)):
            block = _block(sampler, 2024, chunk, min(8192, n - start))
            sq_sum += (block**2).sum(axis=0)
        variance = sq_sum / n
        three_se = 3.0 * amp * math.sqrt(2.0 / n)
        assert np.max(np.abs(variance - amp)) < three_se


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
            block = _block(sampler, seed, chunk, count)
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
