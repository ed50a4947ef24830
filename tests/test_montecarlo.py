"""Ensemble runner, pathwise solutions, and the lognormal oracle."""

import math
import os
import tracemalloc
import warnings
from concurrent.futures import Future

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
    path_intensity_em,
    grf,
    montecarlo,
    run_ensemble,
)
from slabatten.grf import CHUNK_PATHS
from slabatten.quadrature import square_double_integral

from path_check import drawn_block, drawn_tiles, integral_at, path_intensity

LOGNORMAL_EXAMPLE = 4.846583187098  # I0=10, sigma=1, C=1, zeta=1, alpha=0.8, z=1


# A kernel and grid of each FieldSampler route, and the route's name.
ROUTES = [
    (CorrelationKernel(1.3, 0.5, 1.0), Grid(5.0, 51), grf.AR1_ROUTE),
    (CorrelationKernel(1.0, 1.0, 2.0), Grid(5.0, 51), grf.PIVOTED_ROUTE),
    (CorrelationKernel(0.7, 0.3, 1.5), Grid(4.0, 41), grf.CHOLESKY_ROUTE),
]


def _sm(alpha=0.1, sigma_a=1.0, i0=10.0, amplitude=1.0, zeta=1.0):
    return StochasticMedium(
        MediumSpec(sigma_a=sigma_a, alpha=alpha, i0=i0),
        CorrelationKernel(amplitude, zeta, 2.0),
    )


def _path(kernel, grid, seed, rows=1):
    """Ensemble paths [0, rows) of master seed ``seed`` as a block."""
    return drawn_block(FieldSampler(kernel, grid), seed, 0, rows)


def _route(sm, grid, depths):
    """The ensemble's one formula, for the tests that pin its bits.

    Returns the sampler it draws with, a function taking a tile (or a
    whole block) of its draws to the integrals of G up to ``depths`` (or,
    with ``slab=True``, over the whole slab, as the moments take it), and
    the per-depth prefactor of the mean factor exp(-alpha sigma_a I).  A
    drawn row X stands for the pair X, -X, whose mean factor is
    cosh(alpha sigma_a I) for the row's integral I, summed less 1.  The
    kernel picks only the nodes and the step weights: kappa 1 draws the
    stepping nodes {0} U depths and weights each step by its OU
    bridge, whose variances V(z) the prefactor carries as
    exp((alpha sigma_a)^2 V(z) / 2); every other kernel draws the grid's
    points and weights each step by the trapezoid's h/2, with no
    variance left out.  Either way each step adds w_k (X_(k-1) + X_k),
    and a depth reads its node's running sum, or blends its two nodes'
    linearly between them.
    """
    medium, depths = sm.medium, np.atleast_1d(depths)
    scale = medium.alpha * medium.sigma_a
    if sm.kernel.exponent == 1:
        nodes = np.unique(np.concatenate(([0.0], depths)))
        weights, variances = grf.ou_bridge(sm.kernel, np.diff(nodes))
        sampler = FieldSampler(sm.kernel, grid, nodes)
    else:
        nodes = grid.points
        weights = np.full(nodes.size - 1, 0.5 * grid.spacing)
        variances = np.zeros(nodes.size - 1)
        sampler = FieldSampler(sm.kernel, grid)
    idx = np.searchsorted(nodes, depths, side="right") - 1
    frac = (depths - nodes[idx]) / grid.spacing
    upper = np.minimum(idx + 1, nodes.size - 1)

    def at_depths(running):
        # row-major, as the route keeps it: a sum over paths then adds in
        # the same order
        if not frac.any():
            return np.take(running, idx, axis=-1)
        return (
            np.take(running, idx, axis=-1) * (1.0 - frac)
            + np.take(running, upper, axis=-1) * frac
        )

    def integrate(values, slab=False):
        integral = np.zeros(values.shape)
        integral[:, 1:] = np.cumsum(weights * (values[:, 1:] + values[:, :-1]), axis=1)
        return integral[:, -1] if slab else at_depths(integral)

    bridged = at_depths(np.concatenate(([0.0], np.cumsum(variances))))
    prefactor = medium.i0 * np.exp(0.5 * scale**2 * bridged - medium.sigma_a * depths)
    return sampler, integrate, prefactor


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
        # order, and the blocks carry one running product left to right, so
        # the result is bit-equal to it, within one block of columns and
        # across several: on the long grid a one-row path takes three
        # blocks, the six-row block and its strided view more
        sm = _sm(alpha=0.3)
        medium = sm.medium
        cells = 2 * montecarlo._EM_BLOCK_BYTES // 8 + 1000
        long_grid = Grid(2.0, cells + 1)
        fine = _path(CorrelationKernel(1.0, 0.5, 1.0), Grid(2.0, 2 * cells + 1), 21, rows=6)
        short_grid = Grid(2.0, 41)
        block = _path(sm.kernel, short_grid, 21, rows=6)
        cases = [
            (short_grid, block, 2.0),
            (short_grid, block, 1.23),
            (long_grid, np.ascontiguousarray(fine[:, ::2]), 2.0),
            (long_grid, fine[0, ::2].copy(), 2.0),
            (long_grid, fine[:, ::2], 2.0),
            (long_grid, fine[:, ::2], 1.2345),
            (long_grid, fine[1, ::2], 1.2345),
        ]
        for grid, values, z in cases:
            last = min(int(np.searchsorted(grid.points, z, side="right")) - 1, grid.n_points - 1)
            coeff = medium.sigma_a * (1.0 + medium.alpha * values)
            direct = medium.i0 * np.prod(1.0 - coeff[..., :last] * grid.spacing, axis=-1)
            partial = z - grid.points[last]
            assert (partial > 0) == (z < 2.0)
            if partial > 0:
                direct = direct * (1.0 - coeff[..., last] * partial)
            assert np.array_equal(path_intensity_em(medium, grid, values, z), direct)

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

    @pytest.mark.parametrize("case", ["affinity", "two-cpus", "no-affinity"])
    def test_pool_has_no_more_threads_than_the_cpus(self, monkeypatch, case):
        # An executor that records its size and runs each task inline, so
        # a million workers asked for start no thread.  Three chunks: the
        # pool is min(workers, chunks, CPUs) and the bits are those of one.
        sizes = []

        class Inline:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        if case == "two-cpus":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                                raising=False)
        if case == "no-affinity":
            # no affinity call, and an OS that cannot count its CPUs: one thread
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count() or 1)
        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Inline)
        sm = _sm(alpha=0.2)
        grid = Grid(2.0, 41)
        many = run_ensemble(sm, grid, 3 * CHUNK_PATHS, 5, workers=10**6)
        one = run_ensemble(sm, grid, 3 * CHUNK_PATHS, 5, workers=1)
        assert sizes == [min(3, usable), 1]
        assert np.array_equal(many.mean, one.mean) and np.array_equal(many.sem, one.sem)
        assert many.integral_skewness == one.integral_skewness

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
        sampler, integrate, prefactor = _route(sm, grid, one.depths)
        f_sum = f_sq = 0.0
        for chunk, count in enumerate(counts):
            block = drawn_block(sampler, 41, chunk, count // 2)
            # the pair mean factor cosh(alpha sigma_a I) less 1, one row per pair
            f = np.cosh(medium.alpha * medium.sigma_a * integrate(block)) - 1.0
            f_sum = f_sum + f.sum(axis=0)
            f_sq = f_sq + (f**2).sum(axis=0)
        pairs = n // 2
        mean = prefactor * (1.0 + f_sum / pairs)
        var = np.maximum((f_sq - f_sum**2 / pairs) / (pairs - 1), 0.0)
        sem = prefactor * np.sqrt(var / pairs)
        # Sums taken tile by tile round differently from whole-block sums,
        # and the SEM's f_sq - f_sum**2/n cancellation near the surface
        # magnifies that; a dropped or repeated row moves both by about 1e-4.
        np.testing.assert_allclose(one.mean, mean, rtol=1e-13)
        np.testing.assert_allclose(one.sem, sem, rtol=1e-9)

    @pytest.mark.parametrize(
        "depths", [None, [0.33, 1.0, 2.71], 2.0], ids=["nodes", "mixed", "one"]
    )
    @pytest.mark.parametrize("kappa", [1.0, 2.0], ids=["kappa1", "kappa2"])
    def test_bit_identical_to_the_tile_formula(self, kappa, depths, monkeypatch):
        # The reduction taken tile by tile and chunk by chunk, each pair
        # mean less 1, cosh(scale I) - 1, and its square a fresh array:
        # run_ensemble must give its bits exactly, as the byte-identical CSV
        # needs (test_grf pins integral_at's bits the same way).  Tiles of
        # 16 KiB cut a chunk into several also at the kappa-1 route's two
        # stepping nodes for one depth.  Both routes read a tile's integrals at the
        # depths alone: the kappa-1 route integrates the tile's node
        # values, the dense route multiplies the tile of normals by its
        # factor integrated once.  The integral's moments are taken at the
        # deepest depth, over the drawn rows alone.
        monkeypatch.setattr(grf, "_TILE_BYTES", 16 * 2**10)
        medium = MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0)
        sm = StochasticMedium(medium, CorrelationKernel(1.0, 0.5, kappa))
        grid = Grid(5.0, 101)
        counts = (CHUNK_PATHS, 300)
        n = sum(counts)
        got = run_ensemble(sm, grid, n, 43, depths=depths)
        d = got.depths.size
        deepest = int(np.argmax(got.depths))
        sampler, integrate, prefactor = _route(sm, grid, got.depths)
        scale = medium.alpha * medium.sigma_a
        if kappa != 1:
            basis = integrate(sampler.factor.T)
        f_sum = np.zeros(d)
        f_sq = np.zeros(d)
        slab = []
        for chunk, count in enumerate(counts):
            chunk_sum = chunk_sq = 0.0
            if kappa == 1:
                tiles = [
                    integrate(values) for values in drawn_tiles(sampler, 43, chunk, count // 2)
                ]
            else:
                tiles = [
                    normals @ basis
                    for normals in drawn_tiles(sampler, 43, chunk, count // 2, values=False)
                ]
            assert len(tiles) > 1 or chunk == 1
            for integrals in tiles:
                assert integrals.shape[1] == d
                slab.append(integrals[:, deepest].copy())
                f = np.cosh(scale * integrals) - 1.0
                chunk_sum = chunk_sum + f.sum(axis=0)
                chunk_sq = chunk_sq + (f**2).sum(axis=0)
            f_sum += chunk_sum
            f_sq += chunk_sq
        pairs = n // 2
        var = np.maximum((f_sq - f_sum**2 / pairs) / (pairs - 1), 0.0)
        assert np.array_equal(got.mean, prefactor * (1.0 + f_sum / pairs))
        assert np.array_equal(got.sem, prefactor * np.sqrt(var / pairs))
        slab = np.concatenate(slab)
        assert slab.size == pairs
        dev = slab - slab.mean()
        m2, m3, m4 = (np.mean(dev**k) for k in (2, 3, 4))
        assert got.integral_skewness == pytest.approx(m3 / m2**1.5, abs=1e-9)
        assert got.integral_excess_kurtosis == pytest.approx(m4 / m2**2 - 3, abs=1e-9)

    @pytest.mark.parametrize(
        "kernel,grid,depths,route",
        [
            (CorrelationKernel(1.0, 1.0, 2.0), Grid(5.0, 101),
             [2.71, 0.33, 5.0, 2.71, 1.0, 0.0], grf.PIVOTED_ROUTE),
            (CorrelationKernel(1.0, 1.0, 2.0), Grid(5.0, 501), None, grf.PIVOTED_ROUTE),
            (CorrelationKernel(0.7, 0.3, 1.5), Grid(4.0, 41),
             [2.71, 0.33, 4.0, 2.71, 1.0, 0.0], grf.CHOLESKY_ROUTE),
        ],
        ids=["pivoted-mixed", "pivoted-256-depths", "lapack-mixed"],
    )
    def test_integrated_factor_gives_the_tiles_integrals(self, kernel, grid, depths, route):
        # Tile by tile, the normals times the integrated factor are the
        # integrals of the tile's node values normals @ F^T, read at the
        # depths alone (node, off-node, repeated and unsorted ones, or 256
        # of 501 points): the same linear map summed in another order.
        depths = montecarlo.default_depths(grid) if depths is None else np.array(depths)
        sampler = FieldSampler(kernel, grid)
        assert sampler.route == route
        weights, _ = sampler.step_weights()
        read = grf.depth_reader(grid.points, depths, grid.spacing)
        basis = montecarlo._integrated_factor(sampler.factor, weights, read)
        assert basis.shape == (sampler.rank, depths.size)
        tiles = 0
        for normals in drawn_tiles(sampler, 5, 0, 3000, values=False):
            sums = grf.running_integral(normals @ sampler.factor.T, weights)
            want = read(sums)
            assert np.array_equal(want[:, np.argmax(depths)], sums[:, -1])  # L
            got = normals @ basis
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
            tiles += 1
        assert tiles > 1

    @pytest.mark.parametrize(
        "kernel,grid",
        [(CorrelationKernel(1.0, 1.0, 2.0), Grid(5.0, 51)),
         (CorrelationKernel(0.7, 0.3, 1.5), Grid(4.0, 41))],
        ids=["pivoted", "lapack"],
    )
    def test_dense_ensemble_forms_no_node_values(self, kernel, grid, monkeypatch):
        def refuse(self, normals):
            raise AssertionError("node values formed")

        monkeypatch.setattr(FieldSampler, "transform", refuse)
        sm = StochasticMedium(MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0), kernel)
        stats = run_ensemble(sm, grid, 2 * CHUNK_PATHS + 100, 3, workers=2)
        assert stats.sampler_route != grf.AR1_ROUTE
        assert np.all(np.isfinite(stats.mean)) and np.all(stats.sem[1:] > 0.0)

    @pytest.mark.parametrize(
        "kernel,grid,route",
        ROUTES + [(CorrelationKernel(1.0, 0.05, 1.0), Grid(5.0, 1001), "euler-check")],
        ids=[r[2] for r in ROUTES] + ["euler-check"],
    )
    def test_every_route_draws_each_block_into_one_buffer(
        self, kernel, grid, route, monkeypatch
    ):
        # One FieldSampler.normals draw per block, and every tile it yields
        # the leading rows of the one buffer it was given: the ensemble's
        # on every route, and the Euler check's.
        drawn = []
        normals = FieldSampler.normals

        def recording(self, seed, chunk, count, out):
            starts = set()
            drawn.append((chunk, starts))
            for tile in normals(self, seed, chunk, count, out):
                assert np.shares_memory(tile, out)
                starts.add(tile.ctypes.data - out.ctypes.data)
                yield tile

        monkeypatch.setattr(FieldSampler, "normals", recording)
        if route == "euler-check":
            # 100 paths on 4 001 refined AR(1) nodes, in 15-row tiles
            medium = MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0)
            assert grf.tile_rows(kernel, 4001, 5.0, 100) == 15
            assert len(montecarlo.euler_check(medium, kernel, grid, 3)[1]) == 3
            assert drawn == [(0, {0})]
            return
        sm = StochasticMedium(MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0), kernel)
        stats = run_ensemble(sm, grid, 2 * CHUNK_PATHS + 100, 3, workers=2)
        assert stats.sampler_route == route
        assert sorted(chunk for chunk, _ in drawn) == [0, 1, 2]
        assert all(starts == {0} for _, starts in drawn)

    @pytest.mark.parametrize("kernel,grid,route", ROUTES, ids=[r[2] for r in ROUTES])
    def test_appending_L_to_the_depths_moves_no_other_depth(self, kernel, grid, route):
        # The integrals are read at the depths alone, so asking for L as
        # well leaves the other depths estimates of the same law.  The dense
        # routes draw the same grid field, and the basis's extra column
        # moves them by rounding at most.  Kappa 1 steps through L as a new
        # node, one normal more per row, so there they are a new sample of
        # the law, within a few SEM.  The bridges' variance is taken at the
        # deepest depth, which moves to L.
        sm = StochasticMedium(MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0), kernel)
        depths = np.array([2.71, 0.33, 1.0, 0.0])
        want = run_ensemble(sm, grid, CHUNK_PATHS + 300, 13, depths=depths)
        got = run_ensemble(sm, grid, CHUNK_PATHS + 300, 13, depths=np.append(depths, grid.length))
        assert got.sampler_route == route
        if route == grf.AR1_ROUTE:
            assert got.rank == want.rank + 1
            spread = np.hypot(got.sem[:-1], want.sem)
            assert np.all(np.abs(got.mean[:-1] - want.mean) <= 3.0 * spread)
            assert got.bridge_variance > want.bridge_variance > 0.0
        else:
            np.testing.assert_allclose(got.mean[:-1], want.mean, rtol=1e-13)
            np.testing.assert_allclose(got.sem[:-1], want.sem, rtol=1e-9)
            assert got.bridge_variance == want.bridge_variance == 0.0

    @pytest.mark.parametrize("kappa", [1.0, 2.0], ids=["kappa1", "kappa2"])
    def test_depths_map_back_to_their_places(self, kappa):
        # Unsorted, repeated and off-node depths (0.33, 2.71 and, on the
        # dense route, 1.0 + 1e-9 lie between grid points) are read from
        # the same running sums as their sorted distinct set: kappa 1 steps
        # through the same nodes, the dense route blends the same two grid
        # columns.  So each depth keeps its value bit for bit.
        sm = StochasticMedium(
            MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0), CorrelationKernel(1.0, 0.5, kappa)
        )
        grid = Grid(5.0, 101)
        depths = np.array([2.71, 0.33, 5.0, 2.71, 1.0 + 1e-9, 0.0, 0.33, 1.5])
        ordered = np.array([0.0, 0.33, 1.0 + 1e-9, 1.5, 2.71, 5.0])
        got = run_ensemble(sm, grid, 5000, 47, depths=depths)
        want = run_ensemble(sm, grid, 5000, 47, depths=ordered)
        place = np.searchsorted(ordered, depths)
        assert np.array_equal(got.depths, depths)
        assert np.array_equal(got.mean, want.mean[place])
        assert np.array_equal(got.sem, want.sem[place])
        assert got.bridge_variance == want.bridge_variance
        assert (got.bridge_variance > 0.0) == (kappa == 1.0)

    @pytest.mark.parametrize("n_points,drawn", [(11, 11), (256, 256), (1001, 256)])
    def test_kappa1_ensemble_draws_one_normal_per_stepping_node(
        self, monkeypatch, n_points, drawn
    ):
        # At the default depths the stepping nodes are the grid's own points
        # up to 256 of them, and the field drawn there is the grid field;
        # a finer grid is stepped at its 256 output depths alone.
        kernel = CorrelationKernel(1.3, 0.5, 1.0)
        grid = Grid(5.0, n_points)
        tiles = []

        class Recording(FieldSampler):
            def transform(self, normals):
                values = super().transform(normals)
                tiles.append(values.copy())
                return values

        monkeypatch.setattr(montecarlo, "FieldSampler", Recording)
        sm = StochasticMedium(MediumSpec(sigma_a=1.0, alpha=0.3), kernel)
        run_ensemble(sm, grid, 300, 7)
        field = np.concatenate(tiles)
        assert field.shape == (150, drawn)  # one row per mirrored pair
        if drawn == n_points:
            expected = drawn_block(FieldSampler(kernel, grid), 7, 0, 150)
            np.testing.assert_allclose(field, expected, rtol=1e-13, atol=1e-13)

    def test_kappa1_mean_is_the_continuum_law_on_a_coarse_grid(self):
        # Grid(5, 11) steps 0.5 zeta at a time.  The continuum law is
        # beer * exp((alpha sigma_a)^2 C zeta^2 (z/zeta + expm1(-z/zeta))); the
        # bridged ensemble is unbiased for it on any grid, while the
        # trapezoid integral of the same paths' grid field is biased by the
        # step, which a million paths resolve.  The seed was chosen once.
        medium = MediumSpec(sigma_a=1.0, alpha=0.8, i0=10.0)
        sm = StochasticMedium(medium, CorrelationKernel(1.0, 1.0, 1.0))
        grid = Grid(5.0, 11)
        n, seed = 1_000_000, 20261019
        with pytest.warns(ReliabilityWarning):
            stats = run_ensemble(sm, grid, n, seed, workers=2)
        z = stats.depths
        law = beer(medium, z) * np.exp(0.64 * (z + np.expm1(-z)))
        assert np.all(np.abs(stats.mean - law) <= 3.0 * stats.sem)
        # the trapezoid route, from the grid field of the same chunk streams
        sampler = FieldSampler(sm.kernel, grid)
        f_sum = f_sq = 0.0
        for chunk, start in enumerate(range(0, n, CHUNK_PATHS)):
            for values in drawn_tiles(sampler, seed, chunk, min(CHUNK_PATHS, n - start)):
                f = np.exp(-0.8 * integral_at(grid, values, z))
                f_sum = f_sum + f.sum(axis=0)
                f_sq = f_sq + (f**2).sum(axis=0)
        mean = beer(medium, z) * f_sum / n
        sem = beer(medium, z) * np.sqrt((f_sq - f_sum**2 / n) / (n - 1) / n)
        assert np.max(np.abs(mean - law)[1:] / sem[1:]) >= 6.0

    def test_kappa1_ensemble_with_rho_underflowing_to_zero_is_quiet(self):
        # h/zeta from 1e3 to 4e3: rho = exp(-h/zeta) underflows to 0, where
        # the field at the nodes is white noise and each bridge is nearly
        # the whole step.  No RuntimeWarning may be raised on the way.
        medium = MediumSpec(sigma_a=1.0, alpha=0.3, i0=10.0)
        sm = StochasticMedium(medium, CorrelationKernel(1.0, 1e-3, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = run_ensemble(sm, Grid(5.0, 11), 500, 3, depths=[0.0, 1.0, 5.0])
        assert np.all(np.isfinite(stats.mean)) and np.all(np.isfinite(stats.sem))
        # each bridge leaves 2 C zeta (h - 2 zeta tanh(h / (2 zeta))) out, with
        # tanh(500) = 1: nearly all of Var int_0^L G = 2 C zeta (L - zeta)
        assert stats.bridge_variance == pytest.approx(2e-3 * (5.0 - 4e-3), rel=1e-12)

    def test_slab_integral_beyond_the_depths_does_not_overflow(self):
        # A nearly constant field (zeta 100 >> L) and scale 140: the slab
        # integral is about 5 G, and exp(-scale * 5 G) overflows on the paths
        # with G < -1.01, while the exponent std at the depth 0.005 is 0.7.
        # Nothing past the deepest depth may be drawn, read or exponentiated.
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

    def test_memory_charge_is_what_the_workers_hold(self):
        # The README run, kappa 2 on 51 points at one worker: 2048-pair
        # blocks in two tiles of 1024 rows (1285 at most), the factor's 51^2
        # beside the (51, 51) integrated factor, with its rank charged as n,
        # and one worker's normals (1024, 51) and integrals (1024, 51).
        grid = Grid(5.0, 51)
        kernel = CorrelationKernel(1.0, 1.0, 2.0)
        assert montecarlo.ensemble_bytes(kernel, grid, 20_000, grid.points, 1) == 8 * (
            51 * 51 + 51 * 51 + 1024 * (51 + 51)
        )
        # kappa 1 at zeta 0.05 (1001 points), 2000 paths: one block of 1000
        # pairs in four tiles of 250 rows on the 256 stepping nodes, the
        # default depths, and the AR(1) sampler's 5 arrays of 256.
        grid = Grid(5.0, 1001)
        kernel = CorrelationKernel(1.0, 0.05, 1.0)
        depths = default_depths(grid)
        assert montecarlo.ensemble_bytes(kernel, grid, 2000, depths, 2) == 8 * (
            5 * 256 + montecarlo._STREAM_ARRAYS * 250 * 256
        )

    def test_memory_charge_counts_concurrent_workers(self, monkeypatch):
        class Drawn(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(grf, "default_rng", refuse)
        sm = StochasticMedium(
            MediumSpec(sigma_a=1.0, alpha=0.1, i0=10.0),
            CorrelationKernel(1.0, 0.01, 1.0),
        )
        # Tiles of 64 rows, the floor of a slab 500 zeta thick, on 700 001
        # points, all of them output depths (so all of them stepping
        # nodes): one worker's stream is charged about 1.4 GB, two are past
        # the 2 GiB budget.
        grid = Grid(5.0, 700_001)
        depths = grid.points
        with pytest.raises(Drawn):
            run_ensemble(sm, grid, 2 * CHUNK_PATHS, 0, depths=depths, workers=1)
        with pytest.raises(MemoryBudgetExceeded, match="2 worker"):
            run_ensemble(sm, grid, 2 * CHUNK_PATHS, 0, depths=depths, workers=2)
        # a single chunk runs on one worker whatever the pool size
        with pytest.raises(Drawn):
            run_ensemble(sm, grid, CHUNK_PATHS, 0, depths=depths, workers=2)

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

    def test_pair_sem_is_the_exact_antithetic_sem(self):
        # For X ~ N(0, v), a pair's mean cosh X has variance
        # (e^v - 1)^2 / 2, so at z = 0.5 and 1, where the exponent std is
        # below 1 and the SEM is trusted, the observed SEM is its exact value
        # and sqrt(1 - e^-v) of the exact SEM of as many independent paths.
        # v = (alpha sigma_a)^2 Var int_0^z G, continuum to 4e-4 on 51 points.
        # The seed was chosen once.
        sm = _sm(alpha=0.8)
        n = 20_000
        stats = run_ensemble(sm, Grid(5.0, 51), n, 7, depths=[0.5, 1.0])
        for z, sem in zip(stats.depths, stats.sem):
            v = 0.64 * square_double_integral(sm.kernel, z)
            beer_z = beer(sm.medium, z)
            pair_sem = beer_z * math.expm1(v) / math.sqrt(2 * (n // 2))
            path_sem = beer_z * math.sqrt((math.exp(2 * v) - math.exp(v)) / n)
            assert 0.85 <= sem / pair_sem <= 1.15
            assert sem / path_sem == pytest.approx(math.sqrt(-math.expm1(-v)), abs=0.05)

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
        evaluate_scaled = CorrelationKernel.evaluate_scaled
        sizes = []

        def counting(self, scale, powers):
            out = evaluate_scaled(self, scale, powers)
            sizes.append(np.size(out))
            return out

        monkeypatch.setattr(CorrelationKernel, "evaluate_scaled", counting)
        with pytest.warns(ReliabilityWarning):
            run_ensemble(sm, Grid.for_kernel(10.0, kernel), 4, master_seed=1)
        assert 0 < sum(sizes) < 1e6

    def test_invariants_and_validation(self):
        sm = _sm(alpha=0.3)
        grid = Grid(2.0, 21)
        stats = run_ensemble(sm, grid, 500, master_seed=9)
        assert np.all(stats.sem >= 0.0)
        assert np.all(stats.mean > 0.0)
        assert stats.n_paths == 500
        for odd_or_one_pair in (1, 2, 3, 5):
            with pytest.raises(ValueError, match="even and >= 4"):
                run_ensemble(sm, grid, odd_or_one_pair, master_seed=9)
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

    @pytest.mark.parametrize(
        "length,n_points",
        # the last two spacings are subnormal, and the last one underflows to 0
        [(5.0, 257), (5.0, 1001), (7.3, 50_001), (1e3, 999_999), (1e-310, 3001),
         (5e-324, 1001)],
    )
    def test_default_depths_are_the_grid_points_they_pick(self, length, n_points):
        grid = Grid(length, n_points)
        idx = np.linspace(0, n_points - 1, 256).round().astype(int)
        assert np.array_equal(default_depths(grid), grid.points[idx])

    def test_default_depths_never_build_the_grid(self):
        tracemalloc.start()
        try:
            default_depths(Grid(5.0, 10_000_001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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
