"""Monte Carlo ensemble of exact pathwise attenuation solutions.

Each sampled path has the closed pathwise solution
``I0 * exp(-sigma_a*z - alpha*sigma_a*int_0^z G)``, its integral one
weighted running sum over the nodes it is drawn at (``running_integral``).
Every route draws a block's normals into one buffer, tile by tile, and
turns each tile into its integrals.  For kappa = 1 the field is drawn
only at the output depths and each step weighted by its exact
Ornstein-Uhlenbeck bridge, so its mean has no discretization error at
all.  Other kernels take the trapezoid rule's weights on the grid, and
as a path's integrals are linear in its normals, the ensemble integrates
the covariance factor once and turns each tile of normals into integrals
by one product, forming no node values.  The explicit Euler cross-check
(``euler_check``) draws here too: no other module drives the sampler.  An
analytic lognormal oracle (Gaussian moment identity plus tensor-product
quadrature) bypasses both the sampler and the erf closed form.
"""

from __future__ import annotations

import math
import os
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ReliabilityWarning
from .grf import AR1_ROUTE, CHUNK_PATHS, CorrelationKernel, FieldSampler, Grid
from .grf import check_budget, checked_depths, checked_values, depth_reader
from .grf import draws_by_factor, one_depth, running_integral, sampler_bytes
from .grf import stepping_nodes, tile_rows
from .medium import MediumSpec, StochasticMedium, beer, squared
from .quadrature import ordered_double_integral, square_double_integral

_MAX_DEFAULT_ROWS = 256
# Arrays of (tile rows, nodes + gathered depths) one AR(1)-route worker
# holds at once: its normals, made a tile's values in place, their running
# integral and the integrals read at the depths, which the reduction turns
# into factors and their squares in place (tracemalloc peaks at 2.1 to 2.5
# of them per worker while two chunks stream, n 51 to 2001), with a margin.
_STREAM_ARRAYS = 4
# Exponent standard deviations above this make the lognormal sample mean
# heavy-tailed enough that the SEM stops being trustworthy.
_HEAVY_TAIL_STD = 1.5
# path_intensity_em forms its step factors in blocks of about this many
# bytes.  Per 15-row tile of 4 001 nodes and its two coarser views (min of
# 5 in-process repeats, 2-vCPU Xeon VM) they took 0.37 ms in 256 KiB
# blocks and 0.57 ms in 512 KiB ones, against 0.32 ms for the whole-row
# copy; per 50-row tile of 200 001 nodes 52 ms, against 100 ms.
_EM_BLOCK_BYTES = 256 * 2**10
# Paths averaged by the Euler check, and its grids' refinements of the
# run's grid: every stride-th node of the finest.
_EULER_CHECK_PATHS = 100
_EULER_CHECK_STRIDES = (4, 2, 1)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-depth summary of an ensemble run.

    n_paths counts paths, both halves of each mirrored pair, and sem is
    taken over the pair means.  The integral skewness/kurtosis, over the
    drawn rows only (the mirror would make every odd moment 0), describe
    the path integral of the field to the deepest depth D (L in every CLI
    run), which should be Gaussian: the trapezoid integral of the grid
    field on the dense route and, for kappa = 1, the exact conditional mean
    given the stepping nodes, of which bridge_variance is the variance the
    bridges leave out, V(D) (0 on the dense route).  They are NaN, not
    available, where the rows' powers underflow or overflow.
    sampler_route is the FieldSampler route that drew the paths
    (grf.AR1_ROUTE, grf.CHOLESKY_ROUTE or grf.PIVOTED_ROUTE), jitter the
    diagonal jitter its factor actually used (0 but on the LAPACK route),
    rank the normals it drew per path and left_out the most variance its
    factor leaves out at a node (0 but on the pivoted route).
    """

    depths: np.ndarray
    mean: np.ndarray
    sem: np.ndarray
    n_paths: int
    integral_skewness: float
    integral_excess_kurtosis: float
    sampler_route: str
    jitter: float
    rank: int
    left_out: float
    bridge_variance: float


def path_intensity_em(medium: MediumSpec, grid: Grid, values, z: float):
    """Explicit Euler stepping of the pathwise decay ODE on the path grid.

    ``values`` is one path ``(n,)`` or a block ``(rows, n)`` on ``grid``;
    one value per path row at the one depth ``z``.  First-order accurate
    in the grid spacing; converges to the exact pathwise intensity
    ``I0*exp(-sigma_a*z - alpha*sigma_a*int_0^z G)`` under grid refinement
    and exists only as an independent integrator cross-check.  The step
    factors stream through one buffer of about 256 KiB, so the working
    memory beside ``values`` is bounded by that block, not by the grid, and
    the product keeps the bits of the one over whole rows.
    Raises ValueError for values of any other shape (``checked_values``)
    or an array of depths, and OutOfDomain for z outside [0, L], NaN
    included (``one_depth``).
    """
    values = checked_values(grid, values)
    z = one_depth(z, grid.length)
    points = grid.points
    last = min(int(np.searchsorted(points, z, side="right")) - 1, grid.n_points - 1)
    # The step factors 1 - sigma_a (1 + alpha G) h go a block of columns at
    # a time into rows 1: of one small buffer, transposed so the in-place
    # steps run over contiguous memory (on a strided view of rows they took
    # about 3x as long).  Row 0 carries the running product,
    # so np.prod multiplies each path's factors left to right, as it does
    # over the whole row.
    rows = max(1, values[..., 0].size)
    width = max(1, min(last, _EM_BLOCK_BYTES // (8 * rows)))
    buf = np.empty((1 + width,) + values.shape[:-1])
    buf[0] = 1.0
    for start in range(0, last, width):
        stop = min(start + width, last)
        block = buf[: 1 + stop - start]
        steps = block[1:]
        np.multiply(medium.alpha, values[..., start:stop].T, out=steps)
        steps += 1.0
        steps *= medium.sigma_a
        steps *= grid.spacing
        np.subtract(1.0, steps, out=steps)
        buf[0] = np.prod(block, axis=0)
    intensity = medium.i0 * buf[0]
    partial = z - points[last]
    if partial > 0:
        coeff = medium.sigma_a * (1.0 + medium.alpha * values[..., last])
        intensity = intensity * (1.0 - coeff * partial)
    return intensity


def _euler_check_points(grid: Grid) -> int:
    """Points of the Euler check's finest grid, ``grid`` refined."""
    return (grid.n_points - 1) * _EULER_CHECK_STRIDES[0] + 1


def euler_check_bytes(kernel: CorrelationKernel, grid: Grid) -> int:
    """The Euler check's one charge: its sampler on the finest grid with its
    normals buffer and its tallest tile of paths, two tiles by the nodes.
    The dense routes hold both; on the kappa = 1 route ``transform`` makes
    the buffer its values in place, so the charge is one tile above what
    it holds (with the Euler step factors' small block), an upper bound
    kept because a charge per route would be more code than it saves."""
    n = _euler_check_points(grid)
    rows = tile_rows(kernel, n, grid.length, _EULER_CHECK_PATHS)
    return sampler_bytes(kernel, n, 8 * 2 * rows * n)


def euler_check(medium: MediumSpec, kernel: CorrelationKernel, grid: Grid, master_seed: int):
    """Mean |Euler - exact| at the slab exit on nested refinements of
    ``grid``, as the lists ``(spacings, errors)``, coarsest first.

    Block 0 of ``master_seed``, ``_EULER_CHECK_PATHS`` paths, is drawn once
    on the finest grid, in row tiles of one buffer as ``run_ensemble`` draws,
    and read on the others through every stride-th node (a view), so every
    refinement integrates the same paths and the observed order is not
    washed out by path-to-path variation; only per-path errors are kept.
    The exact value at L is one trapezoid sum, ``h (sum v - (v_0 +
    v_last) / 2)``.  Raises ValueError, naming the coarsest such step,
    when a mean error is not finite."""
    cells = _euler_check_points(grid) - 1
    grids = [Grid(grid.length, cells // s + 1) for s in _EULER_CHECK_STRIDES]
    sampler = FieldSampler(kernel, grids[-1])
    beer_at_exit = beer(medium, grid.length)
    scale = medium.alpha * medium.sigma_a
    per_path = np.empty((len(grids), _EULER_CHECK_PATHS))
    rows = tile_rows(kernel, sampler.nodes.size, grid.length, _EULER_CHECK_PATHS)
    normals = np.empty((rows, sampler.rank))
    start = 0
    for tile in sampler.normals(master_seed, 0, _EULER_CHECK_PATHS, out=normals):
        values = sampler.transform(tile)
        stop = start + len(values)
        for i, (stride, refined) in enumerate(zip(_EULER_CHECK_STRIDES, grids)):
            path = values[:, ::stride]
            euler = path_intensity_em(medium, refined, path, grid.length)
            ends = path[:, 0] + path[:, -1]
            integral = refined.spacing * (path.sum(axis=1) - 0.5 * ends)
            exact = beer_at_exit * np.exp(-scale * integral)
            per_path[i, start:stop] = np.abs(euler - exact)
        start = stop
        del values, path  # free this tile's values before the next draw
    errors = [float(np.mean(row)) for row in per_path]
    for refined, err in zip(grids, errors):
        if not math.isfinite(err):
            raise ValueError(
                f"the Euler check's mean error is not finite at h = {refined.spacing:g} "
                "cm: the Euler products or the pathwise intensities overflow"
            )
    return [refined.spacing for refined in grids], errors


def default_depths(grid: Grid) -> np.ndarray:
    """Grid abscissae subsampled to at most 256 output depths.

    Above 256 points the index step exceeds 1, so the rounded indices are
    already strictly increasing and the depths distinct.
    """
    if grid.n_points <= _MAX_DEFAULT_ROWS:
        return grid.points
    idx = np.linspace(0, grid.n_points - 1, _MAX_DEFAULT_ROWS).round().astype(int)
    # grid.points[idx] by np.linspace's formulas, without the whole grid
    step = grid.spacing
    depths = idx * step if step else idx / (grid.n_points - 1) * grid.length
    depths[-1] = grid.length
    return depths


def ensemble_bytes(
    kernel: CorrelationKernel, grid: Grid, n_paths: int, depths, workers: int
) -> int:
    """The bytes ``run_ensemble`` charges before it builds anything: its
    sampler (``grf.sampler_bytes``) with what it holds beside it, by its
    tallest tile (``grf.tile_rows``) and its ``n`` nodes.  On the dense
    routes that is the ``(rank, d)`` basis of ``_integrated_factor`` and,
    per worker asked for, the normals and ``(rows, d)`` product buffers,
    for the ``d`` depths, with ``rank`` charged as its bound ``n``, as the
    factor is not built yet.  On the AR(1) route it is, per worker,
    ``_STREAM_ARRAYS`` arrays of the tile's rows by its nodes and, unless
    they are the nodes in order, its depths."""
    depths = np.atleast_1d(depths)
    nodes = stepping_nodes(kernel, grid, depths)
    n = nodes.size
    streams = max(1, min(workers, -(-n_paths // CHUNK_PATHS)))
    counts = (min(CHUNK_PATHS, n_paths), n_paths % CHUNK_PATHS)  # full, last block
    rows = max(tile_rows(kernel, n, grid.length, c // 2) for c in counts)  # drawn rows
    if draws_by_factor(kernel):
        streamed = 8 * (n * depths.size + streams * rows * (n + depths.size))
    else:
        gathered = 0 if np.array_equal(depths, nodes) else depths.size
        streamed = 8 * _STREAM_ARRAYS * streams * rows * (n + gathered)
    return sampler_bytes(kernel, n, streamed)


def _integrated_factor(factor: np.ndarray, weights, read) -> np.ndarray:
    """The dense routes' ``(rank, d)`` basis ``B``: the factor ``F``'s
    columns integrated with the step ``weights`` and read by ``read``.  A
    path's integrals are linear in its normals, so a row of normals times
    ``B`` is its node values ``normals @ F^T`` integrated and read, up to rounding."""
    return read(running_integral(factor.T, weights))


def _pair_factor_sums(integrals: np.ndarray, scale: float):
    """The column sums of the pair means less 1 of a tile's ``integrals``,
    and of their squares, which the tile is overwritten with in place.
    A pair's mean is (exp(-scale I) + exp(scale I)) / 2 = cosh(scale I).
    Near the surface it is 1 + O(v) with a variance of O(v^2), v = scale^2
    Var I, which sums of the means themselves would lose to rounding."""
    with np.errstate(over="ignore"):
        integrals *= scale
        np.cosh(integrals, out=integrals)
        integrals -= 1.0
        sums = integrals.sum(axis=0)
        np.square(integrals, out=integrals)
        return sums, integrals.sum(axis=0)


def _power_sums(x: np.ndarray) -> np.ndarray:
    """The sums of ``x``, ``x^2``, ``x^3`` and ``x^4``."""
    square = x * x
    return np.array([x.sum(), square.sum(), (square * x).sum(), (square * square).sum()])


def _central_moments(raw: np.ndarray, n: int):
    m1 = raw[0] / n
    m2 = raw[1] / n - m1**2
    m3 = raw[2] / n - 3.0 * m1 * raw[1] / n + 2.0 * m1**3
    m4 = raw[3] / n - 4.0 * m1 * raw[2] / n + 6.0 * m1**2 * raw[1] / n - 3.0 * m1**4
    return m2, m3, m4


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else all of them."""
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _in_order(pool, fn, items, window: int):
    """Yield ``fn(item)`` for each item, in order, computed on ``pool``
    with at most ``window`` items submitted and not yet yielded."""
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def run_ensemble(
    sm: StochasticMedium,
    grid: Grid,
    n_paths: int,
    master_seed: int,
    depths=None,
    workers: int = 1,
) -> EnsembleStats:
    """Per-depth mean and SEM of the exact pathwise intensity.

    ``n_paths``, even and at least 4, counts paths in antithetic pairs:
    each drawn row X also stands for its mirror -X, whose integrals are
    the row's negated, so a pair's mean factor is ``cosh(alpha sigma_a I)``
    for one draw.  The SEM is taken over the ``n_paths / 2`` pair means,
    which are independent where the two paths of a pair are not
    (Hammersley & Morton, Proc. Camb. Phil. Soc. 52, 449, 1956).  Paths
    are drawn in fixed blocks of CHUNK_PATHS, block c as half as many rows
    from the stream keyed by (master_seed, c), tile by tile into one
    buffer (FieldSampler.normals): a worker turns each tile into its
    integrals and adds them to the block's partial sums.  At most two
    blocks per thread are in flight, on ``min(workers, usable_cpus())``
    threads at most, and their partial sums are added in
    block order, so memory does not grow with n_paths and the result is
    bit-identical for any worker count.  One FieldSampler (for a dense
    route, one covariance factor) is built and shared read-only by the
    workers.  The sampler and what the workers hold, ``ensemble_bytes``,
    are charged to the budget before the sampler is built (MemoryBudgetExceeded).

    Every route integrates as the running sum of ``w_k (X_(k-1) + X_k)``
    over its nodes (``grf.running_integral``), read at the depths alone
    (``grf.depth_reader``).  Dense kernels
    take the grid's points with the trapezoid's ``w = h/2`` and integrate
    their factor once (``_integrated_factor``): a tile of normals times
    that basis is its integrals, with no node values formed.  ``kappa = 1``
    turns the tile into node values in place (``FieldSampler.transform``)
    at ``{0} U depths`` only (``grf.stepping_nodes``) and weights
    each step by its exact conditional mean given its ends
    (``grf.ou_bridge``); the bridges' summed variance V(z) enters each
    depth's mean as the exact factor ``exp((alpha sigma_a)^2 V(z) / 2)``,
    so the estimate is unbiased for the continuum law on any grid.  The
    integral's moments and ``bridge_variance`` are the deepest depth's.

    Emits a ReliabilityWarning when the exponent standard deviation
    alpha*sigma_a*sqrt(Var int G) at the deepest requested depth exceeds
    1.5, with ``Var int_0^z G = 2 ordered_double_integral(kernel, z)``:
    sample means of such heavy-tailed lognormals converge poorly.
    Raises ValueError, naming the first such depth, when a depth's mean or
    SEM is not finite: its pair factors or their squares overflowed.
    """
    if n_paths < 4 or n_paths % 2:
        raise ValueError(f"n_paths must be even and >= 4, got {n_paths}")
    medium = sm.medium
    depths = checked_depths(
        default_depths(grid) if depths is None else np.asarray(depths, dtype=float),
        grid.length,
    )
    if depths.ndim > 1 or depths.size == 0:
        raise ValueError(
            f"depths must be a scalar or a non-empty 1-D array, got {depths.shape}"
        )
    depths = np.atleast_1d(depths)

    scale = medium.alpha * medium.sigma_a
    last = int(np.argmax(depths))
    deepest = float(depths[last])
    if deepest > 0 and scale > 0:
        exponent_std = scale * math.sqrt(2.0 * ordered_double_integral(sm.kernel, deepest))
        if exponent_std > _HEAVY_TAIL_STD:
            warnings.warn(
                f"exponent std {exponent_std:.2f} > {_HEAVY_TAIL_STD}: the "
                "lognormal sample mean is heavy-tailed and the reported SEM "
                "may understate the error",
                ReliabilityWarning,
                stacklevel=2,
            )

    nodes = stepping_nodes(sm.kernel, grid, depths)
    chunks = range((n_paths + CHUNK_PATHS - 1) // CHUNK_PATHS)
    streams = max(1, min(workers, len(chunks)))
    check_budget(
        ensemble_bytes(sm.kernel, grid, n_paths, depths, workers),
        f"an ensemble's sampler and {streams} worker(s)' tiles on {nodes.size} points",
    )
    threads = min(streams, usable_cpus())
    sampler = FieldSampler(sm.kernel, grid, nodes)
    weights, variances = sampler.step_weights()
    read = depth_reader(nodes, depths, grid.spacing)
    dense = sampler.route != AR1_ROUTE
    if dense:
        basis = _integrated_factor(sampler.factor, weights, read)
    bridged = read(np.cumsum(variances))
    bridge_variance = float(bridged[last])
    # The depth's Beer exponent and the bridges' exact variance factor in
    # one exp (V = 0 on the dense route, whose sums carry all the variance).
    exponent = 0.5 * squared(scale) * bridged - medium.sigma_a * depths
    prefactor = medium.i0 * np.exp(exponent)

    def chunk_partials(chunk: int):
        pairs = min(CHUNK_PATHS, n_paths - chunk * CHUNK_PATHS) // 2
        tallest = tile_rows(sm.kernel, nodes.size, grid.length, pairs)
        normals = np.empty((tallest, sampler.rank))
        product = np.empty((tallest, basis.shape[1])) if dense else None
        factor_sum = factor_sq_sum = raw = 0.0
        for tile in sampler.normals(master_seed, chunk, pairs, out=normals):
            if dense:
                integrals = np.matmul(tile, basis, out=product[: len(tile)])
            else:
                integrals = read(running_integral(sampler.transform(tile), weights))
            raw = raw + _power_sums(integrals[:, last])
            sums, sq_sums = _pair_factor_sums(integrals, scale)
            factor_sum = factor_sum + sums
            factor_sq_sum = factor_sq_sum + sq_sums
            # The AR(1) integrals go before the next draw, so the allocator
            # reuses their blocks for the next tile's, not faulting in new ones.
            del integrals
        return factor_sum, factor_sq_sum, raw

    factor_sum = np.zeros(prefactor.shape)
    factor_sq_sum = np.zeros(prefactor.shape)
    raw_moments = np.zeros(4)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for f_sum, f_sq, raw in _in_order(pool, chunk_partials, chunks, 2 * threads):
            factor_sum += f_sum
            factor_sq_sum += f_sq
            raw_moments += raw

    # The pair means are independent; the two paths of a pair are not.
    n_pairs = n_paths // 2
    mean_factor = 1.0 + factor_sum / n_pairs
    factor_var = np.maximum(
        (factor_sq_sum - factor_sum**2 / n_pairs) / (n_pairs - 1), 0.0
    )
    mean = prefactor * mean_factor
    sem = prefactor * np.sqrt(factor_var / n_pairs)
    finite = np.isfinite(mean) & np.isfinite(sem)
    if not finite.all():
        raise ValueError(
            "the ensemble mean or SEM is not finite at depth "
            f"z = {depths[np.argmin(finite)]:g} cm: the pair factors "
            "cosh(alpha*sigma_a*I) of the sampled integrals I, or their "
            "squares, overflow"
        )

    m2, m3, m4 = _central_moments(raw_moments, n_pairs)
    with np.errstate(all="ignore"):
        skewness, excess_kurtosis = float(m3 / m2**1.5), float(m4 / m2**2 - 3.0)
    # Not available where the integrals' powers pass the float range: a
    # zero-mean Gaussian's m2 is 0 only where they underflow.
    if not (m2 > 0 and math.isfinite(skewness) and math.isfinite(excess_kurtosis)):
        skewness = excess_kurtosis = math.nan

    return EnsembleStats(
        depths=depths,
        mean=mean,
        sem=sem,
        n_paths=n_paths,
        integral_skewness=skewness,
        integral_excess_kurtosis=excess_kurtosis,
        sampler_route=sampler.route,
        jitter=sampler.jitter,
        rank=sampler.rank,
        left_out=sampler.left_out,
        bridge_variance=bridge_variance,
    )


def lognormal_oracle(sm: StochasticMedium, z: float) -> float:
    """Analytic mean intensity from the Gaussian moment identity alone.

    E<e^X> = e^{Var(X)/2} with Var(X) = alpha^2 * sigma_a^2 times the
    covariance integral over [0, z]^2 by the tensor-product rule of
    square_double_integral (diagonal panels split at the kink).  Shares
    no code with either the erf closed form or the path sampler, so it
    can referee both.
    """
    medium = sm.medium
    variance = squared(medium.alpha, medium.sigma_a) * square_double_integral(sm.kernel, z)
    # One exp, not beer(z) * exp(variance / 2): deep in the slab the first
    # underflows and the second overflows where their product is finite.
    return float(medium.i0 * np.exp(0.5 * variance - medium.sigma_a * z))
