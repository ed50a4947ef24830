"""Monte Carlo ensemble of exact pathwise attenuation solutions.

Each sampled path has the closed pathwise solution
``I0 * exp(-sigma_a*z - alpha*sigma_a*int_0^z G)``, its integral one
weighted running sum over the nodes it is drawn at (``running_integral``).
For kappa = 1 the ensemble draws the field only at the output depths,
integrates each tile of node values and weights each step by its exact
Ornstein-Uhlenbeck bridge, so its mean has no discretization error at
all.  Other kernels take the trapezoid rule's weights on the grid, and
as a path's integrals are linear in its normals, the ensemble integrates
the covariance factor once, at the depths and over the slab, and turns
each tile of normals into integrals by one product, forming no node
values.  An explicit Euler integrator is kept
alongside as an independent cross-check, and an analytic lognormal
oracle (Gaussian moment identity plus tensor-product quadrature)
bypasses both the sampler and the erf closed form.
"""

from __future__ import annotations

import math
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
from .medium import MediumSpec, StochasticMedium
from .quadrature import ordered_double_integral, square_double_integral

_MAX_DEFAULT_ROWS = 256
# Arrays of (tile rows, nodes + gathered depths) one AR(1)-route worker
# holds at once: a tile's values, its running integral and the integrals
# gathered (or blended) at the depths, which the reduction turns into
# factors and their squares in place (tracemalloc peaks while two chunks
# stream: 1.3 to 2.0 of them for n from 51 to 2001), with a margin.
_STREAM_ARRAYS = 4
# Exponent standard deviations above this make the lognormal sample mean
# heavy-tailed enough that the SEM stops being trustworthy.
_HEAVY_TAIL_STD = 1.5


@dataclass(frozen=True)
class EnsembleStats:
    """Per-depth summary of an ensemble run.

    n_paths counts paths, both halves of each mirrored pair, and sem is
    taken over the pair means.  The integral skewness/kurtosis, over the
    drawn rows only (the mirror would make every odd moment 0), describe
    the path integral of the field over the whole slab, which should be
    Gaussian: the trapezoid integral of the grid field on the dense route
    and, for kappa = 1, the exact conditional mean given the stepping
    nodes, of which bridge_variance is the variance the bridges leave out,
    V(L) (0 on the dense route).  They are NaN, not available, where the
    rows' powers underflow or overflow.
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
    and exists only as an independent integrator cross-check.  Raises
    ValueError for values of any other shape (``checked_values``) or an
    array of depths, and OutOfDomain for z outside [0, L], NaN included
    (``one_depth``).
    """
    values = checked_values(grid, values)
    z = one_depth(z, grid.length)
    points = grid.points
    last = min(int(np.searchsorted(points, z, side="right")) - 1, grid.n_points - 1)
    # The step factors 1 - sigma_a (1 + alpha G) h, built in one buffer.
    steps = np.multiply(medium.alpha, values[..., :last])
    steps += 1.0
    steps *= medium.sigma_a
    steps *= grid.spacing
    np.subtract(1.0, steps, out=steps)
    intensity = medium.i0 * np.prod(steps, axis=-1)
    partial = z - points[last]
    if partial > 0:
        coeff = medium.sigma_a * (1.0 + medium.alpha * values[..., last])
        intensity = intensity * (1.0 - coeff * partial)
    return intensity


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
    routes that is the ``(rank, d + 1)`` basis of ``_integrated_factor``
    and, per concurrent worker, the normals buffer and the ``(rows, d + 1)``
    product buffer, with ``rank`` charged as ``n``, its bound, as the
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
        columns = depths.size + 1
        streamed = 8 * (n * columns + streams * rows * (n + columns))
    else:
        gathered = 0 if np.array_equal(depths, nodes) else depths.size
        streamed = 8 * _STREAM_ARRAYS * streams * rows * (n + gathered)
    return sampler_bytes(kernel, n, streamed)


def _integrated_factor(factor: np.ndarray, weights, read) -> np.ndarray:
    """The dense routes' ``(rank, d + 1)`` basis ``B``: the columns of the
    factor ``F`` integrated by ``running_integral`` with the step
    ``weights``, read at the depths by ``read`` (a ``depth_reader``), and
    the slab integral at ``L`` last.  A path's integrals are linear in its
    normals, so a row of normals times ``B`` gives what the row's node
    values ``normals @ F^T`` would, integrated and read, up to rounding."""
    sums = running_integral(factor.T, weights)
    return np.concatenate((read(sums), sums[:, -1:]), axis=1)


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
    from the stream keyed by (master_seed, c), cut into row tiles
    (FieldSampler.normals): a worker turns each tile into its integrals at
    the depths and adds them to the block's partial sums, so no whole
    block of rows is held unless a tile is one.
    At most two blocks per worker are in flight, and their partial sums
    are added in block order, so memory does not grow with n_paths and
    the result is bit-identical for any worker count.  One FieldSampler
    (for a dense route, one covariance factor) is built and shared
    read-only by the workers.  The sampler and what the workers hold,
    ``ensemble_bytes``, are charged to the memory budget before the
    sampler is built (MemoryBudgetExceeded).

    Every route integrates as the running sum of ``w_k (X_(k-1) + X_k)``
    over its nodes (``grf.running_integral``), read at the depths by
    ``grf.depth_reader``.  Dense kernels take the grid's points with the
    trapezoid's ``w = h/2``, and integrate their factor once: a tile of
    normals times the ``(rank, d + 1)`` basis of ``_integrated_factor``
    is its integrals at the depths and over the slab, one product into a
    buffer the block reuses, with no node values formed.  ``kappa = 1``
    integrates each tile of node values (``FieldSampler.tiles``), drawn at
    ``{0} U depths U {L}`` only (``grf.stepping_nodes``) with the weights
    of each step's exact conditional mean given its ends
    (``grf.ou_bridge``); the bridges' summed variance V(z) enters each
    depth's mean as the exact factor ``exp((alpha sigma_a)^2 V(z) / 2)``,
    so the estimate is unbiased for the continuum law on any grid.

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
    deepest = float(depths.max())
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
    sampler = FieldSampler(sm.kernel, grid, nodes)
    weights, variances = sampler.step_weights()
    read = depth_reader(nodes, depths, grid.spacing)
    dense = sampler.route != AR1_ROUTE
    if dense:
        basis = _integrated_factor(sampler.factor, weights, read)
    bridged = np.cumsum(variances)
    bridge_variance = float(bridged[-1])
    # The depth's Beer exponent and the bridges' exact variance factor in
    # one exp (V = 0 on the dense route, whose sums carry all the variance).
    exponent = 0.5 * scale**2 * read(bridged) - medium.sigma_a * depths
    prefactor = medium.i0 * np.exp(exponent)

    def chunk_partials(chunk: int):
        pairs = min(CHUNK_PATHS, n_paths - chunk * CHUNK_PATHS) // 2
        if dense:
            tallest = tile_rows(sm.kernel, nodes.size, grid.length, pairs)
            normals = np.empty((tallest, sampler.rank))
            product = np.empty((tallest, basis.shape[1]))
            tiles = sampler.normals(master_seed, chunk, pairs, out=normals)
        else:
            tiles = sampler.tiles(master_seed, chunk, pairs)
        factor_sum = factor_sq_sum = 0.0
        slab_integral = np.empty(pairs)
        start = 0
        for tile in tiles:
            rows = len(tile)
            if dense:
                # the integrals at the depths, then over the slab
                integrals = np.matmul(tile, basis, out=product[:rows])
                slab_integral[start : start + rows] = integrals[:, -1]
            else:
                sums = running_integral(tile, weights)
                slab_integral[start : start + rows] = sums[:, -1]
                integrals = read(sums)
                del sums
            start += rows
            # The dense route reduces its slab column too, as one pass over a
            # contiguous buffer, and drops it: there cosh may overflow where
            # no depth's does (a depth's overflow raises below).
            sums, sq_sums = _pair_factor_sums(integrals, scale)
            factor_sum = factor_sum + sums
            factor_sq_sum = factor_sq_sum + sq_sums
            # The AR(1) factors go now and the values when the next tile
            # replaces them, which leaves the peak, reached in read, where
            # it was: the allocator then reuses their blocks from tile to
            # tile instead of returning them to the system and faulting
            # them in again.
            del integrals
        raw = _power_sums(slab_integral)
        return factor_sum[: depths.size], factor_sq_sum[: depths.size], raw

    factor_sum = np.zeros(prefactor.shape)
    factor_sq_sum = np.zeros(prefactor.shape)
    raw_moments = np.zeros(4)
    with ThreadPoolExecutor(max_workers=streams) as pool:
        for f_sum, f_sq, raw in _in_order(pool, chunk_partials, chunks, 2 * streams):
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
    variance = (
        medium.alpha**2
        * medium.sigma_a**2
        * square_double_integral(sm.kernel, z)
    )
    # One exp, not beer(z) * exp(variance / 2): deep in the slab the first
    # underflows and the second overflows where their product is finite.
    return float(medium.i0 * np.exp(0.5 * variance - medium.sigma_a * z))
