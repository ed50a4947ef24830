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
by one product, forming no node values.  An explicit Euler integrator is
kept alongside as an independent cross-check, and an analytic lognormal
oracle (Gaussian moment identity plus tensor-product quadrature)
bypasses both the sampler and the erf closed form.
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
from .medium import MediumSpec, StochasticMedium
from .quadrature import ordered_double_integral, square_double_integral

_MAX_DEFAULT_ROWS = 256
# Arrays of (tile rows, nodes + gathered ends) one AR(1)-route worker
# holds at once: its normals, made a tile's values in place, their running
# integral and the integrals read at the _ends, which the reduction turns
# into factors and their squares in place (tracemalloc peaks at 2.1 to 2.5
# of them per worker while two chunks stream, n 51 to 2001), with a margin.
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


def _ends(depths: np.ndarray, length: float) -> np.ndarray:
    """The depths ``run_ensemble`` reads at: ``depths``, then ``L`` unless
    it is the last, so the slab's integral is the last column."""
    return depths if depths[-1] == length else np.append(depths, length)


def ensemble_bytes(
    kernel: CorrelationKernel, grid: Grid, n_paths: int, depths, workers: int
) -> int:
    """The bytes ``run_ensemble`` charges before it builds anything: its
    sampler (``grf.sampler_bytes``) with what it holds beside it, by its
    tallest tile (``grf.tile_rows``) and its ``n`` nodes.  On the dense
    routes that is the ``(rank, d')`` basis of ``_integrated_factor`` and,
    per worker asked for, the normals and ``(rows, d')`` product buffers,
    with ``rank`` and ``d'`` charged as their bounds ``n`` and ``d + 1``,
    as the factor is not built yet.  On the AR(1) route it is, per worker,
    ``_STREAM_ARRAYS`` arrays of the tile's rows by its nodes and, unless
    they are the nodes in order, its ``_ends``."""
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
        ends = _ends(depths, grid.length)
        gathered = 0 if np.array_equal(ends, nodes) else ends.size
        streamed = 8 * _STREAM_ARRAYS * streams * rows * (n + gathered)
    return sampler_bytes(kernel, n, streamed)


def _integrated_factor(factor: np.ndarray, weights, read) -> np.ndarray:
    """The dense routes' ``(rank, d')`` basis ``B``: the factor ``F``'s
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
    over its nodes (``grf.running_integral``), read at the depths and
    then over the slab (``_ends``, ``grf.depth_reader``).  Dense kernels
    take the grid's points with the trapezoid's ``w = h/2`` and integrate
    their factor once (``_integrated_factor``): a tile of normals times
    that basis is its integrals, with no node values formed.  ``kappa = 1``
    turns the tile into node values in place (``FieldSampler.transform``)
    at ``{0} U depths U {L}`` only (``grf.stepping_nodes``) and weights
    each step by its exact conditional mean given its ends
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
    threads = min(streams, usable_cpus())
    sampler = FieldSampler(sm.kernel, grid, nodes)
    weights, variances = sampler.step_weights()
    read = depth_reader(nodes, _ends(depths, grid.length), grid.spacing)
    dense = sampler.route != AR1_ROUTE
    if dense:
        basis = _integrated_factor(sampler.factor, weights, read)
    bridged = np.cumsum(variances)
    bridge_variance = float(bridged[-1])
    # The depth's Beer exponent and the bridges' exact variance factor in
    # one exp (V = 0 on the dense route, whose sums carry all the variance).
    exponent = 0.5 * scale**2 * read(bridged)[: depths.size] - medium.sigma_a * depths
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
            raw = raw + _power_sums(integrals[:, -1])
            # An appended slab column is reduced too, in one pass over the
            # tile, and dropped: there cosh may overflow where no depth's
            # does (a depth's overflow raises below).
            sums, sq_sums = _pair_factor_sums(integrals, scale)
            factor_sum = factor_sum + sums
            factor_sq_sum = factor_sq_sum + sq_sums
            # The AR(1) integrals go before the next draw, so the allocator
            # reuses their blocks for the next tile's, not faulting in new ones.
            del integrals
        return factor_sum[: depths.size], factor_sq_sum[: depths.size], raw

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
    variance = (
        medium.alpha**2
        * medium.sigma_a**2
        * square_double_integral(sm.kernel, z)
    )
    # One exp, not beer(z) * exp(variance / 2): deep in the slab the first
    # underflows and the second overflows where their product is finite.
    return float(medium.i0 * np.exp(0.5 * variance - medium.sigma_a * z))
