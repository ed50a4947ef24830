"""Monte Carlo ensemble of exact pathwise attenuation solutions.

Each sampled path has the closed pathwise solution
``I0 * exp(-sigma_a*z - alpha*sigma_a*int_0^z G)``.  For kappa = 1 the
ensemble draws the field only at the output depths and integrates each
step between them by its exact Ornstein-Uhlenbeck bridge, so its mean
has no discretization error at all; for other kernels the only
discretization is the trapezoid quadrature of the path integral on the
grid.  An explicit Euler integrator is kept alongside as an independent
cross-check, and an analytic lognormal oracle (Gaussian moment identity
plus tensor-product quadrature) bypasses both the sampler and the erf
closed form.
"""

from __future__ import annotations

import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ReliabilityWarning
from .grf import CHUNK_PATHS, CorrelationKernel, FieldSampler, Grid, check_budget
from .grf import checked_depths, checked_values, integral_at, one_depth, ou_bridge
from .medium import MediumSpec, StochasticMedium, beer
from .quadrature import square_double_integral

_MAX_DEFAULT_ROWS = 256
# Arrays of (tile rows, nodes + gathered depths) one worker holds at once:
# a tile's values, its running integral and the integrals gathered at the
# depths, which the reduction turns into factors and their squares in
# place (tracemalloc peaks while two chunks stream, with any factor
# already built: 1.3 to 2.0 of them for n from 51 to 2001, on both
# routes), with a margin.
_STREAM_ARRAYS = 4
# Exponent standard deviations above this make the lognormal sample mean
# heavy-tailed enough that the SEM stops being trustworthy.
_HEAVY_TAIL_STD = 1.5


@dataclass(frozen=True)
class EnsembleStats:
    """Per-depth summary of an ensemble run.

    negative_coefficient_fraction is the fraction of (path, grid point)
    pairs where the sampled absorption coefficient went negative, a
    model-validity diagnostic.  The integral skewness/kurtosis describe
    the path integral of the field over the whole slab, which should be
    Gaussian; for kappa = 1 that integral is its exact conditional mean
    given the stepping nodes, and bridge_variance is the variance the
    bridges leave out of it, V(L) (0 on the dense route).  sampler_route
    is the FieldSampler route that drew the paths (grf.AR1_ROUTE or
    grf.CHOLESKY_ROUTE) and jitter the diagonal jitter its factor
    actually used (0 for the AR(1) recursion).
    """

    depths: np.ndarray
    mean: np.ndarray
    sem: np.ndarray
    n_paths: int
    negative_coefficient_fraction: float
    integral_skewness: float
    integral_excess_kurtosis: float
    sampler_route: str
    jitter: float
    bridge_variance: float


def path_intensity(medium: MediumSpec, grid: Grid, values, depths):
    """Exact pathwise intensity I0*exp(-sigma_a*z - alpha*sigma_a*int_0^z G).

    ``values`` is one path ``(n,)`` or a block ``(rows, n)`` on ``grid``.
    One value per path row and depth: the result has shape
    ``values.shape[:-1] + np.shape(depths)``.
    """
    integral = integral_at(grid, values, depths)
    return beer(medium, depths) * np.exp(-medium.alpha * medium.sigma_a * integral)


def path_intensity_em(medium: MediumSpec, grid: Grid, values, z: float):
    """Explicit Euler stepping of the pathwise decay ODE on the path grid.

    ``values`` is one path ``(n,)`` or a block ``(rows, n)`` on ``grid``;
    one value per path row at the one depth ``z``.  First-order accurate
    in the grid spacing; converges to path_intensity under grid
    refinement and exists only as an independent integrator cross-check.
    Raises ValueError for values of any other shape (``checked_values``,
    as in integral_at) or an array of depths, and OutOfDomain for z
    outside [0, L], NaN included (``one_depth``).
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
    return grid.points[idx]


def ensemble_bytes(
    kernel: CorrelationKernel, grid: Grid, n_paths: int, n_depths: int, workers: int
) -> int:
    """A bound on the bytes ``run_ensemble`` charges to the memory budget at
    once, found without factoring or drawing anything, for a caller that
    runs other work beside it: the dense factor's build (``FieldSampler``),
    or the factor it keeps with the concurrent tile streams, each tile
    counted as tall as a chunk, with every depth as a gathered column and,
    for kappa = 1, every depth as a stepping node."""
    n = grid.n_points
    if kernel.exponent == 1:
        build = factor = 0
        width = n_depths + 2
    else:
        build, factor, width = 8 * 3 * n * n, 8 * n * n, n
    streams = max(1, min(workers, -(-n_paths // CHUNK_PATHS)))
    rows = min(CHUNK_PATHS, n_paths)
    return max(build, factor + 8 * _STREAM_ARRAYS * streams * rows * (width + n_depths))


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


def _stepping_nodes(grid: Grid, depths: np.ndarray):
    """The kappa-1 ensemble's nodes ``{0} U depths U {L}``, sorted and
    distinct, and each depth's column among them."""
    ends = np.sort(np.concatenate(([0.0], depths, [grid.length])))
    # np.unique would import numpy.ma on its first call
    keep = np.empty(ends.size, dtype=bool)
    keep[0] = True
    np.not_equal(ends[1:], ends[:-1], out=keep[1:])
    nodes = ends[keep]
    return nodes, np.searchsorted(nodes, depths)


def run_ensemble(
    sm: StochasticMedium,
    grid: Grid,
    n_paths: int,
    master_seed: int,
    depths=None,
    workers: int = 1,
) -> EnsembleStats:
    """Per-depth mean and SEM of the exact pathwise intensity.

    Paths are drawn in fixed blocks of CHUNK_PATHS, block c from the
    stream keyed by (master_seed, c).  A worker streams its block through
    row tiles (FieldSampler.tiles): each tile is drawn, transformed,
    integrated and added to the block's partial sums, so no
    (CHUNK_PATHS, n) array is held unless a dense tile is a whole block.
    At most two blocks per worker are in flight, and their partial sums
    are added in block order, so memory does not grow with n_paths and
    the result is bit-identical for any worker count.  One FieldSampler (for a dense
    route, one covariance factor) is built and shared read-only by the
    workers.  The concurrent tile streams and the factor are charged to
    the memory budget before anything is drawn (MemoryBudgetExceeded).

    For ``kappa = 1`` the field is drawn only at the stepping nodes
    ``{0} U depths U {L}`` (the grid's points when the depths are), one
    normal per node and path, and each step's integral is its exact
    conditional mean given its two ends (``grf.ou_bridge``); the bridges'
    summed variance V(z) enters each depth's mean as the exact factor
    ``exp((alpha sigma_a)^2 V(z) / 2)``, so the estimate is unbiased for
    the continuum law on any grid.  Every other kernel is drawn on the
    grid and integrated by the trapezoid rule (``integral_at``).

    Emits a ReliabilityWarning when the exponent standard deviation
    alpha*sigma_a*sqrt(Var int G) at the deepest requested depth exceeds
    1.5: sample means of such heavy-tailed lognormals converge poorly.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    medium = sm.medium
    depths = checked_depths(
        default_depths(grid) if depths is None else np.asarray(depths, dtype=float),
        grid.length,
    )
    if depths.ndim > 1 or depths.size == 0:
        raise ValueError(
            f"depths must be a scalar or a non-empty 1-D array, got {depths.shape}"
        )

    scale = medium.alpha * medium.sigma_a
    deepest = float(depths.max())
    if deepest > 0 and scale > 0:
        exponent_std = scale * np.sqrt(square_double_integral(sm.kernel, deepest))
        if exponent_std > _HEAVY_TAIL_STD:
            warnings.warn(
                f"exponent std {exponent_std:.2f} > {_HEAVY_TAIL_STD}: the "
                "lognormal sample mean is heavy-tailed and the reported SEM "
                "may understate the error",
                ReliabilityWarning,
                stacklevel=2,
            )

    # sigma_a (1 + alpha G) is never negative without alpha or sigma_a
    neg_cut = -1.0 / medium.alpha if min(medium.alpha, medium.sigma_a) > 0 else -np.inf
    n_depths = depths.size

    if sm.kernel.exponent == 1:
        nodes, columns = _stepping_nodes(grid, np.atleast_1d(depths))
        sampler = FieldSampler(sm.kernel, grid, nodes)
        weights, variances = ou_bridge(sm.kernel, np.diff(nodes))
        # Column k of a tile's sums pairs node k with node k - 1 and is
        # weighted by the step between them; column 0 is reset to 0.
        weights = np.concatenate(([0.0], weights))
        bridged = np.concatenate(([0.0], np.cumsum(variances)))
        bridge_variance = float(bridged[-1])
        bridged = bridged[columns]
        # On the depths' own columns, in order, the sums are reduced in place.
        gathered = not np.array_equal(columns, np.arange(nodes.size))

        def integrate(values, slab):
            # One pass over the flattened tile, as integral_at does: entry
            # j > 0 of a row is values[j] + values[j - 1], entry 0 pairs a
            # row's first value with the previous row's last.
            sums = np.empty(values.shape)
            flat = values.reshape(-1)
            np.add(flat[1:], flat[:-1], out=sums.reshape(-1)[1:])
            sums[:, 0] = 0.0
            sums *= weights
            np.cumsum(sums, axis=1, out=sums)
            slab[:] = sums[:, -1]
            # np.take keeps the rows contiguous, so the sums over paths below
            # add the same way whether the columns are gathered or not
            return np.take(sums, columns, axis=1) if gathered else sums

    else:
        sampler = FieldSampler(sm.kernel, grid)
        bridged = bridge_variance = 0.0
        gathered = True  # integral_at gathers the depth columns
        # The slab integral is read from one more depth column, at L: there
        # the interpolation weight of the upper node is 0, so the column is
        # the running integral's last entry exactly.
        tile_depths = np.append(depths, grid.length)

        def integrate(values, slab):
            integrals = integral_at(grid, values, tile_depths)
            slab[:] = integrals[:, -1]
            # zeroed, so the unused factor it becomes below stays finite
            integrals[:, -1] = 0.0
            return integrals

    # The depth's Beer exponent and the bridges' exact variance factor in
    # one exp (0 on the dense route, whose sums carry all the variance).
    prefactor = np.atleast_1d(
        medium.i0 * np.exp(0.5 * scale**2 * bridged - medium.sigma_a * depths)
    )

    def chunk_partials(chunk: int):
        count = min(CHUNK_PATHS, n_paths - chunk * CHUNK_PATHS)
        factor_sum = factor_sq_sum = 0.0
        slab_integral = np.empty(count)
        negatives = 0
        start = 0
        for values in sampler.tiles(master_seed, chunk, count):
            rows = len(values)
            integrals = integrate(values, slab_integral[start : start + rows])
            # The depth columns become the factors exp(-scale I), then their
            # squares, in place: no (rows, depths) temporaries.  The ufuncs
            # run over the whole contiguous block, several times faster than
            # over the strided depth columns.
            integrals *= -scale
            np.exp(integrals, out=integrals)
            factors = integrals[:, :n_depths]
            factor_sum = factor_sum + factors.sum(axis=0)
            np.square(integrals, out=integrals)
            factor_sq_sum = factor_sq_sum + factors.sum(axis=0)
            negatives += int(np.count_nonzero(values < neg_cut))
            start += rows
            # The integrals go now and the values when the next tile
            # replaces them, which leaves the peak, reached inside
            # integrate, where it was: the allocator then reuses their
            # blocks from tile to tile instead of returning them to the
            # system and faulting them in again.
            del integrals, factors
        raw = np.array(
            [
                slab_integral.sum(),
                (slab_integral**2).sum(),
                (slab_integral**3).sum(),
                (slab_integral**4).sum(),
            ]
        )
        return factor_sum, factor_sq_sum, raw, negatives

    chunks = range((n_paths + CHUNK_PATHS - 1) // CHUNK_PATHS)
    streams = max(1, min(workers, len(chunks)))
    tile_rows = min(sampler.tile_rows, CHUNK_PATHS, n_paths)
    width = sampler.nodes.size
    check_budget(
        (0 if sampler.factor is None else sampler.factor.nbytes)
        + 8 * _STREAM_ARRAYS * streams * tile_rows * (width + gathered * n_depths),
        f"{streams} worker(s) streaming tiles of {tile_rows} paths "
        f"on {width} nodes",
    )
    factor_sum = np.zeros(prefactor.shape)
    factor_sq_sum = np.zeros(prefactor.shape)
    raw_moments = np.zeros(4)
    negative_count = 0
    with ThreadPoolExecutor(max_workers=streams) as pool:
        for f_sum, f_sq, raw, negatives in _in_order(
            pool, chunk_partials, chunks, 2 * streams
        ):
            factor_sum += f_sum
            factor_sq_sum += f_sq
            raw_moments += raw
            negative_count += negatives

    mean_factor = factor_sum / n_paths
    factor_var = np.maximum(
        (factor_sq_sum - factor_sum**2 / n_paths) / (n_paths - 1), 0.0
    )
    mean = prefactor * mean_factor
    sem = prefactor * np.sqrt(factor_var / n_paths)

    m2, m3, m4 = _central_moments(raw_moments, n_paths)
    if m2 > 0:
        skewness = float(m3 / m2**1.5)
        excess_kurtosis = float(m4 / m2**2 - 3.0)
    else:
        skewness = 0.0
        excess_kurtosis = 0.0

    return EnsembleStats(
        depths=np.atleast_1d(depths),
        mean=mean,
        sem=sem,
        n_paths=n_paths,
        negative_coefficient_fraction=negative_count / (n_paths * width),
        integral_skewness=skewness,
        integral_excess_kurtosis=excess_kurtosis,
        sampler_route=sampler.route,
        jitter=sampler.jitter,
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
