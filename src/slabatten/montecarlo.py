"""Monte Carlo ensemble of exact pathwise attenuation solutions.

Each sampled path has the closed pathwise solution
``I0 * exp(-sigma_a*z - alpha*sigma_a*int_0^z G)``, so the only
discretization in the headline estimate is the trapezoid quadrature of
the path integral.  An explicit Euler integrator is kept alongside as an
independent cross-check, and an analytic lognormal oracle (Gaussian
moment identity plus tensor-product quadrature) bypasses both the sampler and
the erf closed form.
"""

from __future__ import annotations

import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ReliabilityWarning
from .grf import CHUNK_PATHS, FieldSampler, Grid, check_budget, integral_at
from .grf import checked_depths, checked_values, one_depth
from .medium import MediumSpec, StochasticMedium, beer
from .quadrature import square_double_integral

_MAX_DEFAULT_ROWS = 256
# Arrays of (tile rows, n + depths) one worker holds at once: a tile's
# values, the running integral integral_at builds and the integrals at
# the depths, which the reduction turns into factors and their squares in
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
    Gaussian.  sampler_route is the FieldSampler route that drew the
    paths (grf.AR1_ROUTE or grf.CHOLESKY_ROUTE) and jitter the diagonal
    jitter its factor actually used (0 for the AR(1) recursion).
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

    sampler = FieldSampler(sm.kernel, grid)
    beer_depths = np.atleast_1d(np.asarray(beer(medium, depths), dtype=float))

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

    # The slab integral is read from one more depth column, at L: there
    # the interpolation weight of the upper node is 0, so the column is the
    # running integral's last entry exactly.
    tile_depths = np.append(depths, grid.length)

    def chunk_partials(chunk: int):
        count = min(CHUNK_PATHS, n_paths - chunk * CHUNK_PATHS)
        factor_sum = factor_sq_sum = 0.0
        slab_integral = np.empty(count)
        negatives = 0
        start = 0
        for values in sampler.tiles(master_seed, chunk, count):
            rows = len(values)
            integrals = integral_at(grid, values, tile_depths)
            slab_integral[start : start + rows] = integrals[:, -1]
            # The depth columns become the factors exp(-scale I), then their
            # squares, in place: no (rows, depths) temporaries.  The ufuncs
            # run over the whole contiguous block, several times faster than
            # over the strided depth columns, so the slab column, read
            # above, is zeroed to keep its unused factor finite.
            integrals[:, -1] = 0.0
            integrals *= -scale
            np.exp(integrals, out=integrals)
            factors = integrals[:, :-1]
            factor_sum = factor_sum + factors.sum(axis=0)
            np.square(integrals, out=integrals)
            factor_sq_sum = factor_sq_sum + factors.sum(axis=0)
            negatives += int(np.count_nonzero(values < neg_cut))
            start += rows
            # The integrals go now and the values when the next tile
            # replaces them, which leaves the peak, reached inside
            # integral_at, where it was: the allocator then reuses their
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
    check_budget(
        (0 if sampler.factor is None else sampler.factor.nbytes)
        + 8 * _STREAM_ARRAYS * streams * tile_rows * (grid.n_points + depths.size),
        f"{streams} worker(s) streaming tiles of {tile_rows} paths "
        f"on {grid.n_points} grid points",
    )
    factor_sum = np.zeros(beer_depths.shape)
    factor_sq_sum = np.zeros(beer_depths.shape)
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
    mean = beer_depths * mean_factor
    sem = beer_depths * np.sqrt(factor_var / n_paths)

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
        negative_coefficient_fraction=negative_count / (n_paths * grid.n_points),
        integral_skewness=skewness,
        integral_excess_kurtosis=excess_kurtosis,
        sampler_route=sampler.route,
        jitter=sampler.jitter,
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
