"""Stationary Gaussian random fields on a uniform 1-D slab grid.

The field G(z) is zero-mean with two-point covariance
``C * exp(-|z1 - z2|**kappa / zeta**kappa)``.  Ensembles are cut into
fixed blocks of ``CHUNK_PATHS`` paths, and block ``c`` of master seed
``s`` is always one stream, ``SeedSequence(s, spawn_key=(c,))``, of
standard normals, one grid row per path.  A block is always drawn as
consecutive row tiles (``FieldSampler.tiles``), so a caller holds a few
tiles instead of whole blocks.  Tiles are a few hundred kilobytes on fine
AR(1) grids and grow, up to a whole block, where each tile repeats costly
work: the scan's per-column-block calls on coarse AR(1) grids, the pass
over the n x n factor on the dense route.  Each tile of normals becomes
field values by one transform that acts row by row.
For ``kappa = 1`` (an Ornstein-Uhlenbeck process, Markov on a uniform
grid) that is the exact AR(1) recursion
``x_i = rho*x_{i-1} + sqrt(C*(1 - rho**2))*xi_i`` with
``rho = exp(-h/zeta)`` (Gillespie, Phys. Rev. E 54, 2084, 1996), the
closed-form Cholesky factor of the grid covariance, evaluated as a
blocked, rescaled prefix sum (Blelloch, CMU-CS-90-190, 1990) in O(n)
time and no n x n storage.  Every other kernel is drawn by dense
Cholesky factorization of the grid covariance (exact for any kernel and
grid at the sizes used here), the normals times the transposed factor
in one matrix product.  A path is a plain array of grid values, ``(n,)``
for one path or ``(rows, n)`` for a block, and ``integral_at``
accumulates its integral with the composite trapezoid rule, matching the
Riemann-sum definition of the stochastic integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that
# cost out of the first tile drawn.
from numpy.random import SeedSequence, default_rng

from .errors import FactorizationFailure, MemoryBudgetExceeded, OutOfDomain

# Diagonal jitter ladder for the Cholesky factorization, relative to the
# kernel amplitude: start at 1e-12*C, multiply by 10 on failure, stop at
# 1e-6*C.
_JITTER_EXPONENTS = range(-12, -5)
# Grid.for_kernel resolves the correlation length with this many nodes.
_POINTS_PER_LENGTH = 10
# Paths per keyed stream: an ensemble draws block c of its paths as
# tiles(master_seed, c, CHUNK_PATHS), the last block shorter.
CHUNK_PATHS = 4096
# Bytes FieldSampler may need at once.  The dense route is charged the
# covariance, the copy and the factor np.linalg.cholesky holds at once;
# tiles its tallest tile and one tile of transform temporaries; an
# ensemble (montecarlo.run_ensemble) its concurrent tile streams and the
# dense factor.  2 GiB leaves room on an 8 GB machine.
_MEMORY_BUDGET = 2 * 2**30
# FieldSampler.tiles yields tiles of about this many bytes, so a tile and
# its running integral stay in cache, but never fewer than _MIN_TILE_ROWS
# rows: on long grids fewer rows leave too little work per numpy call
# for worker threads to overlap.  Dense-route tiles are taller (see
# FieldSampler.__init__).
_TILE_BYTES = 512 * 2**10
_MIN_TILE_ROWS = 64
# The AR(1) scan rescales a block of columns by rho**-m, m < K, with K the
# largest width keeping rho**-(K - 1) <= e**40, far inside the float range.
# Once h/zeta passes 40, K is 1: no power of 1/rho is formed and the scan
# is the plain recursion, finite down to rho = 0.
_SCAN_EXPONENT = 40.0
# Each K-column block of the scan costs a few numpy calls per tile, so an
# AR(1) tile has at least this many values per block: on coarse grids,
# with few columns per block, tiles grow (to a whole chunk once h/zeta
# passes 20) instead of paying those calls once per few dozen rows.
_SCAN_BLOCK_VALUES = 8192
# FieldSampler.route values.
AR1_ROUTE = "ar1"
CHOLESKY_ROUTE = "cholesky"


@dataclass(frozen=True)
class CorrelationKernel:
    """Two-point covariance ``C * exp(-|dz|^kappa / zeta^kappa)``.

    Parameters
    ----------
    amplitude : float
        Variance C at zero separation, dimensionless, > 0.
    correlation_length : float
        Decay scale zeta in cm, > 0.  As zeta -> 0 the off-diagonal
        covariance vanishes and the field degenerates toward white noise.
    exponent : float
        Shape exponent kappa.  1 gives colored (Ornstein-Uhlenbeck-like)
        noise, 2 the squared-exponential (Bargmann-Fock) field, values
        above 2 a super-Gaussian correlation.  Exponents below 1 are
        rejected because they break positive-definiteness on fine grids.
        Note the kappa=1 kernel is not mean-square differentiable at
        coincident points; only kappa=2 is genuinely smooth there.
    """

    amplitude: float
    correlation_length: float
    exponent: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and > 0, got {self.amplitude}")
        if not 0 < self.correlation_length < math.inf:
            raise ValueError(
                "correlation_length must be finite and > 0, "
                f"got {self.correlation_length}"
            )
        if not 1 <= self.exponent < math.inf:
            raise ValueError(
                f"exponent must be finite and >= 1, got {self.exponent} "
                "(kernels below 1 are not positive definite on fine grids)"
            )
        try:
            self.correlation_length**self.exponent
        except OverflowError:
            raise ValueError(
                f"correlation_length**exponent overflows: "
                f"{self.correlation_length}**{self.exponent}"
            ) from None

    def evaluate(self, z1, z2):
        """Covariance between planes z1 and z2 (vectorized, total function).

        Depends only on |z1 - z2|, so it is symmetric and invariant under
        common shifts of both arguments; coincident points return exactly
        the amplitude.
        """
        # One buffer for the whole formula: a grid covariance is n x n.  The
        # subtraction allocates it; two scalars give a numpy scalar, which
        # the in-place chain needs as a 0-d array.
        out = np.subtract(z1, z2, dtype=float)
        if out.ndim == 0:
            out = np.asarray(out)
        np.abs(out, out=out)
        out **= self.exponent
        np.negative(out, out=out)
        out /= self.correlation_length**self.exponent
        np.exp(out, out=out)
        out *= self.amplitude
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Grid:
    """Uniform abscissae 0 = Z_0 < Z_1 < ... < Z_{n-1} = L."""

    length: float
    n_points: int

    def __post_init__(self) -> None:
        if not 0 < self.length < math.inf:
            raise ValueError(f"length must be finite and > 0, got {self.length}")
        if not self.n_points >= 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        check_budget(
            8 * self.n_points, f"the node array of a grid of {self.n_points:.6g} points"
        )

    @property
    def spacing(self) -> float:
        return self.length / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_points)

    @classmethod
    def for_kernel(cls, length: float, kernel: CorrelationKernel) -> "Grid":
        """Grid fine enough to resolve the correlation length.

        Chooses n_points so the spacing is at most
        ``correlation_length / 10``.  Override by constructing a Grid
        directly when a specific resolution is needed.
        """
        target = kernel.correlation_length / _POINTS_PER_LENGTH
        # Checked as a float first: the count may overflow to inf (or target
        # underflow to 0), and inf has no integer for Grid to check.
        cells = length / target if target > 0 else math.inf
        check_budget(8 * cells, f"the node array of a grid of {cells:.6g} points")
        return cls(length, max(2, math.ceil(cells) + 1))


def checked_depths(z, length: float = math.inf):
    """``z`` checked to be finite and lie in ``[0, length]`` (NaN and inf
    are rejected): a Python int or float (numpy float64 included) as is,
    anything else as a float array.

    Every call that takes a depth checks it here, so a bad depth raises
    OutOfDomain, a ValueError, whichever route it is given to.  A scalar
    depth skips the array round trip, which costs more than a closed form.
    """
    if isinstance(z, (int, float)):
        valid = 0 <= z < math.inf and z <= length
    else:
        z = np.asarray(z, dtype=float)
        valid = np.all((z >= 0) & (z < math.inf) & (z <= length))
    if not valid:
        raise OutOfDomain(f"depths must be finite and lie within [0, {length}]")
    return z


def one_depth(z, length: float = math.inf):
    """``z`` checked by ``checked_depths``, and to be one depth: calls that
    take a depth at a time raise ValueError for an array of them."""
    z = checked_depths(z, length)
    if not isinstance(z, (int, float)) and z.ndim:
        raise ValueError(
            f"z must be one depth, got an array of shape {z.shape}; "
            "pass one depth at a time"
        )
    return z


def checked_values(grid: Grid, values) -> np.ndarray:
    """``values`` as a float array, checked to be one path ``(n,)`` or a
    block ``(rows, n)`` on ``grid``; ValueError otherwise."""
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != grid.n_points:
        raise ValueError(
            f"values shape {values.shape} does not match grid "
            f"({grid.n_points},) or (rows, {grid.n_points})"
        )
    return values


def integral_at(grid: Grid, values, depths):
    """Trapezoid integral of the field from 0 to each depth, linear between nodes.

    ``values`` holds one path, shape ``(n,)``, or a block of paths, shape
    ``(rows, n)``, with ``values[..., q]`` the field at Z_q (dimensionless;
    the integral is in cm).  The result has shape
    ``values.shape[:-1] + np.shape(depths)`` and is exactly 0 at depth 0.
    Each row is integrated on its own, so a block gives bit-identical
    results to its rows taken one at a time.  ``depths`` is a scalar or an
    array.  A depth between nodes interpolates linearly between its two
    nodes' running integrals; when every depth is a node, the nodes'
    running integrals are read directly, the same bits the interpolation
    gives them (weights 1 and 0) for finite values.  Raises ValueError
    for values of any other shape (``checked_values``) and OutOfDomain for
    depths outside [0, L], NaN included (``checked_depths``).
    """
    values = checked_values(grid, values)
    depths = np.asarray(checked_depths(depths, grid.length), dtype=float)
    # The trapezoid segments are built and summed inside the running
    # integral, so a block costs one array beyond its values (two for a
    # strided view, copied contiguous first).  They are formed in one pass
    # over the flattened block: entry j > 0 of a row is
    # values[j] + values[j - 1], and entry 0, which pairs a row's first
    # value with the previous row's last, is reset to 0.
    cumulative = np.empty(values.shape)
    flat = np.ascontiguousarray(values).reshape(-1)
    segments = cumulative.reshape(-1)[1:]
    np.add(flat[1:], flat[:-1], out=segments)
    segments *= 0.5 * grid.spacing
    cumulative[..., 0] = 0.0
    running = cumulative[..., 1:]
    np.cumsum(running, axis=-1, out=running)
    points = grid.points
    # A depth on a node gets frac = 0 and the node's value exactly; the
    # last node is its own upper neighbour.
    idx = np.searchsorted(points, depths, side="right") - 1
    frac = (depths - points[idx]) / grid.spacing
    if not frac.any():
        # Every depth is a node, where the interpolation would weight the
        # node by 1 and its upper neighbour by 0: read the node directly
        # ([()] gives a numpy scalar for one path and one depth, as the
        # interpolation does).
        return cumulative[..., idx][()]
    upper = np.minimum(idx + 1, grid.n_points - 1)
    return cumulative[..., idx] * (1.0 - frac) + cumulative[..., upper] * frac


def covariance_matrix(kernel: CorrelationKernel, grid: Grid) -> np.ndarray:
    """Grid covariance M[i, j] = kernel.evaluate(Z_i, Z_j).

    Symmetric with diagonal equal to the amplitude; positive semidefinite
    up to rounding for exponents in [1, 2].
    """
    z = grid.points
    return kernel.evaluate(z[:, None], z[None, :])


def _cholesky_with_jitter(matrix: np.ndarray, amplitude: float):
    """Factor ``matrix + jitter*I`` climbing the jitter ladder.

    The jitter is written onto the diagonal of ``matrix`` in place, so
    the caller must not need the matrix afterwards.  Returns the
    lower-triangular factor and the jitter that succeeded.  Raises
    FactorizationFailure once the ladder is exhausted.
    """
    diagonal = matrix.diagonal().copy()
    for expo in _JITTER_EXPONENTS:
        jitter = amplitude * 10.0**expo
        np.fill_diagonal(matrix, diagonal + jitter)
        try:
            return np.linalg.cholesky(matrix), jitter
        except np.linalg.LinAlgError:
            continue
    raise FactorizationFailure(
        "covariance is not positive definite even at maximum jitter "
        f"({amplitude * 10.0 ** _JITTER_EXPONENTS[-1]:.1e}); "
        "the kernel/grid pair is invalid (shape exponents above 2 are not "
        "positive semidefinite)"
    )


def check_budget(needed: int, what: str) -> None:
    """Raise MemoryBudgetExceeded when ``needed`` bytes pass the budget."""
    if needed > _MEMORY_BUDGET:
        raise MemoryBudgetExceeded(
            f"{what} needs about {needed / 2**30:.3g} GiB, above the "
            f"{_MEMORY_BUDGET / 2**30:.0f} GiB budget; use fewer grid points "
            "or a longer correlation length"
        )


class FieldSampler:
    """Draws field paths for one (kernel, grid) pair.

    The kernel alone picks the route.  ``kappa = 1`` uses the exact AR(1)
    recursion (``route == AR1_ROUTE``, with ``rho`` and the innovation
    scale ``innovation``, ``factor`` None and ``jitter`` 0);
    any other kernel the dense Cholesky factor of the grid covariance,
    computed once at construction (``route == CHOLESKY_ROUTE``, with the
    diagonal ``jitter`` that made it succeed).  Sampling is then pure in
    (seed, chunk, count), so a single sampler can be shared read-only
    across concurrent workers.  ``tiles`` is the one draw method: it reads
    block ``chunk`` from its keyed stream and sends every tile of normals
    through the same row-by-row transform, so on the AR(1) route a row is
    bit-identical however its block was cut into tiles; a dense-route row
    may differ in the last bits, since a matrix product of another height
    can take another BLAS kernel.  Requests above the memory budget raise
    MemoryBudgetExceeded before anything is allocated: a dense grid at
    construction, a tile before the first one is drawn.  ``tile_rows`` is
    the height of the tiles ``tiles`` yields, at most.
    """

    def __init__(self, kernel: CorrelationKernel, grid: Grid):
        self.kernel = kernel
        self.grid = grid
        n = grid.n_points
        self.tile_rows = max(_MIN_TILE_ROWS, _TILE_BYTES // (8 * n))
        if kernel.exponent == 1:
            steps = grid.spacing / kernel.correlation_length
            self.route = AR1_ROUTE
            self.rho = math.exp(-steps)
            # sqrt(C (1 - rho^2)), accurate also when rho is close to 1
            self.innovation = math.sqrt(kernel.amplitude * -math.expm1(-2.0 * steps))
            self.factor, self.jitter = None, 0.0
            if steps * (n - 1) <= _SCAN_EXPONENT:
                width = n
            else:
                width = 1 + int(_SCAN_EXPONENT / steps)
            # Per-column factors of the scan in _transform: block powers
            # rho**m, m = column mod K, and the input scales.
            self._growth = np.resize(self.rho ** np.arange(width), n)
            self._shrink = self.innovation / self._growth
            self._shrink[0] = math.sqrt(kernel.amplitude)
            self._carry = self.rho**width
            self._width = width
            self.tile_rows = max(self.tile_rows, -(-_SCAN_BLOCK_VALUES // width))
            return
        check_budget(
            8 * 3 * n * n, f"the dense covariance factor of a grid of {n} points"
        )
        self.route = CHOLESKY_ROUTE
        self.factor, self.jitter = _cholesky_with_jitter(
            covariance_matrix(kernel, grid), kernel.amplitude
        )
        # Each tile's product reads the whole factor again, so a dense tile
        # has at least n rows: it then holds no more than the factor does,
        # and the product runs at the speed of a whole block.
        self.tile_rows = max(self.tile_rows, n)

    def tiles(self, master_seed: int, chunk: int, count: int):
        """Yield the ``count`` paths of block ``chunk`` as consecutive row tiles.

        Each tile has shape ``(rows, n)`` with ``rows`` at most
        ``tile_rows`` (and balanced, so no tile is a sliver).  The tiles
        are consecutive draws from the block's one stream,
        ``SeedSequence(master_seed, spawn_key=(chunk,))``, so the same
        (master_seed, chunk, count) always gives the same bits, also from
        concurrent threads.  The AR(1) recursion is the dense factor in
        closed form, so both routes give the same paths for the same key
        up to the dense route's jitter (about 1e-11).  Pass a tile to
        ``integral_at`` for its integrals up to given depths.
        """
        n = self.grid.n_points
        n_tiles = max(1, -(-count // self.tile_rows))
        base, extra = divmod(count, n_tiles)
        rows = base + (extra > 0)
        check_budget(8 * 2 * rows * n, f"a tile of {rows} paths on {n} grid points")
        stream = default_rng(SeedSequence(master_seed, spawn_key=(chunk,)))
        for t in range(n_tiles):
            yield self._transform(stream.standard_normal((base + (t < extra), n)))

    def _transform(self, normals: np.ndarray) -> np.ndarray:
        """Field values from a ``(rows, n)`` tile of normals, row by row."""
        if self.route == CHOLESKY_ROUTE:
            return normals @ self.factor.T
        # x_0 = sqrt(C) xi_0, x_i = rho x_{i-1} + sqrt(C (1 - rho^2)) xi_i, in
        # place.  With b = innovation xi, a block of K columns after the
        # carry c = x_{a-1} is x_{a+m} = rho^m y_m with
        # y_m = rho c + sum_{j <= m} rho^-j b_{a+j}.  So scale every column,
        # per block add rho c = rho^K y_{K-1} of the block before and take
        # one prefix sum along each row (nothing to sum for K = 1), then
        # scale every column back.
        x = normals
        x *= self._shrink
        width = self._width
        for start in range(0, x.shape[1], width):
            block = x[:, start : start + width]
            if start:
                block[:, 0] += self._carry * x[:, start - 1]
            if width > 1:
                np.cumsum(block, axis=1, out=block)
        x *= self._growth
        return x

