"""Stationary Gaussian random fields on a 1-D slab.

The field G(z) is zero-mean with two-point covariance
``C * exp(-(|z1 - z2| / zeta)**kappa)``, 1 <= kappa <= 2: the family
is positive definite, so it defines a field, only for kappa <= 2
(Schoenberg, Trans. AMS 44, 522, 1938).  Ensembles are cut into
fixed blocks of ``CHUNK_PATHS`` paths, and block ``c`` of master seed
``s`` is always one stream, ``SeedSequence(s, spawn_key=(c,))``, of
standard normals, one row per path, drawn as consecutive row tiles of
at most ``tile_rows`` into one buffer the caller holds
(``FieldSampler.normals``, the one stream and tile cut), not whole blocks.
``FieldSampler.transform`` turns a tile into field values row by row.
For ``kappa = 1`` (an Ornstein-Uhlenbeck process, Markov) that is the
exact AR(1) recursion ``x_i = rho_i*x_{i-1} + sqrt(C*(1 - rho_i**2))*xi_i``
with ``rho_i = exp(-h_i/zeta)`` for the step h_i into node i (Gillespie,
Phys. Rev. E 54, 2084, 1996), at the grid's points or at any increasing
nodes, the closed-form Cholesky factor of their covariance, evaluated as a
blocked, rescaled prefix sum (Blelloch, CMU-CS-90-190, 1990) that carries
each run of nodes after far steps at once, in O(n) time and memory.
Every other kernel is drawn as the normals times the transposed factor
``F`` of the grid covariance ``M``, in one matrix product.  On grids at
least as fine as ``Grid.for_kernel``'s the squared-exponential kernel
(kappa = 2) has a numerical rank far below ``n`` (23 of 51 points, 24 of
501 or 4 001, at L/zeta = 5), so there ``F`` is the ``(n, r)`` pivoted
Cholesky factor (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62,
428, 2012), stopped once no node's left-out variance exceeds ``1e-12 C``,
and a path takes ``r`` normals.  Every other kernel and grid takes the
``(n, n)`` LAPACK Cholesky factor of ``M`` plus a diagonal jitter of
``1e-12 C``, or the pivoted factor where LAPACK rejects that matrix, so
the factor cannot fail.  A path is a plain array of node values, ``(n,)``
for one path or ``(rows, n)`` for a block, and ``running_integral``
integrates it as one weighted running sum over neighbouring nodes: the
trapezoid rule on the grid, matching the Riemann-sum definition of the
stochastic integral, or on the AR(1) route each step's exact OU-bridge
mean given its two ends (``ou_bridge``).  Being linear, it also
integrates a factor's columns once (``running_integral(F^T, w)``), so
the Monte Carlo ensemble integrates the dense routes' paths without
their node values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that
# cost out of the first tile drawn.
from numpy.random import SeedSequence, default_rng

from .errors import MemoryBudgetExceeded, OutOfDomain

# Relative to the kernel amplitude C: the diagonal jitter of the LAPACK
# factor and the most variance the pivoted factor leaves out at a node.
# Where rounding leaves a covariance indefinite at this jitter, the pivoted
# factor, which cannot fail, takes over.  Of 75 kernel/grid pairs probed
# (kappa 1.0001 to 2, up to 9 400 points), two were indefinite here, and
# both take the pivoted factor: kappa 2, zeta 1e6, L 5 on 9 400 points as
# a resolved grid, and kappa 1.9999, zeta 1e8, L 5 on 4 001 points
# through that fallback (rank 1).
_JITTER = 1e-12
# Grid.for_kernel resolves the correlation length with this many nodes.
_POINTS_PER_LENGTH = 10
# Paths per keyed stream: an ensemble draws block c of its paths, mirrored
# pairs, as normals(master_seed, c, CHUNK_PATHS // 2), the last one shorter.
CHUNK_PATHS = 4096
# Bytes one pipeline may hold at once, charged before it builds anything:
# a sampler and each tile (sampler_bytes), an ensemble (montecarlo) and the
# Euler check (cli).  2 GiB leaves room on an 8 GB machine.
MEMORY_BUDGET = 2 * 2**30
# tile_rows: tiles of about this many bytes stay in cache with their running
# integral.  The floor applies on the AR(1) route only where the scan's table
# may have more than one entry, on slabs past half of _SCAN_EXPONENT zeta:
# there each tile repeats the scan's Python loop over the table, and the
# floor keeps a few paths on a long grid out of one-row tiles.  The Euler
# check of --kappa 1 --zeta 1e-6 --grid-points 50001 (100 paths on 200 001
# nodes) took 1.24 s in two tiles and 10.3 s in 100 without it (medians of
# 3).  On a thinner slab the loop is one step per tile, and the floor would
# only hold more rows at once.
_TILE_BYTES = 512 * 2**10
_MIN_TILE_ROWS = 64
# The AR(1) scan rescales a block of columns by the inverse running product
# of rho from its first column.  A block's steps sum to at most this many
# zeta, so its scaled values, below sqrt(C) |xi| e**300 n, stay in the float
# range for any finite C and any grid the budget admits.
_SCAN_EXPONENT = 300.0
# Terms of ou_bridge's series for x - 2 tanh(x/2), x < 2: the last one
# kept is below 1e-16 of the sum there.
_BRIDGE_TERMS = 10
# FieldSampler.route values.
AR1_ROUTE = "ar1"
CHOLESKY_ROUTE = "cholesky"
PIVOTED_ROUTE = "pivoted"


@dataclass(frozen=True)
class CorrelationKernel:
    """Two-point covariance ``C * exp(-(|dz| / zeta)^kappa)``.

    Parameters
    ----------
    amplitude : float
        Variance C at zero separation, dimensionless, > 0.
    correlation_length : float
        Decay scale zeta in cm, > 0.  As zeta -> 0 the off-diagonal
        covariance vanishes and the field degenerates toward white noise.
    exponent : float
        Shape exponent kappa in [1, 2].  1 gives colored
        (Ornstein-Uhlenbeck-like) noise, 2 the squared-exponential
        (Bargmann-Fock) field.  Above 2 the kernel is not positive
        definite, so no field has it as covariance; below 1 it breaks
        positive-definiteness on fine grids.  Both are rejected.  Note
        the kappa=1 kernel is not mean-square differentiable at
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
        if not 1 <= self.exponent <= 2:
            raise ValueError(
                f"exponent must lie in [1, 2], got {self.exponent} "
                "(above 2 the kernel is not positive definite)"
            )
        # Past this the scaled depths (z/zeta)**exponent of a slab fall below
        # the normal float range, and the kappa = 2 closed form outer_y
        # loses its zeta * expm1(-(z/zeta)**2) term: a factor 2 off.
        try:
            self.correlation_length**self.exponent
        except OverflowError:
            raise ValueError(
                f"correlation_length**exponent overflows: "
                f"{self.correlation_length}**{self.exponent}, so the scaled "
                "depths (z/zeta)**exponent underflow"
            ) from None

    def evaluate(self, z1, z2):
        """Covariance between planes z1 and z2 (vectorized, total function).

        Depends only on |z1 - z2|, so it is symmetric and invariant under
        common shifts of both arguments; coincident points return exactly
        the amplitude.
        """
        # One buffer for the whole formula: a grid covariance is n x n.  The
        # subtraction allocates it; two scalars give a numpy scalar, which
        # the in-place chain needs as a 0-d array.  The lag is scaled before
        # it is raised to kappa, so no power of zeta can underflow to 0.
        out = np.subtract(z1, z2, dtype=float)
        if out.ndim == 0:
            out = np.asarray(out)
        np.abs(out, out=out)
        # x**1 and x*1 are x: those passes are skipped, bit for bit.  The
        # kernel value where the scaled lag or its power overflows is
        # exp(-inf) = 0, the exact limit.
        with np.errstate(over="ignore"):
            out /= self.correlation_length
            if self.exponent != 1:
                out **= self.exponent
        np.negative(out, out=out)
        np.exp(out, out=out)
        if self.amplitude != 1:
            out *= self.amplitude
        return float(out) if out.ndim == 0 else out

    def evaluate_scaled(self, scale: float, powers) -> np.ndarray:
        """``evaluate(scale * u, 0.0)`` at unit lags ``u >= 0`` given
        ``powers = u**kappa``: ``C exp(-(scale / zeta)**kappa powers)``, one
        multiply and one exp.  ``(scale / zeta)**kappa`` must not overflow
        (the quadrature keeps it at most 1); where it underflows the kernel
        is its exact limit C."""
        out = np.multiply(powers, -((scale / self.correlation_length) ** self.exponent))
        np.exp(out, out=out)
        if self.amplitude != 1:
            out *= self.amplitude
        return out


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
        # Checked as a float first: the count may overflow to inf (or its
        # target underflow to 0), and inf has no integer for Grid to check.
        cells = _cells_to_resolve(length, kernel)
        check_budget(8 * cells, f"the node array of a grid of {cells:.6g} points")
        return cls(length, max(2, math.ceil(cells) + 1))


def _cells_to_resolve(length: float, kernel: CorrelationKernel) -> float:
    """Cells of ``Grid.for_kernel``'s grid before rounding up, inf where the
    count passes the float range.  A grid of ``n`` points is at least as
    fine, ``n >= Grid.for_kernel(length, kernel).n_points``, when
    ``n - 1 >= cells``: ``n - 1 >= ceil(cells)`` for the integer ``n - 1``."""
    target = kernel.correlation_length / _POINTS_PER_LENGTH
    return length / target if target > 0 else math.inf


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


def running_integral(values, weights) -> np.ndarray:
    """Running sum ``S_k = sum_(j <= k) w_j (X_(j-1) + X_j)``, ``S_0 = 0``,
    along each row of one path ``(n,)`` or a block ``(rows, n)`` of field
    values at increasing nodes, for ``weights`` a scalar or one per node
    (entry 0, before the first node, 0): the trapezoid integral up to each
    node with ``h/2``, the exact conditional mean of the kappa = 1
    integral with ``FieldSampler.step_weights``.  Rows are summed on their
    own, so a block gives its rows' bits taken one at a time.
    """
    # One array beyond the values (two for a strided view, copied
    # contiguous first), filled in one pass over the flattened block:
    # entry j > 0 of a row is values[j] + values[j - 1], and entry 0, which
    # pairs a row's first value with the previous row's last, is reset.
    sums = np.empty(values.shape)
    flat = np.ascontiguousarray(values).reshape(-1)
    np.add(flat[1:], flat[:-1], out=sums.reshape(-1)[1:])
    sums[..., 0] = 0.0
    sums *= weights
    np.cumsum(sums, axis=-1, out=sums)
    return sums


def depth_reader(nodes: np.ndarray, depths: np.ndarray, spacing: float):
    """A function reading running sums over ``nodes`` at ``depths``, linear
    between nodes ``spacing`` apart: the sums themselves when the depths
    are the nodes in order, else each depth's node column (row-major, by
    ``np.take``), blended with the next node's where a depth lies between
    them (weights 1 and 0 at a node give its bits, for finite sums)."""
    if np.array_equal(depths, nodes):
        return lambda sums: sums
    # a depth on a node gets frac = 0; the last node is its own upper one
    idx = np.searchsorted(nodes, depths, side="right") - 1
    frac = (depths - nodes[idx]) / spacing
    if not frac.any():
        return lambda sums: np.take(sums, idx, axis=-1)
    upper, below = np.minimum(idx + 1, nodes.size - 1), 1.0 - frac
    return lambda sums: np.take(sums, idx, -1) * below + np.take(sums, upper, -1) * frac


def ou_bridge(kernel: CorrelationKernel, steps):
    """Exact integral of the kappa = 1 field over each step, given its ends.

    The field is then an Ornstein-Uhlenbeck process, Markov, so given its
    values X_0 and X_1 at the two ends of a step of length h the integral
    over the step is Gaussian, independent of every other step's, with mean
    ``w (X_0 + X_1)`` and variance ``v``, where, with x = h/zeta,
    ``w = zeta tanh(x/2)`` and ``v = 2 C zeta^2 (x - 2 tanh(x/2))``
    (Gillespie, Phys. Rev. E 54, 2084, 1996): ``w`` is Cov(integral, X_0)
    = C zeta (1 - e^-x) over Var(X_0 + X_1) / 2 = C (1 + e^-x), and ``v``
    is the step's variance 2 C zeta^2 (x - 1 + e^-x) less the part the
    ends explain.  Returns ``(w, v)`` for an array of step lengths (cm).
    """
    zeta = kernel.correlation_length
    h = np.asarray(steps, dtype=float)
    with np.errstate(over="ignore"):
        half = 0.5 * (h / zeta)  # inf for a subnormal zeta: w = zeta, v = 2 C zeta h
    tanh = np.tanh(half)
    # 2 C zeta (h - 2 zeta tanh(x/2)) cancels for small x, so there it is
    # 4 C zeta (u cosh u - sinh u) / cosh u with u = x/2, whose series
    # u^3 S(u), S(u) = sum_k 2k u^(2k-2) / (2k+1)!, has only positive terms.
    # With zeta u = h/2 that is C h^2 u S(u) / cosh u, with no 2 zeta to
    # overflow near the float maximum.  Where x >= 2, 2 zeta <= h.
    variance = np.empty(h.shape)
    small = half < 1.0
    large = ~small
    variance[large] = (
        2.0 * kernel.amplitude * zeta * (h[large] - 2.0 * zeta * tanh[large])
    )
    u = half[small]
    square = u * u
    series = np.zeros(u.shape)
    for k in range(_BRIDGE_TERMS, 0, -1):
        series = series * square + 2 * k / math.factorial(2 * k + 1)
    step = h[small]
    variance[small] = kernel.amplitude * (step * step) * (u * series) / np.cosh(u)
    return zeta * tanh, variance


def covariance_matrix(kernel: CorrelationKernel, grid: Grid) -> np.ndarray:
    """Grid covariance M[i, j] = kernel.evaluate(Z_i, Z_j).

    Symmetric with diagonal equal to the amplitude; positive semidefinite
    up to rounding.
    """
    z = grid.points
    return kernel.evaluate(z[:, None], z[None, :])


def _pivoted_cholesky(kernel: CorrelationKernel, grid: Grid) -> np.ndarray:
    """Transposed ``(r, n)`` pivoted Cholesky factor of the grid covariance:
    its rows are the columns of ``F`` with ``F F^T`` within ``1e-12 C`` of
    ``covariance_matrix`` (Harbrecht, Peters & Schneider, 2012).

    Step ``k`` pivots on the node ``i`` of largest residual variance ``d_i``,
    takes its residual column ``M[:, i] - F[:, :k] F[i, :k]``, one GEMV over
    the rows found so far, scaled by ``1/sqrt(d_i)``, and subtracts the
    column's squares from ``d``.  It stops once every ``d`` is at most
    ``C _JITTER``: ``d`` is then ``M - F F^T`` on the diagonal, and the rest
    of that positive semidefinite residual is no larger.  The grid is
    uniform and the kernel stationary, so column ``i`` of ``M`` is a slice
    of one table of ``2n - 1`` lags: ``n`` kernel values in all, not ``r``
    columns of them.  It cannot fail: it takes a square root only of a
    ``d_i`` above the bound.
    """
    n, amplitude = grid.n_points, kernel.amplitude
    lags = kernel.evaluate(grid.points, 0.0)  # column 0 of covariance_matrix
    table = np.concatenate((lags[:0:-1], lags))  # M[:, i] = table[n-1-i : 2n-1-i]
    bound = amplitude * _JITTER
    residual = np.full(n, float(amplitude))
    rows, square = np.empty((n, n)), np.empty(n)
    rank = 0
    while rank < n:
        i = int(residual.argmax())
        if residual[i] <= bound:
            break
        row = rows[rank]
        np.dot(rows[:rank, i], rows[:rank], out=row)
        np.subtract(table[n - 1 - i : 2 * n - 1 - i], row, out=row)
        row *= 1.0 / math.sqrt(residual[i])
        residual -= np.multiply(row, row, out=square)
        residual[i] = 0.0
        rank += 1
    # Shrinks the buffer in place, as only the rows written were ever
    # touched; no view of it is left to dangle once ``row`` is gone.
    del row
    rows.resize((rank, n), refcheck=False)
    return rows


def draws_by_factor(kernel: CorrelationKernel) -> bool:
    """Whether ``FieldSampler`` draws ``kernel`` as normals times a factor of
    the grid covariance (the LAPACK or the pivoted route): every kernel but
    kappa = 1, which takes the AR(1) recursion.  The one test of the route
    made before a sampler is built."""
    return kernel.exponent != 1


def stepping_nodes(kernel: CorrelationKernel, grid: Grid, depths) -> np.ndarray:
    """The nodes an ensemble read at ``depths`` draws: the grid's points, or
    for kappa = 1, whose steps ``ou_bridge`` integrates exactly, only
    ``{0} U depths U {L}``, sorted and distinct."""
    if draws_by_factor(kernel):
        return grid.points
    ends = np.sort(np.concatenate(([0.0], np.atleast_1d(depths), [grid.length])))
    # np.unique would import numpy.ma on its first call
    keep = np.empty(ends.size, dtype=bool)
    keep[0] = True
    np.not_equal(ends[1:], ends[:-1], out=keep[1:])
    return ends[keep]


def sampler_bytes(kernel: CorrelationKernel, n: int, streamed: int = 0) -> int:
    """Most bytes a FieldSampler on ``n`` nodes holds at once with
    ``streamed`` bytes of tiles beside it: its build, or what it keeps with
    the tiles.  The LAPACK route builds the covariance, its copy and the
    factor, and any kernel but kappa = 1 is charged that, as the grid (or a
    LAPACK failure, once the covariance is released) picks between it and
    the pivoted route, whose one ``n x n`` buffer holds no more; the AR(1)
    route 7 arrays of ``n``, of which it keeps at most 5."""
    if not draws_by_factor(kernel):
        return max(8 * 7 * n, 8 * 5 * n + streamed)
    return max(8 * 3 * n * n, 8 * n * n + streamed)


def tile_rows(kernel: CorrelationKernel, n: int, length: float, count=None) -> int:
    """Rows of the tallest tile ``FieldSampler.normals`` yields on ``n`` nodes
    of a slab of ``length``, or in a block of ``count`` paths cut into
    balanced tiles: about ``_TILE_BYTES``, at least one, and at least the
    rows that spread the work each tile repeats.  On the dense route that
    is ``n``: a tile of node values reads the whole factor (for the Euler
    check on 2001 points, 512 KiB tiles took 1.7-2.0 s where n rows took
    1.2 s); the ensemble's tiles read only the ``(rank, d')`` basis, but
    capping them at 256 rows measured slower at 1001 points.  On the
    AR(1) route it is ``_MIN_TILE_ROWS`` where the scan's table may have
    more than one entry, and nothing on a slab of at most half of
    ``_SCAN_EXPONENT`` zeta: there no step passes the far-step cut and the
    steps sum below ``_SCAN_EXPONENT``, so any nodes make one entry."""
    if draws_by_factor(kernel):
        floor = n
    elif length > 0.5 * _SCAN_EXPONENT * kernel.correlation_length:
        floor = _MIN_TILE_ROWS
    else:
        floor = 1
    rows = max(floor, _TILE_BYTES // (8 * n))
    return rows if count is None else -(-count // max(1, -(-count // rows)))


def check_budget(needed: int, what: str) -> None:
    """Raise MemoryBudgetExceeded when ``needed`` bytes pass the budget."""
    if needed > MEMORY_BUDGET:
        raise MemoryBudgetExceeded(
            f"{what} needs about {needed / 2**30:.3g} GiB, above the "
            f"{MEMORY_BUDGET / 2**30:.0f} GiB budget; use fewer grid points "
            "or a longer correlation length"
        )


class FieldSampler:
    """Draws field paths for one (kernel, grid) pair.

    Paths are drawn at ``nodes``, strictly increasing abscissae in
    ``[0, L]``: the grid's points unless given, and other nodes only on
    the AR(1) route (ValueError otherwise; ``stepping_nodes`` gives an
    ensemble's).  The kernel and the grid pick the route.
    ``kappa = 1`` uses the exact AR(1) recursion over the steps between
    the nodes (``route == AR1_ROUTE``, with ``rho``, the per-step ratios
    ``exp(-h_k/zeta)``, and ``innovation``, the per-step innovation
    scales, ``factor`` None and ``jitter`` 0).  Any other kernel uses a
    factor ``F`` of the grid covariance ``M``, computed once at
    construction: for kappa = 2 on a grid at least as fine as
    ``Grid.for_kernel``'s the ``(n, rank)`` pivoted Cholesky factor
    (``route == PIVOTED_ROUTE``, ``jitter`` 0, and ``left_out``, the most
    variance ``M - F F^T`` leaves out at a node, ``1e-12 C``), else the
    ``(n, n)`` LAPACK factor of ``M + jitter I`` (``route ==
    CHOLESKY_ROUTE``, ``jitter`` ``1e-12 C``), or the pivoted factor
    where LAPACK rejects that matrix.
    ``rank`` is the normals a path takes, ``n`` on the other routes, and
    ``left_out`` is 0 there.  Sampling is then pure in (seed, chunk, count),
    so one sampler can be shared read-only across concurrent workers.
    ``normals`` is the one draw: it reads block ``chunk`` from its keyed
    stream, tile by tile, and ``transform`` turns a tile into field values
    row by row, so on the AR(1) route a row is bit-identical however its
    block was cut; a dense-route row may differ in the last bits, as a
    product of another height can take another BLAS kernel.  A sampler
    past the budget (``sampler_bytes``) raises MemoryBudgetExceeded before
    any per-node array; a caller charges its own buffer.
    """

    def __init__(self, kernel: CorrelationKernel, grid: Grid, nodes=None):
        self.kernel = kernel
        self.grid = grid
        self.route = CHOLESKY_ROUTE if draws_by_factor(kernel) else AR1_ROUTE
        n = grid.n_points if nodes is None else np.size(nodes)
        check_budget(sampler_bytes(kernel, n), f"the {self.route} route on {n} points")
        if nodes is None:
            self.nodes = grid.points
        else:
            self.nodes = checked_depths(nodes, grid.length)
            if self.nodes.ndim != 1 or not np.all(self.nodes[1:] > self.nodes[:-1]):
                raise ValueError("nodes must be a strictly increasing 1-D array")
            if draws_by_factor(kernel) and not np.array_equal(self.nodes, grid.points):
                raise ValueError("nodes other than the grid's need kappa = 1")
        self.rank, self.left_out = n, 0.0
        if not draws_by_factor(kernel):
            self.factor, self.jitter = None, 0.0
            # h/zeta per step; inf (rho = 0) for a subnormal zeta
            with np.errstate(over="ignore"):
                steps = np.diff(self.nodes) / kernel.correlation_length
            self.rho = np.exp(-steps)
            # sqrt(C (1 - rho^2)), accurate also when rho is close to 1
            self.innovation = np.sqrt(kernel.amplitude * -np.expm1(-2.0 * steps))
            # The scan's table: entry k, nodes _cuts[k] to _cuts[k + 1], is a
            # run where _runs[k], nodes each followed by a far step (past half
            # of _SCAN_EXPONENT), else a block, with _growth its running product
            # of rho (1 in runs).  An entry ends where its steps pass
            # _SCAN_EXPONENT: a step out of or into a run counts twice that, one
            # inside a run 0.  The budget keeps n below 2**28, so int32.
            far = np.append(steps > 0.5 * _SCAN_EXPONENT, False)  # per node
            steps[far[:-1] | far[1:]] = 2 * _SCAN_EXPONENT
            steps[far[:-1] & far[1:]] = 0.0
            reach = np.cumsum(steps, out=steps)  # reach[j - 1]: node 0 to j
            growth = self._growth = np.ones(n)
            cuts, runs = np.empty(n + 1, dtype=np.int32), np.empty(n, dtype=bool)
            a = k = 0
            while a < n:
                base = reach[a - 1] if a else 0.0
                b = 1 + int(reach.searchsorted(base + _SCAN_EXPONENT, "right"))
                cuts[k], runs[k] = a, far[a]
                if not far[a]:
                    np.multiply.accumulate(self.rho[a : b - 1], out=growth[a + 1 : b])
                a, k = b, k + 1
            cuts[k] = n
            self._cuts, self._runs = cuts[: k + 1].copy(), runs[:k].copy()
            return
        if kernel.exponent != 2 or n - 1 < _cells_to_resolve(grid.length, kernel):
            matrix = covariance_matrix(kernel, grid)
            self.jitter = kernel.amplitude * _JITTER
            matrix[np.diag_indices(n)] += self.jitter
            try:
                self.factor = np.linalg.cholesky(matrix)
                return
            except np.linalg.LinAlgError:
                pass
            del matrix  # freed before the pivoted factor's buffer is built
        self.route, self.jitter = PIVOTED_ROUTE, 0.0
        self.factor = _pivoted_cholesky(kernel, grid).T
        self.rank = self.factor.shape[1]
        self.left_out = kernel.amplitude * _JITTER

    def step_weights(self):
        """``(w, v)`` per node: the ``running_integral`` weight and the
        left-out variance of the step into it (0 at node 0).  The AR(1)
        route's steps are exact OU bridges (``ou_bridge``), the dense
        route's trapezoid panels, ``w = h/2`` and ``v = 0``."""
        if self.route != AR1_ROUTE:
            steps = self.nodes.size - 1
            w, v = np.full(steps, 0.5 * self.grid.spacing), np.zeros(steps)
        else:
            w, v = ou_bridge(self.kernel, np.diff(self.nodes))
        return np.concatenate(([0.0], w)), np.concatenate(([0.0], v))

    def normals(self, master_seed: int, chunk: int, count: int, out: np.ndarray):
        """Yield the standard normals of block ``chunk``'s ``count`` paths as
        consecutive ``(rows, rank)`` tiles, ``rows`` balanced and at most
        ``tile_rows(kernel, n, L, count)``: consecutive draws from the block's
        one stream, ``SeedSequence(master_seed, spawn_key=(chunk,))``, so
        the same (master_seed, chunk, count) always gives the same bits,
        also from concurrent threads.  Each tile is the leading rows of
        ``out``, a C-contiguous buffer of at least that many rows by
        ``rank``, drawn into in place: the caller allocates, and charges, it.
        """
        rows = tile_rows(self.kernel, self.nodes.size, self.grid.length, count)
        if len(out) < rows or out.shape[1:] != (self.rank,):
            raise ValueError(f"out must hold ({rows}, {self.rank}) normals, got {out.shape}")
        n_tiles = max(1, -(-count // max(1, rows)))
        base, extra = divmod(count, n_tiles)
        stream = default_rng(SeedSequence(master_seed, spawn_key=(chunk,)))
        for t in range(n_tiles):
            yield stream.standard_normal(out=out[: base + (t < extra)])

    def transform(self, normals: np.ndarray) -> np.ndarray:
        """Field values from a ``(rows, rank)`` tile of normals, row by row;
        on the AR(1) route the tile itself, overwritten in place.  The AR(1)
        recursion is the LAPACK factor in closed form: the two give the same
        paths for the same normals up to its jitter (about 1e-11), and the
        pivoted route other paths of the same law from fewer normals."""
        if self.route != AR1_ROUTE:
            return normals @ self.factor.T
        # x_0 = sqrt(C) xi_0, x_i = rho_i x_{i-1} + s_i xi_i, in place, with
        # rho_i and s_i the ratio and innovation scale of the step into
        # node i.  With b_i = s_i xi_i, a block of columns a, a+1, ... after
        # the carry c = x_{a-1} is x_{a+m} = P_m y_m, where P_m is the
        # product of rho_{a+1} ... rho_{a+m} and
        # y_m = rho_a c + sum_{j <= m} b_{a+j} / P_j.  So scale every column,
        # per entry add rho_a c = rho_a P y of the entry before and take one
        # prefix sum along each row of a block, then scale every column
        # back.  A run (P = 1) takes the carry into its first node, then in one
        # statement adds to each later node rho_i times the node before as it
        # was before that statement: what is left out is below e**-300 of it.
        x, rho, growth = normals, self.rho, self._growth
        x[:, 0] *= math.sqrt(self.kernel.amplitude)
        x[:, 1:] *= self.innovation / growth[1:]
        for start, stop, run in zip(self._cuts[:-1], self._cuts[1:], self._runs):
            block = x[:, start:stop]
            if start:
                block[:, 0] += rho[start - 1] * growth[start - 1] * x[:, start - 1]
            if run:
                block[:, 1:] += rho[start : stop - 1] * block[:, :-1]
            elif stop - start > 1:
                np.add.accumulate(block, axis=1, out=block)
        x *= growth
        return x
