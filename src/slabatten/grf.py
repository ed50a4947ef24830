"""Stationary Gaussian random fields on a uniform 1-D slab grid.

The field G(z) is zero-mean with two-point covariance
``C * exp(-|z1 - z2|**kappa / zeta**kappa)``.  Paths are drawn by dense
Cholesky factorization of the grid covariance (exact for any kernel and
grid at the sizes used here): a block of paths is one keyed stream of
standard normals times the transposed factor, a single matrix product.
Ensembles are cut into fixed blocks of ``CHUNK_PATHS`` paths, and block
``c`` of master seed ``s`` is always drawn from
``SeedSequence(s, spawn_key=(c,))``.  The running integral of each path
is accumulated with the composite trapezoid rule, matching the
Riemann-sum definition of the stochastic integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationFailure, MemoryBudgetExceeded, OutOfDomain

# Diagonal jitter ladder for the Cholesky factorization, relative to the
# kernel amplitude: start at 1e-12*C, multiply by 10 on failure, stop at
# 1e-6*C.
_JITTER_EXPONENTS = range(-12, -5)
# Grid.for_kernel resolves the correlation length with this many nodes.
_POINTS_PER_LENGTH = 10
# Paths per keyed stream: an ensemble draws block c of its paths as
# sample_block(master_seed, c, CHUNK_PATHS), the last block shorter.
CHUNK_PATHS = 4096
# Bytes FieldSampler may need for one grid: the covariance, the copy and
# the factor np.linalg.cholesky holds at once, plus the normals and the
# field values of one block.  2 GiB leaves room on an 8 GB machine.
_MEMORY_BUDGET = 2 * 2**30


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
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be > 0, got {self.amplitude}")
        if not self.correlation_length > 0:
            raise ValueError(
                f"correlation_length must be > 0, got {self.correlation_length}"
            )
        if not self.exponent >= 1:
            raise ValueError(
                f"exponent must be >= 1, got {self.exponent} "
                "(kernels below 1 are not positive definite on fine grids)"
            )

    def evaluate(self, z1, z2):
        """Covariance between planes z1 and z2 (vectorized, total function).

        Depends only on |z1 - z2|, so it is symmetric and invariant under
        common shifts of both arguments; coincident points return exactly
        the amplitude.
        """
        z1 = np.asarray(z1, dtype=float)
        z2 = np.asarray(z2, dtype=float)
        # One buffer for the whole formula: a grid covariance is n x n.
        out = np.empty(np.broadcast_shapes(z1.shape, z2.shape))
        np.subtract(z1, z2, out=out)
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
        if not self.length > 0:
            raise ValueError(f"length must be > 0, got {self.length}")
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")

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
        n = max(2, math.ceil(length / target) + 1)
        return cls(length, n)


@dataclass(frozen=True)
class FieldPath:
    """Field realizations on a grid together with their running integrals.

    ``values`` holds one path, shape ``(n,)``, or a block of paths, shape
    ``(rows, n)``, with ``values[..., q]`` the field at Z_q.
    ``cumulative_integral`` has the same shape and holds the trapezoid
    accumulation of the values from 0 to Z_q (units cm, the field itself
    being dimensionless); its first entry along the grid axis is exactly
    0.  Every operation acts on each row independently, so a block gives
    bit-identical results to its rows taken one at a time.
    """

    grid: Grid
    values: np.ndarray
    cumulative_integral: np.ndarray

    @classmethod
    def from_values(cls, grid: Grid, values) -> "FieldPath":
        """Build a path or block from raw grid values (synthetic or sampled)."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != grid.n_points:
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_points},) or (rows, {grid.n_points})"
            )
        segments = 0.5 * grid.spacing * (values[..., 1:] + values[..., :-1])
        cumulative = np.zeros(values.shape)
        np.cumsum(segments, axis=-1, out=cumulative[..., 1:])
        return cls(grid, values, cumulative)

    def integral_at(self, depths):
        """Integral of the field from 0 to each depth, linear between nodes.

        The result has shape ``values.shape[:-1] + np.shape(depths)`` and
        is exactly 0 at depth 0.  Raises OutOfDomain for depths outside
        [0, L].
        """
        grid = self.grid
        depths = np.asarray(depths, dtype=float)
        if np.any(depths < 0) or np.any(depths > grid.length):
            raise OutOfDomain(f"depths must lie within [0, {grid.length}]")
        points = grid.points
        # A depth on a node gets frac = 0 and the node's value exactly; the
        # last node is its own upper neighbour.
        idx = np.searchsorted(points, depths, side="right") - 1
        upper = np.minimum(idx + 1, grid.n_points - 1)
        frac = (depths - points[idx]) / grid.spacing
        cumulative = self.cumulative_integral
        return cumulative[..., idx] * (1.0 - frac) + cumulative[..., upper] * frac

    def restrict(self, stride: int) -> "FieldPath":
        """The same realizations on the nested grid of every stride-th node."""
        n = self.grid.n_points
        if stride < 1 or (n - 1) % stride:
            raise ValueError(
                f"stride {stride} does not nest in a grid of {n} points"
            )
        coarse = Grid(self.grid.length, (n - 1) // stride + 1)
        return FieldPath.from_values(coarse, self.values[..., ::stride])


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


class FieldSampler:
    """Draws field paths for one (kernel, grid) pair.

    The covariance factor is computed once at construction; sampling is
    then pure in (seed, chunk, count), so a single sampler can be shared
    read-only across concurrent workers.  Grids whose dense factor would
    not fit the memory budget are rejected with MemoryBudgetExceeded
    before anything is allocated.
    """

    def __init__(self, kernel: CorrelationKernel, grid: Grid):
        n = grid.n_points
        needed = 8 * (3 * n * n + 2 * CHUNK_PATHS * n)
        if needed > _MEMORY_BUDGET:
            raise MemoryBudgetExceeded(
                f"a grid of {n} points needs about {needed / 2**30:.1f} GiB "
                "for its dense covariance factor, above the "
                f"{_MEMORY_BUDGET / 2**30:.0f} GiB budget; use fewer grid "
                "points or a longer correlation length"
            )
        self.kernel = kernel
        self.grid = grid
        self.factor, self.jitter = _cholesky_with_jitter(
            covariance_matrix(kernel, grid), kernel.amplitude
        )

    def sample_block(self, master_seed: int, chunk: int, count: int) -> np.ndarray:
        """Values of ``count`` paths of ensemble block ``chunk``, shape (count, n).

        The block is one stream, ``SeedSequence(master_seed,
        spawn_key=(chunk,))``, of ``(count, n)`` standard normals, times the
        transposed factor in one matrix product.  The same (master_seed,
        chunk, count) always gives the same bits, also from concurrent
        threads; a row is not promised to equal the same row of a block of
        another count (a one-row product takes a different BLAS kernel).
        Wrap the result in ``FieldPath.from_values`` for its running
        integrals.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence(master_seed, spawn_key=(chunk,))
        )
        return rng.standard_normal((count, self.grid.n_points)) @ self.factor.T
