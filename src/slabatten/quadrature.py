"""Panelized Gauss-Legendre quadrature for covariance double integrals.

These evaluators are the quadrature side of the dual-route checks on the
error-function closed forms: they only ever evaluate the kernel on
panelized nodes and never touch erf.  Panels no wider than one correlation length keep the
order-16 rule at machine accuracy across the whole parameter sweep.

The kernel depends only on the lag ``|z1 - z2|``, so neither route
evaluates it on a grid of node pairs.  Past the lag
``U = zeta * 40^(1/kappa)`` the kernel is below ``e^-40 C`` (about
``4e-18 C``), so both routes evaluate it only on lags up to ``U``, and
their cost does not grow with the depth:

- the ordered route integrates ``(z - u) * phi(u)`` over the lag ``u`` in
  ``[0, min(z, U)]``, an exact rewriting of the triangle integral, with
  ``P = ceil(min(z, U) / zeta)`` panels (at least 8) and the first panel
  graded toward ``u = 0`` (``16 (P + 14)`` kernel values, at most
  ``16 * 55``);
- the square route keeps the tensor-product rule over ``[0, z]^2`` with
  ``P = ceil(z / zeta)`` panels (at least 8) of width ``h`` and sums it by
  panel offset, since every pair of panels ``d`` apart carries the same
  block of lags; the diagonal panels split their inner interval at the
  diagonal.  Every lag of block ``d`` exceeds ``h (d - 1)``, so only the
  blocks ``d <= 1 + ceil(U / h)``, at most ``_MAX_OFFSET_BLOCKS``, are
  summed.  The rule's symmetry leaves 136 distinct lags of the diagonal's
  512 and 129 of each block's 256, so a depth costs ``136 + 129 * blocks``
  kernel values, at most ``136 + 129 * 47``.

The square route deliberately does not use the lag identity: it stays a
second, independent discretization of the same variance, so agreement
between ``square = 2 * ordered`` checks both.

Everything that does not depend on the depth is built on first use and
frozen read-only: the 16-point rule, stored as numpy's ``leggauss(16)``
gives it, and one table of unit lags per route, in panel widths, with
two weight rows (``_ordered_table``, ``_square_table``).  A call reads a
prefix of its route's table at one scale ``s``, the panel width ``V/P``
or ``h``, at most zeta, from the table's ``u**kappa`` cached per kappa
(``_raised``; kappa 1 keeps ``u``): one scalar ``(s/zeta)**kappa <= 1``,
one multiply, one exp (``CorrelationKernel.evaluate_scaled``) and one
``(2, n) @ (n,)`` product.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grf import CorrelationKernel, one_depth

_PANEL_ORDER = 16
# numpy's leggauss(16) on [-1, 1], bit for bit, as the positive nodes and
# weights of the symmetric rule: no eigen-solve and no numpy.polynomial.
_GAUSS_NODES = (
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GAUSS_WEIGHTS = (
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)
_MIN_PANELS = 8
# Past the lag zeta * _SUPPORT_DECAY**(1/kappa) the kernel is below e^-40 C.
_SUPPORT_DECAY = 40.0
# Ordered-route panels ceil(V/zeta) <= 41: V <= 40 zeta, but V/zeta can round past 40.
_ORDERED_PANELS = math.ceil(_SUPPORT_DECAY) + 1
# The most square-route blocks 1 + ceil(U/h) can reach, 47: U <= 40 zeta for
# kappa >= 1, and once ceil(z/zeta) >= 8 panels, z/zeta > 7 and
# h > 7 zeta / 8, so U/h < 320/7; fewer panels leave at most 7 blocks.
_MAX_OFFSET_BLOCKS = 1 + math.ceil(_SUPPORT_DECAY * _MIN_PANELS / (_MIN_PANELS - 1))
# Distinct lags of the square route's diagonal (136) and of each offset
# block (129), by the symmetry of the 16-point rule (_square_table).
_DIAGONAL_LAGS = _PANEL_ORDER * (_PANEL_ORDER + 1) // 2
_BLOCK_LAGS = 1 + _PANEL_ORDER**2 // 2
# The lag rule splits its first panel [0, 1] into [2^-k, 2^(1-k)] for
# k = 1..14 plus [0, 2^-14], in panel widths: for non-integer kappa,
# u**kappa is not smooth at u = 0.  Against 30-digit adaptive quadrature the
# ordered route is off by 8e-8 relative at kappa = 1.5 without grading, by
# 1e-13 at kappa = 1.05 with 10 levels and by at most 5e-16 with 14.
_GRADING_LEVELS = 14


def _read_only(*arrays):
    """Freeze cached rules: one stray in-place write would corrupt every
    later integral that shares them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _unit_panel_rule():
    x, w = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    nodes, weights = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    return _read_only((nodes + 1.0) / 2.0, weights / 2.0)


@lru_cache(maxsize=None)
def _ordered_table():
    """Depth-independent pieces of ``ordered_double_integral``, in panel
    widths: the nodes ``tau`` of the first panel's 15 graded subpanels, then
    ``k + t`` for the panels ``k = 1.._ORDERED_PANELS - 1`` (a rule of ``P``
    panels is the first ``16 (P + 14)``), and the weight rows ``w_hat`` and
    ``w_hat * tau``."""
    t, w = _unit_panel_rule()
    halvings = np.ldexp(1.0, -np.arange(1, _GRADING_LEVELS + 1))
    lefts = np.append(halvings, 0.0)[:, None]
    widths = np.append(halvings, halvings[-1])[:, None]
    panels = np.arange(1.0, _ORDERED_PANELS)[:, None]
    tau = np.concatenate([(lefts + widths * t).ravel(), (panels + t).ravel()])
    weights = np.concatenate([(widths * w).ravel(), np.tile(w, panels.size)])
    return _read_only(tau, np.stack([weights, weights * tau]))


@lru_cache(maxsize=None)
def _square_table():
    """Depth-independent pieces of ``square_double_integral``.

    The 16-point rule is symmetric bit for bit, ``t_(15-a) = 1 - t_a`` for
    ``a < 8`` (not for ``a >= 8``: 5.6e-17 off) and ``w_(15-a) = w_a``, so
    each distinct lag of the tensor-product sum is kept once, with the
    summed weights of the node pairs that carry it.  One lag table in units of
    the panel width: the diagonal split's lags ``t_a t_b`` for ``a <= b``
    (136 of 512: the part lengths ``s`` and ``1 - s`` give the same lags,
    and ``(a, b)`` and ``(b, a)`` the same product), then those of each
    offset block ``d = 1.._MAX_OFFSET_BLOCKS`` (129 of 256: the pairs
    ``(a, b)`` and ``(15-b, 15-a)`` carry the same lag ``d + t_a - t_b``,
    and the 16 pairs ``a = b`` the one lag ``d``).  Then the two weight
    rows ``A`` and ``B`` of the sum ``P (A . phi) + B . phi``: ``A`` holds
    the diagonal's weights and twice each block's, ``B`` a block's weights
    times ``-2 d``, so the counts ``P - d`` stay exact.
    """
    t, w = _unit_panel_rule()
    d = np.arange(1.0, _MAX_OFFSET_BLOCKS + 1)[:, None]
    lags = np.empty(_DIAGONAL_LAGS + _BLOCK_LAGS * d.size)
    weights = np.zeros((2, lags.size))
    a, b = np.indices((_PANEL_ORDER, _PANEL_ORDER)).reshape(2, -1)
    # The diagonal's (a, b) stands for (b, a) too unless a = b.
    i, j = a[a <= b], b[a <= b]
    lags[:_DIAGONAL_LAGS] = t[i] * t[j]
    weights[0, :_DIAGONAL_LAGS] = (1.0 + (i != j)) * w[i] * w[j] * (t[i] + t[j])
    # A block's lag 0 of the pairs a = b, then one pair of each other
    # mirror orbit: (a, b) with a + b < 15 stands for (15-b, 15-a) too,
    # and a + b = 15 is its own mirror.
    keep = (a != b) & (a + b < _PANEL_ORDER)
    i, j = a[keep], b[keep]
    offsets = np.append(0.0, t[i] - t[j])
    pair_weights = np.append(w @ w, (1.0 + (i + j < _PANEL_ORDER - 1)) * w[i] * w[j])
    lags[_DIAGONAL_LAGS:].reshape(d.size, -1)[:] = d + offsets
    weights[0, _DIAGONAL_LAGS:].reshape(d.size, -1)[:] = 2.0 * pair_weights
    weights[1, _DIAGONAL_LAGS:].reshape(d.size, -1)[:] = -2.0 * d * pair_weights
    return _read_only(lags, weights)


@lru_cache(maxsize=16)
def _raised(table, kappa: float):
    """The unit lags of ``table()`` (``_ordered_table`` or ``_square_table``)
    raised to kappa (the lags themselves at kappa 1), with its weight rows."""
    lags, weights = table()
    return _read_only(lags if kappa == 1 else lags**kappa, weights)


def _support(kernel: CorrelationKernel) -> float:
    """The lag ``U`` past which the kernel is below ``e^-40 C``."""
    return kernel.correlation_length * _SUPPORT_DECAY ** (1.0 / kernel.exponent)


def _panel_count(span: float, scale: float) -> int:
    """Panels of at most ``scale`` over ``span``, at least ``_MIN_PANELS``;
    ValueError once ``span / scale`` passes the float range."""
    panels = span / scale
    if panels == math.inf:
        raise ValueError(f"z/zeta overflows at depth z = {span:g} cm, zeta = {scale:g} cm")
    return max(math.ceil(panels), _MIN_PANELS)


def ordered_double_integral(kernel: CorrelationKernel, z: float) -> float:
    """Ordered covariance integral over the triangle 0 <= z2 <= z1 <= z.

    Evaluates ``int_0^z int_0^{z1} phi(z1 - z2) dz2 dz1`` through the
    exact lag identity ``int_0^z (z - u) phi(u) du``, over the kernel's
    support ``[0, V]`` with ``V = min(z, zeta * 40^(1/kappa))`` only:
    ``V ((z - V) sum w phi(V t) + V sum w (1 - t) phi(V t))``.  One kernel
    value per node of a panelized rule on [0, V], panels sized to one
    correlation length, the first panel graded toward the lag-0 endpoint
    where ``u**kappa`` is singular for non-integer kappa.  The nodes are
    ``t = tau / P``, the first ``16 (P + 14)`` of ``_ordered_table``, so the
    sums are ``A / P`` and ``A / P - B / P^2`` for the sums ``A`` and ``B``
    of its two weight rows, read at the scale ``V / P <= zeta``: one
    multiply by ``(V/(P zeta))**kappa <= 1`` and one exp.  ``z`` is one
    depth; an array of depths raises ValueError.
    """
    z = one_depth(z)
    if z == 0:
        return 0.0
    span = min(z, _support(kernel))
    panels = _panel_count(span, kernel.correlation_length)
    powers, weights = _raised(_ordered_table, kernel.exponent)
    n = _PANEL_ORDER * (panels + _GRADING_LEVELS)
    a, b = (weights[:, :n] @ kernel.evaluate_scaled(span / panels, powers[:n])).tolist()
    phi_sum = a / panels
    return span * ((z - span) * phi_sum + span * (phi_sum - b / panels**2))


def square_double_integral(kernel: CorrelationKernel, z: float) -> float:
    """Covariance integral over the full square [0, z]^2.

    This is the variance of the path integral of the field up to z.  For
    a symmetric kernel it equals twice the ordered integral, but it is
    evaluated here by a tensor-product rule over the square, not through
    the lag identity, so the two routes stay independent.

    With ``P`` panels of width ``h`` the tensor-product sum is
    ``h^2 (P D_0 + 2 sum_{d=1}^{P-1} (P - d) S_d)``, where
    ``S_d = sum_{a,b} w_a w_b phi(h (d + t_a - t_b))`` is the block of
    every panel pair ``d`` apart.  The diagonal block ``D_0`` has the
    ``|u|`` kink of kappa < 2 kernels inside it, so each outer node
    ``s_a`` splits its inner interval at the diagonal:
    ``D_0 = sum_a w_a [int_0^{s_a} phi(h v) dv + int_0^{1 - s_a} phi(h v) dv]``,
    each part by the 16-point rule scaled to its length.  Blocks past
    ``d = 1 + ceil(U / h)`` hold only lags beyond the kernel's support
    ``U = zeta * 40^(1/kappa)`` and are left out of the sum; the weights
    ``P - d`` of the others stay exact counts.  Each distinct lag of the
    sum is evaluated once, from the powers ``lags**kappa`` that
    ``_raised`` caches per kappa, by one multiply by
    ``(h/zeta)**kappa <= 1`` and one exp, and the sum is
    ``h^2 (P (A . phi) + B . phi)``, from one ``(2, n) @ (n,)`` product.
    ``z`` is one depth; an array of depths raises ValueError.
    """
    z = one_depth(z)
    if z == 0:
        return 0.0
    panels = _panel_count(z, kernel.correlation_length)
    h = z / panels
    # U / h, capped at P: a subnormal h must not divide U.
    blocks = min(panels - 1, 1 + math.ceil(min(_support(kernel) / z, 1.0) * panels))
    powers, weights = _raised(_square_table, kernel.exponent)
    n = _DIAGONAL_LAGS + _BLOCK_LAGS * blocks
    per_panel, by_offset = (weights[:, :n] @ kernel.evaluate_scaled(h, powers[:n])).tolist()
    return h * h * (panels * per_panel + by_offset)
