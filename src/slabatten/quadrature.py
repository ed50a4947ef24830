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
  summed (``512 + 256 * blocks`` kernel values, at most ``512 + 256 * 47``).

The square route deliberately does not use the lag identity: it stays a
second, independent discretization of the same variance, so agreement
between ``square = 2 * ordered`` checks both.

Everything that does not depend on the depth is cached with the 16-point
rule and frozen read-only: the graded nodes with their weights ``w`` and
lag weights ``w (1 - t)`` (``_ordered_rule``), and one lag table in units
of the panel width with its weights (``_square_rule``): the diagonal
split's 512 nodes, then the 256 lags ``d + t_a - t_b`` of each offset
block.  One depth then costs one kernel evaluation and one
``(2, n) @ (n,)`` product on the ordered route, and one evaluation, one dot
and one ``(blocks, 256) @ (256,)`` product on the square route.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
# Imported here, not through np.polynomial on first use, so the first
# integral does not pay for loading numpy.polynomial.
from numpy.polynomial.legendre import leggauss

from .grf import CorrelationKernel, one_depth

_PANEL_ORDER = 16
_MIN_PANELS = 8
# Past the lag zeta * _SUPPORT_DECAY**(1/kappa) the kernel is below e^-40 C.
_SUPPORT_DECAY = 40.0
# The most square-route blocks 1 + ceil(U/h) can reach, 47: U <= 40 zeta for
# kappa >= 1, and once ceil(z/zeta) >= 8 panels, z/zeta > 7 and
# h > 7 zeta / 8, so U/h < 320/7; fewer panels leave at most 7 blocks.
_MAX_OFFSET_BLOCKS = 1 + math.ceil(_SUPPORT_DECAY * _MIN_PANELS / (_MIN_PANELS - 1))
# The lag rule splits its first panel [0, 1/P] into [2^-k, 2^(1-k)]/P for
# k = 1..14 plus [0, 2^-14]/P: for non-integer kappa, u**kappa is not
# smooth at u = 0.  Against 30-digit adaptive quadrature the ordered route
# is off by 8e-8 relative at kappa = 1.5 without grading, by 1e-13 at
# kappa = 1.05 with 10 levels and by at most 5e-16 with 14.
_GRADING_LEVELS = 14


def _read_only(*arrays):
    """Freeze cached rules: one stray in-place write would corrupt every
    later integral that shares them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _unit_panel_rule():
    nodes, weights = leggauss(_PANEL_ORDER)
    return _read_only((nodes + 1.0) / 2.0, weights / 2.0)


def composite_unit_rule(n_panels: int):
    """Nodes and weights of a panelized Gauss-Legendre rule on [0, 1]."""
    if n_panels < 1:
        raise ValueError(f"n_panels must be >= 1, got {n_panels}")
    base, weights = _unit_panel_rule()
    offsets = np.arange(n_panels)[:, None] / n_panels
    nodes = (offsets + base[None, :] / n_panels).ravel()
    return _read_only(nodes, np.tile(weights / n_panels, n_panels))


def graded_unit_rule(n_panels: int):
    """``composite_unit_rule(n_panels)`` with its first panel graded
    geometrically toward 0 over ``_GRADING_LEVELS`` halvings."""
    t, w = _unit_panel_rule()
    nodes, weights = composite_unit_rule(n_panels)
    halvings = np.ldexp(1.0, -np.arange(1, _GRADING_LEVELS + 1))
    lefts = np.append(halvings, 0.0) / n_panels
    widths = np.append(halvings, halvings[-1]) / n_panels
    return _read_only(
        np.concatenate([(lefts[:, None] + widths[:, None] * t).ravel(), nodes[t.size :]]),
        np.concatenate([(widths[:, None] * w).ravel(), weights[t.size :]]),
    )


@lru_cache(maxsize=64)
def _ordered_rule(n_panels: int):
    """``graded_unit_rule(n_panels)`` nodes ``t`` with the two weight rows
    ``w`` and ``w * (1 - t)`` of ``ordered_double_integral``."""
    t, w = graded_unit_rule(n_panels)
    return _read_only(t, np.stack([w, w * (1.0 - t)]))


@lru_cache(maxsize=None)
def _square_rule():
    """Depth-independent pieces of ``square_double_integral``.

    One lag table in units of the panel width: the diagonal split's nodes
    ``s_a * t_b`` over both part lengths ``s`` in ``(t, 1 - t)`` of each
    outer node (512), then the lags ``d + t_a - t_b`` of each offset block
    ``d = 1.._MAX_OFFSET_BLOCKS`` (256 each).  Then the diagonal's weights
    ``w_a s_a w_b`` and a block's weights ``w_a w_b``, flattened alike, and
    the offsets ``d``.
    """
    t, w = _unit_panel_rule()
    parts = np.concatenate([t, 1.0 - t])
    offsets = np.arange(1.0, _MAX_OFFSET_BLOCKS + 1)
    block_lags = offsets[:, None] + (t[:, None] - t).ravel()
    return _read_only(
        np.concatenate([(parts[:, None] * t).ravel(), block_lags.ravel()]),
        np.outer(np.tile(w, 2) * parts, w).ravel(),
        np.outer(w, w).ravel(),
        offsets,
    )


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
    where ``u**kappa`` is singular for non-integer kappa.  ``z`` is one
    depth; an array of depths raises ValueError.
    """
    z = one_depth(z)
    if z == 0:
        return 0.0
    span = min(z, _support(kernel))
    t, weights = _ordered_rule(_panel_count(span, kernel.correlation_length))
    phi_sum, lag_sum = (weights @ kernel.evaluate(span * t, 0.0)).tolist()
    return span * ((z - span) * phi_sum + span * lag_sum)


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
    ``P - d`` of the others stay exact counts.  ``z`` is one depth; an
    array of depths raises ValueError.
    """
    z = one_depth(z)
    if z == 0:
        return 0.0
    panels = _panel_count(z, kernel.correlation_length)
    h = z / panels
    # U / h, capped at P: a subnormal h must not divide U.
    blocks = min(panels - 1, 1 + math.ceil(min(_support(kernel) / z, 1.0) * panels))
    lags, diagonal_weights, pair_weights, d = _square_rule()
    n_diagonal = diagonal_weights.size
    phi = kernel.evaluate(h * lags[: n_diagonal + pair_weights.size * blocks], 0.0)
    diagonal = float(diagonal_weights @ phi[:n_diagonal])
    offsets = phi[n_diagonal:].reshape(blocks, -1) @ pair_weights
    return h * h * (panels * diagonal + 2.0 * float((panels - d[:blocks]) @ offsets))
