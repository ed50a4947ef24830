"""Panelized Gauss-Legendre quadrature for covariance double integrals.

These evaluators are the quadrature side of the dual-route checks on the
error-function closed forms: they only ever evaluate the kernel on
panelized nodes and never touch erf.  Panels no wider than one correlation length keep the
order-16 rule at machine accuracy across the whole parameter sweep.

The kernel depends only on the lag ``|z1 - z2|``, so neither route
evaluates it on a grid of node pairs.  With ``P`` panels:

- the ordered route integrates ``(z - u) * phi(u)`` over the lag ``u``,
  an exact rewriting of the triangle integral, with the first panel
  graded toward ``u = 0`` (``16 (P + 14)`` kernel values);
- the square route keeps the tensor-product rule over ``[0, z]^2`` and
  sums it by panel offset, since every pair of panels ``d`` apart
  carries the same block of lags; the diagonal panels split their inner
  interval at the diagonal (``256 (P - 1) + 512`` kernel values).

The square route deliberately does not use the lag identity: it stays a
second, independent discretization of the same variance, so agreement
between ``square = 2 * ordered`` checks both.  Memory is O(256 P), about
1 MB at the 512-panel cap.

Everything that does not depend on the depth is cached with the 16-point
rule and frozen read-only: the graded nodes with their lag weights
``w (1 - t)`` (``_ordered_rule``), and the diagonal split's nodes and
weights, the 256 lag offsets ``t_a - t_b`` of a block and their weights
``w_a w_b`` (``_square_rule``).  The square route sums all ``P - 1``
offset blocks as one ``(P - 1, 256) @ (256,)`` product.  One depth then
costs one kernel evaluation and one product on the ordered route, and two
evaluations and four small products on the square route.
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
_MAX_PANELS = 512
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


@lru_cache(maxsize=64)
def composite_unit_rule(n_panels: int):
    """Nodes and weights of a panelized Gauss-Legendre rule on [0, 1]."""
    if n_panels < 1:
        raise ValueError(f"n_panels must be >= 1, got {n_panels}")
    base, weights = _unit_panel_rule()
    offsets = np.arange(n_panels)[:, None] / n_panels
    nodes = (offsets + base[None, :] / n_panels).ravel()
    return _read_only(nodes, np.tile(weights / n_panels, n_panels))


@lru_cache(maxsize=64)
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
    """``graded_unit_rule(n_panels)`` nodes with the lag-form weights
    ``w * (1 - t)`` of ``ordered_double_integral``."""
    t, w = graded_unit_rule(n_panels)
    return _read_only(t, w * (1.0 - t))


@lru_cache(maxsize=None)
def _square_rule():
    """Depth-independent pieces of ``square_double_integral``.

    The diagonal split's nodes ``s_a * t`` and weights ``w_a * s_a`` over
    both part lengths ``s`` in ``(t, 1 - t)`` of each outer node, then the
    lag offsets ``t_a - t_b`` of an offset block and their weights
    ``w_a w_b``, both flattened to 256.
    """
    t, w = _unit_panel_rule()
    parts = np.concatenate([t, 1.0 - t])
    return _read_only(
        parts[:, None] * t,
        np.tile(w, 2) * parts,
        (t[:, None] - t).ravel(),
        np.outer(w, w).ravel(),
    )


def _panel_count(span: float, scale: float) -> int:
    wanted = math.ceil(span / scale)
    return int(min(max(wanted, _MIN_PANELS), _MAX_PANELS))


def ordered_double_integral(kernel: CorrelationKernel, z: float) -> float:
    """Ordered covariance integral over the triangle 0 <= z2 <= z1 <= z.

    Evaluates ``int_0^z int_0^{z1} phi(z1 - z2) dz2 dz1`` through the
    exact lag identity ``int_0^z (z - u) phi(u) du``: one kernel value per
    node of a panelized rule on [0, z], panels sized to one correlation
    length, the first panel graded toward the lag-0 endpoint where
    ``u**kappa`` is singular for non-integer kappa.  ``z`` is one depth;
    an array of depths raises ValueError.
    """
    z = one_depth(z)
    if z == 0:
        return 0.0
    t, lag_weights = _ordered_rule(_panel_count(z, kernel.correlation_length))
    return float(z * z * (lag_weights @ kernel.evaluate(z * t, 0.0)))


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
    each part by the 16-point rule scaled to its length.  ``z`` is one
    depth; an array of depths raises ValueError.
    """
    z = one_depth(z)
    if z == 0:
        return 0.0
    panels = _panel_count(z, kernel.correlation_length)
    h = z / panels
    _, w = _unit_panel_rule()
    split_nodes, split_weights, lags, pair_weights = _square_rule()
    inner = kernel.evaluate(h * split_nodes, 0.0) @ w
    diagonal = float(split_weights @ inner)
    d = np.arange(1.0, panels)
    offsets = kernel.evaluate(h * (d[:, None] + lags), 0.0) @ pair_weights
    return h * h * (panels * diagonal + 2.0 * float((panels - d) @ offsets))
