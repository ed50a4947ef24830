"""Panelized Gauss-Legendre evaluators for the covariance integrals."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.integrate import quad

import slabatten
from slabatten import (
    CorrelationKernel,
    ordered_double_integral,
    quadrature,
    square_double_integral,
)
from slabatten.quadrature import (
    _BLOCK_LAGS,
    _DIAGONAL_LAGS,
    _ORDERED_PANELS,
    _ordered_table,
    _panel_count,
    _raised,
    _square_table,
    _support,
    _unit_panel_rule,
)


def _lag_form(kernel, z):
    """Adaptive-quadrature value of int_0^z (z - u) phi(u) du."""
    value, _ = quad(
        lambda u: (z - u) * kernel.evaluate(u, 0.0), 0.0, z,
        epsabs=0.0, epsrel=1e-13, limit=500,
    )
    return value


def _incomplete_gamma_form(kernel, z):
    """The ordered integral in closed form (DLMF 8.2):
    ``C [(z zeta / kappa) g(1/kappa, x) - (zeta^2 / kappa) g(2/kappa, x)]``
    with ``g`` the lower incomplete gamma function and ``x = (z/zeta)^kappa``."""
    c, zeta, kappa = kernel.amplitude, kernel.correlation_length, kernel.exponent
    x = (z / zeta) ** kappa

    def lower(a):
        return special.gamma(a) * special.gammainc(a, x)

    return c * (z * zeta / kappa * lower(1.0 / kappa) - zeta**2 / kappa * lower(2.0 / kappa))


def _unfolded_square(kernel, z):
    """``square_double_integral``'s tensor-product sum with every node pair
    its own term: the diagonal split's 512 lags, then 256 lags per offset
    block, each with its weight and the count ``P - d``."""
    t, w = _unit_panel_rule()
    zeta, kappa = kernel.correlation_length, kernel.exponent
    panels = max(8, math.ceil(z / zeta))
    h = z / panels
    blocks = min(panels - 1, 1 + math.ceil(min(zeta * 40.0 ** (1.0 / kappa) / z, 1.0) * panels))
    parts = np.concatenate([t, 1.0 - t])
    weights = (np.tile(w, 2) * parts)[:, None] * w
    total = panels * np.sum(weights * kernel.evaluate(h * parts[:, None] * t, 0.0))
    for d in range(1, blocks + 1):
        lags = d + t[:, None] - t[None, :]
        total += 2.0 * (panels - d) * np.sum(np.outer(w, w) * kernel.evaluate(h * lags, 0.0))
    return h * h * total


def _ordered_by_evaluate(kernel, z):
    """``ordered_double_integral`` on the same rule, written on [0, 1]:
    ``V ((z - V) sum w phi(V t) + V sum w (1 - t) phi(V t))`` with the
    kernel evaluated at the lags ``V t`` themselves."""
    span = min(z, _support(kernel))
    panels = _panel_count(span, kernel.correlation_length)
    tau, (w_hat, _) = _ordered_table()
    n = 16 * (panels + 14)
    t, w = tau[:n] / panels, w_hat[:n] / panels
    phi = kernel.evaluate(span * t, 0.0)
    return span * ((z - span) * (w @ phi) + span * ((w * (1.0 - t)) @ phi))


def _square_by_evaluate(kernel, z):
    """``square_double_integral`` with the kernel evaluated at the lags
    ``h * lags`` themselves, on the same rule."""
    panels = _panel_count(z, kernel.correlation_length)
    h = z / panels
    blocks = min(panels - 1, 1 + math.ceil(min(_support(kernel) / z, 1.0) * panels))
    lags, weights = _square_table()
    n = _DIAGONAL_LAGS + _BLOCK_LAGS * blocks
    per_panel, by_offset = weights[:, :n] @ kernel.evaluate(h * lags[:n], 0.0)
    return h * h * (panels * per_panel + by_offset)


def composite_unit_rule(n_panels: int):
    """Nodes and weights of a panelized Gauss-Legendre rule on [0, 1]."""
    if n_panels < 1:
        raise ValueError(f"n_panels must be >= 1, got {n_panels}")
    base, weights = _unit_panel_rule()
    offsets = np.arange(n_panels)[:, None] / n_panels
    nodes = (offsets + base[None, :] / n_panels).ravel()
    return nodes, np.tile(weights / n_panels, n_panels)


def _dense_square(kernel, z, panels):
    """The tensor-product rule over [0, z]^2 evaluated on every node pair."""
    t, w = composite_unit_rule(panels)
    nodes, weights = z * t, z * w
    return float(weights @ kernel.evaluate(nodes[:, None], nodes[None, :]) @ weights)


class TestCompositeRule:
    def test_weights_sum_to_one(self):
        for panels in (1, 3, 17):
            _, w = composite_unit_rule(panels)
            assert w.sum() == pytest.approx(1.0, rel=1e-14)

    def test_nodes_inside_unit_interval(self):
        nodes, _ = composite_unit_rule(5)
        assert np.all(nodes > 0.0) and np.all(nodes < 1.0)
        assert np.all(np.diff(nodes) > 0)

    def test_integrates_polynomials_exactly(self):
        nodes, w = composite_unit_rule(2)
        for p in range(10):
            assert (w @ nodes**p) == pytest.approx(1.0 / (p + 1), rel=1e-13)

    def test_invalid_panel_count(self):
        with pytest.raises(ValueError):
            composite_unit_rule(0)

    def test_stored_rule_is_leggauss_bit_for_bit(self):
        nodes, weights = leggauss(16)
        t, w = _unit_panel_rule()
        assert t.tobytes() == ((nodes + 1.0) / 2.0).tobytes()
        assert w.tobytes() == (weights / 2.0).tobytes()

    def test_stored_rule_folds_onto_its_mirror_image(self):
        # t_(15-a) = 1 - t_a for a < 8: _square_table keeps one lag of each
        # mirror pair of node pairs
        t, w = _unit_panel_rule()
        assert t[:7:-1].tobytes() == (1.0 - t[:8]).tobytes()
        assert w[::-1].tobytes() == w.tobytes()

    @pytest.mark.parametrize("panels", [5, 8, _ORDERED_PANELS])
    def test_ordered_table_integrates_polynomials_exactly(self, panels):
        # the first panel is split into 15 subpanels, the other P - 1 kept;
        # the second weight row integrates t^(p + 1), in panel widths
        tau, (w_hat, w_tau) = _ordered_table()
        n = 16 * (panels + 14)
        nodes, w = tau[:n] / panels, w_hat[:n] / panels
        assert np.all(nodes > 0.0) and np.all(nodes < 1.0)
        for p in range(10):
            assert (w @ nodes**p) == pytest.approx(1.0 / (p + 1), rel=1e-13)
            assert (w_tau[:n] @ nodes**p) / panels**2 == pytest.approx(
                1.0 / (p + 2), rel=1e-13
            )

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
    def test_ordered_table_covers_every_panel_count(self, kappa, monkeypatch):
        # at z >= U the route takes ceil(U / zeta) panels, which the rounding
        # of U / zeta lifts to 41 for some zeta at kappa 1
        counts = []

        def counting(span, scale):
            counts.append(_panel_count(span, scale))
            return counts[-1]

        monkeypatch.setattr(quadrature, "_panel_count", counting)
        for zeta in np.geomspace(1.000001e-100, 1e150, 2001).tolist():
            kernel = CorrelationKernel(1.0, zeta, kappa)
            for z in (_support(kernel), 3.0 * _support(kernel)):
                ordered_double_integral(kernel, z)
        tau, _ = _ordered_table()
        assert 16 * (max(counts) + 14) <= tau.size == 16 * (_ORDERED_PANELS + 14)
        if kappa == 1.0:
            assert max(counts) == _ORDERED_PANELS

    def test_no_rule_is_built_at_import(self):
        # a CLI call that never integrates must not pay for the tables
        code = (
            "from slabatten import quadrature as q; "
            "print([f.cache_info().currsize for f in "
            "(q._unit_panel_rule, q._ordered_table, q._square_table, q._raised)])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(Path(slabatten.__file__).parents[1])},
        ).stdout
        assert out.strip() == "[0, 0, 0, 0]"

    @pytest.mark.parametrize(
        "rule",
        [
            _unit_panel_rule,
            _ordered_table,
            _square_table,
            lambda: [a for kappa in (1.0, 1.5, 2.0) for a in _raised(_ordered_table, kappa)],
            lambda: [a for kappa in (1.0, 1.5, 2.0) for a in _raised(_square_table, kappa)],
        ],
        ids=["unit", "ordered-table", "square-table", "ordered", "square"],
    )
    def test_cached_rules_are_read_only(self, rule):
        # every later integral shares the cached arrays
        for array in rule():
            with pytest.raises(ValueError):
                array[0] = 0.5


class TestOrderedDoubleIntegral:
    def _closed_form(self, amplitude, zeta, z):
        u = z / zeta
        return (
            amplitude
            * 0.5
            * zeta
            * (math.sqrt(math.pi) * z * math.erf(u) + zeta * (math.exp(-(u**2)) - 1.0))
        )

    @pytest.mark.parametrize("zeta", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("z", [0.05, 0.5, 2.0, 10.0])
    def test_matches_erf_closed_form(self, zeta, z):
        k = CorrelationKernel(1.0, zeta, 2.0)
        expected = self._closed_form(1.0, zeta, z)
        assert ordered_double_integral(k, z) == pytest.approx(expected, rel=1e-10)

    def test_amplitude_scales_linearly(self):
        k1 = CorrelationKernel(1.0, 0.7, 2.0)
        k3 = CorrelationKernel(3.0, 0.7, 2.0)
        assert ordered_double_integral(k3, 2.0) == pytest.approx(
            3.0 * ordered_double_integral(k1, 2.0), rel=1e-13
        )

    def test_zero_upper_limit(self):
        assert ordered_double_integral(CorrelationKernel(1.0, 1.0, 2.0), 0.0) == 0.0

    @pytest.mark.parametrize("kappa", [1.2, 1.5, 2.0])
    @pytest.mark.parametrize("zeta, z", [(0.05, 3.0), (0.3, 0.7), (1.0, 10.0)])
    def test_matches_adaptive_quadrature_of_the_lag_form(self, kappa, zeta, z):
        # u**kappa is singular at u = 0 for non-integer kappa
        k = CorrelationKernel(1.3, zeta, kappa)
        assert ordered_double_integral(k, z) == pytest.approx(
            _lag_form(k, z), rel=1e-12
        )

    def test_negative_limit_rejected(self):
        for z in (-1.0, math.nan):
            with pytest.raises(ValueError):
                ordered_double_integral(CorrelationKernel(1.0, 1.0, 2.0), z)

    def test_repeat_evaluation_is_bitwise_stable(self):
        k = CorrelationKernel(1.0, 0.3, 2.0)
        assert ordered_double_integral(k, 7.0) == ordered_double_integral(k, 7.0)


class TestSquareDoubleIntegral:
    def test_equals_twice_ordered_integral(self):
        # symmetric kernel: the square splits into two congruent triangles
        for zeta, z in ((0.1, 3.0), (1.0, 1.0), (5.0, 10.0)):
            k = CorrelationKernel(1.0, zeta, 2.0)
            assert square_double_integral(k, z) == pytest.approx(
                2.0 * ordered_double_integral(k, z), rel=1e-10
            )

    @pytest.mark.parametrize("z", [-1.0, math.nan])
    def test_negative_limit_rejected(self, z):
        with pytest.raises(ValueError):
            square_double_integral(CorrelationKernel(1.0, 1.0, 2.0), z)

    def test_zero_upper_limit(self):
        assert square_double_integral(CorrelationKernel(1.0, 1.0, 2.0), 0.0) == 0.0

    def test_depth_past_the_float_range_in_correlation_lengths_rejected(self):
        kernel = CorrelationKernel(1.0, 1e-300, 1.0)
        with pytest.raises(ValueError, match=r"z/zeta overflows at depth z = 1e\+300 cm"):
            square_double_integral(kernel, 1e300)
        # the ordered route counts panels over the support only
        assert math.isfinite(ordered_double_integral(kernel, 1e300))

    def test_colored_noise_kernel_against_analytic(self):
        # kappa=1: integral of C*exp(-|u|/zeta) over [0,z]^2 is
        # 2*C*zeta*(z - zeta*(1 - exp(-z/zeta))).  The kink along the
        # diagonal lies on a split point, never inside a panel.
        c, zeta, z = 2.0, 0.5, 3.0
        k = CorrelationKernel(c, zeta, 1.0)
        expected = 2.0 * c * zeta * (z - zeta * (1.0 - math.exp(-z / zeta)))
        assert square_double_integral(k, z) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("zeta, z", [(0.1, 3.0), (0.3, 10.0), (1.0, 1.0), (5.0, 10.0)])
    def test_panel_offset_sum_matches_the_dense_rule(self, zeta, z):
        # smooth kappa=2 kernel: splitting the diagonal panels changes
        # nothing beyond rounding, so the dense rule is a reference
        k = CorrelationKernel(1.0, zeta, 2.0)
        panels = max(8, math.ceil(z / zeta))
        assert square_double_integral(k, z) == pytest.approx(
            _dense_square(k, z, panels), rel=1e-13
        )

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("panels", [8, 40, 10**6])
    def test_folded_lags_sum_as_every_node_pair(self, kappa, panels):
        # zeta = 0.25 makes z / zeta exactly P; at P = 8 every other block is
        # summed and the two weight rows cancel most
        k = CorrelationKernel(1.3, 0.25, kappa)
        z = 0.25 * panels
        assert square_double_integral(k, z) == pytest.approx(
            _unfolded_square(k, z), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("zeta, z", [(0.05, 3.0), (0.3, 0.7), (1.0, 10.0)])
    def test_fractional_exponent_against_adaptive_quadrature(self, zeta, z):
        k = CorrelationKernel(1.3, zeta, 1.5)
        assert square_double_integral(k, z) == pytest.approx(
            2.0 * _lag_form(k, z), rel=1e-7
        )


class TestAtAnyDepth:
    """Both routes up to z = 1e8 zeta, where every panel is still at most
    one correlation length wide and only the kernel's support is summed."""

    ZETA = 0.3

    @pytest.mark.parametrize("kappa", [1.0, 1.25, 1.5, 1.75, 2.0])
    @pytest.mark.parametrize("depth_ratio", [1e2, 1e4, 1e6, 1e8])
    def test_ordered_route_against_the_incomplete_gamma_form(self, depth_ratio, kappa):
        kernel = CorrelationKernel(1.7, self.ZETA, kappa)
        z = depth_ratio * self.ZETA
        assert ordered_double_integral(kernel, z) == pytest.approx(
            _incomplete_gamma_form(kernel, z), rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize("kappa", [1.0, 1.25, 1.5, 1.75, 2.0])
    @pytest.mark.parametrize("depth_ratio", [1e2, 1e4, 1e6, 1e8])
    def test_square_route_against_the_incomplete_gamma_form(self, depth_ratio, kappa):
        # exact to rounding for kappa 1 and 2; for other kappa u**kappa is
        # not resolved at the lag-0 corners of the diagonal and adjacent
        # blocks, which holds the rule near 7e-8 at every depth
        kernel = CorrelationKernel(1.7, self.ZETA, kappa)
        z = depth_ratio * self.ZETA
        rel = 1e-13 if kappa in (1.0, 2.0) else 1e-7
        assert square_double_integral(kernel, z) == pytest.approx(
            2.0 * _incomplete_gamma_form(kernel, z), rel=rel, abs=0.0
        )

    @pytest.mark.parametrize("kappa", [1.0, 1.5, 2.0])
    def test_one_kernel_evaluation_per_call_of_bounded_size(self, kappa, monkeypatch):
        # the square route sums at most 47 offset blocks of 129 distinct
        # lags after the diagonal's 136; the ordered route at most 41
        # panels plus 14 graded ones of 16 nodes
        evaluate_scaled = CorrelationKernel.evaluate_scaled
        sizes = []

        def counting(self, scale, powers):
            out = evaluate_scaled(self, scale, powers)
            sizes.append(np.size(out))
            return out

        monkeypatch.setattr(CorrelationKernel, "evaluate_scaled", counting)
        kernel = CorrelationKernel(1.0, self.ZETA, kappa)
        for route, bound in (
            (square_double_integral, 136 + 129 * 47),
            (ordered_double_integral, 16 * (41 + 14)),
        ):
            for depth_ratio in (10.0, 1e4, 1e8):
                sizes.clear()
                route(kernel, depth_ratio * self.ZETA)
                assert len(sizes) == 1 and sizes[0] <= bound, (route.__name__, sizes)


class TestCachedLagPowers:
    """Both routes read the kernel from cached powers ``u**kappa`` of their
    unit lags, ``C exp(-(s/zeta)**kappa u**kappa)`` at the depth's scale
    ``s``, where the kernel's own formula is ``C exp(-(s u / zeta)**kappa)``."""

    KAPPAS = [1.0, 1.2, 1.5, 2.0]

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("zeta", [1e-200, 0.3, 1.0, 1e120])
    def test_scaled_evaluation_matches_evaluate(self, kappa, zeta):
        # exp's condition number is its argument, so the two agree to
        # 1e-15 relative where it is at most 1, and in proportion beyond
        kernel = CorrelationKernel(1.7, zeta, kappa)
        lags, _ = _square_table()
        for ratio in np.geomspace(1e-6, 40.0 ** (1.0 / kappa), 25):
            scale = ratio * zeta
            expected = kernel.evaluate(scale * lags, 0.0)
            got = kernel.evaluate_scaled(scale, lags**kappa)
            argument = (ratio * lags) ** kappa
            kept = expected > 1e-300
            rel = np.abs(got - expected)[kept] / expected[kept]
            assert np.all(rel <= 1e-15 * np.maximum(1.0, argument[kept])), ratio

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("depth_ratio", [1e-3, 0.1, 3.0, 47.5, 1e3, 1e8])
    def test_routes_match_the_kernel_evaluated_at_their_lags(self, kappa, depth_ratio):
        kernel = CorrelationKernel(1.7, 0.3, kappa)
        z = depth_ratio * 0.3
        assert ordered_double_integral(kernel, z) == pytest.approx(
            _ordered_by_evaluate(kernel, z), rel=1e-14, abs=0.0
        )
        assert square_double_integral(kernel, z) == pytest.approx(
            _square_by_evaluate(kernel, z), rel=1e-14, abs=0.0
        )

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize(
        "zeta, z",
        [
            (1e-3 * 1e-100, 2.5e-103),  # evaluate's scaled lags overflow
            (1e-3 * 1e-100, 1e-95),
            (1.0, 1e-170),  # (z / zeta)**kappa underflows to 0 at kappa 2
            (1e10, 1e-300),  # z / zeta is subnormal
        ],
    )
    def test_tiny_correlation_lengths_and_depths_stay_finite(self, kappa, zeta, z):
        kernel = CorrelationKernel(1.7, zeta, kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ordered = ordered_double_integral(kernel, z)
            square = square_double_integral(kernel, z)
            references = _ordered_by_evaluate(kernel, z), _square_by_evaluate(kernel, z)
        assert math.isfinite(ordered) and math.isfinite(square)
        assert (ordered, square) == pytest.approx(references, rel=1e-14, abs=0.0)
        if z < 1e-100 * zeta:
            # the kernel is C over [0, z]: Y = C z^2 / 2
            assert ordered == pytest.approx(0.5 * 1.7 * z * z, rel=1e-14)
            assert square == pytest.approx(1.7 * z * z, rel=1e-14)
