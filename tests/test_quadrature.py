"""Panelized Gauss-Legendre evaluators for the covariance integrals."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from slabatten import CorrelationKernel, ordered_double_integral, square_double_integral
from slabatten.quadrature import (
    _ordered_rule,
    _square_rule,
    _unit_panel_rule,
    composite_unit_rule,
    graded_unit_rule,
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

    def test_graded_rule_integrates_polynomials_exactly(self):
        # the first panel is split into 15 subpanels, the other 4 kept
        nodes, w = graded_unit_rule(5)
        assert nodes.size == 16 * (15 + 4)
        assert np.all(nodes > 0.0) and np.all(nodes < 1.0)
        for p in range(10):
            assert (w @ nodes**p) == pytest.approx(1.0 / (p + 1), rel=1e-13)

    @pytest.mark.parametrize(
        "rule",
        [
            _unit_panel_rule,
            lambda: composite_unit_rule(3),
            lambda: graded_unit_rule(3),
            lambda: _ordered_rule(3),
            _square_rule,
        ],
        ids=["unit", "composite", "graded", "ordered", "square"],
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
        # the square route sums at most 47 offset blocks of 256 lags after
        # the diagonal's 512; the ordered route at most 47 panels plus 14
        # graded ones of 16 nodes
        evaluate = CorrelationKernel.evaluate
        sizes = []

        def counting(self, z1, z2):
            out = evaluate(self, z1, z2)
            sizes.append(np.size(out))
            return out

        monkeypatch.setattr(CorrelationKernel, "evaluate", counting)
        kernel = CorrelationKernel(1.0, self.ZETA, kappa)
        for route, bound in (
            (square_double_integral, 512 + 256 * 47),
            (ordered_double_integral, 16 * (47 + 14)),
        ):
            for depth_ratio in (10.0, 1e4, 1e8):
                sizes.clear()
                route(kernel, depth_ratio * self.ZETA)
                assert len(sizes) == 1 and sizes[0] <= bound, (route.__name__, sizes)
