import math

import numpy as np
import pytest

from polydisc import (
    CONSTANT_NAMES,
    InvalidConfigError,
    QuadratureError,
    constant,
    j_riemann,
    j_series,
    regime_integral,
    regime_product,
    rk_integral_check,
    triwave_prediction,
    zeta3,
)
from polydisc.asymptotics import (
    _graded_gauss_nodes,
    _integrand_rows,
    _regime_quadrature,
    even_bound_closed,
    j_closed,
    j_series_error,
    regime_integral_closed,
    rho_square_bound,
    _rho_matrix,
)
from polydisc.constructions import arc_polygon, tri, triwave
from polydisc.geometry import log_delta_bar

SQRT3 = math.sqrt(3.0)

C1 = math.exp(0.25 - math.pi * SQRT3 / 24 - math.log(3.0) / 8)
C2 = math.exp(-0.25 - math.log(2.0) / 2 - math.pi * SQRT3 / 24 + 5 * math.log(3.0) / 8)
C3 = SQRT3 / 2.0
CSTAR = 3.0 ** 2.25 / 8.0 * math.exp((math.pi ** 2 - 2 * SQRT3 * math.pi) / 8.0)


class TestZeta3:
    def test_value(self):
        assert zeta3() == pytest.approx(1.2020569031595942854, abs=1e-14)

    def test_converged_in_terms(self):
        assert zeta3(10000) == pytest.approx(zeta3(40000), abs=1e-14)


class TestRegimeProducts:
    @pytest.mark.parametrize("regime,limit", [(1, C1), (2, C2), (3, C3)])
    def test_convergence_at_k400(self, regime, limit):
        assert regime_product(regime, 400) == pytest.approx(limit, abs=5e-3)

    def test_first_order_convergence_rate(self):
        errors = [abs(regime_product(1, k) - C1) for k in (50, 100, 200, 400)]
        for a, b in zip(errors, errors[1:]):
            ratio = a / b
            assert 2.0 / 3.0 < ratio / 2.0 < 3.0  # halving within a factor 3

    def test_formula_matches_measured_distances(self):
        # per-pair agreement between the chord formulas and distances
        # measured on the constructed polygons
        k = 10
        n = 6 * k
        delta = math.pi / n
        poly = arc_polygon(k)
        zb = poly.Y.as_complex
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                x, y = math.pi * i / n, math.pi * j / n
                measured = abs(zb[(k + j) % n] - zb[(k - i) % n]) ** 2
                formula = (math.sin(x) ** 2 + math.sin(y) ** 2
                           + 2 * math.sin(x) * math.sin(y) * math.cos((x + y) - delta))
                assert measured == pytest.approx(formula, abs=1e-12)
                measured_a = math.sin(x + y) ** 2  # regular polygon chord
                assert abs(math.sin(math.pi * (i + j) / n)) ** 2 == pytest.approx(
                    measured_a, abs=1e-15)

    def test_opposite_arc_formula(self):
        k = 10
        n = 6 * k
        delta = math.pi / n
        zb = arc_polygon(k).Y.as_complex
        for i in (1, 3, k):
            for j in (1, 4, k):
                x, y = math.pi * i / n, math.pi * j / n
                measured = abs(zb[(4 * k - j) % n] - zb[(k - i) % n]) ** 2
                formula = math.cos(x - y - delta / 2) ** 2
                assert measured == pytest.approx(formula, abs=1e-12)

    def test_invalid_regime(self):
        with pytest.raises(InvalidConfigError):
            regime_product(4, 10)


def _direct_h(regime, b, c):
    """Reference: the junction integrand's numerator h(b, c) as the paper
    writes it, with its offset phi."""
    cb, cc = np.cos(b), np.cos(c)
    sb, sc = np.sin(b), np.sin(c)
    if regime == 1:
        return (2.0 * (sb ** 2 + sc ** 2) * np.cos(b + c) * sb * sc
                + 4.0 * sb ** 2 * sc ** 2), 0.0
    if regime == 2:
        return (-0.25
                + (-4 * sb * cb ** 3 - 4 * sc * cc ** 3 + 5 * sb * cb + 5 * sc * cc)
                * SQRT3 / 8.0
                + (3.0 - 4 * cc ** 2) * cb ** 4 / 2.0
                + 2 * sc * cc * sb * cb ** 3
                + (-16 * cc ** 4 + 24 * cc ** 2 - 7) * cb ** 2 / 8.0
                + 2 * sb * (cc ** 2 - 1.5) * cc * sc * cb
                + 1.5 * cc ** 4 - 7 * cc ** 2 / 8.0), math.pi / 6.0
    return (0.375
            + (2 * sc * cc * cb ** 2 + sb * (2 * cc ** 2 - 1) * cb - sc * cc) * SQRT3 / 4.0
            + (2 * cc ** 2 - 1) * cb ** 2 / 4.0
            - sc * cc * cb * sb / 2.0
            - cc ** 2 / 4.0), math.pi / 3.0


def _direct_quadrature(regime, nodes, panels):
    """Reference: the tensor Gauss-Legendre sum of the direct integrand."""
    t, w = _graded_gauss_nodes(panels, nodes)
    h, phi = _direct_h(regime, t[:, None], t[None, :])
    return float(np.einsum("i,j,ij->", w, w, h / np.sin(t[:, None] + t[None, :] + phi) ** 4))


class TestSeparableIntegrand:
    @pytest.mark.parametrize("regime", [1, 2, 3])
    def test_rows_match_direct_integrand(self, regime):
        b, c = np.random.default_rng(regime).uniform(0.0, math.pi / 6.0, size=(2, 1000))
        f, _, phi = _integrand_rows(regime, b)
        _, g, _ = _integrand_rows(regime, c)
        h, direct_phi = _direct_h(regime, b, c)
        assert phi == direct_phi
        assert (np.abs((f * g).sum(axis=0) - h) / np.abs(h)).max() <= 1e-13

    @pytest.mark.parametrize("regime", [1, 2, 3])
    @pytest.mark.parametrize("nodes, panels", [(4, 0), (8, 3), (16, 24)])
    def test_quadrature_matches_direct_sum(self, regime, nodes, panels):
        assert abs(_regime_quadrature(regime, nodes, panels)
                   - _direct_quadrature(regime, nodes, panels)) <= 1e-14


class TestRegimeIntegrals:
    def test_closed_forms(self):
        assert regime_integral_closed(1) == pytest.approx(
            -0.25 + math.pi * SQRT3 / 24 + math.log(3.0) / 8, rel=1e-15)
        # reference decimals are themselves rounded to 10 places
        assert regime_integral_closed(2) == pytest.approx(0.1366658305, abs=1e-9)
        assert regime_integral_closed(3) == pytest.approx(0.1438410363, abs=1e-9)

    @pytest.mark.parametrize("regime", [1, 2, 3])
    def test_quadrature_matches_closed_form(self, regime):
        assert regime_integral(regime) == pytest.approx(
            regime_integral_closed(regime), abs=1e-8)

    def test_reference_decimals(self):
        assert regime_integral(2) == pytest.approx(0.1366658305, abs=1e-8)
        assert regime_integral(3) == pytest.approx(0.1438410363, abs=1e-8)

    def test_neg_log_identities(self):
        assert -math.log(C2) == pytest.approx(regime_integral(2), abs=1e-8)
        assert -math.log(C3) == pytest.approx(regime_integral(3), abs=1e-8)

    def test_doubling_guard(self):
        # one panel at very low node count is unstable on the corner integrand
        from polydisc.asymptotics import _regime_quadrature
        v1 = _regime_quadrature(1, nodes=4, panels=0)
        v2 = _regime_quadrature(1, nodes=8, panels=0)
        assert abs(v1 - v2) > 1e-10  # the guard in regime_integral would trip
        with pytest.raises(QuadratureError):
            regime_integral(1, nodes=4, panels=0)


class TestConstants:
    @pytest.mark.parametrize("name", CONSTANT_NAMES)
    def test_reports_within_tolerance(self, name):
        report = constant(name)
        assert report.within_tolerance, report

    def test_cstar_value(self):
        report = constant("Cstar")
        assert report.closed_form_value == pytest.approx(1.304457, abs=1e-6)

    def test_cstar_log_identity(self):
        lhs = math.log(CSTAR)
        rhs = math.pi ** 2 / 8 + 3 * math.log(C1) + 3 * math.log(C2) \
            + 1.5 * math.log(C3)
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_even_bound_value(self):
        assert even_bound_closed() == pytest.approx(1.26853, abs=1e-5)

    def test_c3_closed_form(self):
        report = constant("C3")
        assert report.closed_form_value == pytest.approx(SQRT3 / 2, rel=1e-15)

    def test_unknown_name(self):
        with pytest.raises(InvalidConfigError):
            constant("bogus")

    def test_arc_family_approaches_cstar(self):
        from polydisc import normalized_discriminant
        v25 = normalized_discriminant(arc_polygon(25).P)
        v100 = normalized_discriminant(arc_polygon(100).P)
        assert abs(v100 - CSTAR) < 5e-3
        assert abs(v100 - CSTAR) < abs(v25 - CSTAR)


class TestJ:
    def test_series_matches_closed_form(self):
        assert j_series(100000) == pytest.approx(j_closed(), abs=1e-9)

    def test_negative(self):
        assert j_closed() < 0
        assert j_closed() == pytest.approx(-0.70325, abs=1e-5)

    def test_error_estimate_is_a_bound(self):
        for r_max in (101, 1001, 10001):
            assert abs(j_series(r_max) - j_closed()) <= j_series_error(r_max) + 1e-14

    def test_riemann_route(self):
        assert j_riemann(1200) == pytest.approx(j_series(), abs=5e-3)

    def test_riemann_equals_direct_sum_small(self):
        n = 8
        theta = 2 * math.pi * np.arange(n) / n
        g = tri(3 * theta)
        xi = np.exp(1j * theta)
        f = g * xi
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                rho = (f[i] - f[j]) / (xi[i] - xi[j])
                total += (rho ** 2).real
        assert j_riemann(8) == pytest.approx(total / n ** 2, abs=1e-12)

    def test_rho_values_bounded(self):
        theta = 2 * math.pi * np.arange(64) / 64
        rho = _rho_matrix(theta)
        assert np.abs(rho).max() <= 4.0
        assert np.abs(np.real(rho ** 2)).max() <= rho_square_bound()

    def test_linear_term_cancels(self):
        theta = 2 * math.pi * np.arange(64) / 64
        rho = _rho_matrix(theta)
        assert abs(rho.sum()) < 1e-10


class TestRkIntegrals:
    @pytest.mark.parametrize("k,l,expected", [
        (1, 1, 1.0),
        (4, -2, -2.0),
        (2, 3, 0.0),
        (0, 5, 0.0),
        (-1, 3, -1.0),
    ])
    def test_values(self, k, l, expected):
        assert rk_integral_check(k, l) == pytest.approx(expected, abs=1e-6)

    def test_range_guard(self):
        with pytest.raises(InvalidConfigError):
            rk_integral_check(9, -7)


class TestTriwavePrediction:
    def test_prediction_matches_measurement(self):
        n = 128
        predicted = triwave_prediction(n)
        measured = log_delta_bar(triwave(n).config)
        assert predicted == pytest.approx(measured, abs=1e-4)

    def test_limit(self):
        limit = 7 * zeta3() / 24 - math.pi ** 4 / 864
        assert triwave_prediction(4000) == pytest.approx(limit, abs=1e-3)

    def test_small_n_guard(self):
        with pytest.raises(InvalidConfigError):
            triwave_prediction(6)
