import math

import numpy as np
import pytest

from polydisc import (
    InvalidConfigError,
    PointConfig,
    SingularConfigError,
    diameter,
    discriminant,
    evaluate,
    is_convex_position,
    normalize_to_diameter,
    normalized_discriminant,
    objective_gradient,
)
from polydisc.constructions import hexagon6, kite4, regular_ngon

SQRT3 = math.sqrt(3.0)


def random_config(rng, n):
    pts = rng.uniform(-1.0, 1.0, (n, 2))
    return PointConfig(pts)


class TestDiscriminant:
    def test_single_pair(self):
        delta, log_delta = discriminant(PointConfig([[0, 0], [2, 0]]))
        assert delta == pytest.approx(4.0, rel=1e-15)
        assert log_delta == pytest.approx(math.log(4.0), rel=1e-15)

    def test_equilateral_triangle_side_2(self):
        z = 2.0 * np.exp(2j * math.pi * np.arange(3) / 3) / SQRT3
        delta, _ = discriminant(PointConfig.from_complex(z))
        assert delta == pytest.approx(64.0, rel=1e-13)

    def test_square_on_unit_circle(self):
        cfg = PointConfig([[1, 0], [0, 1], [-1, 0], [0, -1]])
        delta, _ = discriminant(cfg)
        assert delta == pytest.approx(256.0, rel=1e-13)

    def test_empty_product_convention(self):
        assert discriminant(PointConfig(np.empty((0, 2)))) == (1.0, 0.0)
        assert discriminant(PointConfig([[3.0, 4.0]])) == (1.0, 0.0)

    def test_coincident_points(self):
        delta, log_delta = discriminant(PointConfig([[1, 1], [1, 1], [0, 0]]))
        assert delta == 0.0 and log_delta == -math.inf

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidConfigError):
            PointConfig([[0, 0], [math.nan, 1]])

    def test_log_only_flag(self):
        # log Delta of a diameter-2 regular 200-gon is n log n ~ 1060,
        # past the exp range; delta_bar must still come out finite
        report = evaluate(regular_ngon(200))
        assert report.log_only and report.delta == math.inf
        assert math.isfinite(report.delta_bar)
        report68 = evaluate(regular_ngon(68))
        assert not report68.log_only and math.isfinite(report68.delta)

    def test_delta_bar_past_float_range_is_inf(self):
        # 60 Gaussian points at scale 100: log Delta ~ 1.8e4, and even
        # Delta / n^n is past the float range without a rescale
        cfg = PointConfig(np.random.default_rng(0).normal(size=(60, 2)) * 100)
        report = evaluate(cfg)
        assert report.log_only and report.delta == math.inf
        assert report.delta_bar == math.inf
        assert normalized_discriminant(cfg, rescale_to_diameter=False) == math.inf
        assert math.isfinite(normalized_discriminant(cfg))


class TestNormalizedDiscriminant:
    def test_kite_value(self):
        expected = 16.0 * (7.0 - 4.0 * SQRT3)
        assert normalized_discriminant(kite4()) == pytest.approx(expected, rel=1e-13)

    def test_regular_hexagon_is_one(self):
        assert normalized_discriminant(regular_ngon(6)) == pytest.approx(1.0, rel=1e-13)

    def test_regular_pentagon(self):
        expected = (4.0 / 5.0) ** 5 * (math.sqrt(5.0) - 1.0) ** 10
        assert normalized_discriminant(regular_ngon(5)) == pytest.approx(expected, rel=1e-13)

    def test_rescale_flag(self):
        small = PointConfig(kite4().points * 0.25)
        with_rescale = normalized_discriminant(small, rescale_to_diameter=True)
        without = normalized_discriminant(small, rescale_to_diameter=False)
        assert with_rescale == pytest.approx(16.0 * (7.0 - 4.0 * SQRT3), rel=1e-12)
        assert without < with_rescale

    def test_empty_invalid(self):
        with pytest.raises(InvalidConfigError):
            normalized_discriminant(PointConfig(np.empty((0, 2))))

    def test_zero_diameter_invalid(self):
        with pytest.raises(InvalidConfigError):
            normalized_discriminant(PointConfig([[1, 1], [1, 1]]))


class TestDiameter:
    def test_two_points(self):
        assert diameter(PointConfig([[0, 0], [2, 0]])) == pytest.approx(2.0)

    def test_single_point_invalid(self):
        with pytest.raises(InvalidConfigError):
            diameter(PointConfig([[0, 0]]))

    def test_triwave_diameter_two(self):
        from polydisc.constructions import triwave
        tw = triwave(32)
        assert diameter(tw.config) == pytest.approx(2.0, abs=1e-14)

    def test_arc_polygon_diameter(self):
        from polydisc.constructions import arc_polygon
        k = 2
        n = 6 * k
        assert diameter(arc_polygon(k).Y) == pytest.approx(
            math.cos(math.pi / (2 * n)), abs=1e-13)


class TestNormalizeToDiameter:
    def test_basic(self):
        out = normalize_to_diameter(PointConfig([[0, 0], [1, 0]]), 2.0)
        assert np.allclose(out.points, [[0, 0], [2, 0]])

    def test_identity_returns_same_object(self):
        cfg = PointConfig([[0, 0], [2, 0]])
        assert normalize_to_diameter(cfg, 2.0) is cfg

    def test_scaling_law_on_random(self):
        rng = np.random.default_rng(5)
        cfg = random_config(rng, 7)
        _, ld = discriminant(cfg)
        for s in (0.5, 2.0, 3.0):
            _, ld_s = discriminant(PointConfig(cfg.points * s))
            assert ld_s - ld == pytest.approx(7 * 6 * math.log(s), abs=1e-9)

    def test_zero_diameter_invalid(self):
        with pytest.raises(InvalidConfigError):
            normalize_to_diameter(PointConfig([[1, 2], [1, 2]]), 2.0)


class TestConvexPosition:
    def test_square(self):
        assert is_convex_position(PointConfig([[0, 0], [1, 0], [1, 1], [0, 1]]))

    def test_square_plus_centroid(self):
        cfg = PointConfig([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5]])
        assert not is_convex_position(cfg)

    def test_point_on_edge(self):
        cfg = PointConfig([[0, 0], [2, 0], [1, 0], [1, 2]])
        assert not is_convex_position(cfg)

    def test_coincident_invalid(self):
        with pytest.raises(SingularConfigError):
            is_convex_position(PointConfig([[0, 0], [0, 0], [1, 1]]))

    def test_known_optima_are_convex(self):
        assert is_convex_position(kite4())
        assert is_convex_position(hexagon6())


class TestGradient:
    def test_two_point_hand_value(self):
        grad = objective_gradient(PointConfig([[-1, 0], [1, 0]]))
        assert grad == pytest.approx([-1.0, 0.0, 1.0, 0.0], abs=1e-14)

    def test_even_ngon_gradient_radial(self):
        cfg = regular_ngon(8)
        grad = objective_gradient(cfg).reshape(-1, 2)
        z = cfg.as_complex
        radial = np.column_stack([z.real, z.imag]) / np.abs(z)[:, None]
        tangential = grad - (grad * radial).sum(axis=1)[:, None] * radial
        assert np.abs(tangential).max() < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        checked = 0
        while checked < 100:
            n = int(rng.integers(3, 13))
            cfg = random_config(rng, n)
            if cfg.min_pairwise_distance() < 1e-2:
                continue
            checked += 1
            grad = objective_gradient(cfg)
            fd = np.empty_like(grad)
            base = cfg.points
            for i in range(2 * n):
                plus = base.copy().reshape(-1)
                minus = base.copy().reshape(-1)
                plus[i] += h
                minus[i] -= h
                _, lp = discriminant(PointConfig(plus.reshape(-1, 2)))
                _, lm = discriminant(PointConfig(minus.reshape(-1, 2)))
                fd[i] = (lp - lm) / (2 * h)
            scale = max(1.0, np.abs(grad).max())
            assert np.abs(grad - fd).max() / scale < 1e-5

    def test_coincident_rejected(self):
        with pytest.raises(SingularConfigError):
            objective_gradient(PointConfig([[0, 0], [0, 0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_scales_past_squared_range(self, scale):
        # |z_j - z_k|^2 overflows (1e320) or its reciprocal does (1e-320)
        unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        grad = objective_gradient(PointConfig(unit * scale))
        expected = objective_gradient(PointConfig(unit)) / scale
        assert np.abs(grad - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gradient_past_float_range_rejected(self):
        with pytest.raises(SingularConfigError):
            objective_gradient(PointConfig([[0, 0], [0, 5e-324], [1e-323, 0]]))


class TestInvariants:
    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(17)
        cfg = random_config(rng, 8)
        _, ld = discriminant(cfg)
        z = cfg.as_complex * np.exp(0.7j) + (3.0 - 2.0j)
        _, ld2 = discriminant(PointConfig.from_complex(z))
        assert ld2 == pytest.approx(ld, rel=1e-12)

    def test_log_exp_consistency(self):
        rng = np.random.default_rng(23)
        for n in (3, 6, 10):
            cfg = random_config(rng, n)
            delta, log_delta = discriminant(cfg)
            assert delta == pytest.approx(math.exp(log_delta), rel=1e-10)
