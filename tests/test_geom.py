import math

import numpy as np
import pytest

from implicurve import (
    ConicCoeffs,
    GradientVec,
    LineImplicit,
    Point2,
    conic_gradient,
    equal_up_to_scale,
    line_through,
    orient_toward,
    secant_line,
)
from implicurve.errors import DegeneratePoints, ReferenceOnLine
from implicurve.geom import _line_product_coeffs

from conftest import central_diff, conic_tangent, crossing, line_product

UNIT_CIRCLE = ConicCoeffs(1.0, 0.0, 1.0, 0.0, 0.0, -1.0)


class TestTypes:
    def test_point_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, math.inf)

    def test_line_rejects_zero_normal(self):
        with pytest.raises(ValueError):
            LineImplicit(0.0, 0.0, 1.0)

    def test_conic_rejects_all_zero(self):
        with pytest.raises(ValueError):
            ConicCoeffs(0, 0, 0, 0, 0, 0)

    def test_values_are_immutable(self):
        p = Point2(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.x = 3.0


class TestLineThrough:
    def test_diagonal(self):
        line = line_through(Point2(1, 0), Point2(0, 1))
        # proportional to x + y - 1, normalized to a unit normal
        s = math.sqrt(0.5)
        assert line.a == pytest.approx(s)
        assert line.b == pytest.approx(s)
        assert line.c == pytest.approx(-s)

    def test_other_diagonal(self):
        line = line_through(Point2(-1, 0), Point2(0, -1))
        s = math.sqrt(0.5)
        assert (line.a, line.b, line.c) == pytest.approx((s, s, s))

    def test_coincident_points(self):
        with pytest.raises(DegeneratePoints):
            line_through(Point2(0, 0), Point2(0, 0))

    def test_interpolates_endpoints(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = Point2(*rng.uniform(-1, 1, 2))
            q = Point2(*rng.uniform(-1, 1, 2))
            if p.distance_to(q) < 1e-3:
                continue
            line = line_through(p, q)
            assert abs(line.value(p)) < 1e-12
            assert abs(line.value(q)) < 1e-12
            assert line.normal_norm() == pytest.approx(1.0)

    def test_deterministic_sign(self):
        vertical = line_through(Point2(0.5, 0), Point2(0.5, 1))
        assert vertical.a > 0
        horizontal = line_through(Point2(0, 0.5), Point2(1, 0.5))
        assert horizontal.a == 0.0 and horizontal.b > 0


class TestSecantLine:
    def test_cross_product_scale(self):
        # through (1,0) and (0,1) the cross form is exactly 1 - x - y
        line = secant_line(Point2(1, 0), Point2(0, 1))
        assert (line.a, line.b, line.c) == (-1.0, -1.0, 1.0)
        assert line.normal_norm() == pytest.approx(math.sqrt(2))

    def test_vanishes_at_both_points(self):
        line = secant_line(Point2(-1, 0), Point2(0, -1))
        assert line.value(Point2(-1, 0)) == 0.0
        assert line.value(Point2(0, -1)) == 0.0

    def test_coincident_points(self):
        with pytest.raises(DegeneratePoints):
            secant_line(Point2(1, 1), Point2(1, 1))


class TestOrientToward:
    def test_already_positive(self):
        line = LineImplicit(-1, 0, 1)
        assert orient_toward(line, Point2(0, 0)) == line

    def test_flips_negative(self):
        line = orient_toward(LineImplicit(1, 0, -1), Point2(0, 0))
        assert (line.a, line.b, line.c) == (-1.0, 0.0, 1.0)

    def test_reference_on_line(self):
        with pytest.raises(ReferenceOnLine):
            orient_toward(LineImplicit(1, 1, -1), Point2(1, 0))

    def test_projection(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = rng.normal(size=2)
            if math.hypot(a, b) < 1e-3:
                continue
            line = LineImplicit(a, b, rng.normal())
            ref = Point2(*rng.uniform(-2, 2, 2))
            if abs(line.value(ref)) < 1e-6:
                continue
            once = orient_toward(line, ref)
            assert orient_toward(once, ref) == once


class TestConicEval:
    def test_unit_circle_values(self):
        assert UNIT_CIRCLE.value(Point2(1, 0)) == 0.0
        assert UNIT_CIRCLE.value(Point2(0, 0)) == -1.0
        assert UNIT_CIRCLE.value(Point2(2, 0)) == 3.0


class TestConicGradient:
    def test_circle_gradients(self):
        assert conic_gradient(UNIT_CIRCLE, Point2(1, 0)) == GradientVec(2.0, 0.0)
        assert conic_gradient(UNIT_CIRCLE, Point2(0, 1)) == GradientVec(0.0, 2.0)

    def test_origin_gives_linear_terms(self):
        q = ConicCoeffs(3, -2, 5, 7, -11, 1)
        assert conic_gradient(q, Point2(0, 0)) == GradientVec(7.0, -11.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            q = ConicCoeffs(*rng.uniform(-10, 10, 6))
            p = Point2(*rng.uniform(-2, 2, 2))
            g = conic_gradient(q, p)
            fx, fy = central_diff(q, p)
            assert abs(g.gx - fx) < 1e-6
            assert abs(g.gy - fy) < 1e-6


class TestConicTangentLine:
    """The tangent-line helper every ellipse-based test builds its lines with."""

    def test_circle_vertical_tangent(self):
        line = conic_tangent(UNIT_CIRCLE, Point2(1, 0))
        assert (line.a, line.b, line.c) == pytest.approx((1.0, 0.0, -1.0))

    def test_circle_horizontal_tangent(self):
        line = conic_tangent(UNIT_CIRCLE, Point2(0, 1))
        assert (line.a, line.b, line.c) == pytest.approx((0.0, 1.0, -1.0))

    def test_tangent_contains_point(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            t = rng.uniform(0, 2 * math.pi)
            p = Point2(math.cos(t), math.sin(t))
            line = conic_tangent(UNIT_CIRCLE, p)
            assert abs(line.value(p)) < 1e-10


class TestIntersectLines:
    def test_simple_crossing(self):
        p = crossing(LineImplicit(1, 0, -1), LineImplicit(0, 1, -2))
        assert (p.x, p.y) == pytest.approx((1.0, 2.0))


class TestLineProduct:
    def test_expansion_matches_pointwise(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            l1 = LineImplicit(*rng.normal(size=3))
            l2 = LineImplicit(*rng.normal(size=3))
            q = line_product(l1, l2)
            assert q.coeffs() == _line_product_coeffs(l1, l2)
            p = Point2(*rng.uniform(-2, 2, 2))
            assert q.value(p) == pytest.approx(l1.value(p) * l2.value(p), abs=1e-12)


class TestEqualUpToScale:
    def test_scaled_copies_match(self):
        assert equal_up_to_scale(UNIT_CIRCLE, UNIT_CIRCLE.scaled(-3.7))

    def test_different_conics_differ(self):
        other = ConicCoeffs(1, 1, 1, 0, 0, -1)
        assert not equal_up_to_scale(UNIT_CIRCLE, other)
