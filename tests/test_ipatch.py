import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from implicurve import (
    FAITHFUL,
    NORMALIZED,
    RAW,
    ConicCoeffs,
    LimingSpec,
    LineImplicit,
    Point2,
    TangentPairSpec,
    WeightTriple,
    expand_to_polynomial,
    four_tangent_patch,
    liming_conic,
    reproduce_conic_weights,
)
from implicurve.errors import (
    DegenerateSecant,
    NotTangent,
    RecoveryFailed,
    SecantThroughForeignPoint,
    TangencyViolation,
    ZeroDenominator,
)
from implicurve.poly import BivariatePoly

from conftest import (
    central_diff,
    coords,
    crossing,
    ellipse_tangents,
    foot,
    random_ellipse,
    spaced_angles,
)

L1 = LineImplicit(-1, 0, 1)
L2 = LineImplicit(0, -1, 1)
L3 = LineImplicit(1, 0, 1)
L4 = LineImplicit(0, 1, 1)
CIRCLE_LINES = (L1, L2, L3, L4)
CIRCLE_POINTS = (Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1))
CIRCLE = ConicCoeffs(-1, 0, -1, 0, 0, 1)
CIRCLE_WEIGHTS = WeightTriple(2.0, 2.0, -2.0)


def circle_patch(form=RAW):
    return four_tangent_patch(CIRCLE_LINES, CIRCLE_POINTS, CIRCLE_WEIGHTS, form)


def random_patch(rng, form=RAW):
    """Four-tangent patch on a random ellipse with random weights."""
    while True:
        ell = random_ellipse(rng)
        ts = spaced_angles(rng, 4)
        points = [ell.point_at(t) for t in ts]
        lines = [ell.tangent_at(t) for t in ts]
        w = WeightTriple(*rng.uniform(0.2, 2.5, 3))
        try:
            return ell, four_tangent_patch(lines, points, w, form)
        except (SecantThroughForeignPoint, DegenerateSecant):
            continue


def _sympy_patch_poly(spec):
    x, y = sp.symbols("x y")

    def lin(line):
        return line.a * x + line.b * y + line.c

    l1, l2, l3, l4 = spec.lines
    expr = sp.expand(
        spec.weights.w1 * lin(l1) * lin(l2) * lin(spec.c2) ** 2
        + spec.weights.w2 * lin(l3) * lin(l4) * lin(spec.c1) ** 2
        + spec.weights.w0 * lin(spec.c1) ** 2 * lin(spec.c2) ** 2)
    poly = sp.Poly(expr, x, y)
    out = np.zeros((5, 5))
    for (i, j), coef in zip(poly.monoms(), poly.coeffs()):
        out[i, j] = float(coef)
    return out


class TestIPatchEval:
    def test_one_sided_patch_is_two_tangent_blend(self):
        spec = TangentPairSpec((L1, L2), (Point2(1, 0), Point2(0, 1)),
                               (2.0 / 3.0, -1.0 / 3.0))
        assert spec.secants == (LineImplicit(-1, -1, 1),)
        assert spec.value(Point2(0, 0)) == pytest.approx(1.0 / 3.0)
        # identical to the expanded blend everywhere
        conic = liming_conic(LimingSpec(L1, L2, spec.secants[0], 1.0 / 3.0))
        rng = np.random.default_rng(43)
        for _ in range(100):
            p = Point2(*rng.uniform(-2, 2, 2))
            assert abs(spec.value(p) - conic.value(p)) < 1e-12

    def test_one_sided_degeneration_random_parameters(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            phi = rng.uniform(0, 2 * math.pi, 2)
            lines = [LineImplicit(math.cos(a), math.sin(a), rng.uniform(-1, 1))
                     for a in phi]
            points = [foot(line, *rng.uniform(-1, 1, 2)) for line in lines]
            lam = rng.uniform(0.05, 0.95)
            spec = TangentPairSpec(lines, points, (1.0 - lam, -lam))
            conic = liming_conic(LimingSpec(*lines, spec.secants[0], lam))
            for _ in range(20):
                p = Point2(*rng.uniform(-2, 2, 2))
                assert abs(spec.value(p) - conic.value(p)) < 1e-12

    def test_circle_patch_values_at_origin(self):
        assert circle_patch(RAW).value(Point2(0, 0)) == pytest.approx(2.0)
        assert circle_patch(NORMALIZED).value(Point2(0, 0)) == pytest.approx(1.0)
        assert CIRCLE.value(Point2(0, 0)) == 1.0

    def test_zero_denominator_at_secant_intersection(self):
        spec = _crossing_secant_patch(NORMALIZED)
        pole = crossing(spec.c1, spec.c2)
        with pytest.raises(ZeroDenominator):
            spec.value(pole)

    def test_form_equivalence_of_signs(self):
        rng = np.random.default_rng(47)
        _, spec = random_patch(rng)
        raw = spec
        normalized = four_tangent_patch(spec.lines, spec.points, spec.weights, NORMALIZED)
        faithful = four_tangent_patch(spec.lines, spec.points, spec.weights, FAITHFUL)
        checked = 0
        while checked < 200:
            p = Point2(*rng.uniform(-2, 2, 2))
            b1 = spec.c1.value(p) ** 2
            b2 = spec.c2.value(p) ** 2
            den_n = b1 + b2
            den_f = spec.weights.w1 * b2 + spec.weights.w2 * b1
            if min(abs(den_n), abs(den_f)) < 1e-6:
                continue
            vr = raw.value(p)
            signs = {math.copysign(1.0, v) if v != 0 else 0.0
                     for v in (vr, normalized.value(p), faithful.value(p))}
            if vr != 0.0:
                assert len(signs) == 1
            checked += 1


class TestIPatchGradient:
    def test_circle_gradient_parallel_to_tangent_at_p1(self):
        spec = circle_patch(RAW)
        g = spec.gradient(Point2(1, 0))
        assert abs(g.gx * L1.b - g.gy * L1.a) < 1e-12
        assert g.norm() > 0.1
        fx, fy = central_diff(spec, Point2(1, 0))
        assert (g.gx, g.gy) == pytest.approx((fx, fy), abs=1e-6)

    def test_squared_factor_kills_gradient(self):
        # only the bounding product: stationary wherever one bounding vanishes
        spec = four_tangent_patch(CIRCLE_LINES, CIRCLE_POINTS,
                                  WeightTriple(0, 0, 1), RAW)
        g = spec.gradient(Point2(1, 0))
        assert g.gx == 0.0 and g.gy == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(53)
        for form in (RAW, NORMALIZED, FAITHFUL):
            _, spec = random_patch(rng, form)
            checked = 0
            while checked < 60:
                p = Point2(*rng.uniform(-2, 2, 2))
                b1 = spec.c1.value(p) ** 2
                b2 = spec.c2.value(p) ** 2
                if form != RAW and min(b1 + b2,
                                       abs(spec.weights.w1 * b2
                                           + spec.weights.w2 * b1)) < 1e-2:
                    continue
                g = spec.gradient(p)
                fx, fy = central_diff(spec, p)
                assert abs(g.gx - fx) < 1e-6
                assert abs(g.gy - fy) < 1e-6
                checked += 1


def _crossing_secant_patch(form=RAW, weights=WeightTriple(1.0, 1.0, 1.0)):
    """Tangent data on the unit circle whose two secants intersect."""
    angles = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0, math.pi)
    points = [Point2(math.cos(t), math.sin(t)) for t in angles]
    lines = [LineImplicit(math.cos(t), math.sin(t), -1.0) for t in angles]
    return four_tangent_patch(lines, points, weights, form)


class TestFourTangentPatch:
    def test_circle_reproduction_pointwise(self):
        spec = circle_patch(NORMALIZED)
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 1000:
            p = Point2(*rng.uniform(-2, 2, 2))
            if abs(spec.c1.value(p)) < 1e-3 or abs(spec.c2.value(p)) < 1e-3:
                continue
            assert abs(spec.value(p) - CIRCLE.value(p)) < 1e-9
            checked += 1

    def test_single_weight_field(self):
        spec = four_tangent_patch(CIRCLE_LINES, CIRCLE_POINTS,
                                  WeightTriple(1, 0, 0), RAW)
        rng = np.random.default_rng(61)
        for _ in range(100):
            p = Point2(*rng.uniform(-2, 2, 2))
            want = L1.value(p) * L2.value(p) * spec.c2.value(p) ** 2
            assert spec.value(p) == pytest.approx(want, abs=1e-12)
        # vanishes at p3/p4 only through the squared secant: zero gradient
        for pt in (Point2(-1, 0), Point2(0, -1)):
            assert spec.value(pt) == pytest.approx(0.0, abs=1e-15)
            g = spec.gradient(pt)
            assert g.norm() < 1e-14

    def test_secant_through_foreign_point(self):
        # p3 placed on the first pair's secant
        lines = (L1, L2, LineImplicit(1, 1, -1), L4)
        points = (Point2(1, 0), Point2(0, 1), Point2(0.5, 0.5), Point2(0, -1))
        with pytest.raises(SecantThroughForeignPoint):
            four_tangent_patch(lines, points, CIRCLE_WEIGHTS, RAW)

    def test_tangency_violation(self):
        points = (Point2(0.9, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1))
        with pytest.raises(TangencyViolation):
            four_tangent_patch(CIRCLE_LINES, points, CIRCLE_WEIGHTS, RAW)

    def test_degenerate_secant(self):
        lines = (L1, L1, L3, L4)
        points = (Point2(1, 0), Point2(1, 0), Point2(-1, 0), Point2(0, -1))
        with pytest.raises(DegenerateSecant):
            four_tangent_patch(lines, points, CIRCLE_WEIGHTS, RAW)

    def test_tangency_violation_before_degenerate_secant(self):
        # the first pair shares p1, which is also off the second tangent
        points = (Point2(1, 0), Point2(1, 0), Point2(-1, 0), Point2(0, -1))
        with pytest.raises(TangencyViolation):
            four_tangent_patch(CIRCLE_LINES, points, CIRCLE_WEIGHTS, RAW)

    def test_tangency_invariant_random_configs(self):
        rng = np.random.default_rng(67)
        for _ in range(40):
            _, spec = random_patch(rng)
            for line, pt in zip(spec.lines, spec.points):
                assert abs(spec.value(pt)) < 1e-10
                g = spec.gradient(pt)
                cross = abs(g.gx * line.b - g.gy * line.a)
                assert cross < 1e-8 * max(1.0, g.norm())


class TestExpandToPolynomial:
    def test_circle_identity(self):
        spec = circle_patch(RAW)
        got = expand_to_polynomial(spec)
        # independent symbolic expansion of the same field
        assert np.allclose(got.padded((5, 5)), _sympy_patch_poly(spec), atol=1e-12)
        # and the closed form (1 - x^2 - y^2) * ((1-x-y)^2 + (1+x+y)^2)
        x, y = sp.symbols("x y")
        closed = sp.Poly(sp.expand(
            (1 - x**2 - y**2) * ((1 - x - y) ** 2 + (1 + x + y) ** 2)), x, y)
        want = np.zeros((5, 5))
        for (i, j), coef in zip(closed.monoms(), closed.coeffs()):
            want[i, j] = float(coef)
        assert np.allclose(got.padded((5, 5)), want, atol=1e-12)

    def test_pure_bounding_weight(self):
        spec = four_tangent_patch(CIRCLE_LINES, CIRCLE_POINTS,
                                  WeightTriple(0, 0, 1), RAW)
        got = expand_to_polynomial(spec)
        c1 = BivariatePoly.from_line(spec.c1)
        c2 = BivariatePoly.from_line(spec.c2)
        want = (c1 * c2).squared()
        assert (got - want).max_abs() < 1e-12

    def test_zero_weights_zero_polynomial(self):
        spec = four_tangent_patch(CIRCLE_LINES, CIRCLE_POINTS,
                                  WeightTriple(0, 0, 0), RAW)
        assert expand_to_polynomial(spec).max_abs() == 0.0

    def test_agrees_with_evaluation(self):
        rng = np.random.default_rng(71)
        _, spec = random_patch(rng)
        poly = expand_to_polynomial(spec)
        for _ in range(200):
            p = Point2(*rng.uniform(-1, 1, 2))
            assert abs(float(poly(p.x, p.y)) - spec.value(p)) < 1e-10

    def test_raw_form_required(self):
        with pytest.raises(ValueError):
            expand_to_polynomial(circle_patch(NORMALIZED))

    def test_polynomial_is_immutable(self):
        source = np.eye(2)
        poly = BivariatePoly(source)
        source[0, 0] = 5.0  # a copy, not a view
        assert poly.coeffs.tolist() == [[1.0, 0.0], [0.0, 1.0]]
        for p in (poly, expand_to_polynomial(circle_patch(RAW)), poly * poly):
            with pytest.raises(ValueError):
                p.coeffs[0, 0] = 1.0
            with pytest.raises(AttributeError):
                p.coeffs = source


class TestReproduceConicWeights:
    def test_circle_weights(self):
        w = reproduce_conic_weights(CIRCLE, CIRCLE_LINES, CIRCLE_POINTS)
        assert w.as_tuple() == pytest.approx((2.0, 2.0, -2.0), abs=1e-12)

    def test_conic_scale_scales_weights(self):
        w = reproduce_conic_weights(CIRCLE, CIRCLE_LINES, CIRCLE_POINTS)
        ws = reproduce_conic_weights(CIRCLE.scaled(5.0), CIRCLE_LINES, CIRCLE_POINTS)
        assert ws.as_tuple() == pytest.approx(tuple(5.0 * v for v in w.as_tuple()))
        # normalized patch then reproduces the scaled conic; zero set unchanged
        spec = four_tangent_patch(CIRCLE_LINES, CIRCLE_POINTS, ws, NORMALIZED)
        p = Point2(0.3, -0.4)
        assert spec.value(p) == pytest.approx(5.0 * CIRCLE.value(p), rel=1e-9)

    def test_pair_swap_swaps_weights(self):
        w = reproduce_conic_weights(CIRCLE, CIRCLE_LINES, CIRCLE_POINTS)
        swapped = reproduce_conic_weights(
            CIRCLE,
            (L3, L4, L1, L2),
            (Point2(-1, 0), Point2(0, -1), Point2(1, 0), Point2(0, 1)))
        assert swapped.as_tuple() == pytest.approx((w.w2, w.w1, w.w0))

    def test_not_tangent(self):
        shifted = ConicCoeffs(-1, 0, -1, 0.5, 0, 1)
        with pytest.raises(NotTangent):
            reproduce_conic_weights(shifted, CIRCLE_LINES, CIRCLE_POINTS)

    @pytest.mark.parametrize("offset", [1e6, 1e7, 1e8, 1e9])
    def test_far_offset_circle(self, offset):
        # x^2 - 2*offset*x + offset^2 - 1 + y^2: a curve point found by
        # sampling the conic carries the cancellation of its far coefficients
        q = ConicCoeffs(-1, 0, -1, 2 * offset, 0, 1 - offset * offset)
        lines = [LineImplicit(m.a, m.b, m.c - m.a * offset) for m in CIRCLE_LINES]
        points = [Point2(p.x + offset, p.y) for p in CIRCLE_POINTS]
        w = reproduce_conic_weights(q.scaled(-1.0), lines, points)
        assert w.as_tuple() == pytest.approx((-2.0, -2.0, 2.0), rel=1e-12)

    @pytest.mark.parametrize("radius, reproduces", [(1e30, True), (1e60, False)])
    def test_overflowing_identity_check_fails_closed(self, radius, reproduces):
        # x^2 + y^2 = R^2 touching x = +-R and y = +-R; at R = 1e60 the
        # conic times the denominator overflows to inf, whose residual is NaN
        q = ConicCoeffs(1, 0, 1, 0, 0, -radius * radius)
        lines = [LineImplicit(m.a, m.b, radius) for m in CIRCLE_LINES]
        points = [Point2(radius * p.x, radius * p.y) for p in CIRCLE_POINTS]
        if reproduces:
            w = reproduce_conic_weights(q, lines, points)
            assert w.as_tuple() == pytest.approx((-2.0, -2.0, 2e-60), rel=1e-12)
        else:
            with pytest.raises(RecoveryFailed, match="overflows"):
                reproduce_conic_weights(q, lines, points)

    @pytest.mark.parametrize("scale, reproduces", [(1e307, True), (1.2e308, False),
                                                   (1.5e308, False), (1.7e308, False)])
    def test_conic_near_float_max_fails_closed(self, scale, reproduces):
        # near the float maximum the conic's gradient at a tangency point,
        # 2*a*x + ..., overflows in the tangency check
        q = CIRCLE.scaled(scale)
        if reproduces:
            w = reproduce_conic_weights(q, CIRCLE_LINES, CIRCLE_POINTS)
            assert w.as_tuple() == pytest.approx((2 * scale, 2 * scale, -2 * scale),
                                                 rel=1e-12)
        else:
            with pytest.raises(RecoveryFailed, match="overflows a float"):
                reproduce_conic_weights(q, CIRCLE_LINES, CIRCLE_POINTS)

    def test_reproduction_identity_random_conics(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            ell = random_ellipse(rng)
            ts = spaced_angles(rng, 4)
            points = [ell.point_at(t) for t in ts]
            lines = [ell.tangent_at(t) for t in ts]
            try:
                w = reproduce_conic_weights(ell.conic, lines, points)
            except DegenerateSecant:
                continue
            patch = four_tangent_patch(lines, points, w, RAW)
            got = expand_to_polynomial(patch)
            c1 = BivariatePoly.from_line(patch.c1)
            c2 = BivariatePoly.from_line(patch.c2)
            target = BivariatePoly.from_conic(ell.conic) * (c1.squared() + c2.squared())
            assert (got - target).max_abs() < 1e-7 * target.max_abs()


class TestFourTangentSpecInvariants:
    def test_point_off_line_rejected_at_construction(self):
        with pytest.raises(TangencyViolation):
            TangentPairSpec((L1, L2, L3, L4),
                            (Point2(0.9, 0.1), Point2(0, 1), Point2(-1, 0), Point2(0, -1)),
                            CIRCLE_WEIGHTS)


class TestTangentPairs:
    @settings(max_examples=150, deadline=None)
    @given(ellipse_tangents(max_pairs=4),
           st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5),
           st.sampled_from((RAW, NORMALIZED)))
    def test_touches_every_line_for_any_weights(self, tangents, drawn, form):
        _, lines, points = tangents
        k = len(lines) // 2
        spec = TangentPairSpec(lines, points, drawn[:k] + drawn[-1:], form)
        assert len(spec.secants) == k
        for n, (line, pt) in enumerate(zip(lines, points)):
            # the field's scale at the point: every weight, the tangent lines
            # and every secant but the point's own, all taken absolutely
            others = math.prod(c.value(pt) ** 2 for j, c in enumerate(spec.secants)
                               if j != n // 2)
            scale = (1.0 + sum(map(abs, drawn))) * (1.0 + max(
                abs(t.value(pt)) for t in lines)) ** 2
            scale *= math.prod(1.0 + c.value(pt) ** 2 for c in spec.secants)
            if form == NORMALIZED:
                scale /= others
            assert abs(spec.value(pt)) <= 1e-12 * scale
            g = spec.gradient(pt)
            assert abs(g.gx * line.b - g.gy * line.a) <= 1e-12 * scale * line.normal_norm()

    @settings(max_examples=60, deadline=None)
    @given(ellipse_tangents(max_pairs=3), st.lists(st.tuples(coords, coords), min_size=8,
                                                   max_size=8))
    def test_reproduced_weights_give_the_conic(self, tangents, queries):
        ell, lines, points = tangents
        q = ell.conic
        weights = tuple(reproduce_conic_weights(q, lines, points))
        assert len(weights) == len(lines) // 2 + 1
        spec = TangentPairSpec(lines, points, weights, NORMALIZED)
        for x, y in queries:
            p = Point2(x, y)
            try:
                value = spec.value(p)
            except ZeroDenominator:
                continue
            # the normalized field weighs the pair terms against their own
            # sum, so its error is that of the weights times the terms
            scale = sum(abs(w * a.value(p) * b.value(p)) for w, a, b
                        in zip(weights, lines[::2], lines[1::2]))
            scale += abs(weights[-1]) * max(c.value(p) ** 2 for c in spec.secants)
            assert abs(value - q.value(p)) <= 1e-8 * (1.0 + scale)

    def test_two_pairs_keep_the_weight_triple(self):
        spec = TangentPairSpec(CIRCLE_LINES, CIRCLE_POINTS, (2, 2, -2), NORMALIZED)
        assert spec.weights == CIRCLE_WEIGHTS
        assert (spec.c1, spec.c2) == spec.secants
        assert four_tangent_patch is TangentPairSpec
        assert isinstance(reproduce_conic_weights(CIRCLE, CIRCLE_LINES, CIRCLE_POINTS),
                          WeightTriple)

    def test_three_pairs_reproduce_the_circle(self):
        angles = [k * math.pi / 3.0 for k in range(6)]
        points = [Point2(math.cos(t), math.sin(t)) for t in angles]
        lines = [LineImplicit(-p.x, -p.y, 1.0) for p in points]
        weights = reproduce_conic_weights(CIRCLE, lines, points)
        assert weights == pytest.approx((4.0, 4.0, 4.0, -12.0), abs=1e-12)
        spec = TangentPairSpec(lines, points, weights, NORMALIZED)
        assert spec.value(Point2(0.3, 0.2)) == pytest.approx(0.87, abs=1e-12)
        assert expand_to_polynomial(TangentPairSpec(lines, points, weights)).coeffs.shape \
            == (7, 7)

    def test_secant_through_a_point_of_the_third_pair(self):
        # the first pair's secant x + y = 1 passes through (0.5, 0.5)
        lines = CIRCLE_LINES + (LineImplicit(1, 1, -1), LineImplicit(1, -1, 0))
        points = CIRCLE_POINTS + (Point2(0.5, 0.5), Point2(-2, -2))
        with pytest.raises(SecantThroughForeignPoint):
            TangentPairSpec(lines, points, (1, 1, 1, 1))

    @pytest.mark.parametrize("lines,points,weights", [
        (CIRCLE_LINES[:3], CIRCLE_POINTS[:3], (1, 1)),
        (CIRCLE_LINES, CIRCLE_POINTS[:2], (1, 1, 1)),
        ((), (), (1,)),
        (CIRCLE_LINES, CIRCLE_POINTS, (1, 1)),
        (CIRCLE_LINES, CIRCLE_POINTS, (1, 1, 1, 1)),
        (CIRCLE_LINES, CIRCLE_POINTS, (1, math.inf, 1)),
    ])
    def test_arity_and_weights_checked(self, lines, points, weights):
        with pytest.raises(ValueError):
            TangentPairSpec(lines, points, weights)
