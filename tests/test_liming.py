import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from implicurve import (
    ConicCoeffs,
    LambdaOmega,
    LimingSpec,
    LineImplicit,
    Point2,
    conic_eval,
    conic_gradient,
    equal_up_to_scale,
    intersect_lines,
    line_product,
    line_through,
    liming_conic,
    orient_toward,
    recover_lambda,
    reproduce_conic_weights,
    secant_line,
)
from implicurve.errors import (
    NotReproducible,
    SampleNotOnConic,
    SampleOnTangent,
)

from conftest import ellipse_tangents, random_ellipse, spaced_angles

L1 = LineImplicit(-1, 0, 1)   # 1 - x
L2 = LineImplicit(0, -1, 1)   # 1 - y
C = LineImplicit(-1, -1, 1)   # 1 - x - y
CIRCLE = ConicCoeffs(-1, 0, -1, 0, 0, 1)  # 1 - x^2 - y^2


def _sympy_blend(l1, l2, c, lam):
    """Independent symbolic expansion of the two-tangent blend."""
    x, y = sp.symbols("x y")
    expr = sp.expand(
        (1 - lam) * (l1.a * x + l1.b * y + l1.c) * (l2.a * x + l2.b * y + l2.c)
        - lam * (c.a * x + c.b * y + c.c) ** 2)
    poly = sp.Poly(expr, x, y)
    return [float(poly.coeff_monomial(m))
            for m in (x**2, x * y, y**2, x, y, 1)]


class TestLimingConic:
    def test_circle_example(self):
        spec = LimingSpec(L1, L2, C, 1.0 / 3.0)
        q = liming_conic(spec)
        # symbolic oracle: (2/3)(1-x)(1-y) - (1/3)(1-x-y)^2 == (1-x^2-y^2)/3
        expected = _sympy_blend(L1, L2, C, 1.0 / 3.0)
        assert list(q.coeffs()) == pytest.approx(expected, abs=1e-15)
        assert equal_up_to_scale(q, CIRCLE, rtol=1e-12)
        # residual oracle at random points
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = Point2(*rng.uniform(-2, 2, 2))
            direct = (2.0 / 3.0) * (1 - p.x) * (1 - p.y) - (1.0 / 3.0) * (1 - p.x - p.y) ** 2
            assert abs(conic_eval(q, p) - direct) < 1e-12

    def test_small_lambda_approaches_line_pair(self):
        lam = 1e-12
        q = liming_conic(LimingSpec(L1, L2, C, lam))
        pair = line_product(L1, L2)
        for got, want in zip(q.coeffs(), pair.coeffs()):
            assert got == pytest.approx(want, abs=1e-11)

    def test_coincident_tangents_degrade_gracefully(self):
        # (1/2)(1-x)^2 - (1/2)y^2, a line pair; no error raised
        q = liming_conic(LimingSpec(L1, L1, LineImplicit(0, 1, 0), 0.5))
        assert list(q.coeffs()) == pytest.approx([0.5, 0, -0.5, -1, 0, 0.5])

    def test_vanishing_blend_rejected_at_construction(self):
        # (1/2)*L*L - (1/2)*L^2 is the zero polynomial, not a curve
        with pytest.raises(ValueError, match=r"blend \(1 - t\)\*L1\*L2 - t\*C\^2 vanishes"):
            LimingSpec(L1, L1, L1, 0.5)

    def test_lambda_range_enforced(self):
        for bad in (0.0, 1.0, -0.2, 1.2, math.nan):
            with pytest.raises(ValueError):
                LimingSpec(L1, L2, C, bad)

    def test_spec_is_a_field(self):
        spec = LimingSpec(L1, L2, C, 1.0 / 3.0)
        assert spec.value(Point2(1, 0)) == pytest.approx(0.0, abs=1e-15)
        g = spec.gradient(Point2(0, 0))
        q = liming_conic(spec)
        assert (g.gx, g.gy) == (conic_gradient(q, Point2(0, 0)).gx,
                                conic_gradient(q, Point2(0, 0)).gy)


class TestRecoverLambda:
    def test_circle_example(self):
        # at (-1, 0): L1*L2 = 2, C^2 = 4, so lam = 2/6 by direct arithmetic
        v1 = L1.value(Point2(-1, 0))
        v2 = L2.value(Point2(-1, 0))
        cc = C.value(Point2(-1, 0)) ** 2
        assert (v1 * v2, cc) == (2.0, 4.0)
        rec = recover_lambda(CIRCLE, L1, L2, C, Point2(-1, 0))
        assert rec.lam == pytest.approx(v1 * v2 / (v1 * v2 + cc))
        assert rec.lam == pytest.approx(1.0 / 3.0)
        assert rec.omega == pytest.approx(1.0 / 3.0)

    def test_conic_scale_moves_omega_only(self):
        rec = recover_lambda(CIRCLE.scaled(5.0), L1, L2, C, Point2(-1, 0))
        assert rec.lam == pytest.approx(1.0 / 3.0)
        assert rec.omega == pytest.approx(1.0 / 15.0)

    def test_wrong_secant_is_not_reproducible(self):
        with pytest.raises(NotReproducible):
            recover_lambda(CIRCLE, L1, L2, LineImplicit(1, -1, 0), Point2(-1, 0))

    def test_sample_off_conic(self):
        with pytest.raises(SampleNotOnConic):
            recover_lambda(CIRCLE, L1, L2, C, Point2(0, 0))

    def test_sample_on_tangent(self):
        # (1, 0) is on the circle but also on L1
        with pytest.raises(SampleOnTangent):
            recover_lambda(CIRCLE, L1, L2, C, Point2(1, 0))

    def test_omega_invariant(self):
        with pytest.raises(ValueError):
            LambdaOmega(0.5, 0.0)

    def test_round_trip_with_sample_search(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 60:
            phi = rng.uniform(0, 2 * math.pi, 3)
            # pairwise non-parallel unit-normal lines
            if min(abs(math.sin(phi[0] - phi[1])), abs(math.sin(phi[0] - phi[2])),
                   abs(math.sin(phi[1] - phi[2]))) < 0.2:
                continue
            l1 = LineImplicit(math.cos(phi[0]), math.sin(phi[0]), rng.uniform(-1, 1))
            l2 = LineImplicit(math.cos(phi[1]), math.sin(phi[1]), rng.uniform(-1, 1))
            c = LineImplicit(math.cos(phi[2]), math.sin(phi[2]), rng.uniform(-1, 1))
            lam = rng.uniform(0.05, 0.95)
            q = liming_conic(LimingSpec(l1, l2, c, lam))
            rec = recover_lambda(q, l1, l2, c)
            assert abs(rec.lam - lam) < 1e-9
            assert abs(rec.omega - 1.0) < 1e-9
            done += 1

    def test_overflowing_secant_is_not_reproducible(self):
        # |C(s)| ~ 1e200: squaring it overflows a float, with a given sample
        # and with a searched one
        big = LineImplicit(-1e200, 0, 1e200)
        with pytest.raises(NotReproducible):
            recover_lambda(CIRCLE, big, big, big)
        with pytest.raises(NotReproducible):
            recover_lambda(CIRCLE, big, big, big, Point2(0.6, 0.8))

    def test_search_moves_past_sample_failing_identity_check(self):
        # the second pair's chord lies 0.1 degrees off the first search ray,
        # so the first sample found sits next to a tangency point and its
        # recovered parameter misses the 1e-9 identity check by rounding
        q = ConicCoeffs(0.570035308277901, 0.03579487954652827, 0.6271594057237229,
                        -0.4297388537479756, -0.5260614044919031, -0.8141841863773052)
        lines = [LineImplicit(0.24437462960162304, 0.9696808961751642, 0.7720808393619445),
                 LineImplicit(-0.7568867868827407, 0.6535460135616471, 1.3262708396197684),
                 LineImplicit(-0.30495901454565266, -0.9523654757745812, 1.758214019097567),
                 LineImplicit(0.39758452920206516, -0.9175655519575548, 1.5180736984042882)]
        points = [Point2(0.061556511650492585, -0.8117347595490989),
                  Point2(1.3972792076516443, -0.41112433430352313),
                  Point2(0.7519183727980963, 1.6053813079131103),
                  Point2(-0.21380579389943682, 1.5618151961336908)]
        c = secant_line(points[2], points[3])
        rec = recover_lambda(q, lines[2], lines[3], c,
                             search_center=points[2].midpoint(points[3]))
        blend = liming_conic(LimingSpec(lines[2], lines[3], c, rec.lam))
        assert equal_up_to_scale(blend, q.scaled(rec.omega), rtol=1e-9)
        reproduce_conic_weights(q, lines, points)


class TestRecoveryUniqueness:
    def test_recovered_blend_reproduces_random_conics(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            ell = random_ellipse(rng)
            q = ell.conic
            t1, t2 = spaced_angles(rng, 2, min_gap=0.6)
            p1, p2 = ell.point_at(t1), ell.point_at(t2)
            l1, l2 = ell.tangent_at(t1), ell.tangent_at(t2)
            c = line_through(p1, p2)
            rec = recover_lambda(q, l1, l2, c)
            blend = ConicCoeffs(*(
                (1 - rec.lam) * u - rec.lam * v
                for u, v in zip(line_product(l1, l2).coeffs(),
                                line_product(c, c).coeffs())))
            assert equal_up_to_scale(blend, q.scaled(rec.omega), rtol=1e-8)

    def test_lambda_in_unit_interval_for_oriented_inputs(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            ell = random_ellipse(rng)
            t1, t2 = spaced_angles(rng, 2, min_gap=0.6)
            p1, p2 = ell.point_at(t1), ell.point_at(t2)
            mid = p1.midpoint(p2)  # interior reference between the tangents
            l1 = orient_toward(ell.tangent_at(t1), mid)
            l2 = orient_toward(ell.tangent_at(t2), mid)
            c = line_through(p1, p2)
            rec = recover_lambda(ell.conic, l1, l2, c)
            assert 0.0 < rec.lam < 1.0


class TestTangency:
    def test_curve_touches_tangents_at_secant_intersections(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            phi = rng.uniform(0, 2 * math.pi, 3)
            if min(abs(math.sin(phi[0] - phi[1])), abs(math.sin(phi[0] - phi[2])),
                   abs(math.sin(phi[1] - phi[2]))) < 0.2:
                continue
            l1 = LineImplicit(math.cos(phi[0]), math.sin(phi[0]), rng.uniform(-1, 1))
            l2 = LineImplicit(math.cos(phi[1]), math.sin(phi[1]), rng.uniform(-1, 1))
            c = LineImplicit(math.cos(phi[2]), math.sin(phi[2]), rng.uniform(-1, 1))
            q = liming_conic(LimingSpec(l1, l2, c, rng.uniform(0.1, 0.9)))
            for line in (l1, l2):
                touch = intersect_lines(line, c)
                assert abs(conic_eval(q, touch)) < 1e-10
                g = conic_gradient(q, touch)
                assert abs(g.gx * line.b - g.gy * line.a) < 1e-9

    @settings(max_examples=200, deadline=None)
    @given(ellipse_tangents(max_pairs=1),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_generated_blend_touches_both_tangents(self, tangents, lam):
        _, lines, points = tangents
        l1, l2 = lines
        c = secant_line(*points)
        spec = LimingSpec(l1, l2, c, lam)
        for line, pt in zip(lines, points):
            # the blend's scale at the point: both products of lines, taken
            # with absolute coefficients and coordinates
            r = 1.0 + abs(pt.x) + abs(pt.y)
            size = [abs(m.a) + abs(m.b) + abs(m.c) for m in (l1, l2, c)]
            scale = (size[0] * size[1] + size[2] ** 2) * r * r
            assert abs(spec.value(pt)) <= 1e-12 * scale
            g = spec.gradient(pt)
            assert abs(g.gx * line.b - g.gy * line.a) <= 1e-12 * scale * line.normal_norm()
