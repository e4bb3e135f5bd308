import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from implicurve import (
    ConicCoeffs,
    LambdaOmega,
    LimingSpec,
    LineImplicit,
    Point2,
    conic_gradient,
    equal_up_to_scale,
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
from conftest import (Ellipse, crossing, ellipse_tangents, line_product, random_ellipse,
                      spaced_angles)

L1 = LineImplicit(-1, 0, 1)   # 1 - x
L2 = LineImplicit(0, -1, 1)   # 1 - y
C = LineImplicit(-1, -1, 1)   # 1 - x - y
CIRCLE = ConicCoeffs(-1, 0, -1, 0, 0, 1)  # 1 - x^2 - y^2


UNIT_CIRCLE = Ellipse(0.0, 0.0, 1.0, 1.0, 0.0)
UNIT = UNIT_CIRCLE.conic
POSITIONS = [2.0 * math.pi * k / 200 for k in range(200)]


def _pair(t0, gap):
    """Unit-circle tangents at t0 and t0 + gap, and their secant."""
    p1, p2 = UNIT_CIRCLE.point_at(t0), UNIT_CIRCLE.point_at(t0 + gap)
    return UNIT_CIRCLE.tangent_at(t0), UNIT_CIRCLE.tangent_at(t0 + gap), secant_line(p1, p2)


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
            assert abs(q.value(p) - direct) < 1e-12

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

    @pytest.mark.parametrize("gap", [0.005, 0.01, 0.02, 0.03])
    def test_close_tangency_points_recover(self, gap):
        # t is near 1 and the blend a cancellation of terms up to 3e5 times
        # its size, so one rounding of t moves it by over 1e-9 of itself; t
        # must pass and agree with the exact sample formula opposite the pair
        for t0 in POSITIONS:
            l1, l2, c = _pair(t0, gap)
            rec = recover_lambda(UNIT, l1, l2, c)
            exact = recover_lambda(UNIT, l1, l2, c, UNIT_CIRCLE.point_at(t0 + math.pi))
            assert rec.lam == pytest.approx(exact.lam, rel=1e-12)
            assert rec.omega == pytest.approx(exact.omega, rel=1e-5)

    @pytest.mark.parametrize("gap", [0.02, 0.03])
    def test_close_tangency_points_reproduce(self, gap):
        for t0 in POSITIONS:
            ts = [t0, t0 + gap, t0 + 2.0, t0 + 3.5]
            reproduce_conic_weights(UNIT, [UNIT_CIRCLE.tangent_at(t) for t in ts],
                                    [UNIT_CIRCLE.point_at(t) for t in ts])

    @pytest.mark.parametrize("gap", [0.005, 0.01, 0.02, 0.5])
    @pytest.mark.parametrize("shift", [1e-6, 1e-8])
    def test_shifted_secant_of_close_points_is_not_reproducible(self, gap, shift):
        for t0 in POSITIONS:
            l1, l2, c = _pair(t0, gap)
            with pytest.raises(NotReproducible):
                recover_lambda(UNIT, l1, l2, LineImplicit(c.a, c.b, c.c + shift))

    @pytest.mark.parametrize("gap", [1e-5, 5e-5])
    def test_unrelated_conic_of_too_close_points_is_not_reproducible(self, gap):
        # with unit-normal lines the blend cancels to about gap**2 / 8 of its
        # terms, below what a 1e-9 bound on the terms can tell apart
        far = Ellipse(5.0, 5.0, 1.0, 1.0, 0.0)
        for t0 in POSITIONS:
            l1, l2, c = _pair(t0, gap)
            c = LineImplicit(*(v / math.hypot(c.a, c.b) for v in (c.a, c.b, c.c)))
            for sample in (None, far.point_at(0.3)):
                with pytest.raises(NotReproducible):
                    recover_lambda(far.conic, l1, l2, c, sample)

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

    def test_overflowing_blend_is_not_reproducible(self):
        # lines 1e155 from the origin: the blend's constant term is NaN in
        # floats, and max() skips a NaN that is not first; a residual over
        # the other five coefficients would accept a conic of none of them
        l1, l2 = LineImplicit(1, 0, -1e155), LineImplicit(0, 1, -1e155)
        c = LineImplicit(1, 1, -3e155)
        with pytest.raises(NotReproducible, match="overflows"):
            recover_lambda(ConicCoeffs(1, 1, 1, 1, 1, 1), l1, l2, c)

    def test_search_moves_past_sample_failing_identity_check(self):
        # the second pair's chord lies 0.1 degrees off the ray at pi/64, where
        # a sample search with fixed ray angles started: its first sample sat
        # next to a tangency point and its recovered parameter missed the
        # 1e-9 identity check by rounding.  The configuration stays as a
        # regression case for the projection onto the pencil
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
        rec = recover_lambda(q, lines[2], lines[3], c)
        blend = liming_conic(LimingSpec(lines[2], lines[3], c, rec.lam))
        assert equal_up_to_scale(blend, q.scaled(rec.omega), rtol=1e-9)
        reproduce_conic_weights(q, lines, points)

    @pytest.mark.parametrize("l1, l2, p1, p2, lam", [
        (LineImplicit(0.998876479034374, -0.04738965743589707, -0.3345621176895436),
         LineImplicit(0.8484936562487299, 0.529205551091126, 0.732370405417863),
         Point2(0.294129409405139, -0.8601701520551792),
         Point2(-1.7461576914190826, 1.4157699536907207), 0.7945834148323518),
        (LineImplicit(0.6759509746654467, 0.7369465922635321, -0.6616762320875997),
         LineImplicit(-0.005614451407830426, 0.9999842388434875, 0.8697824033646996),
         Point2(1.775215217970041, -0.7304222997854546),
         Point2(-0.42985986008711974, -0.8722095776930012), 0.9705676327748701),
        (LineImplicit(0.9791155318835222, 0.20330463650504263, -0.5640246459861209),
         LineImplicit(0.7952557301549313, 0.6062741324316476, 0.2660487598564375),
         Point2(0.21085962319015028, 1.758782878838422),
         Point2(0.6525277108113441, -1.2947528501927934), 0.986798927581894),
    ])
    def test_search_finds_thin_hyperbola(self, l1, l2, p1, p2, lam):
        # tangents oriented away from each other make the blend a thin
        # hyperbola through both tangency points, within a degree or less of
        # the chord as seen from its midpoint
        c = secant_line(p1, p2)
        rec = recover_lambda(LimingSpec(l1, l2, c, lam).conic, l1, l2, c)
        assert rec.lam == pytest.approx(lam, rel=1e-12)
        assert rec.omega == pytest.approx(1.0, rel=1e-12)

    def test_search_from_tangency_points_finds_near_parabolic_hyperbola(self):
        # a thin hyperbola (normalised discriminant 4.5e-5) of randomly
        # oriented lines
        l1 = LineImplicit(-0.12614997348206883, -0.9920111814846007, 0.6971743865484008)
        l2 = LineImplicit(-0.12345232905754681, -0.9923505038293008, 0.7217597754786147)
        c = secant_line(Point2(-1.698573983839708, 0.9187894920731403),
                        Point2(1.8232088540628824, 0.5005090380562223))
        lam = 0.3248040588283681
        q = LimingSpec(l1, l2, c, lam).conic
        rec = recover_lambda(q, l1, l2, c)
        assert rec.lam == pytest.approx(lam, rel=1e-12)
        assert _identity_residual(q, l1, l2, c, rec.lam) <= 1e-12

    def test_search_recovers_tangents_along_the_chord(self):
        # both tangents lie within 0.0033 degrees of the chord, so L1*L2 is
        # close to a multiple of C^2 and |L1*L2| stays below 5.9e-7 on the
        # conic near the chord
        def through(p, theta):
            a, b = math.cos(theta), math.sin(theta)
            return LineImplicit(a, b, -(a * p.x + b * p.y))

        p1 = Point2(-1.3293251862477988, 1.1776092756749716)
        p2 = Point2(-0.2217688073410713, -1.4642086994999555)
        l1, l2 = through(p1, 3.5390792975625467), through(p2, 0.39754420103993443)
        c = secant_line(p1, p2)
        q = LimingSpec(l1, l2, c, 0.9599922005011168).conic
        rec = recover_lambda(q, l1, l2, c)
        assert _identity_residual(q, l1, l2, c, rec.lam) <= 1e-12

    def test_mismatched_tangents_fail_only_with_not_reproducible(self):
        # lines 0 and 2 against the secant of points 0 and 1 are no
        # tangent/secant configuration; 700 configurations take in number
        # 679, where sampling the conic raised SampleNotOnConic
        rng = np.random.default_rng(5)
        for _ in range(700):
            ell = random_ellipse(rng)
            ts = spaced_angles(rng, 4)
            lines = [ell.tangent_at(t) for t in ts]
            points = [ell.point_at(t) for t in ts]
            with pytest.raises(NotReproducible):
                recover_lambda(ell.conic, lines[0], lines[2],
                               secant_line(points[0], points[1]))

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.floats(0.0, 2.0 * math.pi),
           st.floats(0.0, 2.0 * math.pi), st.floats(0.01, 0.99))
    def test_searched_lambda_of_random_blends_meets_identity(self, xy, th1, th2, lam):
        # tangents at random angles through random points: thin and
        # near-parabolic hyperbolas among the blends
        p1, p2 = Point2(*xy[:2]), Point2(*xy[2:])
        assume(p1.distance_to(p2) >= 0.1)
        l1 = LineImplicit(math.cos(th1), math.sin(th1),
                          -(math.cos(th1) * p1.x + math.sin(th1) * p1.y))
        l2 = LineImplicit(math.cos(th2), math.sin(th2),
                          -(math.cos(th2) * p2.x + math.sin(th2) * p2.y))
        c = secant_line(p1, p2)
        # both tangents along the chord leave the pencil a single conic, C^2;
        # one of them at least 1e-12 rad off it
        assume(max(abs(l1.a * c.b - l1.b * c.a), abs(l2.a * c.b - l2.b * c.a))
               > 1e-12 * c.normal_norm())
        q = LimingSpec(l1, l2, c, lam).conic
        rec = recover_lambda(q, l1, l2, c)
        assert _identity_residual(q, l1, l2, c, rec.lam) <= 1e-12

    def test_search_rays_with_degenerate_quadratics(self):
        # y^2 = x touched at (1, 1) and (1, -1), where the blend has t = 1/5:
        # a parabola, with no x^2 or xy term
        q = ConicCoeffs(0, 0, 1, -1, 0, 0)
        rec = recover_lambda(q, LineImplicit(-1, 2, -1), LineImplicit(-1, -2, -1),
                             secant_line(Point2(1, 1), Point2(1, -1)))
        assert (rec.lam, rec.omega) == pytest.approx((0.2, -3.2), rel=1e-12)
        # the unit circle with parallel tangents, whose product L1*L2 has a
        # single quadratic term
        rec = recover_lambda(CIRCLE, LineImplicit(0, -1, 1), LineImplicit(0, 1, 1),
                             secant_line(Point2(0, 1), Point2(0, -1)))
        assert (rec.lam, rec.omega) == pytest.approx((0.2, 0.8), rel=1e-12)


def _exact_line_product(u: LineImplicit, v: LineImplicit) -> list[Fraction]:
    ua, ub, uc = map(Fraction, (u.a, u.b, u.c))
    va, vb, vc = map(Fraction, (v.a, v.b, v.c))
    return [ua * va, ua * vb + va * ub, ub * vb, ua * vc + va * uc,
            ub * vc + vb * uc, uc * vc]


def _identity_residual(q: ConicCoeffs, l1: LineImplicit, l2: LineImplicit,
                       c: LineImplicit, lam: float) -> float:
    """max|blend - s*Q| / max|blend| in exact rationals, s by least squares."""
    t = Fraction(lam)
    blend = [(1 - t) * u - t * v
             for u, v in zip(_exact_line_product(l1, l2), _exact_line_product(c, c))]
    qs = [Fraction(v) for v in q.coeffs()]
    s = sum(b * v for b, v in zip(blend, qs)) / sum(v * v for v in qs)
    return float(max(abs(b - s * v) for b, v in zip(blend, qs)) / max(map(abs, blend)))


class TestRecoveryAccuracy:
    def test_searched_lambda_meets_identity_exactly(self):
        # a sample next to a tangency point leaves the recovered t
        # ill-conditioned: it still passes the 1e-9 float check but misses
        # the exact identity by far more than rounding of the inputs; the
        # projection onto the pencil must not
        rng = np.random.default_rng(11)
        residuals = []
        for _ in range(100):
            ell = random_ellipse(rng)
            q = ell.conic
            ts = spaced_angles(rng, 4)
            lines = [ell.tangent_at(t) for t in ts]
            points = [ell.point_at(t) for t in ts]
            for i in (0, 2):
                c = secant_line(points[i], points[i + 1])
                for l1 in (lines[i], lines[i].flipped()):
                    rec = recover_lambda(q, l1, lines[i + 1], c)
                    residuals.append(_identity_residual(q, l1, lines[i + 1], c, rec.lam))
        bad = [r for r in residuals if r > 1e-12]
        assert not bad, f"{len(bad)} of {len(residuals)} above 1e-12, worst {max(bad):.3g}"


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
                touch = crossing(line, c)
                assert abs(q.value(touch)) < 1e-10
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
