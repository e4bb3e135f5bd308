import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from implicurve import (
    ConicCoeffs,
    ConstraintSystem,
    GradientVec,
    Point2,
    TangentConstraint,
    build_constraint_system,
    conic_gradient,
    equal_up_to_scale,
    fit_conic_two_tangents_one_point,
    line_through,
    liming_conic,
    null_space_1d,
    orient_toward,
    recover_lambda,
)
from implicurve.conicfit import interpolation_row, tangential_row
from implicurve.liming import LimingSpec
from implicurve.errors import CurveError, DegenerateInput, RankDeficient

from conftest import ellipse_tangents, random_ellipse, spaced_angles

T1 = TangentConstraint(Point2(1, 0), GradientVec(1, 0))
T2 = TangentConstraint(Point2(0, 1), GradientVec(0, 1))
P3 = Point2(-1, 0)
UNIT_CIRCLE = ConicCoeffs(1, 0, 1, 0, 0, -1)


def brute_force_null_vector(rows):
    """Gauss-Jordan elimination with exhaustive (full) pivoting.

    Pure-Python reference solver, independent of the SVD path: eliminates
    all five pivots, sets the single free unknown to 1 and reads the rest
    off the reduced rows.  Returns None if a pivot degenerates.
    """
    a = [list(map(float, row)) for row in rows]
    pivots = []
    free_cols = set(range(6))
    active_rows = set(range(5))
    for _ in range(5):
        best, br, bc = 0.0, None, None
        for r in active_rows:
            for c in free_cols:
                if abs(a[r][c]) > best:
                    best, br, bc = abs(a[r][c]), r, c
        if best < 1e-12:
            return None
        piv = a[br][bc]
        a[br] = [v / piv for v in a[br]]
        for r in range(5):
            if r != br and a[r][bc] != 0.0:
                factor = a[r][bc]
                a[r] = [v - factor * w for v, w in zip(a[r], a[br])]
        pivots.append((br, bc))
        active_rows.discard(br)
        free_cols.discard(bc)
    free = free_cols.pop()
    x = [0.0] * 6
    x[free] = 1.0
    for r, c in pivots:
        x[c] = -a[r][free]
    return x


def _unit_aligned(v, w):
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    v = v / np.linalg.norm(v)
    w = w / np.linalg.norm(w)
    if float(v @ w) < 0:
        w = -w
    return v, w


class TestBuildConstraintSystem:
    def test_circle_rows(self):
        system = build_constraint_system(T1, T2, P3)
        assert system.rows[0].tolist() == [1, 0, 0, 1, 0, 1]
        assert system.rows[3].tolist() == [0, 1, 0, 0, 1, 0]

    def test_system_is_immutable(self):
        rows = build_constraint_system(T1, T2, P3).rows.copy()
        system = ConstraintSystem(rows)
        with pytest.raises(ValueError):
            system.rows[0, 0] = 2.0
        with pytest.raises(AttributeError):
            system.rows = rows
        rows[0, 0] = 2.0
        assert system.rows[0, 0] == 2.0  # a view, not a copy

    def test_row_helpers(self):
        assert interpolation_row(Point2(-1, 0)) == (1, -0, 0, -1, 0, 1)
        # constraint at the origin with gradient (0, 1): row pins d = 0
        t = TangentConstraint(Point2(0, 0), GradientVec(0, 1))
        assert tangential_row(t) == (-0.0, 0, 0, -1, 0, 0)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateInput):
            build_constraint_system(T1, T2, T1.at)

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            TangentConstraint(Point2(0, 0), GradientVec(0, 0))


class TestNullSpace:
    def test_circle_system(self):
        conic = null_space_1d(build_constraint_system(T1, T2, P3))
        assert equal_up_to_scale(conic, UNIT_CIRCLE, rtol=1e-10)
        # output convention: unit norm, leading nonzero positive
        norm = math.sqrt(sum(v * v for v in conic.coeffs()))
        assert norm == pytest.approx(1.0)
        assert conic.a > 0

    def test_matches_brute_force_on_circle(self):
        system = build_constraint_system(T1, T2, P3)
        want = brute_force_null_vector(system.rows)
        got, want = _unit_aligned(null_space_1d(system).coeffs(), want)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rank_deficient_duplicate_row(self):
        row = interpolation_row(Point2(0.3, 0.7))
        rows = [interpolation_row(Point2(1, 0)),
                interpolation_row(Point2(0, 1)),
                row, row,
                tangential_row(T1)]
        with pytest.raises(RankDeficient):
            null_space_1d(ConstraintSystem(rows))

    def test_sign_is_canonical(self):
        system = build_constraint_system(T1, T2, P3)
        v = np.asarray(null_space_1d(system).coeffs())
        w = np.asarray(null_space_1d(ConstraintSystem(-system.rows)).coeffs())
        assert np.allclose(v, w)

    def test_rank_test_is_blind_to_row_scale(self):
        # tangential rows scale with the prescribed gradient; the unit
        # circle's system gives one unit-norm conic for gradients of any length
        conics = []
        for k in (1e-12, 1.0, 1e200):
            t1 = TangentConstraint(Point2(1, 0), GradientVec(k, 0))
            t2 = TangentConstraint(Point2(0, 1), GradientVec(0, k))
            conics.append(null_space_1d(build_constraint_system(t1, t2, Point2(-1, 0))))
        assert conics[0] == conics[1] == conics[2]
        assert equal_up_to_scale(conics[1], UNIT_CIRCLE, rtol=1e-12)

    def test_oracle_equivalence_random_systems(self):
        rng = np.random.default_rng(79)
        done = 0
        while done < 1000:
            rows = rng.normal(size=(5, 6))
            s = np.linalg.svd(rows, compute_uv=False)
            if s[4] / s[0] < 1e-6:
                continue
            want = brute_force_null_vector(rows)
            assert want is not None
            got = null_space_1d(ConstraintSystem(rows)).coeffs()
            got, want = _unit_aligned(got, want)
            assert np.max(np.abs(got - want)) < 1e-8
            done += 1


class TestFitConic:
    def test_circle(self):
        conic = fit_conic_two_tangents_one_point(T1, T2, P3)
        assert equal_up_to_scale(conic, UNIT_CIRCLE, rtol=1e-10)

    def test_parallel_tangents(self):
        t1 = TangentConstraint(Point2(1, 0), GradientVec(1, 0))
        t2 = TangentConstraint(Point2(-1, 0), GradientVec(-1, 0))
        conic = fit_conic_two_tangents_one_point(t1, t2, Point2(0, 1))
        for p in (t1.at, t2.at, Point2(0, 1)):
            assert abs(conic.value(p)) < 1e-10
        for t in (t1, t2):
            g = conic_gradient(conic, t.at)
            assert abs(g.gx * t.grad.gy - g.gy * t.grad.gx) < 1e-10

    def test_coincident_tangent_points(self):
        with pytest.raises(DegenerateInput):
            fit_conic_two_tangents_one_point(T1, T1, P3)

    def test_rank_deficient_collinear_geometry(self):
        # three collinear points with gradients normal to their line leave a
        # whole family of solutions
        t1 = TangentConstraint(Point2(0, 0), GradientVec(0, 1))
        t2 = TangentConstraint(Point2(1, 0), GradientVec(0, 1))
        with pytest.raises(RankDeficient):
            fit_conic_two_tangents_one_point(t1, t2, Point2(2, 0))

    def test_tangents_along_the_chord_collapse_the_pencil(self):
        # L1*L2 is then a multiple of C^2: the pencil is a single conic
        t1 = TangentConstraint(Point2(1, 0), GradientVec(1, 1))
        t2 = TangentConstraint(Point2(0, 1), GradientVec(-1, -1))
        with pytest.raises(RankDeficient, match="collapses"):
            fit_conic_two_tangents_one_point(t1, t2, P3)

    def test_p3_at_a_base_point_of_the_pencil(self):
        # L1 is the chord x + y = 1 and P3 lies on it: every member of the
        # pencil passes through P3
        t1 = TangentConstraint(Point2(1, 0), GradientVec(1, 1))
        t2 = TangentConstraint(Point2(0, 1), GradientVec(0, 1))
        with pytest.raises(RankDeficient, match="base point"):
            fit_conic_two_tangents_one_point(t1, t2, Point2(2, -1))

    def test_recovers_random_conics(self):
        # dimension argument, executably: constraints sampled from a conic
        # pin it down up to scale
        rng = np.random.default_rng(83)
        for _ in range(100):
            ell = random_ellipse(rng)
            q = ell.conic
            ta, tb, tc = spaced_angles(rng, 3, min_gap=0.5)
            p1, p2, p3 = ell.point_at(ta), ell.point_at(tb), ell.point_at(tc)
            g1 = conic_gradient(q, p1)
            g2 = conic_gradient(q, p2)
            conic = fit_conic_two_tangents_one_point(
                TangentConstraint(p1, g1), TangentConstraint(p2, g2), p3)
            assert equal_up_to_scale(conic, q, rtol=1e-7)

    def test_agrees_with_two_tangent_blend(self):
        # same curve via an independent construction path
        rng = np.random.default_rng(89)
        for _ in range(50):
            ell = random_ellipse(rng)
            q = ell.conic
            ta, tb, tc = spaced_angles(rng, 3, min_gap=0.5)
            p1, p2, p3 = ell.point_at(ta), ell.point_at(tb), ell.point_at(tc)
            mid = p1.midpoint(p2)
            l1 = orient_toward(ell.tangent_at(ta), mid)
            l2 = orient_toward(ell.tangent_at(tb), mid)
            c = line_through(p1, p2)
            rec = recover_lambda(q, l1, l2, c, p3)
            blended = liming_conic(LimingSpec(l1, l2, c, rec.lam))
            fitted = fit_conic_two_tangents_one_point(
                TangentConstraint(p1, conic_gradient(q, p1)),
                TangentConstraint(p2, conic_gradient(q, p2)), p3)
            assert equal_up_to_scale(blended, fitted, rtol=1e-7)

    def test_offset_data_is_conditioned(self):
        # data far from the origin: the pencil's lines are evaluated at P3
        # from coordinate differences
        dx, dy = 113.0, -77.0
        t1 = TangentConstraint(Point2(1 + dx, dy), GradientVec(1, 0))
        t2 = TangentConstraint(Point2(dx, 1 + dy), GradientVec(0, 1))
        conic = fit_conic_two_tangents_one_point(t1, t2, Point2(dx - 1, dy))
        for p in (t1.at, t2.at, Point2(dx - 1, dy)):
            assert abs(conic.value(p)) < 1e-7

    def test_coefficients_are_python_floats(self):
        # numpy scalars and ints in, floats out, so that later evaluations
        # of the fitted conic do float arithmetic
        f64 = np.float64
        t1 = TangentConstraint(Point2(f64(1.0), f64(0.0)), GradientVec(f64(1.0), f64(0.0)))
        t2 = TangentConstraint(Point2(f64(0.0), f64(1.0)), GradientVec(f64(0.0), f64(1.0)))
        for args in ((T1, T2, P3), (t1, t2, Point2(f64(-1.0), f64(0.0)))):
            conic = fit_conic_two_tangents_one_point(*args)
            assert all(type(v) is float for v in conic.coeffs())
            assert equal_up_to_scale(conic, UNIT_CIRCLE, rtol=1e-12)

    def test_gradient_scale_does_not_matter(self):
        for k in (1e-200, 1e-12, 1e12, 1e200):
            t1 = TangentConstraint(Point2(1, 0), GradientVec(k, 0))
            t2 = TangentConstraint(Point2(0, 1), GradientVec(0, -k))
            conic = fit_conic_two_tangents_one_point(t1, t2, P3)
            assert equal_up_to_scale(conic, UNIT_CIRCLE, rtol=1e-12)


# -- the pencil fit against the linear formulation ---------------------------

FAMILIES = ("plain", "chord-tangents", "p3-on-chord", "p3-on-tangent",
            "parallel-tangents", "coincident-points")


@st.composite
def fit_inputs(draw):
    """Constraints of a random ellipse, moved by an offset up to 1e6 and
    scaled by 1e-6 to 1e6, then bent into one of FAMILIES there."""
    _, lines, points = draw(ellipse_tangents(max_pairs=2).filter(lambda t: len(t[1]) == 4))
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    ox, oy = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    p1, p2, p3 = (Point2(scale * p.x + ox, scale * p.y + oy) for p in points[:3])
    g1, g2 = (GradientVec(line.a, line.b) for line in lines[:2])
    family = draw(st.sampled_from(FAMILIES))
    chord = GradientVec(p1.y - p2.y, p2.x - p1.x)
    if family == "chord-tangents":
        g1, g2 = chord, GradientVec(-chord.gx, -chord.gy)
    elif family == "p3-on-chord":
        u = draw(st.floats(0.2, 0.8))
        p3 = Point2(p1.x + u * (p2.x - p1.x), p1.y + u * (p2.y - p1.y))
    elif family == "p3-on-tangent":
        s = scale * draw(st.floats(0.3, 1.0)) / g1.norm()
        p3 = Point2(p1.x - s * g1.gy, p1.y + s * g1.gx)
    elif family == "parallel-tangents":
        g2 = GradientVec(-g1.gx, -g1.gy)
    elif family == "coincident-points":
        eps = 1e-12 * scale
        p3 = Point2(p1.x + eps, p1.y - eps)
    return family, TangentConstraint(p1, g1), TangentConstraint(p2, g2), p3


def _unit_box(t1, t2, p3):
    """Centroid and spread of the three points, the spread taken as 1.0
    when it is below 1e-9."""
    pts = (t1.at, t2.at, p3)
    mx = sum(p.x for p in pts) / 3.0
    my = sum(p.y for p in pts) / 3.0
    spread = max(max(abs(p.x - mx), abs(p.y - my)) for p in pts)
    return mx, my, spread if spread > 1e-9 else 1.0


def _linear_fit(t1, t2, p3):
    """null_space_1d of the constraint system on the points mapped to their
    unit box, as a conic of the unit-box coordinates."""
    mx, my, sigma = _unit_box(t1, t2, p3)

    def unit(p):
        return Point2((p.x - mx) / sigma, (p.y - my) / sigma)

    return null_space_1d(build_constraint_system(
        TangentConstraint(unit(t1.at), t1.grad), TangentConstraint(unit(t2.at), t2.grad),
        unit(p3)))


def _det(m):
    """Determinant of a square matrix of Fractions, by elimination."""
    m = [row[:] for row in m]
    det = Fraction(1)
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if r is None:
            return Fraction(0)
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            k = m[r][c] / m[c][c]
            m[r] = [u - k * v for u, v in zip(m[r], m[c])]
    return det


def _exact_fit(t1, t2, p3):
    """The null vector of the constraint system on the float inputs, in
    exact rationals: component j is (-1)^j times the minor without column j."""
    def interpolation(p):
        x, y = Fraction(p.x), Fraction(p.y)
        return [x * x, x * y, y * y, x, y, Fraction(1)]

    def tangential(t):
        x, y = Fraction(t.at.x), Fraction(t.at.y)
        m, n = Fraction(t.grad.gx), Fraction(t.grad.gy)
        return [-2 * n * x, m * x - n * y, 2 * m * y, -n, m, Fraction(0)]

    rows = [interpolation(t1.at), interpolation(t2.at), interpolation(p3),
            tangential(t1), tangential(t2)]
    return [(-1) ** j * _det([row[:j] + row[j + 1:] for row in rows]) for j in range(6)]


def _in_unit_box(q, mx, my, sigma):
    """The rational conic q(mx + s*u, my + s*v) / s^2 in (u, v)."""
    a, b, c, d, e, f = q
    mx, my, s = Fraction(mx), Fraction(my), Fraction(sigma)
    return [a, b, c, (2 * a * mx + b * my + d) / s, (2 * c * my + b * mx + e) / s,
            (a * mx * mx + b * mx * my + c * my * my + d * mx + e * my + f) / (s * s)]


def _rounded(v):
    """A rational conic scaled to unit max-abs and rounded once."""
    k = max(map(abs, v))
    return ConicCoeffs(*(float(x / k) for x in v))


def _outcome(fit, *args):
    try:
        return fit(*args)
    except CurveError as exc:
        return exc.code


@settings(max_examples=300, deadline=None)
@given(fit_inputs())
# an offset of 11,475 against a spread near 1: with the unit-box fit mapped
# back to the original coordinates, the two fits differ up to scale by 1.0008e-9
@example(("p3-on-tangent",
          TangentConstraint(Point2(1.0, 11475.0), GradientVec(1.0, -1.133107779529596e-15)),
          TangentConstraint(Point2(-0.9980108223549503, 11475.063042830381),
                            GradientVec(0.9980108223549503, -0.06304283038058951)),
          Point2(1.0000000000000004, 11475.30078125)))
def test_pencil_fit_matches_linear_formulation(inputs):
    family, t1, t2, p3 = inputs
    got = _outcome(fit_conic_two_tangents_one_point, t1, t2, p3)
    want = _outcome(_linear_fit, t1, t2, p3)
    if family == "chord-tangents":
        assert got == want == "RankDeficient"
    elif family == "coincident-points":
        assert got == want == "DegenerateInput"
    else:
        assert isinstance(got, ConicCoeffs) and isinstance(want, ConicCoeffs)
        # each fit against the exact conic in the frame it was computed in:
        # mapping a float conic from one frame to the other magnifies its
        # rounding with the offset over the spread
        exact = _exact_fit(t1, t2, p3)
        assert equal_up_to_scale(got, _rounded(exact), rtol=1e-9)
        assert equal_up_to_scale(
            want, _rounded(_in_unit_box(exact, *_unit_box(t1, t2, p3))), rtol=1e-9)
