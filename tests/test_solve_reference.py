"""The scalar solve path against the loop versions it replaced.

The patch field and its gradient and the polynomial product each had a
plainer implementation; those are kept here as references, written out in
this file so that they do not move with the code under test.  The field and
the gradient must match them bit for bit.  The polynomial product sums in
another order, so it is held to a bound fixed from the dtype, 8 eps relative
to the product of the absolute coefficient matrices.  A digest of solve
outputs pins the whole path on generated configurations.
"""

import dataclasses
import hashlib
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from implicurve import (
    GradientVec,
    IPatchSpec,
    LimingSpec,
    LineImplicit,
    Point2,
    TangentConstraint,
    WeightTriple,
    expand_to_polynomial,
    fit_conic_two_tangents_one_point,
    four_tangent_patch,
    intersect_lines,
    ipatch_eval,
    ipatch_gradient,
    recover_lambda,
    reproduce_conic_weights,
    secant_line,
)
from implicurve.errors import CurveError, ZeroDenominator
from implicurve.ipatch import EPS_DEN, FAITHFUL, FORMS, NORMALIZED, RAW, ipatch_values
from implicurve.poly import BivariatePoly

from conftest import coords, ipatches, random_ellipse, spaced_angles

EPS = np.finfo(float).eps


# -- references --------------------------------------------------------------

def _prod_except(values, skip):
    out = 1.0
    for j, v in enumerate(values):
        if j != skip:
            out *= v
    return out


def _prod_except2(values, skip1, skip2):
    out = 1.0
    for j, v in enumerate(values):
        if j != skip1 and j != skip2:
            out *= v
    return out


def reference_field(spec: IPatchSpec, x, y):
    """Numerator, denominator and parts of the blend, side by side in lists.

    ``x`` and ``y`` are floats or arrays.  The denominator is None for the
    raw form.
    """
    bvals = [b.a * x + b.b * y + b.c for b in spec.boundings]
    bsq = [v * v for v in bvals]
    pe = [_prod_except(bsq, i) for i in range(len(bsq))]
    rib = []
    for r in spec.ribbons:
        v = r[0].a * x + r[0].b * y + r[0].c
        if len(r) == 2:
            v = v * (r[1].a * x + r[1].b * y + r[1].c)
        rib.append(v)
    w0_term = spec.w0 * math.prod(bsq)
    num = w0_term
    for w, r, e in zip(spec.weights, rib, pe):
        num = num + w * r * e
    if spec.form == RAW:
        den = None
    elif spec.form == NORMALIZED:
        den = sum(pe)
    else:
        assert spec.form == FAITHFUL
        den = sum(w * v for w, v in zip(spec.weights, pe))
    return num, den, (bvals, bsq, pe, rib, w0_term)


def _reference_check(den: float, p: Point2) -> None:
    if abs(den) <= EPS_DEN:
        raise ZeroDenominator(f"denominator zero at ({p.x}, {p.y})")


def reference_value(spec: IPatchSpec, p: Point2) -> float:
    num, den, _ = reference_field(spec, p.x, p.y)
    if den is None:
        return num
    _reference_check(den, p)
    return num / den


def reference_values(spec: IPatchSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    num, den, _ = reference_field(spec, x, y)
    if den is None:
        return num
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(den) > EPS_DEN, num / den, np.nan)


def reference_gradient(spec: IPatchSpec, p: Point2) -> GradientVec:
    """Patch gradient through per-side tuple lists and generator sums."""
    x, y = p.x, p.y
    _, den, (bvals, bsq, pe, rib, w0_term) = reference_field(spec, x, y)
    n = spec.sides

    pe_grad = []
    for i in range(n):
        gx = gy = 0.0
        for k in range(n):
            if k == i:
                continue
            factor = 2.0 * bvals[k] * _prod_except2(bsq, i, k)
            gx += factor * spec.boundings[k].a
            gy += factor * spec.boundings[k].b
        pe_grad.append((gx, gy))

    rib_grad = []
    for r in spec.ribbons:
        if len(r) == 1:
            rib_grad.append((r[0].a, r[0].b))
        else:
            u, v = r
            uv, vv = u.values(x, y), v.values(x, y)
            rib_grad.append((u.a * vv + v.a * uv, u.b * vv + v.b * uv))

    raw = sum(w * r * e for w, r, e in zip(spec.weights, rib, pe))
    raw += w0_term
    raw_gx = raw_gy = 0.0
    for i in range(n):
        w = spec.weights[i]
        raw_gx += w * (rib_grad[i][0] * pe[i] + rib[i] * pe_grad[i][0])
        raw_gy += w * (rib_grad[i][1] * pe[i] + rib[i] * pe_grad[i][1])
    for k in range(n):
        factor = spec.w0 * 2.0 * bvals[k] * _prod_except(bsq, k)
        raw_gx += factor * spec.boundings[k].a
        raw_gy += factor * spec.boundings[k].b
    if den is None:
        return GradientVec(raw_gx, raw_gy)

    _reference_check(den, p)
    if spec.form == NORMALIZED:
        den_gx = sum(g[0] for g in pe_grad)
        den_gy = sum(g[1] for g in pe_grad)
    else:
        den_gx = sum(w * g[0] for w, g in zip(spec.weights, pe_grad))
        den_gy = sum(w * g[1] for w, g in zip(spec.weights, pe_grad))
    inv = 1.0 / (den * den)
    return GradientVec(
        (raw_gx * den - raw * den_gx) * inv,
        (raw_gy * den - raw * den_gy) * inv,
    )


def reference_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Polynomial product, one shifted slice-add per nonzero coefficient of a."""
    n1, m1 = a.shape
    n2, m2 = b.shape
    out = np.zeros((n1 + n2 - 1, m1 + m2 - 1))
    for i in range(n1):
        for j in range(m1):
            if a[i, j] != 0.0:
                out[i:i + n2, j:j + m2] += a[i, j] * b
    return out


# -- properties --------------------------------------------------------------

def outcome(gradient, spec, p):
    """Packed gradient bytes, or the name of the error raised."""
    try:
        g = gradient(spec, p)
    except (CurveError, ValueError) as exc:
        return type(exc).__name__
    return struct.pack("<2d", g.gx, g.gy)


def value_outcome(value, spec, p):
    """Packed value bytes, or the name of the error raised."""
    try:
        v = value(spec, p)
    except (CurveError, ValueError) as exc:
        return type(exc).__name__
    return struct.pack("<d", v)


@st.composite
def patch_points(draw, sides=st.integers(1, 3)):
    spec = draw(ipatches(sides))
    if spec.sides > 1 and draw(st.booleans()):
        # where two bounding lines cross, every prod_{j != i} B_j^2 vanishes
        try:
            p = intersect_lines(spec.boundings[0], spec.boundings[1])
        except CurveError:
            p = Point2(draw(coords), draw(coords))
    else:
        p = Point2(draw(coords), draw(coords))
    return spec, p


@settings(max_examples=400, deadline=None)
@given(patch_points())
def test_gradient_matches_reference_bit_for_bit(case):
    spec, p = case
    assert outcome(ipatch_gradient, spec, p) == outcome(reference_gradient, spec, p)


@settings(max_examples=600, deadline=None)
@given(patch_points(st.just(2)), st.lists(st.tuples(coords, coords), max_size=6))
def test_two_sided_patch_matches_reference_bit_for_bit(case, others):
    spec, p = case
    assert value_outcome(ipatch_eval, spec, p) == value_outcome(reference_value, spec, p)
    assert outcome(ipatch_gradient, spec, p) == outcome(reference_gradient, spec, p)
    # the array path, at p and further points, NaN where the point call raises
    x = np.array([p.x] + [c[0] for c in others])
    y = np.array([p.y] + [c[1] for c in others])
    with np.errstate(all="ignore"):
        got = ipatch_values(spec, x, y)
        want = reference_values(spec, x, y)
    assert got.tobytes() == want.tobytes()
    for i in range(len(x)):
        point = value_outcome(reference_value, spec, Point2(float(x[i]), float(y[i])))
        expected = struct.pack("<d", np.nan) if point == "ZeroDenominator" else point
        assert struct.pack("<d", got[i]) == expected


def test_two_sided_signs_of_zero_match_reference():
    # axis-aligned lines make gradient terms exactly zero, so the sign of a
    # zero sum, which the 0.0 starts of the reference decide, reaches the output
    rng = np.random.default_rng(5)
    pool = [0.0, -0.0, 1.0, -1.0, 2.0]
    zeros = [(0.0, 1.0), (-0.0, -1.0), (1.0, 0.0), (-1.0, -0.0)]

    def line():
        a, b = zeros[rng.integers(len(zeros))]
        return LineImplicit(a, b, float(rng.choice(pool)))

    for _ in range(1500):
        ribbons = [tuple(line() for _ in range(rng.integers(1, 3))) for _ in range(2)]
        ws = [float(rng.choice(pool)) for _ in range(3)]
        spec = IPatchSpec(ribbons, [line(), line()], ws[:2], ws[2],
                          FORMS[rng.integers(len(FORMS))])
        for x, y in rng.choice([0.0, -0.0, 1.0, -1.0, -2.0, 0.5], (4, 2)):
            p = Point2(float(x), float(y))
            assert value_outcome(ipatch_eval, spec, p) == value_outcome(reference_value, spec, p)
            assert outcome(ipatch_gradient, spec, p) == outcome(reference_gradient, spec, p)


matrices = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.lists(
        st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_nan=False)),
        min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
    ).map(lambda vals: np.array(vals).reshape(shape)))


@settings(max_examples=300, deadline=None)
@given(matrices, matrices)
def test_product_within_bound_of_reference(a, b):
    got = (BivariatePoly(a) * BivariatePoly(b)).coeffs
    want = reference_product(a, b)
    assert got.shape == want.shape
    bound = 8.0 * EPS * reference_product(np.abs(a), np.abs(b))
    assert np.all(np.abs(got - want) <= bound)


def test_expansion_within_bound_of_reference():
    # the same 8 eps bound, taken relative to the expansion of the absolute
    # values of every factor and weight
    rng = np.random.default_rng(17)
    for _ in range(200):
        ell = random_ellipse(rng)
        ts = spaced_angles(rng, 4)
        w = WeightTriple(*rng.uniform(-3.0, 3.0, 3))
        spec = four_tangent_patch([ell.tangent_at(t) for t in ts],
                                  [ell.point_at(t) for t in ts], w, RAW)

        def expand(mul, absolute):
            def poly(line):
                c = BivariatePoly.from_line(line).coeffs
                return np.abs(c) if absolute else c
            pl = [poly(line) for line in spec.lines]
            c1, c2 = poly(spec.c1), poly(spec.c2)
            ws = [abs(v) if absolute else v for v in w.as_tuple()]
            return (ws[0] * mul(mul(pl[0], pl[1]), mul(c2, c2))
                    + ws[1] * mul(mul(pl[2], pl[3]), mul(c1, c1))
                    + ws[2] * mul(mul(c1, c1), mul(c2, c2)))

        got = expand_to_polynomial(spec).coeffs
        want = expand(reference_product, False)
        bound = 8.0 * EPS * expand(reference_product, True)
        assert np.all(np.abs(got - want) <= bound)


# -- recorded outputs --------------------------------------------------------

def _exact(value) -> str:
    """Type name and the repr of each field as a Python float.

    float repr round-trips, so equal strings mean equal bits; converting
    first keeps the string independent of numpy's scalar repr.
    """
    fields = ", ".join(repr(float(v)) for v in dataclasses.astuple(value))
    return f"{type(value).__name__}({fields})"


def _solve_outputs(rng) -> list[str]:
    """Every solve output on one random ellipse, or the error code."""
    def attempt(fn, *args, **kwargs):
        try:
            return _exact(fn(*args, **kwargs))
        except CurveError as exc:
            return f"error[{exc.code}]"

    ell = random_ellipse(rng)
    q = ell.conic
    ts = spaced_angles(rng, 4)
    lines = [ell.tangent_at(t) for t in ts]
    points = [ell.point_at(t) for t in ts]
    c1 = secant_line(points[0], points[1])
    c2 = secant_line(points[2], points[3])
    queries = [Point2(*rng.uniform(-2.0, 2.0, 2)) for _ in range(6)]
    queries.append(intersect_lines(c1, c2))
    out = [
        attempt(reproduce_conic_weights, q, lines, points),
        attempt(reproduce_conic_weights, q.scaled(-2.5), lines[::-1], points[::-1]),
        attempt(reproduce_conic_weights, q, lines[:3] + lines[2:3], points[:3] + points[2:3]),
        attempt(recover_lambda, q, lines[0], lines[1], c1),
        attempt(recover_lambda, q, lines[2], lines[3], c2,
                search_center=points[2].midpoint(points[3])),
        attempt(recover_lambda, q, lines[0].flipped(), lines[1], c1),
        attempt(recover_lambda, q, lines[0], lines[1], c2),
        attempt(fit_conic_two_tangents_one_point,
                TangentConstraint(points[0], lines[0].gradient(points[0])),
                TangentConstraint(points[1], lines[1].gradient(points[1])), points[2]),
    ]
    w = WeightTriple(*rng.uniform(-3.0, 3.0, 3))
    ribbons = ((lines[0], lines[1]), (lines[2],), (lines[3],))
    boundings = (c1, c2, secant_line(points[0], points[2]))
    for form in FORMS:
        patch = four_tangent_patch(lines, points, w, form)
        three = IPatchSpec(ribbons, boundings, w.as_tuple(), 0.7, form)
        out += [attempt(patch.gradient, p) for p in queries]
        out += [attempt(three.gradient, p) for p in queries]
    blend = LimingSpec(lines[0], lines[1], c1, float(rng.uniform(0.05, 0.95)))
    out.append(_exact(blend.conic))
    out += [attempt(blend.gradient, p) for p in queries]
    return out


# recorded with the reference gradient and product in the package, the
# closed-form ray roots of recover_lambda's sample search and the pencil fit
# of fit_conic_two_tangents_one_point (only its 60 lines moved, by at most
# 9.1e-15 from the SVD fit's unit-norm coefficients)
SOLVE_OUTPUTS_SHA256 = "38b5246ed061e5f9ac0e1368ea8a91a334c05da93ac1dab64dddb46203e3f738"


def test_solve_outputs_match_recorded_digest():
    rng = np.random.default_rng(2024)
    lines = []
    for _ in range(60):
        lines += _solve_outputs(rng)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == SOLVE_OUTPUTS_SHA256
