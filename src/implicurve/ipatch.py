"""Implicit blends of tangential data against squared bounding lines.

An n-sided patch combines ribbon fields R_i (here products of one or two
tangent lines) with bounding lines B_j:

    I = sum_i w_i * R_i * prod_{j != i} B_j^2  +  w0 * prod_j B_j^2

Three evaluation forms are supported: ``raw`` is the polynomial above;
``normalized`` divides by sum_i prod_{j != i} B_j^2, which removes the raw
form's isolated zeros; ``faithful`` divides by sum_i w_i prod_{j != i} B_j^2.
All three share a zero set wherever the denominators are nonzero.

The four-tangent construction blends two tangent-line pairs against the two
chords of their tangency points, giving a quartic field that touches all four
lines.  When the four lines are tangents of one conic, weights computed by
:func:`reproduce_conic_weights` make the normalized patch coincide with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    CurveError,
    DegeneratePoints,
    DegenerateSecant,
    NotTangent,
    RecoveryFailed,
    SecantThroughForeignPoint,
    ZeroDenominator,
)
from .geom import (
    EPS_ON_CURVE,
    ConicCoeffs,
    GradientVec,
    LineImplicit,
    Point2,
    check_tangency_points,
    conic_eval,
    conic_gradient,
    secant_line,
)
from .liming import recover_lambda
from .poly import BivariatePoly

RAW = "raw"
NORMALIZED = "normalized"
FAITHFUL = "faithful"
FORMS = (RAW, NORMALIZED, FAITHFUL)

EPS_DEN = 1e-12

Ribbon = tuple  # one or two LineImplicit, multiplied at evaluation time


def _check_form(form: str) -> None:
    if form not in FORMS:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")


@dataclass(frozen=True)
class IPatchSpec:
    """General n-sided blend specification.

    ``ribbons[i]`` holds the lines whose product forms R_i; ``boundings[i]``
    is B_i.  Lines are kept unexpanded and multiplied at evaluation time;
    :func:`expand_to_polynomial` is the only place full expansion happens.
    """

    ribbons: tuple[Ribbon, ...]
    boundings: tuple[LineImplicit, ...]
    weights: tuple[float, ...]
    w0: float
    form: str = RAW

    def __post_init__(self):
        object.__setattr__(self, "ribbons", tuple(tuple(r) for r in self.ribbons))
        object.__setattr__(self, "boundings", tuple(self.boundings))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        n = len(self.ribbons)
        if n < 1 or len(self.boundings) != n or len(self.weights) != n:
            raise ValueError("ribbons, boundings and weights must share length n >= 1")
        for r in self.ribbons:
            if not 1 <= len(r) <= 2:
                raise ValueError("each ribbon is a product of one or two lines")
        if not all(math.isfinite(w) for w in (*self.weights, self.w0)):
            raise ValueError("weights must be finite")
        _check_form(self.form)

    @property
    def sides(self) -> int:
        return len(self.ribbons)

    def with_form(self, form: str) -> IPatchSpec:
        return IPatchSpec(self.ribbons, self.boundings, self.weights, self.w0, form)

    def value(self, p: Point2) -> float:
        return ipatch_eval(self, p)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return ipatch_values(self, x, y)

    def gradient(self, p: Point2) -> GradientVec:
        return ipatch_gradient(self, p)


def _prod(values):
    out = 1.0
    for v in values:
        out *= v
    return out


def _prod_except(values, skip: int):
    out = 1.0
    for j, v in enumerate(values):
        if j != skip:
            out *= v
    return out


def _prod_except2(values, skip1: int, skip2: int) -> float:
    out = 1.0
    for j, v in enumerate(values):
        if j != skip1 and j != skip2:
            out *= v
    return out


def _field(spec: IPatchSpec, x, y):
    """Numerator, denominator and parts of the blend at (x, y).

    ``x`` and ``y`` are floats or numpy arrays that broadcast together; the
    arithmetic is the same for both, so a lattice sample equals the point
    value bit for bit.  The denominator is that of the selected form (None
    for ``raw``); the parts are the bounding values B_j, their squares, the
    products prod_{j != i} B_j^2, the ribbons R_i and the term
    w0 * prod_j B_j^2.
    """
    bvals = []
    bsq = []
    for b in spec.boundings:
        v = b.a * x + b.b * y + b.c
        bvals.append(v)
        bsq.append(v * v)
    n = len(bsq)
    if n == 1:
        pe = [1.0]
    elif n == 2:
        pe = [bsq[1], bsq[0]]
    else:
        pe = [_prod_except(bsq, i) for i in range(n)]
    rib = []
    for r in spec.ribbons:
        line = r[0]
        v = line.a * x + line.b * y + line.c
        if len(r) == 2:
            line = r[1]
            v = v * (line.a * x + line.b * y + line.c)
        rib.append(v)
    w0_term = spec.w0 * _prod(bsq)
    num = w0_term
    for w, r, e in zip(spec.weights, rib, pe):
        num = num + w * r * e
    if spec.form == RAW:
        den = None
    elif spec.form == NORMALIZED:
        den = sum(pe)
    else:
        den = sum(w * v for w, v in zip(spec.weights, pe))
    return num, den, (bvals, bsq, pe, rib, w0_term)


def _require_denominator(spec: IPatchSpec, den: float, p: Point2) -> None:
    if abs(den) <= EPS_DEN:
        raise ZeroDenominator(
            f"{spec.form} form denominator zero at ({p.x}, {p.y})")


def ipatch_eval(spec: IPatchSpec, p: Point2) -> float:
    """Evaluate the patch field at a point in its selected form.

    Raises ZeroDenominator for the normalized/faithful forms at common zeros
    of the relevant bounding products.
    """
    num, den, _ = _field(spec, p.x, p.y)
    if den is None:
        return num
    _require_denominator(spec, den, p)
    return num / den


def ipatch_values(spec: IPatchSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The patch field over arrays of coordinates, NaN where ``|den| <= EPS_DEN``.

    Each element equals :func:`ipatch_eval` at that point bit for bit; where
    the point call raises ZeroDenominator the array holds NaN.
    """
    num, den, _ = _field(spec, x, y)
    if den is None:
        return num
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(den) > EPS_DEN, num / den, np.nan)


def ipatch_gradient(spec: IPatchSpec, p: Point2) -> GradientVec:
    """Exact analytic gradient of the selected form at a point."""
    x, y = p.x, p.y
    _, den, (bvals, bsq, pe, rib, w0_term) = _field(spec, x, y)
    n = len(bsq)
    boundings = spec.boundings
    normalized = spec.form == NORMALIZED

    # one pass over the sides: raw form and its gradient, and the gradient of
    # the denominator, each summed in side order.  The w0 term comes last,
    # unlike _field's numerator: the two orders can differ in the last bit,
    # and this one keeps gradients bit-stable across releases
    raw = raw_gx = raw_gy = den_gx = den_gy = 0.0
    for i, (r, w) in enumerate(zip(spec.ribbons, spec.weights)):
        # gradient of prod_{j != i} B_j^2
        pgx = pgy = 0.0
        for k in range(n):
            if k != i:
                factor = 2.0 * bvals[k]
                if n > 2:
                    factor *= _prod_except2(bsq, i, k)
                pgx += factor * boundings[k].a
                pgy += factor * boundings[k].b
        u = r[0]
        if len(r) == 1:
            rgx, rgy = u.a, u.b
        else:
            v = r[1]
            uv = u.a * x + u.b * y + u.c
            vv = v.a * x + v.b * y + v.c
            rgx, rgy = u.a * vv + v.a * uv, u.b * vv + v.b * uv
        raw += w * rib[i] * pe[i]
        raw_gx += w * (rgx * pe[i] + rib[i] * pgx)
        raw_gy += w * (rgy * pe[i] + rib[i] * pgy)
        if normalized:
            den_gx += pgx
            den_gy += pgy
        else:
            den_gx += w * pgx
            den_gy += w * pgy
    raw += w0_term
    for k in range(n):
        factor = spec.w0 * 2.0 * bvals[k] * pe[k]  # pe[k] = prod_{j != k} B_j^2
        raw_gx += factor * boundings[k].a
        raw_gy += factor * boundings[k].b
    if den is None:
        return GradientVec(raw_gx, raw_gy)

    _require_denominator(spec, den, p)
    inv = 1.0 / (den * den)
    return GradientVec(
        (raw_gx * den - raw * den_gx) * inv,
        (raw_gy * den - raw * den_gy) * inv,
    )


@dataclass(frozen=True)
class WeightTriple:
    """Weights of a four-tangent patch: one per pair plus the mixed term.

    All-zero triples are representable (the zero field) so that degenerate
    expansions can be exercised; constructions that need a curve should
    validate weights themselves.
    """

    w1: float
    w2: float
    w0: float

    def __post_init__(self):
        if not all(math.isfinite(w) for w in self.as_tuple()):
            raise ValueError("weights must be finite")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w1, self.w2, self.w0)


@dataclass(frozen=True)
class FourTangentSpec:
    """Four tangent lines with tangency points, paired (l1, l2 | l3, l4).

    c1 joins the first pair's tangency points, c2 the second pair's.  The
    field is

        w1 * L1 * L2 * C2^2 + w2 * L3 * L4 * C1^2 + w0 * C1^2 * C2^2

    evaluated per ``form`` through the two-sided patch lowering.
    """

    lines: tuple[LineImplicit, LineImplicit, LineImplicit, LineImplicit]
    points: tuple[Point2, Point2, Point2, Point2]
    c1: LineImplicit
    c2: LineImplicit
    weights: WeightTriple
    form: str = RAW

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.lines) != 4 or len(self.points) != 4:
            raise ValueError("exactly four lines and four tangency points required")
        _check_form(self.form)
        check_tangency_points(self.lines, self.points)
        for secant, pt in ((self.c1, self.points[0]), (self.c1, self.points[1]),
                           (self.c2, self.points[2]), (self.c2, self.points[3])):
            if abs(secant.value(pt)) > EPS_ON_CURVE:
                raise ValueError(f"secant does not pass through tangency point {pt}")

    @cached_property
    def patch(self) -> IPatchSpec:
        """Lowering to the two-sided blend: R1 = L1*L2, R2 = L3*L4."""
        return IPatchSpec(
            ribbons=((self.lines[0], self.lines[1]), (self.lines[2], self.lines[3])),
            boundings=(self.c1, self.c2),
            weights=(self.weights.w1, self.weights.w2),
            w0=self.weights.w0,
            form=self.form,
        )

    def with_form(self, form: str) -> FourTangentSpec:
        return FourTangentSpec(self.lines, self.points, self.c1, self.c2,
                               self.weights, form)

    def value(self, p: Point2) -> float:
        return ipatch_eval(self.patch, p)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return ipatch_values(self.patch, x, y)

    def gradient(self, p: Point2) -> GradientVec:
        return ipatch_gradient(self.patch, p)


def four_tangent_patch(lines: Sequence[LineImplicit], points: Sequence[Point2],
                       weights: WeightTriple, form: str = RAW) -> FourTangentSpec:
    """Build the four-tangent field for given lines, tangency points and weights.

    Secants are derived from the tangency points at the two-point
    cross-product scale (see :func:`implicurve.geom.secant_line`).

    Raises TangencyViolation when some point is off its line,
    DegenerateSecant when a pair's points coincide, and
    SecantThroughForeignPoint when a secant passes through a tangency point
    of the other pair (the tangency argument needs those factors nonzero).
    """
    lines = tuple(lines)
    points = tuple(points)
    if len(lines) != 4 or len(points) != 4:
        raise ValueError("exactly four lines and four tangency points required")
    _check_form(form)
    check_tangency_points(lines, points)
    try:
        c1 = secant_line(points[0], points[1])
        c2 = secant_line(points[2], points[3])
    except DegeneratePoints as exc:
        raise DegenerateSecant(str(exc)) from exc
    for secant, pt in ((c1, points[2]), (c1, points[3]),
                       (c2, points[0]), (c2, points[1])):
        if abs(secant.value(pt)) <= EPS_ON_CURVE:
            raise SecantThroughForeignPoint(
                f"secant through the other pair's tangency point {pt}")
    return FourTangentSpec(lines, points, c1, c2, weights, form)


def expand_to_polynomial(spec: FourTangentSpec) -> BivariatePoly:
    """Expand the raw four-tangent field into a dense degree-4 polynomial."""
    if spec.form != RAW:
        raise ValueError("only the raw form is a polynomial")
    pl = [BivariatePoly.from_line(line) for line in spec.lines]
    c1 = BivariatePoly.from_line(spec.c1)
    c2 = BivariatePoly.from_line(spec.c2)
    c1sq = c1.squared()
    c2sq = c2.squared()
    w = spec.weights
    return (w.w1 * (pl[0] * pl[1] * c2sq)
            + w.w2 * (pl[2] * pl[3] * c1sq)
            + w.w0 * (c1sq * c2sq))


def reproduce_conic_weights(q: ConicCoeffs, lines: Sequence[LineImplicit],
                            points: Sequence[Point2]) -> WeightTriple:
    """Weights making the normalized four-tangent patch equal the conic.

    Each line must be tangent to ``q`` at its point (checked to 1e-7).  The
    two pairs are solved independently for their blend parameters, then

        w1 = omega1 * (1 - t1)
        w2 = omega2 * (1 - t2)
        w0 = -(omega1 * t1 + omega2 * t2)

    where omega_i scales each pair's blend onto q.  Note the minus sign on
    w0: the blends here subtract the squared secant, so the mixed weight
    carries the opposite sign from conventions that add it.  The identity
    raw_field == q * (C1^2 + C2^2) is verified coefficient-wise before
    returning.
    """
    lines = tuple(lines)
    points = tuple(points)
    if len(lines) != 4 or len(points) != 4:
        raise ValueError("exactly four lines and four tangency points required")
    qscale = max(1.0, q.max_abs())
    for line, pt in zip(lines, points):
        if abs(conic_eval(q, pt)) > 1e-7 * qscale:
            raise NotTangent(f"point {pt} is not on the conic")
        g = conic_gradient(q, pt)
        cross = abs(g.gx * line.b - g.gy * line.a)
        if cross > 1e-7 * g.norm() * line.normal_norm():
            raise NotTangent(f"line is not tangent to the conic at {pt}")

    try:
        c1 = secant_line(points[0], points[1])
        c2 = secant_line(points[2], points[3])
    except DegeneratePoints as exc:
        raise DegenerateSecant(str(exc)) from exc

    try:
        rec1 = recover_lambda(q, lines[0], lines[1], c1,
                              search_center=points[0].midpoint(points[1]))
        rec2 = recover_lambda(q, lines[2], lines[3], c2,
                              search_center=points[2].midpoint(points[3]))
    except CurveError as exc:
        raise RecoveryFailed(f"per-pair blend recovery failed: {exc}") from exc

    omega1 = 1.0 / rec1.omega
    omega2 = 1.0 / rec2.omega
    weights = WeightTriple(
        omega1 * (1.0 - rec1.lam),
        omega2 * (1.0 - rec2.lam),
        -(omega1 * rec1.lam + omega2 * rec2.lam),
    )

    patch = four_tangent_patch(lines, points, weights, RAW)
    got = expand_to_polynomial(patch)
    c1p = BivariatePoly.from_line(c1)
    c2p = BivariatePoly.from_line(c2)
    target = BivariatePoly.from_conic(q) * (c1p.squared() + c2p.squared())
    resid = (got - target).max_abs()
    if resid > 1e-8 * target.max_abs():
        raise RecoveryFailed(
            f"reconstructed field does not reproduce the conic (residual {resid:.3g})")
    return weights
