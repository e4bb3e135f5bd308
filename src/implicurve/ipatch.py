"""Implicit blends of tangential data against squared bounding lines.

An n-sided patch combines ribbon fields R_i (here products of one or two
tangent lines) with bounding lines B_j:

    I = sum_i w_i * R_i * prod_{j != i} B_j^2  +  w0 * prod_j B_j^2

Three evaluation forms are supported: ``raw`` is the polynomial above;
``normalized`` divides by sum_i prod_{j != i} B_j^2, which removes the raw
form's isolated zeros; ``faithful`` divides by sum_i w_i prod_{j != i} B_j^2.
All three share a zero set wherever the denominators are nonzero.  Two-sided
patches are evaluated by a dedicated kernel, written out without per-side
loops, that does the float operations of the generic n-sided path in the
same order, so both give the same bits.

The tangent-pair construction blends k tangent-line pairs against the k
secants through their tangency points, giving a field of degree 2k that
touches all 2k lines; one pair is the two-tangent conic, two pairs the
four-tangent quartic.  When the lines are tangents of one conic, weights
computed by :func:`reproduce_conic_weights` make the normalized patch
coincide with it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
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

    ribbons: tuple[tuple[LineImplicit, ...], ...]
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

    def value(self, p: Point2) -> float:
        return ipatch_eval(self, p)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return ipatch_values(self, x, y)

    def gradient(self, p: Point2) -> GradientVec:
        return ipatch_gradient(self, p)


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


def _ribbon(r: tuple[LineImplicit, ...], x, y):
    """R = L or L * L' at (x, y), floats or arrays."""
    line = r[0]
    v = line.a * x + line.b * y + line.c
    if len(r) == 2:
        line = r[1]
        v = v * (line.a * x + line.b * y + line.c)
    return v


def _field(spec: IPatchSpec, x, y):
    """Numerator and denominator of an n-sided blend at (x, y).

    ``x`` and ``y`` are floats or numpy arrays that broadcast together; the
    arithmetic is the same for both, so a lattice sample equals the point
    value bit for bit.  The denominator is that of the selected form (None
    for ``raw``).  Only the squares B_j^2 are kept for the whole loop; each
    product prod_{j != i} B_j^2 and ribbon goes into both sums and is
    dropped, so on a lattice no other intermediate array outlives its side.
    Two-sided patches go through :func:`_field2`, which does the same float
    operations.
    """
    bsq = []
    for b in spec.boundings:
        v = b.a * x + b.b * y + b.c
        bsq.append(v * v)
    form = spec.form
    num = spec.w0 * math.prod(bsq)
    # sum()'s int 0 start, which turns a weighted -0.0 into 0.0
    den = None if form == RAW else 0
    for i, (r, w) in enumerate(zip(spec.ribbons, spec.weights)):
        e = _prod_except(bsq, i)
        num = num + w * _ribbon(r, x, y) * e
        if form == NORMALIZED:
            den = den + e
        elif form == FAITHFUL:
            den = den + w * e
    return num, den


def _field2(spec: IPatchSpec, x, y):
    """Numerator and denominator of a two-sided blend at (x, y).

    The float operations of :func:`_field` for n = 2, where
    prod_{j != i} B_j^2 is the other side's square, written out.  Each name
    is rebound once its value is used, so on a lattice no intermediate
    array outlives its use.
    """
    b1, b2 = spec.boundings
    w1, w2 = spec.weights
    s1 = b1.a * x + b1.b * y + b1.c
    s1 = s1 * s1
    s2 = b2.a * x + b2.b * y + b2.c
    s2 = s2 * s2
    num = spec.w0 * (s1 * s2)
    num = num + w1 * _ribbon(spec.ribbons[0], x, y) * s2
    num = num + w2 * _ribbon(spec.ribbons[1], x, y) * s1
    if spec.form == RAW:
        return num, None
    # sum() starts from 0, which leaves a square as it is but turns a
    # weighted -0.0 into 0.0
    if spec.form == NORMALIZED:
        return num, s2 + s1
    return num, 0.0 + w1 * s2 + w2 * s1


def _require_denominator(spec: IPatchSpec, den: float, p: Point2) -> None:
    if abs(den) <= EPS_DEN:
        raise ZeroDenominator(
            f"{spec.form} form denominator zero at ({p.x}, {p.y})")


def ipatch_eval(spec: IPatchSpec, p: Point2) -> float:
    """Evaluate the patch field at a point in its selected form.

    Raises ZeroDenominator for the normalized/faithful forms at common zeros
    of the relevant bounding products.
    """
    kernel = _field2 if len(spec.boundings) == 2 else _field
    num, den = kernel(spec, p.x, p.y)
    if den is None:
        return num
    _require_denominator(spec, den, p)
    return num / den


def ipatch_values(spec: IPatchSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The patch field over arrays of coordinates, NaN where ``|den| <= EPS_DEN``.

    Each element equals :func:`ipatch_eval` at that point bit for bit; where
    the point call raises ZeroDenominator the array holds NaN.
    """
    kernel = _field2 if len(spec.boundings) == 2 else _field
    num, den = kernel(spec, x, y)
    if den is None:
        return num
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(den) > EPS_DEN, num / den, np.nan)


def _ribbon_gradient(r: tuple[LineImplicit, ...], x: float, y: float):
    """R = L or L * L' at a point, with its gradient."""
    u = r[0]
    uv = u.a * x + u.b * y + u.c
    if len(r) == 1:
        return uv, u.a, u.b
    v = r[1]
    vv = v.a * x + v.b * y + v.c
    return uv * vv, u.a * vv + v.a * uv, u.b * vv + v.b * uv


def ipatch_gradient(spec: IPatchSpec, p: Point2) -> GradientVec:
    """Exact analytic gradient of the selected form at a point."""
    if len(spec.boundings) == 2:
        return _gradient2(spec, p)
    x, y = p.x, p.y
    boundings = spec.boundings
    bvals = [b.a * x + b.b * y + b.c for b in boundings]
    bsq = [v * v for v in bvals]
    n = len(bsq)
    pe = [_prod_except(bsq, i) for i in range(n)]
    normalized = spec.form == NORMALIZED

    # one pass over the sides: raw form and its gradient, and the denominator
    # and its gradient, each summed in side order as _field sums them.  The
    # w0 term comes last, unlike _field's numerator: the two orders can
    # differ in the last bit, and this one keeps gradients bit-stable across
    # releases
    raw = raw_gx = raw_gy = den = den_gx = den_gy = 0.0
    for i, (r, w) in enumerate(zip(spec.ribbons, spec.weights)):
        # gradient of prod_{j != i} B_j^2
        pgx = pgy = 0.0
        for k in range(n):
            if k != i:
                factor = 2.0 * bvals[k] * _prod_except2(bsq, i, k)
                pgx += factor * boundings[k].a
                pgy += factor * boundings[k].b
        rib, rgx, rgy = _ribbon_gradient(r, x, y)
        raw += w * rib * pe[i]
        raw_gx += w * (rgx * pe[i] + rib * pgx)
        raw_gy += w * (rgy * pe[i] + rib * pgy)
        if normalized:
            den += pe[i]
            den_gx += pgx
            den_gy += pgy
        else:
            den += w * pe[i]
            den_gx += w * pgx
            den_gy += w * pgy
    raw += spec.w0 * math.prod(bsq)
    for k in range(n):
        factor = spec.w0 * 2.0 * bvals[k] * pe[k]  # pe[k] = prod_{j != k} B_j^2
        raw_gx += factor * boundings[k].a
        raw_gy += factor * boundings[k].b
    if spec.form == RAW:
        return GradientVec(raw_gx, raw_gy)

    _require_denominator(spec, den, p)
    inv = 1.0 / (den * den)
    return GradientVec(
        (raw_gx * den - raw * den_gx) * inv,
        (raw_gy * den - raw * den_gy) * inv,
    )


def _gradient2(spec: IPatchSpec, p: Point2) -> GradientVec:
    """Gradient of a two-sided patch: ipatch_gradient's loop, written out.

    Every sum starts from 0.0 as the loop's do, which turns a -0.0 first term
    into 0.0, and the w0 terms come last.
    """
    x, y = p.x, p.y
    b1, b2 = spec.boundings
    w1, w2 = spec.weights
    w0 = spec.w0
    v1 = b1.a * x + b1.b * y + b1.c
    v2 = b2.a * x + b2.b * y + b2.c
    s1 = v1 * v1
    s2 = v2 * v2
    r1, r1x, r1y = _ribbon_gradient(spec.ribbons[0], x, y)
    r2, r2x, r2y = _ribbon_gradient(spec.ribbons[1], x, y)
    # gradients of the other side's square: 2 * B_j * grad B_j
    f = 2.0 * v2
    p1x = 0.0 + f * b2.a
    p1y = 0.0 + f * b2.b
    f = 2.0 * v1
    p2x = 0.0 + f * b1.a
    p2y = 0.0 + f * b1.b
    f1 = w0 * 2.0 * v1 * s2
    f2 = w0 * 2.0 * v2 * s1
    gx = (0.0 + w1 * (r1x * s2 + r1 * p1x) + w2 * (r2x * s1 + r2 * p2x)
          + f1 * b1.a + f2 * b2.a)
    gy = (0.0 + w1 * (r1y * s2 + r1 * p1y) + w2 * (r2y * s1 + r2 * p2y)
          + f1 * b1.b + f2 * b2.b)
    form = spec.form
    if form == RAW:
        return GradientVec(gx, gy)
    raw = 0.0 + w1 * r1 * s2 + w2 * r2 * s1 + w0 * (s1 * s2)
    if form == NORMALIZED:
        den = s2 + s1
        den_gx = 0.0 + p1x + p2x
        den_gy = 0.0 + p1y + p2y
    else:
        den = 0.0 + w1 * s2 + w2 * s1
        den_gx = 0.0 + w1 * p1x + w2 * p2x
        den_gy = 0.0 + w1 * p1y + w2 * p2y
    _require_denominator(spec, den, p)
    inv = 1.0 / (den * den)
    return GradientVec((gx * den - raw * den_gx) * inv, (gy * den - raw * den_gy) * inv)


@dataclass(frozen=True)
class WeightTriple:
    """Weights of two tangent pairs: one per pair plus the mixed term.

    Iterates as ``(w1, w2, w0)``, the order in which :class:`TangentPairSpec`
    takes them; the spec checks that they are finite.  All-zero triples are
    representable (the zero field) so that degenerate expansions can be
    exercised.
    """

    w1: float
    w2: float
    w0: float

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.w1, self.w2, self.w0)

    def __iter__(self):
        return iter(self.as_tuple())


def _pair_count(lines: Sequence[LineImplicit], points: Sequence[Point2]) -> int:
    """The number k >= 1 of pairs that 2k lines and their 2k points form."""
    if len(lines) != len(points) or not lines or len(lines) % 2:
        raise ValueError("tangent lines and tangency points must form k >= 1 pairs")
    return len(lines) // 2


def _pair_secants(points: Sequence[Point2]) -> tuple[LineImplicit, ...]:
    """Secant C_i through pair i's tangency points, by :func:`secant_line`.

    Raises DegenerateSecant when a pair's points coincide.
    """
    try:
        return tuple(secant_line(p, q) for p, q in zip(points[::2], points[1::2]))
    except DegeneratePoints as exc:
        raise DegenerateSecant(str(exc)) from exc


def _products_except(polys: list[BivariatePoly]) -> list:
    """prod_{j != i} polys[j] for each i; the integer 1 for a single poly."""
    if len(polys) == 1:
        return [1]
    return [reduce(operator.mul, polys[:i] + polys[i + 1:]) for i in range(len(polys))]


@dataclass(frozen=True)
class TangentPairSpec:
    """k >= 1 pairs of tangent lines with their tangency points.

    Lines and points pair up in order, (l1, l2 | l3, l4 | ...), and the
    secant C_i through pair i's tangency points is derived at construction.
    With ``weights = (w1, ..., wk, w0)`` the field is

        sum_i w_i * L_{2i-1} * L_{2i} * prod_{j != i} C_j^2 + w0 * prod_j C_j^2

    evaluated per ``form`` through the k-sided patch lowering.  It touches
    every line at its point for any weights, since at a point of pair i every
    other term holds C_i^2.  Two pairs keep their weights as a WeightTriple,
    other k as a tuple.

    Raises TangencyViolation when some point is off its line,
    DegenerateSecant when a pair's points coincide, and
    SecantThroughForeignPoint when a secant passes through a tangency point
    of another pair (the tangency argument needs those factors nonzero).
    """

    lines: tuple[LineImplicit, ...]
    points: tuple[Point2, ...]
    weights: WeightTriple | tuple[float, ...]
    form: str = RAW
    secants: tuple[LineImplicit, ...] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "points", tuple(self.points))
        k = _pair_count(self.lines, self.points)
        ws = tuple(map(float, self.weights))
        if len(ws) != k + 1 or not all(map(math.isfinite, ws)):
            raise ValueError(f"{k} tangent pairs take {k + 1} finite weights")
        _check_form(self.form)
        check_tangency_points(self.lines, self.points)
        secants = _pair_secants(self.points)
        for i, secant in enumerate(secants):
            for pt in self.points[:2 * i] + self.points[2 * i + 2:]:
                if abs(secant.value(pt)) <= EPS_ON_CURVE:
                    raise SecantThroughForeignPoint(
                        f"secant through another pair's tangency point {pt}")
        object.__setattr__(self, "weights", WeightTriple(*ws) if k == 2 else ws)
        object.__setattr__(self, "secants", secants)

    @property
    def c1(self) -> LineImplicit:
        """The first pair's secant."""
        return self.secants[0]

    @property
    def c2(self) -> LineImplicit:
        """The second pair's secant."""
        return self.secants[1]

    @cached_property
    def patch(self) -> IPatchSpec:
        """Lowering to the k-sided blend: R_i = L_{2i-1} * L_{2i}, B_i = C_i."""
        ws = tuple(self.weights)
        return IPatchSpec(
            ribbons=tuple(zip(self.lines[::2], self.lines[1::2])),
            boundings=self.secants,
            weights=ws[:-1],
            w0=ws[-1],
            form=self.form,
        )

    def value(self, p: Point2) -> float:
        return ipatch_eval(self.patch, p)

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return ipatch_values(self.patch, x, y)

    def gradient(self, p: Point2) -> GradientVec:
        return ipatch_gradient(self.patch, p)


# the two-pair construction under its four-tangent name
four_tangent_patch = TangentPairSpec


def expand_to_polynomial(spec: TangentPairSpec) -> BivariatePoly:
    """Expand the raw field of k tangent pairs into a dense degree-2k polynomial."""
    if spec.form != RAW:
        raise ValueError("only the raw form is a polynomial")
    return _expand(spec)[0]


def _expand(spec: TangentPairSpec) -> tuple[BivariatePoly, BivariatePoly | int]:
    """The raw field and the normalized denominator sum_i prod_{j != i} C_j^2."""
    pl = [BivariatePoly.from_line(line) for line in spec.lines]
    squares = [BivariatePoly.from_line(c).squared() for c in spec.secants]
    others = _products_except(squares)
    ws = tuple(spec.weights)
    terms = [w * (l1 * l2 * o) for w, l1, l2, o in zip(ws, pl[::2], pl[1::2], others)]
    terms.append(ws[-1] * reduce(operator.mul, squares))
    return reduce(operator.add, terms), reduce(operator.add, others)


def reproduce_conic_weights(q: ConicCoeffs, lines: Sequence[LineImplicit],
                            points: Sequence[Point2]) -> WeightTriple | tuple[float, ...]:
    """Weights making the normalized patch of k tangent pairs equal the conic.

    Each line must be tangent to ``q`` at its point (checked to 1e-7).  The
    pairs are solved independently for their blend parameters, then

        w_i = omega_i * (1 - t_i)
        w0 = -(omega_1 * t_1 + ... + omega_k * t_k)

    where omega_i scales pair i's blend onto q.  Note the minus sign on w0:
    the blends here subtract the squared secant, so the mixed weight carries
    the opposite sign from conventions that add it.  The identity
    raw_field == q * sum_i prod_{j != i} C_j^2 is verified coefficient-wise
    before returning.  The weights come as the spec holds them: a
    WeightTriple for two pairs, a tuple ``(w1, ..., wk, w0)`` otherwise.
    """
    _pair_count(lines, points)
    qscale = max(1.0, q.max_abs())
    for line, pt in zip(lines, points):
        if abs(conic_eval(q, pt)) > 1e-7 * qscale:
            raise NotTangent(f"point {pt} is not on the conic")
        g = conic_gradient(q, pt)
        cross = abs(g.gx * line.b - g.gy * line.a)
        if cross > 1e-7 * g.norm() * line.normal_norm():
            raise NotTangent(f"line is not tangent to the conic at {pt}")

    secants = _pair_secants(points)
    try:
        recs = [recover_lambda(q, lines[2 * i], lines[2 * i + 1], c,
                               search_center=points[2 * i].midpoint(points[2 * i + 1]))
                for i, c in enumerate(secants)]
    except CurveError as exc:
        raise RecoveryFailed(f"per-pair blend recovery failed: {exc}") from exc

    omegas = [1.0 / rec.omega for rec in recs]
    weights = [omega * (1.0 - rec.lam) for omega, rec in zip(omegas, recs)]
    weights.append(-sum(omega * rec.lam for omega, rec in zip(omegas, recs)))

    patch = TangentPairSpec(lines, points, weights, RAW)
    got, den = _expand(patch)
    target = BivariatePoly.from_conic(q) * den
    resid = (got - target).max_abs()
    if resid > 1e-8 * target.max_abs():
        raise RecoveryFailed(
            f"reconstructed field does not reproduce the conic (residual {resid:.3g})")
    return patch.weights
