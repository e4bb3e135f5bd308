"""Implicit blends of k tangent-line pairs against their squared secants.

Pair i's tangent lines L_{2i-1} and L_{2i} touch at two points, and the
secant C_i passes through them.  With weights (w1, ..., wk, w0) the field

    I = sum_i w_i * L_{2i-1} * L_{2i} * prod_{j != i} C_j^2  +  w0 * prod_j C_j^2

has degree 2k and touches all 2k lines for any weights; one pair is the
two-tangent conic, two pairs the four-tangent quartic.  Three evaluation
forms are supported: ``raw`` is the polynomial above; ``normalized`` divides
by sum_i prod_{j != i} C_j^2, which removes the raw form's isolated zeros;
``faithful`` divides by sum_i w_i prod_{j != i} C_j^2.  All three share a
zero set wherever the denominators are nonzero.  Two pairs are evaluated by
a dedicated kernel that reads the 21 floats of their secants, lines and
weights from a tuple the spec builds once and does, written out without
per-pair loops, the float operations of the generic k-pair path in the same
order; both give the same bits, and every other k takes the generic path.
The kernel exists for point speed: a value in 0.66 us against 2.54 us for
the generic loop and a gradient in 2.32 us against 6.53 us (timeit, best of
9, Python 3.11 on a 2-CPU Linux host).

When the lines are tangents of one conic, weights computed by
:func:`reproduce_conic_weights` make the normalized field coincide with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Sequence

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
    conic_gradient,
    secant_line,
)
from .liming import recover_lambda
from .poly import BivariatePoly, add_product, conic_terms, line_terms, poly_terms

if TYPE_CHECKING:
    import numpy as np

RAW = "raw"
NORMALIZED = "normalized"
FAITHFUL = "faithful"
FORMS = (RAW, NORMALIZED, FAITHFUL)

EPS_DEN = 1e-12


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


def _field(spec: TangentPairSpec, x, y):
    """Numerator and denominator of the blend of k tangent pairs at (x, y).

    ``x`` and ``y`` are floats or numpy arrays that broadcast together; the
    arithmetic is the same for both, so a lattice sample equals the point
    value bit for bit.  The denominator is that of the selected form (None
    for ``raw``).  Only the squares C_j^2 are kept for the whole loop; each
    product prod_{j != i} C_j^2 and line product goes into both sums and is
    dropped, so on a lattice no other intermediate array outlives its pair.
    Two pairs go through :func:`_field2`, which does the same float
    operations.
    """
    bsq = []
    for b in spec.secants:
        v = b.a * x + b.b * y + b.c
        bsq.append(v * v)
    *ws, w0 = spec.weights
    form = spec.form
    num = w0 * math.prod(bsq)
    # sum()'s int 0 start, which turns a weighted -0.0 into 0.0
    den = None if form == RAW else 0
    lines = spec.lines
    for i, (u, v, w) in enumerate(zip(lines[::2], lines[1::2], ws)):
        e = _prod_except(bsq, i)
        num = num + w * ((u.a * x + u.b * y + u.c) * (v.a * x + v.b * y + v.c)) * e
        if form == NORMALIZED:
            den = den + e
        elif form == FAITHFUL:
            den = den + w * e
    return num, den


def _field2(spec: TangentPairSpec, x, y):
    """Numerator and denominator of the blend of two tangent pairs.

    The float operations of :func:`_field` for k = 2, where
    prod_{j != i} C_j^2 is the other pair's square, written out over
    ``spec.pair_floats``.  Each name is rebound once its value is used, so on
    a lattice no intermediate array outlives its use.
    """
    (b1a, b1b, b1c, b2a, b2b, b2c, u1a, u1b, u1c, v1a, v1b, v1c,
     u2a, u2b, u2c, v2a, v2b, v2c, w1, w2, w0) = spec.pair_floats
    s1 = b1a * x + b1b * y + b1c
    s1 = s1 * s1
    s2 = b2a * x + b2b * y + b2c
    s2 = s2 * s2
    num = w0 * (s1 * s2)
    num = num + w1 * ((u1a * x + u1b * y + u1c) * (v1a * x + v1b * y + v1c)) * s2
    num = num + w2 * ((u2a * x + u2b * y + u2c) * (v2a * x + v2b * y + v2c)) * s1
    form = spec.form
    if form == RAW:
        return num, None
    # sum() starts from 0, which leaves a square as it is but turns a
    # weighted -0.0 into 0.0
    if form == NORMALIZED:
        return num, s2 + s1
    return num, 0.0 + w1 * s2 + w2 * s1


def _require_denominator(spec: TangentPairSpec, den: float, p: Point2) -> None:
    if abs(den) <= EPS_DEN:
        raise ZeroDenominator(
            f"{spec.form} form denominator zero at ({p.x}, {p.y})")


def _gradient(spec: TangentPairSpec, p: Point2) -> GradientVec:
    """Exact analytic gradient of the selected form at a point."""
    x, y = p.x, p.y
    secants = spec.secants
    bvals = [b.a * x + b.b * y + b.c for b in secants]
    bsq = [v * v for v in bvals]
    n = len(bsq)
    pe = [_prod_except(bsq, i) for i in range(n)]
    *ws, w0 = spec.weights
    normalized = spec.form == NORMALIZED

    # one pass over the pairs: raw form and its gradient, and the denominator
    # and its gradient, each summed in pair order as _field sums them.  The
    # w0 term comes last, unlike _field's numerator: the two orders can
    # differ in the last bit, and this one keeps gradients bit-stable across
    # releases
    raw = raw_gx = raw_gy = den = den_gx = den_gy = 0.0
    lines = spec.lines
    for i, (u, v, w) in enumerate(zip(lines[::2], lines[1::2], ws)):
        # gradient of prod_{j != i} C_j^2
        pgx = pgy = 0.0
        for k in range(n):
            if k != i:
                factor = 2.0 * bvals[k] * _prod_except2(bsq, i, k)
                pgx += factor * secants[k].a
                pgy += factor * secants[k].b
        # the line product R = U * V and its gradient
        uv = u.a * x + u.b * y + u.c
        vv = v.a * x + v.b * y + v.c
        rib, rgx, rgy = uv * vv, u.a * vv + v.a * uv, u.b * vv + v.b * uv
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
    raw += w0 * math.prod(bsq)
    for k in range(n):
        factor = w0 * 2.0 * bvals[k] * pe[k]  # pe[k] = prod_{j != k} C_j^2
        raw_gx += factor * secants[k].a
        raw_gy += factor * secants[k].b
    if spec.form == RAW:
        return GradientVec(raw_gx, raw_gy)

    _require_denominator(spec, den, p)
    inv = 1.0 / (den * den)
    return GradientVec(
        (raw_gx * den - raw * den_gx) * inv,
        (raw_gy * den - raw * den_gy) * inv,
    )


def _gradient2(spec: TangentPairSpec, p: Point2) -> GradientVec:
    """Gradient of the blend of two tangent pairs: :func:`_gradient`'s loop,
    written out over ``spec.pair_floats``.

    Every sum starts from 0.0 as the loop's do, which turns a -0.0 first term
    into 0.0, and the w0 terms come last.
    """
    (b1a, b1b, b1c, b2a, b2b, b2c, u1a, u1b, u1c, v1a, v1b, v1c,
     u2a, u2b, u2c, v2a, v2b, v2c, w1, w2, w0) = spec.pair_floats
    x, y = p.x, p.y
    v1 = b1a * x + b1b * y + b1c
    v2 = b2a * x + b2b * y + b2c
    s1 = v1 * v1
    s2 = v2 * v2
    # each line product R = U * V and its gradient
    uv = u1a * x + u1b * y + u1c
    vv = v1a * x + v1b * y + v1c
    r1, r1x, r1y = uv * vv, u1a * vv + v1a * uv, u1b * vv + v1b * uv
    uv = u2a * x + u2b * y + u2c
    vv = v2a * x + v2b * y + v2c
    r2, r2x, r2y = uv * vv, u2a * vv + v2a * uv, u2b * vv + v2b * uv
    # gradients of the other pair's square: 2 * C_j * grad C_j
    f = 2.0 * v2
    p1x = 0.0 + f * b2a
    p1y = 0.0 + f * b2b
    f = 2.0 * v1
    p2x = 0.0 + f * b1a
    p2y = 0.0 + f * b1b
    f1 = w0 * 2.0 * v1 * s2
    f2 = w0 * 2.0 * v2 * s1
    gx = (0.0 + w1 * (r1x * s2 + r1 * p1x) + w2 * (r2x * s1 + r2 * p2x)
          + f1 * b1a + f2 * b2a)
    gy = (0.0 + w1 * (r1y * s2 + r1 * p1y) + w2 * (r2y * s1 + r2 * p2y)
          + f1 * b1b + f2 * b2b)
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


def _check_pairs(lines: Sequence[LineImplicit], points: Sequence[Point2],
                 secants: tuple[LineImplicit, ...] | None = None
                 ) -> tuple[LineImplicit, ...]:
    """The checks of :class:`TangentPairSpec`, in its order: each point on
    its line, then the secants (derived by :func:`_pair_secants` unless
    given), then no secant through another pair's point.  Returns the
    secants."""
    check_tangency_points(lines, points)
    if secants is None:
        secants = _pair_secants(points)
    for i, secant in enumerate(secants):
        for pt in points[:2 * i] + points[2 * i + 2:]:
            if abs(secant.value(pt)) <= EPS_ON_CURVE:
                raise SecantThroughForeignPoint(
                    f"secant through another pair's tangency point {pt}")
    return secants


def _products_except(polys: list, times) -> list:
    """prod_{j != i} polys[j] for each i, multiplied by ``times``; the
    constant 1 for a single poly."""
    if len(polys) == 1:
        return [[(0, 1.0)]]
    return [reduce(times, polys[:i] + polys[i + 1:]) for i in range(len(polys))]


@dataclass(frozen=True)
class TangentPairSpec:
    """k >= 1 pairs of tangent lines with their tangency points.

    Lines and points pair up in order, (l1, l2 | l3, l4 | ...), and the
    secant C_i through pair i's tangency points is derived at construction.
    With ``weights = (w1, ..., wk, w0)`` the field is

        sum_i w_i * L_{2i-1} * L_{2i} * prod_{j != i} C_j^2 + w0 * prod_j C_j^2

    evaluated per ``form`` (see the module docstring).  It touches every
    line at its point for any weights, since at a point of pair i every
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
    # what the two-pair kernels read (see _field2); None for other k
    pair_floats: tuple[float, ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "points", tuple(self.points))
        k = _pair_count(self.lines, self.points)
        ws = tuple(map(float, self.weights))
        if len(ws) != k + 1 or not all(map(math.isfinite, ws)):
            raise ValueError(f"{k} tangent pairs take {k + 1} finite weights")
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {self.form!r}")
        secants = _check_pairs(self.lines, self.points)
        object.__setattr__(self, "weights", WeightTriple(*ws) if k == 2 else ws)
        object.__setattr__(self, "secants", secants)
        object.__setattr__(self, "pair_floats", None if k != 2 else (
            *(v for line in (*secants, *self.lines) for v in (line.a, line.b, line.c)),
            *ws))

    @property
    def c1(self) -> LineImplicit:
        """The first pair's secant."""
        return self.secants[0]

    @property
    def c2(self) -> LineImplicit:
        """The second pair's secant."""
        return self.secants[1]

    def value(self, p: Point2) -> float:
        """The field at a point in its selected form.

        Raises ZeroDenominator for the normalized/faithful forms at common
        zeros of the relevant secant products.
        """
        kernel = _field if self.pair_floats is None else _field2
        num, den = kernel(self, p.x, p.y)
        if den is None:
            return num
        _require_denominator(self, den, p)
        return num / den

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The field over arrays of coordinates, NaN where ``|den| <= EPS_DEN``.

        Each element equals :meth:`value` at that point bit for bit; where
        the point call raises ZeroDenominator the array holds NaN.
        """
        kernel = _field if self.pair_floats is None else _field2
        num, den = kernel(self, x, y)
        if den is None:
            return num
        import numpy as np
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.abs(den) > EPS_DEN, num / den, np.nan)

    def gradient(self, p: Point2) -> GradientVec:
        """Exact analytic gradient of the selected form at a point."""
        return (_gradient if self.pair_floats is None else _gradient2)(self, p)


# the two-pair construction under its four-tangent name
four_tangent_patch = TangentPairSpec


def expand_to_polynomial(spec: TangentPairSpec) -> BivariatePoly:
    """Expand the raw field of k tangent pairs into a dense degree-2k polynomial."""
    if spec.form != RAW:
        raise ValueError("only the raw form is a polynomial")
    raw, _, width = _expand(spec.lines, spec.secants, tuple(spec.weights))
    import numpy as np
    return BivariatePoly(np.reshape(raw, (width, width)))


def _expand(lines: Sequence[LineImplicit], secants: Sequence[LineImplicit],
            ws: Sequence[float]) -> tuple[list[float], list[float], int]:
    """The raw field of the pairs' lines, secants and weights
    ``(w1, ..., wk, w0)``, and the normalized denominator
    sum_i prod_{j != i} C_j^2, flat in the layout of width 2k + 1 (see
    :mod:`.poly`), and that width."""
    width = 2 * len(secants) + 1
    size = width * width

    def times(a, b):
        out = [0.0] * size
        add_product(out, a, b)
        return poly_terms(out)

    terms = [line_terms(m, width) for m in lines]
    squares = [times(t, t) for t in (line_terms(c, width) for c in secants)]
    others = _products_except(squares, times)
    raw = [0.0] * size
    for w, l1, l2, o in zip(ws, terms[::2], terms[1::2], others):
        add_product(raw, [(n, w * v) for n, v in times(l1, l2)], o)
    # prod_j C_j^2 is the last square times the product of the others
    add_product(raw, [(n, ws[-1] * v) for n, v in others[-1]], squares[-1])
    den = [0.0] * size
    for o in others:
        for n, v in o:
            den[n] += v
    return raw, den, width


def reproduce_conic_weights(q: ConicCoeffs, lines: Sequence[LineImplicit],
                            points: Sequence[Point2]) -> WeightTriple | tuple[float, ...]:
    """Weights making the normalized field of k tangent pairs equal the conic.

    Each line must be tangent to ``q`` at its point (checked to 1e-7).  The
    pairs are solved independently for their blend parameters, then

        w_i = omega_i * (1 - t_i)
        w0 = -(omega_1 * t_1 + ... + omega_k * t_k)

    where omega_i scales pair i's blend onto q.  Note the minus sign on w0:
    the blends here subtract the squared secant, so the mixed weight carries
    the opposite sign from conventions that add it.  The pairs pass the
    checks of :class:`TangentPairSpec`, and the identity
    raw_field == q * sum_i prod_{j != i} C_j^2 is verified coefficient-wise
    before returning.  The weights come as the spec holds them: a
    WeightTriple for two pairs, a tuple ``(w1, ..., wk, w0)`` otherwise.
    """
    _pair_count(lines, points)
    qscale = max(1.0, q.max_abs())
    for line, pt in zip(lines, points):
        if abs(q.value(pt)) > 1e-7 * qscale:
            raise NotTangent(f"point {pt} is not on the conic")
        try:
            g = conic_gradient(q, pt)
        except ValueError as exc:
            raise RecoveryFailed(f"conic gradient at {pt} overflows a float") from exc
        cross = abs(g.gx * line.b - g.gy * line.a)
        if cross > 1e-7 * g.norm() * line.normal_norm():
            raise NotTangent(f"line is not tangent to the conic at {pt}")

    secants = _pair_secants(points)
    try:
        recs = [recover_lambda(q, lines[2 * i], lines[2 * i + 1], c)
                for i, c in enumerate(secants)]
    except CurveError as exc:
        raise RecoveryFailed(f"per-pair blend recovery failed: {exc}") from exc

    omegas = [1.0 / rec.omega for rec in recs]
    weights = [omega * (1.0 - rec.lam) for omega, rec in zip(omegas, recs)]
    weights.append(-sum(omega * rec.lam for omega, rec in zip(omegas, recs)))

    _check_pairs(lines, points, secants)
    got, den, width = _expand(lines, secants, weights)
    target = [0.0] * len(den)
    add_product(target, conic_terms(q, width), poly_terms(den))
    diffs = [abs(g - t) for g, t in zip(got, target)]
    scale = max(map(abs, target))
    # max() skips a NaN that is not first, so overflow, a non-finite weight
    # included, is tested for directly
    if not (all(map(math.isfinite, diffs)) and math.isfinite(scale)):
        raise RecoveryFailed("reconstructed field overflows a float")
    resid = max(diffs)
    if resid > 1e-8 * scale:
        raise RecoveryFailed(
            f"reconstructed field does not reproduce the conic (residual {resid:.3g})")
    return WeightTriple(*weights) if len(weights) == 3 else tuple(weights)
