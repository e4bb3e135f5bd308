"""Two-tangent conic blends and recovery of their blending parameters.

The blend of two tangent lines L1, L2 against the squared secant C through
the tangency points,

    (1 - t) * L1 * L2 - t * C**2,        0 < t < 1,

is a conic touching both lines.  Conversely, a conic known to admit such a
construction determines (t, scale) from any of its points off the tangent
lines; :func:`recover_lambda` computes them and verifies the claim
coefficient-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    NotReproducible,
    ParallelLines,
    SampleNotOnConic,
    SampleOnTangent,
)
from .geom import (
    EPS_ON_CURVE,
    ConicCoeffs,
    GradientVec,
    LineImplicit,
    Point2,
    conic_eval,
    conic_gradient,
    intersect_lines,
    _line_product_coeffs,
)

# sample-point search parameters
_MIN_TANGENT_PRODUCT = 1e-6
_SEARCH_RAYS = 64
_SEARCH_REFINEMENTS = 4


@dataclass(frozen=True)
class LimingSpec:
    """Two tangent lines, a secant, and the blend parameter in (0, 1).

    The blend is expanded once, at construction, into ``conic``; a blend
    that vanishes identically is rejected there.
    """

    l1: LineImplicit
    l2: LineImplicit
    c: LineImplicit
    lam: float
    conic: ConicCoeffs = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.lam) and 0.0 < self.lam < 1.0):
            raise ValueError(f"blend parameter must lie in (0, 1), got {self.lam!r}")
        coeffs = _blend_coeffs(self.l1, self.l2, self.c, self.lam)
        if not any(coeffs):
            raise ValueError(
                f"blend (1 - t)*L1*L2 - t*C^2 vanishes identically at t = {self.lam!r}")
        object.__setattr__(self, "conic", ConicCoeffs(*coeffs))

    def value(self, p: Point2) -> float:
        return self.conic.values(p.x, p.y)

    def values(self, x, y):
        return self.conic.values(x, y)

    def gradient(self, p: Point2) -> GradientVec:
        return conic_gradient(self.conic, p)


@dataclass(frozen=True)
class LambdaOmega:
    """Recovered blend parameter and the scale tying the blend to the conic."""

    lam: float
    omega: float

    def __post_init__(self):
        if self.omega == 0.0 or not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite and nonzero, got {self.omega!r}")


def _blend_coeffs(l1: LineImplicit, l2: LineImplicit, c: LineImplicit,
                  lam: float) -> tuple[float, ...]:
    q12 = _line_product_coeffs(l1, l2)
    qcc = _line_product_coeffs(c, c)
    return tuple((1.0 - lam) * u - lam * v for u, v in zip(q12, qcc))


def liming_conic(spec: LimingSpec) -> ConicCoeffs:
    """Expand (1 - t)*L1*L2 - t*C^2 into conic coefficients.

    Coincident tangents are not rejected; they yield a degenerate line-pair
    conic, which is the caller's concern.  A blend that vanishes identically
    is rejected when the spec is constructed.
    """
    return spec.conic


def recover_lambda(q: ConicCoeffs, l1: LineImplicit, l2: LineImplicit,
                   c: LineImplicit, sample: Point2 | None = None, *,
                   search_center: Point2 | None = None) -> LambdaOmega:
    """Recover (t, omega) with (1 - t)*L1*L2 - t*C^2 == omega * Q.

    ``sample`` must be a point of Q off both tangent lines; when omitted, one
    is searched for among the closed-form roots of Q on rays fanned out from
    the centroid of the tangency points (or from ``search_center``), the
    first ray along the secant's normal, then on finer fans in between.
    Should a searched sample fail the identity check below by rounding, the
    rest of its fan is tried; when none of them passes, the first failure
    is raised.  Only when no fan from the center yields a usable sample are
    rays from each tangency point tried, in the same order.

    The returned ``t`` is exactly L1(s)*L2(s) / (L1(s)*L2(s) + C(s)^2); it is
    not clamped to (0, 1), since sign-flipped line inputs legitimately push it
    outside.  The identity above is verified coefficient-wise to 1e-9
    relative; failure raises NotReproducible, which means the given lines are
    not a tangent/secant configuration of Q.
    """
    if sample is not None:
        return _recover_at(q, l1, l2, c, sample)
    first_failure = None
    for candidate in _search_samples(q, l1, l2, c, search_center):
        if candidate is None:  # the end of a fan
            if first_failure is not None:
                raise first_failure
            continue
        try:
            return _recover_at(q, l1, l2, c, candidate)
        except NotReproducible as exc:
            first_failure = first_failure or exc
    raise NotReproducible("no curve point found off the tangent lines")


def _recover_at(q: ConicCoeffs, l1: LineImplicit, l2: LineImplicit,
                c: LineImplicit, sample: Point2) -> LambdaOmega:
    qscale = max(1.0, q.max_abs())
    if abs(conic_eval(q, sample)) > EPS_ON_CURVE * qscale:
        raise SampleNotOnConic(f"sample {sample} is not on the conic")
    v1 = l1.value(sample)
    v2 = l2.value(sample)
    if abs(v1) <= 1e-12 * l1.normal_norm() or abs(v2) <= 1e-12 * l2.normal_norm():
        raise SampleOnTangent(f"sample {sample} lies on a tangent line")

    product = v1 * v2
    csq = _secant_square(c, sample)
    den = product + csq
    if abs(den) <= 1e-14 * max(abs(product), csq, 1e-30):
        raise NotReproducible("blend denominator vanishes at the sample point")
    lam = product / den

    blend = _blend_coeffs(l1, l2, c, lam)
    qc = q.coeffs()
    k = max(range(6), key=lambda i: abs(qc[i]))
    omega = blend[k] / qc[k]
    scale = max(max(abs(v) for v in blend), abs(omega) * q.max_abs())
    if omega == 0.0 or not math.isfinite(omega) or scale == 0.0:
        raise NotReproducible("blend collapses to the zero polynomial")
    resid = max(abs(bv - omega * qv) for bv, qv in zip(blend, qc))
    if resid > 1e-9 * scale:
        raise NotReproducible(
            f"blend differs from a multiple of the conic (residual {resid:.3g})")
    return LambdaOmega(lam, omega)


def _tangency_points(l1: LineImplicit, l2: LineImplicit,
                     c: LineImplicit) -> list[Point2]:
    """Where each tangent line meets the secant, when it does."""
    points = []
    for line in (l1, l2):
        try:
            points.append(intersect_lines(line, c))
        except ParallelLines:
            pass
    return points


def _search_samples(q: ConicCoeffs, l1: LineImplicit, l2: LineImplicit,
                    c: LineImplicit, center: Point2 | None):
    """Usable samples of Q in search order, fan by fan, each fan ended by None.

    The rays of each fan (see :func:`_ray_samples`) start at the secant's
    normal, so that the first sample lies as far from both tangency points
    as the geometry allows.  The first fans come from ``center``, by default
    the midpoint of the tangency points.  The fans from each tangency point
    follow, reached only when no sample from the center was usable.
    """
    scale = q.max_abs()
    qn = tuple(v / scale for v in q.coeffs())
    start = math.atan2(c.b, c.a)
    if center is None:
        touch = _tangency_points(l1, l2, c)
        center = (touch[0].midpoint(touch[1]) if len(touch) == 2
                  else touch[0] if touch else Point2(0.0, 0.0))
    reach = 8.0 * (1.0 + math.hypot(center.x, center.y))
    yield from _ray_samples(qn, center, False, start, reach, l1, l2, c)
    for p in _tangency_points(l1, l2, c):
        yield from _ray_samples(qn, p, True, start, reach, l1, l2, c)


def _ray_samples(qn, origin: Point2, on_curve: bool, start: float, reach: float,
                 l1: LineImplicit, l2: LineImplicit, c: LineImplicit):
    """Usable roots of the normalised conic ``qn`` on fans of rays from
    ``origin``, nearest first on each ray, each fan ended by None.

    The first fan has _SEARCH_RAYS even angles from ``start``; each of the
    _SEARCH_REFINEMENTS finer ones takes the angles halfway between those so
    far.  Seen from the center, a thin hyperbola through both tangency
    points spans only a narrow cone about the chord, which the first fan
    can miss.  Along the ray origin + t*d the conic is the quadratic
    A*t^2 + B*t + C0, whose roots in (0, reach] are taken in closed form.
    An origin ``on_curve`` is a tangency point P, where Q vanishes: along
    P + t*d the conic is t*(B + A*t), and with C0 = 0 the roots below are 0
    and exactly -B/A.
    """
    qa, qb, qc, qd, qe, qf = qn
    ox, oy = origin.x, origin.y
    c0 = 0.0 if on_curve else (qa * ox + qb * oy + qd) * ox + (qc * oy + qe) * oy + qf
    gx = 2.0 * qa * ox + qb * oy + qd
    gy = qb * ox + 2.0 * qc * oy + qe
    for level in range(_SEARCH_REFINEMENTS + 1):
        n = _SEARCH_RAYS << level
        for k in range(n) if level == 0 else range(1, n, 2):
            theta = start + k * 2.0 * math.pi / n
            dx, dy = math.cos(theta), math.sin(theta)
            a = (qa * dx + qb * dy) * dx + qc * dy * dy
            b = gx * dx + gy * dy
            disc = b * b - 4.0 * a * c0
            if disc < 0.0:
                continue
            # qq and b share a sign, so neither root cancels; a zero qq or a
            # drops the root it would divide by (a line, or no root at all)
            qq = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
            roots = []
            if qq != 0.0:
                roots.append(c0 / qq)
            if a != 0.0:
                roots.append(qq / a)
            for t in sorted(roots):
                if 0.0 < t <= reach:
                    s = Point2(ox + t * dx, oy + t * dy)
                    if _usable_sample(s, l1, l2, c):
                        yield s
        yield None


def _usable_sample(s: Point2, l1: LineImplicit, l2: LineImplicit,
                   c: LineImplicit) -> bool:
    product = l1.value(s) * l2.value(s)
    if abs(product) < _MIN_TANGENT_PRODUCT:
        return False
    # keep the recovery denominator well away from zero
    return abs(product + _secant_square(c, s)) >= 1e-9


def _secant_square(c: LineImplicit, s: Point2) -> float:
    """C(s)^2, or NotReproducible where the square overflows a float."""
    try:
        return c.value(s) ** 2
    except OverflowError as exc:
        raise NotReproducible(f"squared secant overflows at {s}") from exc
