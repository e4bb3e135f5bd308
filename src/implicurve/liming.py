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
_SEARCH_STEPS = 192


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
    is searched for by bisecting Q along rays fanned out from the centroid of
    the tangency points (or from ``search_center``).  A searched sample can
    lie so close to a tangency point that rounding fails the identity check
    below; the search then goes on to its next candidate, and only when every
    candidate fails is the first failure raised.

    The returned ``t`` is exactly L1(s)*L2(s) / (L1(s)*L2(s) + C(s)^2); it is
    not clamped to (0, 1), since sign-flipped line inputs legitimately push it
    outside.  The identity above is verified coefficient-wise to 1e-9
    relative; failure raises NotReproducible, which means the given lines are
    not a tangent/secant configuration of Q.
    """
    if sample is not None:
        return _recover_at(q, l1, l2, c, sample)
    center = search_center or _default_center(l1, l2, c)
    first_failure = None
    for candidate in _search_samples(q, l1, l2, c, center):
        try:
            return _recover_at(q, l1, l2, c, candidate)
        except NotReproducible as exc:
            first_failure = first_failure or exc
    raise first_failure or NotReproducible("no curve point found off the tangent lines")


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
    csq = c.value(sample) ** 2
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


def _default_center(l1: LineImplicit, l2: LineImplicit, c: LineImplicit) -> Point2:
    points = []
    for line in (l1, l2):
        try:
            points.append(intersect_lines(line, c))
        except ParallelLines:
            pass
    if len(points) == 2:
        return points[0].midpoint(points[1])
    if len(points) == 1:
        return points[0]
    return Point2(0.0, 0.0)


def _search_samples(q: ConicCoeffs, l1: LineImplicit, l2: LineImplicit,
                    c: LineImplicit, center: Point2):
    """Points of Q with |L1*L2| above threshold, by ray bisection, in search order."""
    scale = q.max_abs()
    coeffs = tuple(v / scale for v in q.coeffs())
    qn = ConicCoeffs(*coeffs)
    reach = 8.0 * (1.0 + math.hypot(center.x, center.y))
    for k in range(_SEARCH_RAYS):
        theta = (k + 0.5) * 2.0 * math.pi / _SEARCH_RAYS
        dx, dy = math.cos(theta), math.sin(theta)

        def f(t: float) -> float:
            return qn.values(center.x + t * dx, center.y + t * dy)

        t_prev = reach * 1e-7
        f_prev = f(t_prev)
        for step in range(1, _SEARCH_STEPS + 1):
            t = reach * step / _SEARCH_STEPS
            ft = f(t)
            if f_prev == 0.0:
                root = t_prev
            elif ft == 0.0 or (ft > 0.0) != (f_prev > 0.0):
                root = _bisect(f, t_prev, t)
            else:
                t_prev, f_prev = t, ft
                continue
            s = Point2(center.x + root * dx, center.y + root * dy)
            if _usable_sample(s, l1, l2, c):
                yield s
            t_prev, f_prev = t, ft


def _usable_sample(s: Point2, l1: LineImplicit, l2: LineImplicit,
                   c: LineImplicit) -> bool:
    product = l1.value(s) * l2.value(s)
    if abs(product) < _MIN_TANGENT_PRODUCT:
        return False
    # keep the recovery denominator well away from zero
    return abs(product + c.value(s) ** 2) >= 1e-9


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # no float lies strictly inside the bracket: every further
            # halving leaves it as it is and ends at this same mid
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)
