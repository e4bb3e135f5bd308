"""Planar value types and their evaluation arithmetic.

Points, lines in implicit form L(x, y) = a*x + b*y + c, and conics given by
the six coefficients of a*x^2 + b*x*y + c*y^2 + d*x + e*y + f.  All types are
immutable values and every operation is pure, so they can be shared freely
between threads.

Tolerances below assume coordinates of roughly unit magnitude; callers with
large data should scale it toward the unit box first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePoints, ReferenceOnLine, TangencyViolation

EPS_DEGENERATE = 1e-9   # coincident-point threshold
EPS_SIGN = 1e-12        # "evaluates to zero" threshold for orientation
EPS_ON_CURVE = 1e-8     # membership threshold for points on a curve


def _require_finite(pairs) -> None:
    for name, v in pairs:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"{name} must be a finite number, got {v!r}")


@dataclass(frozen=True)
class Point2:
    """A point of the plane."""

    x: float
    y: float

    def __post_init__(self):
        try:
            ok = math.isfinite(self.x) and math.isfinite(self.y)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"coordinates must be finite, got ({self.x!r}, {self.y!r})")

    def distance_to(self, other: Point2) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: Point2) -> Point2:
        return Point2(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))


@dataclass(frozen=True)
class GradientVec:
    """A gradient (or any direction) vector."""

    gx: float
    gy: float

    def __post_init__(self):
        try:
            ok = math.isfinite(self.gx) and math.isfinite(self.gy)
        except TypeError:
            ok = False
        if not ok:
            raise ValueError(f"components must be finite, got ({self.gx!r}, {self.gy!r})")

    def norm(self) -> float:
        return math.hypot(self.gx, self.gy)


@dataclass(frozen=True)
class LineImplicit:
    """The line a*x + b*y + c = 0, kept as the linear field L(x, y).

    The sign of the stored coefficients matters to downstream blends; use
    :func:`orient_toward` to fix it against a reference point.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        _require_finite((("a", self.a), ("b", self.b), ("c", self.c)))
        if self.a == 0.0 and self.b == 0.0:
            raise ValueError("line normal (a, b) must be nonzero")

    def value(self, p: Point2) -> float:
        return self.values(p.x, p.y)

    def values(self, x, y):
        """L at coordinates given as floats or numpy arrays that broadcast."""
        return self.a * x + self.b * y + self.c

    def gradient(self, p: Point2) -> GradientVec:
        return GradientVec(self.a, self.b)

    def normal_norm(self) -> float:
        return math.hypot(self.a, self.b)

    def flipped(self) -> LineImplicit:
        return LineImplicit(-self.a, -self.b, -self.c)

    def normalized(self) -> LineImplicit:
        """Scale so a^2 + b^2 = 1 with the first nonzero of (a, b) positive."""
        n = self.normal_norm()
        lead = self.a if self.a != 0.0 else self.b
        if lead < 0.0:
            n = -n
        return LineImplicit(self.a / n, self.b / n, self.c / n)


@dataclass(frozen=True)
class ConicCoeffs:
    """Coefficients of a*x^2 + b*x*y + c*y^2 + d*x + e*y + f.

    Scaling all six by the same nonzero factor describes the same curve;
    :func:`equal_up_to_scale` implements that equivalence.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float

    def __post_init__(self):
        cs = self.coeffs()
        _require_finite(zip("abcdef", cs))
        if not any(v != 0.0 for v in cs):
            raise ValueError("conic coefficients must not all be zero")

    def coeffs(self) -> tuple[float, float, float, float, float, float]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    def value(self, p: Point2) -> float:
        return self.values(p.x, p.y)

    def values(self, x, y):
        """The quadratic field at coordinates given as floats or numpy arrays."""
        return (self.a * x + self.b * y + self.d) * x + (self.c * y + self.e) * y + self.f

    def gradient(self, p: Point2) -> GradientVec:
        return conic_gradient(self, p)

    def scaled(self, s: float) -> ConicCoeffs:
        return ConicCoeffs(*(s * v for v in self.coeffs()))

    def max_abs(self) -> float:
        return max(abs(v) for v in self.coeffs())


def line_through(p: Point2, q: Point2) -> LineImplicit:
    """Line through two distinct points, in the canonical normalization.

    The result has a^2 + b^2 = 1 and the first nonzero of (a, b) positive,
    so repeated constructions are bit-for-bit reproducible.

    Raises DegeneratePoints when the points coincide, as secant_line does.
    """
    return secant_line(p, q).normalized()


def secant_line(p: Point2, q: Point2) -> LineImplicit:
    """Line through two points at the two-point cross-product scale.

    Returns L(x, y) = det[q - p, (x, y) - p]; the gradient magnitude equals
    the distance |q - p|.  This is the scale at which auto-derived secants
    enter blends, so that chord-derived weights stay comparable across
    constructions (unit-normalizing the secant would rescale them).
    """
    if p.distance_to(q) <= EPS_DEGENERATE:
        raise DegeneratePoints(f"points {p} and {q} coincide")
    dx = q.x - p.x
    dy = q.y - p.y
    return LineImplicit(-dy, dx, dy * p.x - dx * p.y)


def orient_toward(line: LineImplicit, ref: Point2) -> LineImplicit:
    """Return the line or its negation, whichever is positive at ref.

    Raises ReferenceOnLine when ref lies on the line (within EPS_SIGN).
    """
    v = line.value(ref)
    if abs(v) <= EPS_SIGN:
        raise ReferenceOnLine(f"reference point {ref} lies on the line")
    return line if v > 0.0 else line.flipped()


def _line_product_coeffs(l1: LineImplicit, l2: LineImplicit) -> tuple[float, ...]:
    """The six conic coefficients of the product of two linear fields.

    Unvalidated: for intermediate products that are only combined further,
    so no ConicCoeffs is built and checked for each.
    """
    return _linear_product(l1.a, l1.b, l1.c, l2.a, l2.b, l2.c)


def _linear_product(a1: float, b1: float, c1: float,
                    a2: float, b2: float, c2: float) -> tuple[float, ...]:
    """Conic coefficients of (a1*x + b1*y + c1) * (a2*x + b2*y + c2)."""
    return (a1 * a2, a1 * b2 + a2 * b1, b1 * b2, a1 * c2 + a2 * c1,
            b1 * c2 + b2 * c1, c1 * c2)


def check_tangency_points(lines, points) -> None:
    """Raise TangencyViolation unless each point lies on its tangent line.

    A point is on its line when the line's value there is within
    EPS_ON_CURVE; every construction from tangent lines and tangency points
    checks its bindings here.
    """
    for line, pt in zip(lines, points):
        if abs(line.value(pt)) > EPS_ON_CURVE:
            raise TangencyViolation(f"point {pt} is not on its tangent line")


def conic_gradient(q: ConicCoeffs, p: Point2) -> GradientVec:
    """Gradient (2a*x + b*y + d, 2c*y + b*x + e) of the quadratic field."""
    return GradientVec(
        2.0 * q.a * p.x + q.b * p.y + q.d,
        2.0 * q.c * p.y + q.b * p.x + q.e,
    )


def equal_up_to_scale(q1: ConicCoeffs, q2: ConicCoeffs, rtol: float = 1e-9) -> bool:
    """True iff one coefficient vector is a nonzero multiple of the other."""
    # the least-squares scalar s minimizing ||q1 - s*q2||
    s = (sum(t * b for t, b in zip(q1.coeffs(), q2.coeffs()))
         / sum(b * b for b in q2.coeffs()))
    if s == 0.0 or not math.isfinite(s):
        return False
    resid = max(abs(v1 - s * v2) for v1, v2 in zip(q1.coeffs(), q2.coeffs()))
    return resid <= rtol * max(q1.max_abs(), abs(s) * q2.max_abs())
