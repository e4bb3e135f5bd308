"""Conic fitting from two tangential constraints plus one interpolation point.

The fit takes Liming's construction: the conics tangent to L1 at P1 and to
L2 at P2 are the pencil (1 - t)*L1*L2 - t*C^2, C the secant through P1 and
P2, and the one through P3 is its member at
t = L1L2(P3) / (L1L2(P3) + C(P3)^2), formed in closed form in Python floats.

The same conic solves a linear formulation, kept for reference and tests: a
tangential constraint at (x, y) with prescribed gradient direction (m, n)
contributes two homogeneous equations on the six conic coefficients,

    f(x, y) = 0
    m * df/dy(x, y) - n * df/dx(x, y) = 0

and two such constraints with one plain interpolation point give a 5 x 6
homogeneous system whose null space, at rank 5, is the conic up to scale.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInput, RankDeficient
from .geom import (
    EPS_DEGENERATE,
    ConicCoeffs,
    GradientVec,
    Point2,
    conic_gradient,
    LineImplicit,
    _line_product_coeffs,
)
from dataclasses import dataclass

EPS_RANK = 1e-10


@dataclass(frozen=True)
class TangentConstraint:
    """Point to interpolate together with a prescribed gradient direction."""

    at: Point2
    grad: GradientVec

    def __post_init__(self):
        if self.grad.norm() == 0.0:
            raise ValueError("prescribed gradient must be nonzero")


class ConstraintSystem:
    """5 x 6 homogeneous system; columns ordered (a, b, c, d, e, f)."""

    def __init__(self, rows):
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (5, 6):
            raise ValueError(f"expected a 5 x 6 system, got shape {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("system rows must be finite")
        self.rows = rows


def interpolation_row(p: Point2) -> tuple[float, ...]:
    """Row demanding f(p) = 0."""
    return (p.x * p.x, p.x * p.y, p.y * p.y, p.x, p.y, 1.0)


def tangential_row(t: TangentConstraint) -> tuple[float, ...]:
    """Row demanding m * df/dy - n * df/dx = 0 at the constraint point."""
    x, y = t.at.x, t.at.y
    m, n = t.grad.gx, t.grad.gy
    return (
        -2.0 * n * x,
        m * x - n * y,
        2.0 * m * y,
        -n,
        m,
        0.0,
    )


def build_constraint_system(t1: TangentConstraint, t2: TangentConstraint,
                            p3: Point2) -> ConstraintSystem:
    """Assemble the 5 x 6 system: three interpolations, two tangencies.

    Raises DegenerateInput when any two of the three points coincide.
    """
    _require_distinct((t1.at, t2.at, p3), 1.0)
    return ConstraintSystem([
        interpolation_row(t1.at),
        interpolation_row(t2.at),
        interpolation_row(p3),
        tangential_row(t1),
        tangential_row(t2),
    ])


def _require_distinct(pts, sigma: float) -> None:
    """Raise DegenerateInput when two of the points lie within
    EPS_DEGENERATE * sigma of each other."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if pts[i].distance_to(pts[j]) / sigma <= EPS_DEGENERATE:
            raise DegenerateInput(f"constraint points {pts[i]} and {pts[j]} coincide")


def null_space_1d(system: ConstraintSystem) -> ConicCoeffs:
    """Unit-norm spanning vector of the system's one-dimensional null space.

    The sign is fixed so the first component above noise level is positive.
    Raises RankDeficient when the rank is below 5 (the null space is then a
    whole family of conics).  Each row is scaled to unit max-abs first, which
    leaves the null space as it is and makes the rank test blind to the
    rows' scale (tangential rows scale with the prescribed gradient).
    """
    norms = np.max(np.abs(system.rows), axis=1, keepdims=True)
    rows = system.rows / np.where(norms > 0.0, norms, 1.0)
    u, s, vh = np.linalg.svd(rows)
    if s[0] == 0.0 or s[4] / s[0] <= EPS_RANK:
        raise RankDeficient(
            f"constraint system rank below 5 (singular values {s})")
    v = vh[-1]
    resid = float(np.max(np.abs(rows @ v)))
    if resid > 1e-10 * s[0]:
        raise RankDeficient(f"null-space residual too large ({resid:.3g})")
    return ConicCoeffs(*_sign_normalized(v))


def _sign_normalized(v) -> tuple[float, ...]:
    """Unit-norm copy of ``v`` as floats, its first component above noise
    level positive."""
    norm = math.hypot(*v)
    thresh = 1e-12 * max(abs(comp) for comp in v)
    for comp in v:
        if abs(comp) > thresh:
            if comp < 0.0:
                norm = -norm
            break
    return tuple(float(comp) / norm for comp in v)


def fit_conic_two_tangents_one_point(t1: TangentConstraint, t2: TangentConstraint,
                                     p3: Point2) -> ConicCoeffs:
    """Fit the unique conic through two tangential constraints and one point.

    The conics tangent to L1 at P1 and to L2 at P2 form the pencil
    (1 - t)*L1*L2 - t*C^2 of Liming's construction, C the secant through P1
    and P2.  Its member through P3 is csq*L1*L2 - prod*C^2 with
    prod = L1(P3)*L2(P3) and csq = C(P3)^2, returned unit-normalized in
    Python floats.  RankDeficient is raised when P3 is a base point of the
    pencil or the pencil collapses (both tangents are the chord), and when
    the fit fails its post-validation: residuals at the three points and
    gradient parallelism at the two tangential constraints must come out
    clean.  Points closer than EPS_DEGENERATE relative to their spread raise
    DegenerateInput.
    """
    pts = (t1.at, t2.at, p3)
    mx = sum(p.x for p in pts) / 3.0
    my = sum(p.y for p in pts) / 3.0
    spread = max(max(abs(p.x - mx), abs(p.y - my)) for p in pts)
    _require_distinct(pts, spread if spread > EPS_DEGENERATE else 1.0)

    (x1, y1), (x2, y2), (x3, y3) = ((p.x, p.y) for p in pts)
    l1 = _unit_line(t1.grad.gx, t1.grad.gy, x1, y1)
    l2 = _unit_line(t2.grad.gx, t2.grad.gy, x2, y2)
    c = _unit_line(y1 - y2, x2 - x1, x1, y1)
    # values at P3 from differences, free of the lines' offsets; the two
    # weights are scaled into [-1, 1] so that far data does not overflow
    v1 = l1.a * (x3 - x1) + l1.b * (y3 - y1)
    v2 = l2.a * (x3 - x2) + l2.b * (y3 - y2)
    vc = c.a * (x3 - x1) + c.b * (y3 - y1)
    prod = v1 * v2
    csq = vc * vc
    k = max(abs(prod), csq)
    if k == 0.0:
        raise RankDeficient(f"{p3} is a base point of the tangent/secant pencil")
    prod /= k
    csq /= k
    q12 = _line_product_coeffs(l1, l2)
    qcc = _line_product_coeffs(c, c)
    member = [csq * u - prod * v for u, v in zip(q12, qcc)]
    scale = max(csq * max(map(abs, q12)), abs(prod) * max(map(abs, qcc)))
    if not max(map(abs, member)) > EPS_RANK * scale:
        raise RankDeficient("the tangent/secant pencil collapses: both tangents "
                            "are the chord, or the fit overflows")
    conic = ConicCoeffs(*_sign_normalized(member))

    qscale = conic.max_abs()
    for p in pts:
        if abs(conic.value(p)) > 1e-8 * qscale * max(1.0, spread * spread):
            raise RankDeficient(f"fitted conic misses constraint point {p}")
    for t in (t1, t2):
        g = conic_gradient(conic, t.at)
        cross = abs(g.gx * t.grad.gy - g.gy * t.grad.gx)
        if cross > 1e-8 * max(1.0, g.norm() * t.grad.norm()):
            raise RankDeficient(f"fitted conic violates tangency at {t.at}")
    return conic


def _unit_line(nx: float, ny: float, x: float, y: float) -> LineImplicit:
    """The line through (x, y) with normal (nx, ny) scaled to unit length."""
    n = math.hypot(nx, ny)
    a, b = nx / n, ny / n
    return LineImplicit(a, b, -(a * x + b * y))
