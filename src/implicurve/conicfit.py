"""Conic fitting from two tangential constraints plus one interpolation point.

A tangential constraint at (x, y) with prescribed gradient direction (m, n)
contributes two homogeneous equations on the six conic coefficients:

    f(x, y) = 0
    m * df/dy(x, y) - n * df/dx(x, y) = 0

Two such constraints and one plain interpolation point give a 5 x 6
homogeneous system; when its rank is 5 the solution space is one-dimensional
and the conic is determined up to scale.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInput, RankDeficient
from .geom import (
    EPS_DEGENERATE,
    ConicCoeffs,
    GradientVec,
    Point2,
    conic_eval,
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
    pts = (t1.at, t2.at, p3)
    for i in range(3):
        for j in range(i + 1, 3):
            if pts[i].distance_to(pts[j]) <= EPS_DEGENERATE:
                raise DegenerateInput(f"constraint points {pts[i]} and {pts[j]} coincide")
    return ConstraintSystem([
        interpolation_row(t1.at),
        interpolation_row(t2.at),
        interpolation_row(p3),
        tangential_row(t1),
        tangential_row(t2),
    ])


def null_space_1d(system: ConstraintSystem) -> ConicCoeffs:
    """Unit-norm spanning vector of the system's one-dimensional null space.

    The sign is fixed so the first component above noise level is positive.
    Raises RankDeficient when the rank is below 5 (the null space is then a
    whole family of conics).
    """
    u, s, vh = np.linalg.svd(system.rows)
    if s[0] == 0.0 or s[4] / s[0] <= EPS_RANK:
        raise RankDeficient(
            f"constraint system rank below 5 (singular values {s})")
    v = vh[-1]
    resid = float(np.max(np.abs(system.rows @ v)))
    if resid > 1e-10 * s[0]:
        raise RankDeficient(f"null-space residual too large ({resid:.3g})")
    return ConicCoeffs(*_sign_normalized(v))


def _sign_normalized(v: np.ndarray) -> np.ndarray:
    v = v / np.linalg.norm(v)
    thresh = 1e-12 * np.max(np.abs(v))
    for comp in v:
        if abs(comp) > thresh:
            if comp < 0.0:
                v = -v
            break
    return v


def fit_conic_two_tangents_one_point(t1: TangentConstraint, t2: TangentConstraint,
                                     p3: Point2) -> ConicCoeffs:
    """Fit the unique conic through two tangential constraints and one point.

    Points are internally mapped to a unit box before assembly (the quadratic
    columns square coordinate magnitudes, so conditioning demands it) and the
    result is mapped back, unit-normalized.  The fit is post-validated:
    residuals at the three points and gradient parallelism at the two
    tangential constraints must come out clean.
    """
    pts = (t1.at, t2.at, p3)
    mx = sum(p.x for p in pts) / 3.0
    my = sum(p.y for p in pts) / 3.0
    spread = max(max(abs(p.x - mx), abs(p.y - my)) for p in pts)
    sigma = spread if spread > EPS_DEGENERATE else 1.0

    def to_unit(p: Point2) -> Point2:
        return Point2((p.x - mx) / sigma, (p.y - my) / sigma)

    system = build_constraint_system(
        TangentConstraint(to_unit(t1.at), t1.grad),
        TangentConstraint(to_unit(t2.at), t2.grad),
        to_unit(p3),
    )
    unit_conic = null_space_1d(system)
    conic = _compose_with_unit_map(unit_conic, mx, my, sigma)

    qscale = conic.max_abs()
    for p in pts:
        if abs(conic_eval(conic, p)) > 1e-8 * qscale * max(1.0, spread * spread):
            raise RankDeficient(f"fitted conic misses constraint point {p}")
    for t in (t1, t2):
        g = conic_gradient(conic, t.at)
        cross = abs(g.gx * t.grad.gy - g.gy * t.grad.gx)
        if cross > 1e-8 * max(1.0, g.norm() * t.grad.norm()):
            raise RankDeficient(f"fitted conic violates tangency at {t.at}")
    return conic


def _compose_with_unit_map(q: ConicCoeffs, mx: float, my: float,
                           sigma: float) -> ConicCoeffs:
    """Pull a conic in unit-box coordinates back to the original frame."""
    u = LineImplicit(1.0 / sigma, 0.0, -mx / sigma)
    v = LineImplicit(0.0, 1.0 / sigma, -my / sigma)
    uu = _line_product_coeffs(u, u)
    uv = _line_product_coeffs(u, v)
    vv = _line_product_coeffs(v, v)
    lin_u = (0.0, 0.0, 0.0, u.a, u.b, u.c)
    lin_v = (0.0, 0.0, 0.0, v.a, v.b, v.c)
    const = (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    combo = [
        q.a * t0 + q.b * t1 + q.c * t2 + q.d * t3 + q.e * t4 + q.f * t5
        for t0, t1, t2, t3, t4, t5 in zip(uu, uv, vv, lin_u, lin_v, const)
    ]
    return ConicCoeffs(*_sign_normalized(np.asarray(combo)))
