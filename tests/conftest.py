"""Shared test helpers: finite differences, line and conic arithmetic, random
conic factories and hypothesis strategies for lines and tangent-pair specs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from implicurve import (
    ConicCoeffs,
    LineImplicit,
    Point2,
    TangentPairSpec,
)
from implicurve.errors import CurveError
from implicurve.ipatch import FORMS

coords = st.floats(-2.0, 2.0, allow_nan=False)
weights = st.floats(-3.0, 3.0, allow_nan=False)
forms = st.sampled_from(FORMS)
lines = st.tuples(coords, coords, coords).filter(
    lambda abc: math.hypot(abc[0], abc[1]) > 1e-3).map(lambda abc: LineImplicit(*abc))


def foot(line: LineImplicit, x: float, y: float) -> Point2:
    """The point of the line nearest (x, y)."""
    t = line.values(x, y) / (line.a * line.a + line.b * line.b)
    return Point2(x - t * line.a, y - t * line.b)


def crossing(l1: LineImplicit, l2: LineImplicit) -> Point2 | None:
    """The point where two lines cross (Cramer's rule), or None for lines
    parallel to a relative 1e-12."""
    det = l1.a * l2.b - l2.a * l1.b
    if abs(det) <= 1e-12 * l1.normal_norm() * l2.normal_norm():
        return None
    return Point2((-l1.c * l2.b + l2.c * l1.b) / det, (-l1.a * l2.c + l2.a * l1.c) / det)


def line_product(l1: LineImplicit, l2: LineImplicit) -> ConicCoeffs:
    """The conic L1 * L2, expanded."""
    return ConicCoeffs(l1.a * l2.a, l1.a * l2.b + l2.a * l1.b, l1.b * l2.b,
                       l1.a * l2.c + l2.a * l1.c, l1.b * l2.c + l2.b * l1.c, l1.c * l2.c)


def conic_tangent(q: ConicCoeffs, p: Point2) -> LineImplicit:
    """Tangent line of the conic at a point of it: normal along the gradient,
    canonically normalized."""
    g = q.gradient(p)
    return LineImplicit(g.gx, g.gy, -(g.gx * p.x + g.gy * p.y)).normalized()


@st.composite
def pair_specs(draw, pairs=st.integers(1, 3)):
    """Specs of k tangent pairs, k from 1 to 3 unless ``pairs`` draws it: random
    lines, each with a random point on it, and random weights and form.
    Draws the constructor refuses (a point off its line after rounding,
    coinciding points, a secant through another pair's point) are skipped."""
    k = draw(pairs)
    ls = [draw(lines) for _ in range(2 * k)]
    points = [foot(line, draw(coords), draw(coords)) for line in ls]
    try:
        return TangentPairSpec(ls, points, [draw(weights) for _ in range(k + 1)],
                               draw(forms))
    except CurveError:
        assume(False)


def central_diff(field, p: Point2, h: float = 1e-5) -> tuple[float, float]:
    """Finite-difference gradient oracle, independent of analytic gradients."""
    fx1 = field.value(Point2(p.x + h, p.y))
    fx0 = field.value(Point2(p.x - h, p.y))
    fy1 = field.value(Point2(p.x, p.y + h))
    fy0 = field.value(Point2(p.x, p.y - h))
    return ((fx1 - fx0) / (2.0 * h), (fy1 - fy0) / (2.0 * h))


@dataclass(frozen=True)
class Ellipse:
    """Rotated ellipse with a parametric point map and its implicit conic."""

    cx: float
    cy: float
    ax: float
    ay: float
    theta: float

    @property
    def conic(self) -> ConicCoeffs:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        ua, ub, uc = ct / self.ax, st / self.ax, -(self.cx * ct + self.cy * st) / self.ax
        va, vb, vc = -st / self.ay, ct / self.ay, (self.cx * st - self.cy * ct) / self.ay
        return ConicCoeffs(
            ua * ua + va * va,
            2.0 * (ua * ub + va * vb),
            ub * ub + vb * vb,
            2.0 * (ua * uc + va * vc),
            2.0 * (ub * uc + vb * vc),
            uc * uc + vc * vc - 1.0,
        )

    def point_at(self, t: float) -> Point2:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        return Point2(
            self.cx + self.ax * math.cos(t) * ct - self.ay * math.sin(t) * st,
            self.cy + self.ax * math.cos(t) * st + self.ay * math.sin(t) * ct,
        )

    def tangent_at(self, t: float):
        return conic_tangent(self.conic, self.point_at(t))


def random_ellipse(rng: np.random.Generator) -> Ellipse:
    return Ellipse(
        cx=rng.uniform(-0.5, 0.5),
        cy=rng.uniform(-0.5, 0.5),
        ax=rng.uniform(0.6, 1.6),
        ay=rng.uniform(0.6, 1.6),
        theta=rng.uniform(0.0, math.pi),
    )


def spaced_angles(rng: np.random.Generator, count: int,
                  min_gap: float = 0.35) -> np.ndarray:
    """Sorted angles on the circle with pairwise (cyclic) gaps above min_gap."""
    while True:
        ts = np.sort(rng.uniform(0.0, 2.0 * math.pi, count))
        gaps = np.diff(ts, append=ts[0] + 2.0 * math.pi)
        if np.all(gaps >= min_gap):
            return ts


@st.composite
def ellipse_tangents(draw, max_pairs):
    """2k tangent lines of a random ellipse with their points, k >= 1.

    The points sit at least 0.3 rad apart round the ellipse and pair up in a
    random order, so secants may cross; no secant passes through a point of
    another pair, since a line meets an ellipse at most twice.
    """
    k = draw(st.integers(1, max_pairs))
    ell = Ellipse(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)),
                  draw(st.floats(0.6, 1.6)), draw(st.floats(0.6, 1.6)),
                  draw(st.floats(0.0, math.pi)))
    gaps = draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k))
    free = 2.0 * math.pi - 0.3 * 2 * k
    start = draw(st.floats(0.0, 2.0 * math.pi))
    # g / sum first: free * g can round up among subnormals (free * 5e-324
    # is 6 * 5e-324), which put two points of [0.0, 5e-324] 0.017 rad apart
    ts = start + np.cumsum([0.3 + free * (g / (sum(gaps) or 1.0)) for g in gaps])
    ts = [ts[i] for i in draw(st.permutations(range(2 * k)))]
    return ell, [ell.tangent_at(t) for t in ts], [ell.point_at(t) for t in ts]
