"""Shared test helpers: finite differences, random conic factories and
hypothesis strategies for lines and patches."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from implicurve import ConicCoeffs, IPatchSpec, LineImplicit, Point2, conic_tangent_line_at
from implicurve.ipatch import FORMS

coords = st.floats(-2.0, 2.0, allow_nan=False)
weights = st.floats(-3.0, 3.0, allow_nan=False)
forms = st.sampled_from(FORMS)
lines = st.tuples(coords, coords, coords).filter(
    lambda abc: math.hypot(abc[0], abc[1]) > 1e-3).map(lambda abc: LineImplicit(*abc))


@st.composite
def ipatches(draw):
    """n-sided patches, n from 1 to 3, with one- and two-line ribbons."""
    n = draw(st.integers(1, 3))
    ribbons = [tuple(draw(st.lists(lines, min_size=1, max_size=2))) for _ in range(n)]
    return IPatchSpec(ribbons, [draw(lines) for _ in range(n)],
                      [draw(weights) for _ in range(n)], draw(weights), draw(forms))


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
        return conic_tangent_line_at(self.conic, self.point_at(t))


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
