"""Seeded inputs for the workloads: scene texts and solver configurations.

Pure Python on purpose: generating inputs neither imports numpy nor touches
implicurve, so the set-up time measured around ``import implicurve`` holds
the whole import, and no input is built by the code under test.

Ellipses, spaced tangency angles and tangent orientation follow
tests/conftest.py and the two-tangent recovery suite: tangent lines carry a
unit normal pointing into the ellipse, so a two-tangent blend of them has its
parameter in (0, 1).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

FORMS = ("raw", "normalized", "faithful")
HOSTILE_EVERY = 10  # every tenth generated job of a hostile workload is hostile
QUERY_POINTS = 32

# recover_lambda searches its sample along 64 rays from the chord midpoint,
# ray k at angle (k + 0.5) * 2 pi / 64.  When a pair's chord lies within about
# 0.5 degrees of the first ray, the sample found can sit so close to a
# tangency point that the recovered parameter misses the 1e-9 identity check
# (the ``recover-search-sample`` defect); solve jobs keep their chords
# SEARCH_RAY_MARGIN away from that ray, and the defect probe right next to it.
FIRST_SEARCH_RAY = math.pi / 64
SEARCH_RAY_MARGIN = math.radians(1.5)
SEARCH_RAY_DEFECT = (math.radians(0.05), math.radians(0.35))

# hostile jobs rotate through these expected error codes
RENDER_HOSTILE = ("SyntaxError", "TangencyViolation", "DegenerateSecant")
SOLVE_HOSTILE = ("NotTangent", "DegenerateInput", "TangencyViolation",
                 "DegenerateSecant")


@dataclass(frozen=True)
class Ellipse:
    cx: float
    cy: float
    ax: float
    ay: float
    theta: float

    def conic(self) -> tuple[float, ...]:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        ua, ub, uc = ct / self.ax, st / self.ax, -(self.cx * ct + self.cy * st) / self.ax
        va, vb, vc = -st / self.ay, ct / self.ay, (self.cx * st - self.cy * ct) / self.ay
        return (ua * ua + va * va, 2.0 * (ua * ub + va * vb), ub * ub + vb * vb,
                2.0 * (ua * uc + va * vc), 2.0 * (ub * uc + vb * vc),
                uc * uc + vc * vc - 1.0)

    def point_at(self, t: float) -> tuple[float, float]:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        return (self.cx + self.ax * math.cos(t) * ct - self.ay * math.sin(t) * st,
                self.cy + self.ax * math.cos(t) * st + self.ay * math.sin(t) * ct)

    def tangent_at(self, t: float) -> tuple[float, float, float]:
        """Tangent line (a, b, c) at the point of angle t, unit normal inward."""
        a, b, c, d, e, _ = self.conic()
        x, y = self.point_at(t)
        gx, gy = 2.0 * a * x + b * y + d, 2.0 * c * y + b * x + e
        n = math.hypot(gx, gy)  # the conic is negative inside, so -g points in
        return (-gx / n, -gy / n, (gx * x + gy * y) / n)


def random_ellipse(rng: random.Random) -> Ellipse:
    return Ellipse(cx=rng.uniform(-0.5, 0.5), cy=rng.uniform(-0.5, 0.5),
                   ax=rng.uniform(0.6, 1.6), ay=rng.uniform(0.6, 1.6),
                   theta=rng.uniform(0.0, math.pi))


def spaced_angles(rng: random.Random, count: int, min_gap: float = 0.35) -> list[float]:
    """Sorted angles with pairwise cyclic gaps of at least min_gap."""
    while True:
        ts = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(count))
        gaps = [b - a for a, b in zip(ts, ts[1:])] + [ts[0] + 2.0 * math.pi - ts[-1]]
        if min(gaps) >= min_gap:
            return ts


def _weights(rng: random.Random, k: int, pole: bool | None = None) -> tuple[float, float, float]:
    """Magnitudes uniform in [0.25, 3]; the eight sign patterns taken in turn.

    With ``pole`` given, the pair weights w1 and w2 get opposite signs (True)
    or the same sign (False), whatever the pattern says.
    """
    signs = [k >> bit & 1 for bit in range(3)]
    if pole is not None:
        signs[1] = signs[0] ^ pole
    return tuple(rng.uniform(0.25, 3.0) * (-1.0 if sign else 1.0) for sign in signs)


# -- render jobs ----------------------------------------------------------

@dataclass(frozen=True)
class RenderJob:
    text: str
    kind: str              # a form, "liming", or the scene file's stem
    expect: str | None     # error code a hostile job must raise


def _scene(lines, points, tail) -> str:
    out = [f"line l{i} {a!r} {b!r} {c!r}" for i, (a, b, c) in enumerate(lines, 1)]
    out += [f"point p{i} {x!r} {y!r}" for i, (x, y) in enumerate(points, 1)]
    out += [f"tangent l{i} p{i}" for i in range(1, len(lines) + 1)]
    return "\n".join(out + tail) + "\n"


def _four_tangent(rng: random.Random):
    ell = random_ellipse(rng)
    ts = spaced_angles(rng, 4)
    return [ell.tangent_at(t) for t in ts], [ell.point_at(t) for t in ts]


def _render_scene(rng: random.Random, kind: str, k: int, pole: bool = False) -> str:
    """A generated scene; a faithful one has its pole lines in view only with ``pole``.

    Opposite-sign pair weights make the faithful denominator
    ``w1*C2^2 + w2*C1^2`` change sign along lines through C1∩C2, and the
    tracer draws that sign flip as a zero (the ``faithful-pole`` defect), so
    the op stream takes same-sign pair weights for faithful scenes and
    ``pole_jobs`` the opposite ones.
    """
    if kind == "liming":
        ell = random_ellipse(rng)
        ts = spaced_angles(rng, 2, min_gap=0.6)
        return _scene([ell.tangent_at(t) for t in ts], [ell.point_at(t) for t in ts],
                      ["secant c p1 p2", f"lambda {rng.uniform(0.05, 0.95)!r}"])
    lines, points = _four_tangent(rng)
    w = _weights(rng, k, pole if kind == "faithful" else None)
    return _scene(lines, points, [f"weights {w[0]!r} {w[1]!r} {w[2]!r}", f"form {kind}"])


def _hostile_scene(rng: random.Random, code: str) -> str:
    lines, points = _four_tangent(rng)
    tail = ["weights 2 2 -2", "form normalized"]
    if code == "SyntaxError":
        text = _scene(lines, points, tail).splitlines()
        i = rng.randrange(8)  # a line or point declaration
        text[i] = text[i] + "q"  # its last number becomes an unparseable token
        return "\n".join(text) + "\n"
    if code == "TangencyViolation":
        i = rng.randrange(4)
        a, b, _ = lines[i]
        x, y = points[i]
        points[i] = (x + 1e-3 * a, y + 1e-3 * b)  # off its line along the normal
    else:  # DegenerateSecant: the first pair shares its tangency point
        a, b, _ = lines[0]
        x, y = points[0]
        phi = rng.uniform(0.4, 1.2)
        a2 = a * math.cos(phi) - b * math.sin(phi)
        b2 = a * math.sin(phi) + b * math.cos(phi)
        lines[1] = (a2, b2, -(a2 * x + b2 * y))
        points[1] = (x, y)
    return _scene(lines, points, tail)


def scene_files(root: Path) -> list[RenderJob]:
    return [RenderJob(p.read_text(encoding="utf-8"), p.stem, None)
            for p in sorted((root / "scenes").glob("*.scene"))]


def render_jobs(key: str, files: list[RenderJob], hostile: bool):
    """The scene files first, then generated scenes in a fixed rotation.

    Kinds rotate raw, normalized, faithful, liming; with ``hostile`` every
    tenth generated job is a hostile scene instead.  No job falls in the
    domain of a known defect (see ``pole_jobs``).
    """
    rng = random.Random(key)
    yield from files
    kinds = FORMS + ("liming",)
    k = made = 0
    while True:
        if hostile and k % HOSTILE_EVERY == HOSTILE_EVERY - 1:
            code = RENDER_HOSTILE[(k // HOSTILE_EVERY) % len(RENDER_HOSTILE)]
            yield RenderJob(_hostile_scene(rng, code), "hostile", code)
        else:
            kind = kinds[made % len(kinds)]
            yield RenderJob(_render_scene(rng, kind, made // len(kinds)), kind, None)
            made += 1
        k += 1


def pole_jobs(key: str):
    """Faithful scenes with opposite-sign pair weights, for the defect probe."""
    rng = random.Random(key)
    k = 0
    while True:
        yield RenderJob(_render_scene(rng, "faithful", k, pole=True), "faithful", None)
        k += 1


# -- solve jobs -----------------------------------------------------------

@dataclass(frozen=True)
class SolveJob:
    conic: tuple[float, ...]
    lines: tuple[tuple[float, float, float], ...]
    points: tuple[tuple[float, float], ...]
    query: tuple[tuple[float, float], ...]
    samples: tuple[tuple[float, float], ...]  # per pair, a curve point between its tangency points
    expect: str | None


def _search_ray_offset(points) -> float:
    """Smallest angle between a pair's chord and the first search ray, mod pi."""
    offsets = []
    for (x1, y1), (x2, y2) in (points[:2], points[2:]):
        d = (math.atan2(y2 - y1, x2 - x1) - FIRST_SEARCH_RAY) % math.pi
        offsets.append(min(d, math.pi - d))
    return min(offsets)


def solve_jobs(key: str, ray_offset: tuple[float, float] | None = None):
    """Ellipse configurations; every tenth one is hostile.

    By default no pair's chord lies within SEARCH_RAY_MARGIN of the first
    search ray.  With ``ray_offset = (lo, hi)`` only configurations whose
    nearest chord is lo to hi radians off that ray are made, none hostile:
    the defect probe's inputs.
    """
    rng = random.Random(key)
    k = 0
    while True:
        ell = random_ellipse(rng)
        ts = spaced_angles(rng, 4)
        points = [ell.point_at(t) for t in ts]
        offset = _search_ray_offset(points)
        if (offset < SEARCH_RAY_MARGIN if ray_offset is None
                else not ray_offset[0] <= offset <= ray_offset[1]):
            continue
        lines = [ell.tangent_at(t) for t in ts]
        conic = ell.conic()
        samples = (ell.point_at(0.5 * (ts[0] + ts[1])), ell.point_at(0.5 * (ts[2] + ts[3])))
        query = tuple((rng.uniform(ell.cx - 2.0, ell.cx + 2.0),
                       rng.uniform(ell.cy - 2.0, ell.cy + 2.0))
                      for _ in range(QUERY_POINTS))
        expect = None
        if ray_offset is None and k % HOSTILE_EVERY == HOSTILE_EVERY - 1:
            expect = SOLVE_HOSTILE[(k // HOSTILE_EVERY) % len(SOLVE_HOSTILE)]
            if expect == "NotTangent":
                scale = max(abs(v) for v in conic)
                conic = conic[:5] + (conic[5] + 0.05 * scale,)
            elif expect == "DegenerateInput":
                points[2] = points[0]
            elif expect == "TangencyViolation":
                a, b, _ = lines[3]
                x, y = points[3]
                points[3] = (x + 1e-3 * a, y + 1e-3 * b)
            else:  # DegenerateSecant
                lines[1], points[1] = lines[0], points[0]
        yield SolveJob(conic, tuple(lines), tuple(points), query, samples, expect)
        k += 1
