"""Deterministic SVG rendering of contours, tangent lines and secants.

Styling follows the package's plotting convention: tangent lines blue,
secants (cutting lines) red, extracted curves purple, tangency points as
filled black dots.  The viewBox matches the requested bounds with the y-axis
flipped to mathematical orientation; identical inputs produce byte-identical
documents.
"""

from __future__ import annotations

import math
from typing import Sequence

from .contour import Bounds, ContourSet
from .geom import LineImplicit, Point2

TANGENT_STROKE = "#0000FF"
SECANT_STROKE = "#FF0000"
CURVE_STROKE = "#800080"
POINT_FILL = "#000000"
BACKGROUND_FILL = "#FFFFFF"

POINT_RADIUS_FRACTION = 0.005   # 0.5% of the larger viewport extent
LINE_WIDTH_FRACTION = 0.004
CURVE_WIDTH_FRACTION = 0.006


def _fmt(v: float) -> str:
    return f"{v:.9g}"


def _clip_line(line: LineImplicit, bounds: Bounds) -> tuple[Point2, Point2] | None:
    """Segment of an infinite line inside the bounds, or None if it misses."""
    n = line.normal_norm()
    center = bounds.center()
    # foot of the perpendicular from the center; direction along the line
    offset = line.value(center) / (n * n)
    px = center.x - offset * line.a
    py = center.y - offset * line.b
    dx = -line.b / n
    dy = line.a / n

    diag = math.hypot(bounds.width, bounds.height)
    t_lo, t_hi = -diag, diag
    for p0, d, lo, hi in ((px, dx, bounds.xmin, bounds.xmax),
                          (py, dy, bounds.ymin, bounds.ymax)):
        if abs(d) < 1e-15:
            if not (lo <= p0 <= hi):
                return None
            continue
        t0 = (lo - p0) / d
        t1 = (hi - p0) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_lo = max(t_lo, t0)
        t_hi = min(t_hi, t1)
    if t_hi - t_lo < 1e-9 * max(bounds.width, bounds.height):
        return None
    return (Point2(px + t_lo * dx, py + t_lo * dy),
            Point2(px + t_hi * dx, py + t_hi * dy))


def emit_svg(contours: ContourSet, tangents: Sequence[LineImplicit],
             secants: Sequence[LineImplicit], points: Sequence[Point2],
             bounds: Bounds) -> str:
    """Render one SVG 1.1 document as text.

    Lines are clipped to the bounds and dropped when the visible piece is
    degenerate.  Emission order is background, tangents, secants, curve
    polylines, tangency points.
    """
    span = max(bounds.width, bounds.height)
    line_width = LINE_WIDTH_FRACTION * span
    curve_width = CURVE_WIDTH_FRACTION * span
    point_radius = POINT_RADIUS_FRACTION * span

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
         f'viewBox="{_fmt(bounds.xmin)} {_fmt(-bounds.ymax)} '
         f'{_fmt(bounds.width)} {_fmt(bounds.height)}">'),
        (f'<rect x="{_fmt(bounds.xmin)}" y="{_fmt(-bounds.ymax)}" '
         f'width="{_fmt(bounds.width)}" height="{_fmt(bounds.height)}" '
         f'fill="{BACKGROUND_FILL}"/>'),
    ]

    for stroke, width, lines in ((TANGENT_STROKE, line_width, tangents),
                                 (SECANT_STROKE, line_width, secants)):
        for line in lines:
            seg = _clip_line(line, bounds)
            if seg is None:
                continue
            p, q = seg
            parts.append(
                f'<line x1="{_fmt(p.x)}" y1="{_fmt(-p.y)}" '
                f'x2="{_fmt(q.x)}" y2="{_fmt(-q.y)}" '
                f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    for polyline in contours.polylines:
        if len(polyline) < 2:
            continue
        coords = " ".join(f"{_fmt(p.x)},{_fmt(-p.y)}" for p in polyline)
        parts.append(
            f'<polyline points="{coords}" fill="none" '
            f'stroke="{CURVE_STROKE}" stroke-width="{_fmt(curve_width)}"/>')

    for p in points:
        parts.append(
            f'<circle cx="{_fmt(p.x)}" cy="{_fmt(-p.y)}" '
            f'r="{_fmt(point_radius)}" fill="{POINT_FILL}"/>')

    parts.append('</svg>')
    return "\n".join(parts) + "\n"
