"""Zero-set extraction on sampled grids, plus tangency verification.

Any object with ``value(Point2) -> float``, ``values(x, y)`` over numpy
arrays and ``gradient(Point2) -> GradientVec`` is a field here (see
:class:`FieldRef`); lines, conics, two-tangent blends and blends of k
tangent pairs all qualify.  ``values`` samples the whole lattice in one
call, and a lattice point holds NaN where the point value is non-finite or
evaluation fails.  Sampled fields are contoured with marching squares: one
crossing per sign-change edge, linear interpolation along the edge,
ambiguous saddle cells resolved by the sign of a cell-center sample.
Segments are chained into polylines through shared edge crossings, which are
computed once per edge so chains match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import FieldEvaluationError
from .geom import GradientVec, LineImplicit, Point2

BOUNDS_INFLATE = 1.5      # default bounds: point bbox grown by 50%
BOUNDS_MIN_EXTENT = 1.0   # and no side shorter than this


class FieldRef(Protocol):
    """Evaluation contract shared by every curve object in the package.

    ``values(x, y)`` takes numpy arrays that broadcast together and gives
    ``value`` element by element, NaN where ``value`` would raise
    FieldEvaluationError; :func:`sample_grid` also turns any other
    non-finite result into NaN.
    """

    def value(self, p: Point2) -> float: ...

    def values(self, x: np.ndarray, y: np.ndarray) -> np.ndarray: ...

    def gradient(self, p: Point2) -> GradientVec: ...


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned rectangle (xmin, ymin) to (xmax, ymax)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self):
        vals = (self.xmin, self.ymin, self.xmax, self.ymax)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("bounds must be finite")
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("bounds must have positive extent")
        if not (math.isfinite(self.width) and math.isfinite(self.height)):
            raise ValueError("bounds extent overflows a float")

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    def center(self) -> Point2:
        return Point2(0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))

    @classmethod
    def around_points(cls, points) -> Bounds:
        """Bounding box of the points, inflated about its center by
        BOUNDS_INFLATE, each side at least BOUNDS_MIN_EXTENT long."""
        xs = [p.x for p in points]
        ys = [p.y for p in points]
        cx = 0.5 * (min(xs) + max(xs))
        cy = 0.5 * (min(ys) + max(ys))
        hx = max(0.5 * (max(xs) - min(xs)) * BOUNDS_INFLATE, 0.5 * BOUNDS_MIN_EXTENT)
        hy = max(0.5 * (max(ys) - min(ys)) * BOUNDS_INFLATE, 0.5 * BOUNDS_MIN_EXTENT)
        return cls(cx - hx, cy - hy, cx + hx, cy + hy)


class GridSampling:
    """Field values on an (N+1) x (N+1) lattice over a bounding rectangle.

    ``values[i, j]`` is the sample at x-index i, y-index j.  Lattice points
    where evaluation failed hold NaN; cells touching them are skipped when
    contouring.  The sampled field is kept (when known) so saddle cells can be
    disambiguated by a true center sample.
    """

    def __init__(self, bounds: Bounds, resolution: int, values,
                 field: FieldRef | None = None):
        if resolution < 2:
            raise ValueError("resolution must be at least 2 cells per axis")
        values = np.asarray(values, dtype=float)
        expected = (resolution + 1, resolution + 1)
        if values.shape != expected:
            raise ValueError(f"expected values of shape {expected}, got {values.shape}")
        self.bounds = bounds
        self.resolution = resolution
        self.values = values
        self.field = field

    @property
    def step_x(self) -> float:
        return self.bounds.width / self.resolution

    @property
    def step_y(self) -> float:
        return self.bounds.height / self.resolution

    def point_at(self, i: int, j: int) -> Point2:
        return Point2(self.bounds.xmin + i * self.step_x,
                      self.bounds.ymin + j * self.step_y)


@dataclass(frozen=True)
class ContourSet:
    """Extracted zero-set polylines; a polyline is closed iff its ends match."""

    polylines: tuple[tuple[Point2, ...], ...]

    @property
    def vertex_count(self) -> int:
        return sum(len(pl) for pl in self.polylines)

    def closed_count(self) -> int:
        return sum(1 for pl in self.polylines if len(pl) > 2 and pl[0] == pl[-1])


MAX_RESOLUTION = 2048  # cells per axis; a lattice is (N+1)^2 samples


def sample_grid(field: FieldRef, bounds: Bounds, resolution: int) -> GridSampling:
    """Sample the field on the lattice; failed evaluations become NaN.

    The field's ``values(x, y)`` evaluates the whole lattice in one call.
    Resolutions above MAX_RESOLUTION are rejected before anything is
    allocated.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2 cells per axis")
    if resolution > MAX_RESOLUTION:
        raise ValueError(
            f"resolution must be at most {MAX_RESOLUTION} cells per axis, got {resolution}")
    xs = np.linspace(bounds.xmin, bounds.xmax, resolution + 1)
    ys = np.linspace(bounds.ymin, bounds.ymax, resolution + 1)
    # an (N+1) x 1 column of x and a 1 x (N+1) row of y, which the field's
    # arithmetic broadcasts to the lattice
    x, y = np.meshgrid(xs, ys, indexing="ij", sparse=True)
    with np.errstate(all="ignore"):
        values = np.asarray(field.values(x, y), dtype=float)
    values = np.broadcast_to(values, (resolution + 1, resolution + 1))
    values = np.where(np.isfinite(values), values, np.nan)
    return GridSampling(bounds, resolution, values, field)


# corner bits: 1 = (i, j), 2 = (i+1, j), 4 = (i+1, j+1), 8 = (i, j+1)
# edges per cell: B(ottom), R(ight), T(op), L(eft)
_CASE_SEGMENTS = {
    0: (),
    1: (("L", "B"),),
    2: (("B", "R"),),
    3: (("L", "R"),),
    4: (("R", "T"),),
    6: (("B", "T"),),
    7: (("L", "T"),),
    8: (("T", "L"),),
    9: (("B", "T"),),
    11: (("R", "T"),),
    12: (("L", "R"),),
    13: (("B", "R"),),
    14: (("L", "B"),),
    15: (),
}


def trace_contours(grid: GridSampling) -> ContourSet:
    """Marching squares over the sampled grid.

    Emits one polyline per connected chain of cell-edge crossings.  An empty
    result is valid (no sign changes).  Cells with a non-finite corner are
    skipped, so isolated evaluation failures punch at most four cells out of
    the picture.
    """
    n = grid.resolution
    values = grid.values
    crossings: dict[tuple, Point2] = {}
    segments: list[tuple[tuple, tuple]] = []

    def edge_key(side: str, i: int, j: int) -> tuple:
        if side == "B":
            return ("h", i, j)
        if side == "T":
            return ("h", i, j + 1)
        if side == "L":
            return ("v", i, j)
        return ("v", i + 1, j)

    def crossing_point(key: tuple) -> Point2:
        pt = crossings.get(key)
        if pt is not None:
            return pt
        kind, i, j = key
        v0 = values[i, j]
        if kind == "h":
            v1 = values[i + 1, j]
        else:
            v1 = values[i, j + 1]
        t = v0 / (v0 - v1)
        p0 = grid.point_at(i, j)
        if kind == "h":
            pt = Point2(p0.x + t * grid.step_x, p0.y)
        else:
            pt = Point2(p0.x, p0.y + t * grid.step_y)
        crossings[key] = pt
        return pt

    half_x = 0.5 * grid.step_x
    half_y = 0.5 * grid.step_y
    for i in range(n):
        for j in range(n):
            corners = (values[i, j], values[i + 1, j],
                       values[i + 1, j + 1], values[i, j + 1])
            if any(math.isnan(v) for v in corners):
                continue
            case = 0
            for bit, v in enumerate(corners):
                if v > 0.0:
                    case |= 1 << bit
            if case in (0, 15):
                continue
            if case in (5, 10):
                sides = _saddle_segments(grid, i, j, corners, case, half_x, half_y)
            else:
                sides = _CASE_SEGMENTS[case]
            for side_a, side_b in sides:
                segments.append((edge_key(side_a, i, j), edge_key(side_b, i, j)))

    return ContourSet(tuple(
        tuple(crossing_point(k) for k in chain)
        for chain in _chain_segments(segments)
    ))


def _saddle_segments(grid: GridSampling, i: int, j: int, corners, case: int,
                     half_x: float, half_y: float):
    """Resolve the two ambiguous cases by the cell-center sample's sign."""
    center_positive = _center_sample(grid, i, j, corners, half_x, half_y) > 0.0
    if case == 5:  # corners (i, j) and (i+1, j+1) positive
        if center_positive:
            return (("B", "R"), ("T", "L"))
        return (("L", "B"), ("R", "T"))
    if center_positive:
        return (("L", "B"), ("R", "T"))
    return (("B", "R"), ("T", "L"))


def _center_sample(grid: GridSampling, i: int, j: int, corners,
                   half_x: float, half_y: float) -> float:
    if grid.field is not None:
        p0 = grid.point_at(i, j)
        try:
            v = grid.field.value(Point2(p0.x + half_x, p0.y + half_y))
            if math.isfinite(v):
                return v
        except FieldEvaluationError:
            pass
    return 0.25 * sum(corners)


def _chain_segments(segments):
    """Join segments into polylines through shared edge keys.

    Open chains are walked from their loose ends first; closed loops get
    their start vertex repeated at the end.
    """
    adjacency: dict[tuple, list[int]] = {}
    for idx, (ka, kb) in enumerate(segments):
        adjacency.setdefault(ka, []).append(idx)
        adjacency.setdefault(kb, []).append(idx)

    used = [False] * len(segments)

    def walk(start_key: tuple, seg_idx: int):
        chain = [start_key]
        key = start_key
        idx = seg_idx
        while True:
            used[idx] = True
            ka, kb = segments[idx]
            key = kb if key == ka else ka
            chain.append(key)
            nxt = None
            for cand in adjacency[key]:
                if not used[cand]:
                    nxt = cand
                    break
            if nxt is None:
                return chain
            idx = nxt

    chains = []
    for key, seg_ids in adjacency.items():
        if len(seg_ids) == 1 and not used[seg_ids[0]]:
            chains.append(walk(key, seg_ids[0]))
    for idx in range(len(segments)):
        if not used[idx]:
            chains.append(walk(segments[idx][0], idx))
    return chains


@dataclass(frozen=True)
class TangencyReport:
    """Outcome of a single tangency check.

    ``cross_residual`` is the 2-D cross product of the field gradient with
    the line's normal, scaled by the gradient norm.  When the gradient
    vanishes the direction is indeterminate: the report fails with
    ``cross_residual`` set to infinity rather than NaN.
    """

    value_residual: float
    cross_residual: float
    indeterminate: bool
    passed: bool


def verify_tangency(field: FieldRef, p: Point2, line: LineImplicit,
                    tol_value: float = 1e-8, tol_angle: float = 1e-8) -> TangencyReport:
    """Check that the field vanishes at p with gradient parallel to the line's.

    Raises ValueError for a negative or non-finite tolerance; evaluation
    failures yield a failed, indeterminate report.
    """
    # false for NaN as well
    if not (0.0 <= tol_value < math.inf and 0.0 <= tol_angle < math.inf):
        raise ValueError("tolerances must be finite and non-negative, got "
                         f"tol_value={tol_value!r}, tol_angle={tol_angle!r}")
    try:
        value_residual = abs(field.value(p))
        g = field.gradient(p)
    except FieldEvaluationError:
        return TangencyReport(math.inf, math.inf, True, False)
    gnorm = g.norm()
    if gnorm <= 1e-12:
        return TangencyReport(value_residual, math.inf, True, False)
    cross_residual = abs(g.gx * line.b - g.gy * line.a) / gnorm
    passed = value_residual <= tol_value and cross_residual <= tol_angle
    return TangencyReport(value_residual, cross_residual, False, passed)
