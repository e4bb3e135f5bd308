"""Zero-set extraction on sampled grids, plus tangency verification.

Any object with ``value(Point2) -> float``, ``values(x, y)`` over numpy
arrays and ``gradient(Point2) -> GradientVec`` is a field here (see
:class:`FieldRef`); lines, conics, two-tangent blends and blends of k
tangent pairs all qualify.  ``values`` samples the whole lattice in one
call, and a lattice point holds NaN where the point value is non-finite or
evaluation fails.  Only the lattice needs numpy: :class:`GridSampling` and
:func:`sample_grid` import it when called, so point queries and
:func:`verify_tangency` run without it.  Sampled fields are contoured with
marching squares: one crossing per sign-change edge, linear interpolation
along the edge, ambiguous saddle cells resolved by the sign of a
cell-center sample.  The cell pass is plain Python over two lattice rows at
a time, read as lists of floats: four comparisons give a cell's case, and
the cells with no sign change, about 98% of a typical lattice, cost
nothing more.  Segments are chained into polylines through shared edge
crossings, which are keyed by edge so chains match exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

from .errors import FieldEvaluationError
from .geom import GradientVec, LineImplicit, Point2

if TYPE_CHECKING:
    import numpy as np

BOUNDS_INFLATE = 1.5      # default bounds: point bbox grown by 50%
BOUNDS_MIN_EXTENT = 1.0   # and no side shorter than this


class FieldRef(Protocol):
    """Evaluation contract shared by every curve object in the package.

    ``value`` and ``gradient`` take a point and do Python float arithmetic.
    ``values(x, y)`` takes numpy arrays that broadcast together and gives
    ``value`` element by element, NaN where ``value`` would raise
    FieldEvaluationError; :class:`GridSampling` also holds any other
    non-finite result as NaN.  Only ``values`` meets numpy, and only when
    a lattice is sampled.
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


@dataclass(frozen=True, eq=False)
class GridSampling:
    """Field values on an (N+1) x (N+1) lattice over a bounding rectangle.

    ``values[i, j]`` is the sample at x-index i, y-index j.  Lattice points
    where evaluation failed hold NaN, and so does any non-finite value given;
    cells touching them are skipped when contouring.  The sampled field is
    kept (when known) so saddle cells can be disambiguated by a true center
    sample.  ``values`` is held read-only: as a view when every value is
    finite, so the caller's array stays writable, else as a copy with NaN in
    place of each infinity.
    """

    bounds: Bounds
    resolution: int
    values: np.ndarray
    field: FieldRef | None = None

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2 cells per axis")
        import numpy as np
        values = np.asarray(self.values, dtype=float)
        expected = (self.resolution + 1, self.resolution + 1)
        if values.shape != expected:
            raise ValueError(f"expected values of shape {expected}, got {values.shape}")
        finite = np.isfinite(values)
        values = values.view() if finite.all() else np.where(finite, values, np.nan)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def step_x(self) -> float:
        return self.bounds.width / self.resolution

    @property
    def step_y(self) -> float:
        return self.bounds.height / self.resolution


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
    import numpy as np
    xs = np.linspace(bounds.xmin, bounds.xmax, resolution + 1)
    ys = np.linspace(bounds.ymin, bounds.ymax, resolution + 1)
    # an (N+1) x 1 column of x and a 1 x (N+1) row of y, which the field's
    # arithmetic broadcasts to the lattice
    x, y = np.meshgrid(xs, ys, indexing="ij", sparse=True)
    with np.errstate(all="ignore"):
        values = np.asarray(field.values(x, y), dtype=float)
    values = np.broadcast_to(values, (resolution + 1, resolution + 1))
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
    result is valid (no sign changes).  Cells with a NaN corner are skipped,
    so isolated evaluation failures punch at most four cells out of the
    picture.  Vertex coordinates are Python floats.
    """
    n = grid.resolution
    xmin = float(grid.bounds.xmin)
    ymin = float(grid.bounds.ymin)
    step_x = float(grid.step_x)
    step_y = float(grid.step_y)
    half_x = 0.5 * step_x
    half_y = 0.5 * step_y
    ys = [ymin + j * step_y for j in range(n + 1)]
    crossings: dict[tuple, Point2] = {}
    segments: list[tuple[tuple, tuple]] = []
    rows = grid.values
    lo = rows[0].tolist()  # lattice points (i, j) for all j
    for i in range(n):
        hi = rows[i + 1].tolist()  # lattice points (i+1, j)
        x0 = xmin + i * step_x
        for j in range(n):
            v00 = lo[j]
            v10 = hi[j]
            v11 = hi[j + 1]
            v01 = lo[j + 1]
            case = (v00 > 0.0) | (v10 > 0.0) << 1 | (v11 > 0.0) << 2 | (v01 > 0.0) << 3
            # NaN compares false, so a NaN corner never makes case 15
            if case == 0 or case == 15:
                continue
            if v00 != v00 or v10 != v10 or v11 != v11 or v01 != v01:
                continue
            y0 = ys[j]
            # the keys of edges B, R, T, L; an edge shared by two cells gets
            # the same key and the same point from both
            edges = {"B": ("h", i, j), "R": ("v", i + 1, j),
                     "T": ("h", i, j + 1), "L": ("v", i, j)}
            if (v00 > 0.0) != (v10 > 0.0):
                crossings[edges["B"]] = Point2(x0 + v00 / (v00 - v10) * step_x, y0)
            if (v10 > 0.0) != (v11 > 0.0):
                crossings[edges["R"]] = Point2(xmin + (i + 1) * step_x,
                                               y0 + v10 / (v10 - v11) * step_y)
            if (v01 > 0.0) != (v11 > 0.0):
                crossings[edges["T"]] = Point2(x0 + v01 / (v01 - v11) * step_x, ys[j + 1])
            if (v00 > 0.0) != (v01 > 0.0):
                crossings[edges["L"]] = Point2(x0, y0 + v00 / (v00 - v01) * step_y)
            if case == 5 or case == 10:
                sides = _saddle_segments(grid.field, Point2(x0 + half_x, y0 + half_y),
                                         (v00, v10, v11, v01), case)
            else:
                sides = _CASE_SEGMENTS[case]
            for side_a, side_b in sides:
                segments.append((edges[side_a], edges[side_b]))
        lo = hi

    return ContourSet(tuple(
        tuple(crossings[k] for k in chain)
        for chain in _chain_segments(segments)
    ))


def _saddle_segments(field: FieldRef | None, center: Point2, corners, case: int):
    """Resolve the two ambiguous cases by the sign of the field at the cell
    center, or of the corner mean when there is no field or it fails there."""
    center_positive = _center_sample(field, center, corners) > 0.0
    if case == 5:  # corners (i, j) and (i+1, j+1) positive
        if center_positive:
            return (("B", "R"), ("T", "L"))
        return (("L", "B"), ("R", "T"))
    if center_positive:
        return (("L", "B"), ("R", "T"))
    return (("B", "R"), ("T", "L"))


def _center_sample(field: FieldRef | None, center: Point2, corners) -> float:
    if field is not None:
        try:
            v = field.value(center)
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
