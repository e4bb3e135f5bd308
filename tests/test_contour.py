import math

import numpy as np
import pytest

from implicurve import (
    Bounds,
    ConicCoeffs,
    GridSampling,
    LineImplicit,
    Point2,
    WeightTriple,
    four_tangent_patch,
    sample_grid,
    trace_contours,
    verify_tangency,
)
from implicurve.ipatch import NORMALIZED, RAW

from conftest import crossing

CIRCLE_FIELD = ConicCoeffs(1, 0, 1, 0, 0, -1)  # x^2 + y^2 - 1


def crossing_secant_patch(form=RAW, weights=WeightTriple(1.0, 1.0, 1.0)):
    angles = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0, math.pi)
    points = [Point2(math.cos(t), math.sin(t)) for t in angles]
    lines = [LineImplicit(math.cos(t), math.sin(t), -1.0) for t in angles]
    return four_tangent_patch(lines, points, weights, form)


class TestBounds:
    def test_extent_must_be_positive(self):
        with pytest.raises(ValueError):
            Bounds(0, 0, 0, 1)
        with pytest.raises(ValueError):
            Bounds(0, 2, 1, 1)

    def test_extent_must_be_finite(self):
        # finite corners whose difference overflows
        with pytest.raises(ValueError):
            Bounds(-1e308, -1, 1e308, 1)
        with pytest.raises(ValueError):
            Bounds(-1, -1e308, 1, 1e308)

    def test_around_points_inflates(self):
        b = Bounds.around_points([Point2(-1, 0), Point2(1, 0),
                                  Point2(0, -1), Point2(0, 1)])
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (-1.5, -1.5, 1.5, 1.5)


class TestSampleGrid:
    def test_circle_corner_value(self):
        grid = sample_grid(CIRCLE_FIELD, Bounds(-2, -2, 2, 2), 4)
        assert grid.values[0, 0] == 7.0  # 4 + 4 - 1

    def test_constant_field(self):
        grid = sample_grid(ConicCoeffs(0, 0, 0, 0, 0, 1), Bounds(-1, -1, 1, 1), 4)
        assert np.all(grid.values == 1.0)

    def test_pole_becomes_nan_neighbors_survive(self):
        spec = crossing_secant_patch(NORMALIZED)
        pole = crossing(spec.c1, spec.c2)
        bounds = Bounds(pole.x - 1, pole.y - 1, pole.x + 1, pole.y + 1)
        grid = sample_grid(spec, bounds, 4)  # pole is the center lattice point
        assert math.isnan(grid.values[2, 2])
        assert math.isfinite(grid.values[1, 2])
        assert math.isfinite(grid.values[2, 1])
        # contouring still works, skipping the four cells around the pole
        trace_contours(grid)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            sample_grid(CIRCLE_FIELD, Bounds(-1, -1, 1, 1), 1)

    def test_resolution_ceiling_checked_before_allocation(self):
        # 10**9 cells per axis would need 8e18 bytes; the bound must refuse
        # it by its own message, not numpy's "array is too big"
        with pytest.raises(ValueError, match="at most 2048 cells"):
            sample_grid(CIRCLE_FIELD, Bounds(-1, -1, 1, 1), 10**9)


class TestTraceContours:
    def test_circle_single_closed_polyline(self):
        grid = sample_grid(CIRCLE_FIELD, Bounds(-2, -2, 2, 2), 256)
        contours = trace_contours(grid)
        assert len(contours.polylines) == 1
        poly = contours.polylines[0]
        assert poly[0] == poly[-1]
        diag = math.hypot(grid.step_x, grid.step_y)
        for p in poly:
            r = math.hypot(p.x, p.y)
            assert abs(r - 1.0) < 2 * diag
        assert max(abs(math.hypot(p.x, p.y) - 1.0) for p in poly) < 0.05

    def test_all_positive_grid_is_empty(self):
        grid = sample_grid(ConicCoeffs(0, 0, 0, 0, 0, 1), Bounds(-1, -1, 1, 1), 8)
        assert trace_contours(grid).polylines == ()

    def test_linear_field_exact_vertical_line(self):
        grid = sample_grid(LineImplicit(1, 0, -0.5), Bounds(0, 0, 1, 1), 8)
        contours = trace_contours(grid)
        assert len(contours.polylines) == 1
        poly = contours.polylines[0]
        assert poly[0] != poly[-1]  # open
        for p in poly:
            assert p.x == pytest.approx(0.5, abs=1e-12)
        ys = [p.y for p in poly]
        assert min(ys) == 0.0 and max(ys) == 1.0

    def test_vertex_residual_bounded_by_cell_lipschitz(self):
        grid = sample_grid(CIRCLE_FIELD, Bounds(-2, -2, 2, 2), 64)
        contours = trace_contours(grid)
        h = math.hypot(grid.step_x, grid.step_y)
        for poly in contours.polylines:
            for p in poly:
                k = CIRCLE_FIELD.gradient(p).norm() + 2 * h  # max over the cell
                assert abs(CIRCLE_FIELD.value(p)) <= k * h

    def test_error_non_increasing_when_doubling(self):
        bounds = Bounds(-2, -2, 2, 2)
        errors = []
        for n in (64, 128, 256):
            contours = trace_contours(sample_grid(CIRCLE_FIELD, bounds, n))
            errors.append(max(abs(math.hypot(p.x, p.y) - 1.0)
                              for pl in contours.polylines for p in pl))
        assert errors[1] <= errors[0] and errors[2] <= errors[1]


class _StubField:
    """Constant-value stand-in for center sampling in saddle cells."""

    def __init__(self, center_value):
        self.center_value = center_value

    def value(self, p):
        return self.center_value

    def gradient(self, p):
        raise NotImplementedError


class TestSaddleDisambiguation:
    # alternating lattice: every cell has its positive corners on a diagonal
    VALUES = np.array([
        [1.0, -1.0, 1.0],
        [-1.0, 1.0, -1.0],
        [1.0, -1.0, 1.0],
    ])

    def _segments(self, field):
        grid = GridSampling(Bounds(0, 0, 2, 2), 2, self.VALUES, field)
        return trace_contours(grid)

    def test_center_sign_switches_pairing(self):
        joined = self._segments(_StubField(1.0))
        separated = self._segments(_StubField(-1.0))
        # positive centers: four open chains bending around the negative
        # corners; negative centers: four corner cuts plus a closed diamond
        assert sorted(len(pl) for pl in joined.polylines) == [3, 3, 3, 3]
        assert sorted(len(pl) for pl in separated.polylines) == [2, 2, 2, 2, 5]
        assert separated.closed_count() == 1

    def test_corner_mean_fallback(self):
        grid = GridSampling(Bounds(0, 0, 2, 2), 2, self.VALUES, None)
        separated = self._segments(_StubField(-1.0))
        fallback = trace_contours(grid)
        # corner mean is negative here, matching the negative-center branch
        assert sorted(tuple((p.x, p.y) for p in pl) for pl in fallback.polylines) == \
            sorted(tuple((p.x, p.y) for p in pl) for pl in separated.polylines)

    def test_hyperbola_with_true_field(self):
        # xy - eps has a saddle at the origin cell; with the field available
        # the two branches must not get cross-connected
        class Hyperbola:
            def value(self, p):
                return p.x * p.y - 1e-3

            def values(self, x, y):
                return x * y - 1e-3

            def gradient(self, p):
                raise NotImplementedError

        grid = sample_grid(Hyperbola(), Bounds(-1, -1, 1, 1), 4)
        contours = trace_contours(grid)
        for pl in contours.polylines:
            signs = {math.copysign(1.0, p.x + p.y) for p in pl if p.x + p.y != 0}
            assert len(signs) == 1  # each branch stays in one quadrant pair


class TestVerifyTangency:
    def test_circle_patch_tangency_passes(self):
        spec = four_tangent_patch(
            (LineImplicit(-1, 0, 1), LineImplicit(0, -1, 1),
             LineImplicit(1, 0, 1), LineImplicit(0, 1, 1)),
            (Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1)),
            WeightTriple(2, 2, -2), RAW)
        report = verify_tangency(spec, Point2(1, 0), LineImplicit(-1, 0, 1),
                                 tol_value=1e-12, tol_angle=1e-12)
        assert report.passed
        assert report.value_residual < 1e-12
        assert report.cross_residual < 1e-12

    def test_off_curve_point_fails(self):
        spec = four_tangent_patch(
            (LineImplicit(-1, 0, 1), LineImplicit(0, -1, 1),
             LineImplicit(1, 0, 1), LineImplicit(0, 1, 1)),
            (Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1)),
            WeightTriple(2, 2, -2), RAW)
        report = verify_tangency(spec, Point2(0, 0), LineImplicit(-1, 0, 1))
        assert not report.passed
        assert report.value_residual == pytest.approx(2.0)

    def test_zero_gradient_is_indeterminate(self):
        spec = four_tangent_patch(
            (LineImplicit(-1, 0, 1), LineImplicit(0, -1, 1),
             LineImplicit(1, 0, 1), LineImplicit(0, 1, 1)),
            (Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1)),
            WeightTriple(0, 0, 1), RAW)
        report = verify_tangency(spec, Point2(1, 0), LineImplicit(-1, 0, 1))
        assert report.indeterminate
        assert not report.passed
        assert math.isinf(report.cross_residual)
        assert not math.isnan(report.cross_residual)

    def test_evaluation_failure_yields_failed_report(self):
        spec = crossing_secant_patch(NORMALIZED)
        pole = crossing(spec.c1, spec.c2)
        report = verify_tangency(spec, pole, LineImplicit(1, 0, -1))
        assert not report.passed and report.indeterminate

    @pytest.mark.parametrize("tols", [
        {"tol_value": math.nan}, {"tol_value": -1.0},
        {"tol_angle": math.inf}, {"tol_angle": -0.5},
    ])
    def test_bad_tolerance_is_rejected(self, tols):
        spec = crossing_secant_patch(NORMALIZED)
        with pytest.raises(ValueError, match="tolerances must be finite and non-negative"):
            verify_tangency(spec, Point2(1, 0), LineImplicit(-1, 0, 1), **tols)
