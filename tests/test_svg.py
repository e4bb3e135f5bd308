import math
import re
from xml.dom import minidom

from implicurve import (
    Bounds,
    ConicCoeffs,
    ContourSet,
    LineImplicit,
    Point2,
    emit_svg,
    sample_grid,
    trace_contours,
)

EMPTY = ContourSet(())
BOUNDS = Bounds(-1.5, -1.5, 1.5, 1.5)


def _count(svg, pattern):
    return len(re.findall(pattern, svg))


def circle_render():
    field = ConicCoeffs(1, 0, 1, 0, 0, -1)
    contours = trace_contours(sample_grid(field, BOUNDS, 64))
    tangents = [LineImplicit(-1, 0, 1), LineImplicit(0, -1, 1),
                LineImplicit(1, 0, 1), LineImplicit(0, 1, 1)]
    secants = [LineImplicit(-1, -1, 1), LineImplicit(1, 1, 1)]
    points = [Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1)]
    return emit_svg(contours, tangents, secants, points, BOUNDS)


class TestEmitSvg:
    def test_empty_scene_is_valid_minimal_svg(self):
        svg = emit_svg(EMPTY, [], [], [], BOUNDS)
        doc = minidom.parseString(svg)
        root = doc.documentElement
        assert root.tagName == "svg"
        children = [n for n in root.childNodes if n.nodeType == n.ELEMENT_NODE]
        assert [c.tagName for c in children] == ["rect"]

    def test_circle_scene_element_counts(self):
        svg = circle_render()
        minidom.parseString(svg)  # well-formed
        assert _count(svg, r'<line [^>]*stroke="#0000FF"') == 4
        assert _count(svg, r'<line [^>]*stroke="#FF0000"') == 2
        assert _count(svg, r'<polyline [^>]*stroke="#800080"') == 1
        assert _count(svg, r'<circle [^>]*fill="#000000"') == 4

    def test_deterministic_bytes(self):
        assert circle_render() == circle_render()

    def test_y_axis_flip(self):
        svg = emit_svg(EMPTY, [], [], [Point2(0.0, 1.0)], BOUNDS)
        assert 'cy="-1"' in svg
        assert 'viewBox="-1.5 -1.5 3 3"' in svg

    def test_boundary_line_emitted(self):
        svg = emit_svg(EMPTY, [LineImplicit(1, 0, 1.5)], [], [], BOUNDS)
        # x = -1.5 runs along the left edge, still visible
        assert _count(svg, r'<line ') == 1

    def test_line_clipped_to_bounds_whose_diagonal_squared_overflows(self):
        # width 2e200: width ** 2 overflows a float, the diagonal does not
        bounds = Bounds(-1e200, -1, 1e200, 1)
        svg = emit_svg(EMPTY, [LineImplicit(0, 1, 0)], [], [], bounds)
        assert 'x1="1e+200" y1="-0" x2="-1e+200" y2="-0"' in svg

    def test_line_missing_bounds_suppressed(self):
        svg = emit_svg(EMPTY, [LineImplicit(1, 0, -10)], [], [], BOUNDS)
        assert _count(svg, r'<line ') == 0

    def test_corner_touching_line_suppressed(self):
        # x + y = 3 meets the box only at its top-right corner
        svg = emit_svg(EMPTY, [LineImplicit(1, 1, -3)], [], [], BOUNDS)
        assert _count(svg, r'<line ') == 0

    def test_point_radius_fraction_of_viewport(self):
        svg = emit_svg(EMPTY, [], [], [Point2(0, 0)], BOUNDS)
        m = re.search(r'<circle [^>]*r="([0-9.e-]+)"', svg)
        assert m is not None
        assert math.isclose(float(m.group(1)), 0.005 * 3.0, rel_tol=1e-9)
