"""One op per workload, driven through the public API only.

Every public call goes through ``tracer.call(name, fn, *args)``; the name is
``<module>.<function>`` of the layer it enters.  An untraced run passes a
tracer whose ``call`` only forwards, so both runs execute the same code.

A render op reproduces ``implicurve render`` call for call (parse, build,
default bounds, sample, trace, emit, summary line) with scene text in and
SVG text out.  A solve op runs the inverse solvers and point queries on one
ellipse configuration.  A hostile job makes only the call that must refuse
it; its error propagates to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

from implicurve import (
    Bounds,
    ConicCoeffs,
    ContourSet,
    GradientVec,
    LimingSpec,
    LineImplicit,
    Point2,
    SceneField,
    TangencyReport,
    TangentConstraint,
    WeightTriple,
    build_scene_field,
    emit_svg,
    fit_conic_two_tangents_one_point,
    four_tangent_patch,
    parse_scene,
    recover_lambda,
    reproduce_conic_weights,
    sample_grid,
    trace_contours,
    verify_tangency,
)
from implicurve.contour import GridSampling

from gen import RenderJob, SolveJob


class Untraced:
    def call(self, name, fn, *args):
        return fn(*args)


@dataclass
class RenderOut:
    scene: SceneField
    bounds: Bounds
    grid: GridSampling
    contours: ContourSet
    svg: str
    summary: str


def render(job: RenderJob, cells: int, tr) -> RenderOut:
    doc = tr.call("scene.parse_scene", parse_scene, job.text)
    scene = tr.call("scene.build_scene_field", build_scene_field, doc)
    bounds = scene.default_bounds()
    grid = tr.call("contour.sample_grid", sample_grid, scene.field, bounds, cells)
    contours = tr.call("contour.trace_contours", trace_contours, grid)
    svg = tr.call("svgout.emit_svg", emit_svg, contours, scene.tangent_lines,
                  scene.secant_lines, scene.tangency_points, bounds)
    if doc.lam is not None:
        setting = f"lambda={doc.lam:.12g}"
    else:
        setting = "weights=" + ",".join(f"{w:.12g}" for w in doc.weights)
    summary = f"mode={doc.mode} {setting} vertices={contours.vertex_count}"
    return RenderOut(scene, bounds, grid, contours, svg, summary)


@dataclass
class SolveOut:
    weights: WeightTriple
    c1: LineImplicit
    reports: list[TangencyReport]
    values: list[float]
    gradients: list[GradientVec]
    lam: float
    omega: float
    liming_values: list[float]
    liming_gradients: list[GradientVec]
    fit: ConicCoeffs


def _constraint(line: LineImplicit, p: Point2) -> TangentConstraint:
    return TangentConstraint(p, GradientVec(line.a, line.b))


def solve(job: SolveJob, tr) -> SolveOut:
    q = ConicCoeffs(*job.conic)
    lines = [LineImplicit(*abc) for abc in job.lines]
    points = [Point2(*xy) for xy in job.points]
    if job.expect is not None:
        return _hostile_solve(job.expect, q, lines, points, tr)

    w = tr.call("ipatch.reproduce_conic_weights", reproduce_conic_weights, q, lines, points)
    patch = tr.call("ipatch.four_tangent_patch", four_tangent_patch, lines, points, w,
                    "normalized")
    reports = [tr.call("contour.verify_tangency", verify_tangency, patch, p, line)
               for line, p in zip(lines, points)]
    query = [Point2(*xy) for xy in job.query]
    values = [tr.call("ipatch.point_eval", patch.value, p) for p in query]
    gradients = [tr.call("ipatch.point_eval", patch.gradient, p) for p in query]
    rec = tr.call("liming.recover_lambda", recover_lambda, q, lines[0], lines[1], patch.c1)
    blend = LimingSpec(lines[0], lines[1], patch.c1, rec.lam)
    liming_values = [tr.call("liming.point_eval", blend.value, p) for p in query]
    liming_gradients = [tr.call("liming.point_eval", blend.gradient, p) for p in query]
    fit = tr.call("conicfit.fit_conic_two_tangents_one_point",
                  fit_conic_two_tangents_one_point, _constraint(lines[0], points[0]),
                  _constraint(lines[1], points[1]), points[2])
    return SolveOut(w, patch.c1, reports, values, gradients, rec.lam, rec.omega,
                    liming_values, liming_gradients, fit)


def _hostile_solve(code: str, q, lines, points, tr):
    if code == "DegenerateInput":
        return tr.call("conicfit.fit_conic_two_tangents_one_point",
                       fit_conic_two_tangents_one_point, _constraint(lines[0], points[0]),
                       _constraint(lines[1], points[1]), points[2])
    if code == "TangencyViolation":
        return tr.call("ipatch.four_tangent_patch", four_tangent_patch, lines, points,
                       WeightTriple(2.0, 2.0, -2.0), "normalized")
    # NotTangent (perturbed conic) and DegenerateSecant (shared pair point)
    return tr.call("ipatch.reproduce_conic_weights", reproduce_conic_weights,
                   q, lines, points)
