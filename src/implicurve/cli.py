"""Command-line interface: render, eval, verify, reproduce, fit.

Exit codes: 0 on success, 1 for parse/validation/math errors (message
prefixed ``error[CODE]:``), 2 for I/O problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .conicfit import TangentConstraint, fit_conic_two_tangents_one_point
from .contour import Bounds, sample_grid, trace_contours, verify_tangency
from .errors import CurveError, ModeConflict
from .geom import ConicCoeffs, GradientVec, Point2
from .ipatch import reproduce_conic_weights
from .scene import MODE_LIMING, _ordered_tangents, build_scene_field, parse_real, parse_scene
from .svgout import emit_svg


def _num_list(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} expects {count} comma-separated numbers")
    return [parse_real(p.strip()) for p in parts]


def _load_scene(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return build_scene_field(parse_scene(text))


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def cmd_render(args) -> int:
    scene = _load_scene(args.scene)
    if args.bounds is not None:
        bounds = Bounds(*_num_list(args.bounds, 4, "--bounds"))
    else:
        bounds = scene.default_bounds()
    grid = sample_grid(scene.field, bounds, args.grid)
    contours = trace_contours(grid)
    svg = emit_svg(contours, scene.tangent_lines, scene.secant_lines,
                   scene.tangency_points, bounds)
    out = args.out if args.out is not None else str(Path(args.scene).with_suffix(".svg"))
    Path(out).write_text(svg, encoding="utf-8")
    doc = scene.doc
    if doc.mode == MODE_LIMING:
        setting = f"lambda={_fmt(doc.lam)}"
    else:
        setting = "weights=" + ",".join(_fmt(w) for w in doc.weights)
    print(f"mode={doc.mode} {setting} vertices={contours.vertex_count} out={out}")
    return 0


def cmd_eval(args) -> int:
    scene = _load_scene(args.scene)
    x, y = _num_list(args.at, 2, "--at")
    p = Point2(x, y)
    value = scene.field.value(p)
    grad = scene.field.gradient(p)
    print(f"value {_fmt(value)}")
    print(f"gradient {_fmt(grad.gx)} {_fmt(grad.gy)}")
    return 0


def cmd_verify(args) -> int:
    scene = _load_scene(args.scene)
    names = [n for n, _ in _ordered_tangents(scene.doc)]
    points = scene.tangency_points
    # every report before the first line of output, so bad tolerances print none
    reports = [verify_tangency(scene.field, pt, line,
                               tol_value=args.tol_value, tol_angle=args.tol_angle)
               for line, pt in zip(scene.tangent_lines, points)]
    print(f"{'line':<10}{'point':<24}{'value_resid':<16}{'cross_resid':<16}status")
    passed = 0
    for name, pt, report in zip(names, points, reports):
        cross = "indeterminate" if report.indeterminate else f"{report.cross_residual:.3e}"
        status = "pass" if report.passed else "FAIL"
        passed += report.passed
        print(f"{name:<10}{f'({_fmt(pt.x)}, {_fmt(pt.y)})':<24}"
              f"{report.value_residual:<16.3e}{cross:<16}{status}")
    print(f"{passed}/{len(reports)} tangencies pass")
    return 0 if passed == len(reports) else 1


def cmd_reproduce(args) -> int:
    scene = _load_scene(args.scene)
    if scene.doc.mode == MODE_LIMING:
        raise ModeConflict("reproduce requires a four-tangent scene")
    conic = ConicCoeffs(*_num_list(args.conic, 6, "--conic"))
    w = tuple(reproduce_conic_weights(conic, scene.tangent_lines, scene.tangency_points))
    mixed = " + ".join(f"omega{i}*lambda{i}" for i in range(1, len(w)))
    print("weights " + " ".join(_fmt(v) for v in w))
    print(f"# convention: w0 = -({mixed}); the blends subtract the squared secant")
    return 0


def cmd_fit(args) -> int:
    constraints = []
    for spec in args.tangent:
        x, y, dx, dy = _num_list(spec, 4, "--tangent")
        constraints.append(TangentConstraint(Point2(x, y), GradientVec(dx, dy)))
    if len(constraints) != 2:
        raise ValueError("--tangent must be given exactly twice")
    x, y = _num_list(args.point, 2, "--point")
    conic = fit_conic_two_tangents_one_point(constraints[0], constraints[1],
                                             Point2(x, y))
    print("conic " + " ".join(_fmt(v) for v in conic.coeffs()))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implicurve",
        description="Implicit planar curves from prescribed tangent lines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("render", help="render a scene to SVG")
    p.add_argument("scene")
    p.add_argument("--bounds", help="xmin,ymin,xmax,ymax (default: inflated point bbox)")
    p.add_argument("--grid", type=int, default=512, help="cells per axis (default 512)")
    p.add_argument("--out", help="output SVG path (default: scene path with .svg)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("eval", help="evaluate the scene's field at a point")
    p.add_argument("scene")
    p.add_argument("--at", required=True, help="x,y")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="check the scene's tangency conditions")
    p.add_argument("scene")
    p.add_argument("--tol-value", type=float, default=1e-8)
    p.add_argument("--tol-angle", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce",
                       help="solve for weights reproducing a conic on the scene's tangents")
    p.add_argument("scene")
    p.add_argument("--conic", required=True, help="a,b,c,d,e,f")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("fit",
                       help="fit a conic to two tangential constraints and a point")
    p.add_argument("--tangent", action="append", required=True,
                   help="x,y,dx,dy (give twice)")
    p.add_argument("--point", required=True, help="x,y")
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CurveError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error[Validation]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
