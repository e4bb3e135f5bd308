"""Output checks and per-op counts, computed outside the timed region.

Each op gets a Verdict: passed or failed with a cause.  Checks use their own
arithmetic on the returned values wherever the property allows it; the raw
oracle of a render comes from ``expand_to_polynomial`` (four-tangent scenes)
or the two-tangent conic, evaluated with numpy on the render's lattice.

Two causes name known defects of the program, each diagnosed before it is
given; the workloads keep clear of their inputs and the defect probe in
run.py aims at them:

``faithful-pole``  With mixed-sign weights the faithful denominator
    ``w1*C2^2 + w2*C1^2`` changes sign along lines through C1∩C2 and the
    tracer draws those sign flips as zeros.  A faithful render fails with
    this cause when every vertex off the raw zero set lies in a stencil where
    the denominator changes sign.
``recover-search-sample``  ``reproduce_conic_weights`` raised RecoveryFailed
    or ``recover_lambda`` raised NotReproducible on a configuration tangent
    by construction, and ``recover_lambda`` given a curve point between each
    pair's tangency points succeeds for both pairs.  The searched sample
    accepts ``|L1*L2|`` down to 1e-6, close enough to a tangency point that
    the blend parameter misses the 1e-9 identity check.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from implicurve import (
    ConicCoeffs,
    LimingSpec,
    LineImplicit,
    Point2,
    WeightTriple,
    expand_to_polynomial,
    four_tangent_patch,
    liming_conic,
    parse_scene,
    recover_lambda,
    secant_line,
)
from implicurve.errors import CurveError

SVG_NS = "{http://www.w3.org/2000/svg}"


@dataclass
class Verdict:
    ok: bool
    cause: str | None = None
    counts: dict[str, float] = field(default_factory=dict)


def _error_verdict(expect: str | None, err: Exception | None) -> Verdict | None:
    """Verdict decided by the error alone, or None when outputs need checking."""
    code = getattr(err, "code", type(err).__name__) if err is not None else None
    if expect is None:
        return None if err is None else Verdict(False, f"error:{code}")
    if err is None:
        return Verdict(False, f"no-error:{expect}")
    if not isinstance(err, CurveError) or code != expect:
        return Verdict(False, f"wrong-code:{code}-for-{expect}")
    return Verdict(True)


# -- render ---------------------------------------------------------------

def _stencil_any(mask: np.ndarray) -> np.ndarray:
    """Per cell (i, j): mask holds somewhere on lattice points i-1..i+2, j-1..j+2."""
    return sliding_window_view(np.pad(mask, 1, mode="edge"), (4, 4)).any(axis=(2, 3))


def _sign_change(values: np.ndarray) -> np.ndarray:
    return _stencil_any(values > 0.0) & _stencil_any(values <= 0.0)


def _oracle(text: str):
    """Raw field and, for the faithful form, its denominator, as numpy functions."""
    doc = parse_scene(text)
    lines = [doc.line_named(n) for n, _ in doc.tangents]
    points = [doc.point_named(p) for _, p in doc.tangents]
    if doc.lam is not None:
        _, p, q = doc.secants[0]
        c = secant_line(doc.point_named(p), doc.point_named(q))
        k = liming_conic(LimingSpec(lines[0], lines[1], c, doc.lam))
        return (lambda x, y: (k.a * x + k.b * y + k.d) * x + (k.c * y + k.e) * y + k.f), None
    weights = WeightTriple(*doc.weights)
    raw = expand_to_polynomial(four_tangent_patch(lines, points, weights, "raw"))
    if doc.form != "faithful":
        return raw, None
    c1 = secant_line(points[0], points[1])
    c2 = secant_line(points[2], points[3])
    return raw, lambda x, y: (weights.w1 * (c2.a * x + c2.b * y + c2.c) ** 2
                              + weights.w2 * (c1.a * x + c1.b * y + c1.c) ** 2)


def render_counts(out) -> dict[str, float]:
    v = out.grid.values
    corners = (v[:-1, :-1], v[1:, :-1], v[1:, 1:], v[:-1, 1:])
    valid = ~np.any([np.isnan(c) for c in corners], axis=0)
    case = sum((c > 0.0).astype(int) << bit for bit, c in enumerate(corners))
    cells = out.grid.resolution ** 2
    contours = out.contours
    return {
        "contour.sample_grid.points": v.size,
        "contour.sample_grid.nan_points": int(np.isnan(v).sum()),
        "contour.trace_contours.cells": cells,
        "contour.trace_contours.crossing_cells": int((valid & (case != 0) & (case != 15)).sum()),
        "contour.trace_contours.saddle_cells": int((valid & ((case == 5) | (case == 10))).sum()),
        "contour.trace_contours.polylines": len(contours.polylines),
        "contour.trace_contours.closed_polylines": contours.closed_count(),
        "contour.trace_contours.vertices": contours.vertex_count,
        "svgout.emit_svg.bytes": len(out.svg.encode("utf-8")),
    }


def _svg_cause(out) -> str | None:
    try:
        root = ET.fromstring(out.svg)
    except ET.ParseError:
        return "svg-not-xml"
    drawn = root.findall(f"{SVG_NS}polyline")
    if [len(p.get("points", "").split()) for p in drawn] != \
            [len(pl) for pl in out.contours.polylines]:
        return "svg-polyline-mismatch"
    return None


def check_render(job, out, err, rerendered: str | None) -> Verdict:
    """One segment per crossing, vertices on the raw zero set, SVG well
    formed, re-render identical."""
    verdict = _error_verdict(job.expect, err)
    if verdict is not None:
        return verdict
    counts = render_counts(out)
    grid = out.grid
    n = grid.resolution
    b = out.bounds
    x, y = np.meshgrid(np.linspace(b.xmin, b.xmax, n + 1),
                       np.linspace(b.ymin, b.ymax, n + 1), indexing="ij")
    raw_fn, den_fn = _oracle(job.text)
    raw = raw_fn(x, y)
    verts = np.array([(p.x, p.y) for pl in out.contours.polylines for p in pl])
    bad = np.zeros(0, dtype=bool)
    at_pole = None
    if len(verts):
        i = np.clip(np.floor((verts[:, 0] - b.xmin) / grid.step_x), 0, n - 1).astype(int)
        j = np.clip(np.floor((verts[:, 1] - b.ymin) / grid.step_y), 0, n - 1).astype(int)
        # a vertex where the raw field vanishes to rounding lies on the zero set
        # even when the curve only touches the lattice there (a tangency point
        # that falls on a lattice point)
        on_zero = np.abs(raw_fn(verts[:, 0], verts[:, 1])) <= 1e-12 * np.abs(raw).max()
        bad = ~(_sign_change(raw)[i, j] | on_zero)
        if den_fn is not None:
            at_pole = bad & _sign_change(den_fn(x, y))[i, j]
    counts["contour.trace_contours.bad_vertices"] = int(bad.sum())

    # each crossing cell gives one segment, each saddle cell two
    segments = sum(len(pl) - 1 for pl in out.contours.polylines)
    cause = None
    if segments != (counts["contour.trace_contours.crossing_cells"]
                    + counts["contour.trace_contours.saddle_cells"]):
        cause = "segments-not-crossings"
    cause = cause or _svg_cause(out)
    if cause is None and rerendered is not None and rerendered != out.svg:
        cause = "svg-not-deterministic"
    if cause is None and bad.any():
        pole_only = at_pole is not None and int(at_pole.sum()) == int(bad.sum())
        cause = "faithful-pole" if pole_only else "vertex-off-zero-set"
    return Verdict(cause is None, cause, counts)


# -- solve ----------------------------------------------------------------

def _conic(k, x, y):
    a, b, c, d, e, f = k
    return ((a * x + b * y + d) * x + (c * y + e) * y + f,
            2.0 * a * x + b * y + d, 2.0 * c * y + b * x + e)


def _line_product(u, v):
    (ua, ub, uc), (va, vb, vc) = u, v
    return (ua * va, ua * vb + va * ub, ub * vb, ua * vc + va * uc, ub * vc + vb * uc, uc * vc)


def _matches(got_v, got_g, want_v, want_gx, want_gy, rtol: float) -> bool:
    """Values and gradients equal to the wanted field times one best-fit scale."""
    s = float(got_v @ want_v) / float(want_v @ want_v)
    scale = max(np.abs(got_v).max(), np.abs(got_g).max())
    return (s != 0.0
            and np.abs(got_v - s * want_v).max() <= rtol * scale
            and np.abs(got_g[:, 0] - s * want_gx).max() <= rtol * scale
            and np.abs(got_g[:, 1] - s * want_gy).max() <= rtol * scale)


def _recovers_from_given_samples(job) -> bool:
    q = ConicCoeffs(*job.conic)
    lines = [LineImplicit(*abc) for abc in job.lines]
    points = [Point2(*xy) for xy in job.points]
    try:
        for k, sample in enumerate(job.samples):
            i, j = 2 * k, 2 * k + 1
            recover_lambda(q, lines[i], lines[j], secant_line(points[i], points[j]),
                           Point2(*sample))
    except CurveError:
        return False
    return True


def check_solve(job, out, err) -> Verdict:
    """Tangencies pass; patch, blend and fit agree with the ellipse."""
    verdict = _error_verdict(job.expect, err)
    if verdict is not None:
        if (verdict.cause in ("error:RecoveryFailed", "error:NotReproducible")
                and _recovers_from_given_samples(job)):
            verdict.cause = "recover-search-sample"
        return verdict
    if not all(r.passed for r in out.reports):
        return Verdict(False, "tangency-failed")

    qx, qy = np.array(job.query).T
    qv, qgx, qgy = _conic(job.conic, qx, qy)
    grads = np.array([(g.gx, g.gy) for g in out.gradients])
    if not _matches(np.array(out.values), grads, qv, qgx, qgy, 1e-7):
        return Verdict(False, "reproduce-mismatch")

    # recover_lambda: (1 - t) * L1 * L2 - t * C1^2 == omega * Q, coefficient-wise
    c1 = (out.c1.a, out.c1.b, out.c1.c)
    blend = [(1.0 - out.lam) * u - out.lam * v for u, v in zip(
        _line_product(job.lines[0], job.lines[1]), _line_product(c1, c1))]
    target = [out.omega * v for v in job.conic]
    coeff_scale = max(max(map(abs, blend)), max(map(abs, target)))
    if max(abs(u - v) for u, v in zip(blend, target)) > 1e-8 * coeff_scale:
        return Verdict(False, "recover-identity")
    lgrads = np.array([(g.gx, g.gy) for g in out.liming_gradients])
    if not _matches(np.array(out.liming_values), lgrads, qv, qgx, qgy, 1e-7):
        return Verdict(False, "recover-identity")

    # fit meets points 1..3 and the tangencies at points 1 and 2
    fit = out.fit.coeffs()
    fscale = max(map(abs, fit))
    px, py = np.array(job.points[:3]).T
    fv, fgx, fgy = _conic(fit, px, py)
    reach = max(1.0, float(np.abs(np.concatenate([px, py])).max()) ** 2)
    if np.abs(fv).max() > 1e-7 * fscale * reach:
        return Verdict(False, "fit-constraint")
    for k in range(2):
        a, b, _ = job.lines[k]
        if abs(fgx[k] * b - fgy[k] * a) > 1e-7 * np.hypot(fgx[k], fgy[k]):
            return Verdict(False, "fit-constraint")
    return Verdict(True)
