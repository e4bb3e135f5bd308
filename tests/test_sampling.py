"""Lattice sampling through ``values(x, y)`` against the point-by-point loop.

Every package field samples its lattice in one array call.  The arithmetic is
the same as that of the point call, so the lattice must equal a loop over
``value`` bit for bit, with NaN exactly where the point call raises or
returns a non-finite value.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicurve import (
    Bounds,
    ConicCoeffs,
    LimingSpec,
    LineImplicit,
    Point2,
    WeightTriple,
    four_tangent_patch,
    sample_grid,
    secant_line,
)
from implicurve.errors import FieldEvaluationError
from implicurve.ipatch import FORMS

from conftest import Ellipse, coords, crossing, forms, lines, pair_specs, weights


@st.composite
def bounds(draw):
    x0, y0 = draw(coords), draw(coords)
    w = draw(st.floats(0.1, 4.0))
    h = draw(st.floats(0.1, 4.0))
    return Bounds(x0, y0, x0 + w, y0 + h)


@st.composite
def conics(draw):
    cs = draw(st.tuples(*[coords] * 6).filter(lambda cs: any(cs)))
    return ConicCoeffs(*cs)


@st.composite
def four_tangent_patches(draw):
    ell = Ellipse(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)),
                  draw(st.floats(0.6, 1.6)), draw(st.floats(0.6, 1.6)),
                  draw(st.floats(0.0, math.pi)))
    ts = [base + draw(st.floats(-0.3, 0.3)) for base in (0.3, 1.9, 3.4, 4.9)]
    w = WeightTriple(draw(weights), draw(weights), draw(weights))
    return four_tangent_patch([ell.tangent_at(t) for t in ts],
                              [ell.point_at(t) for t in ts], w, draw(forms))


def blend_or_none(l1, l2, c, lam):
    try:
        return LimingSpec(l1, l2, c, lam)
    except ValueError:  # the blend of equal lines can vanish identically
        return None


two_tangent_blends = st.builds(blend_or_none, lines, lines, lines,
                               st.floats(0.01, 0.99)).filter(lambda s: s is not None)
fields = st.one_of(lines, conics(), pair_specs(), four_tangent_patches(), two_tangent_blends)


def pointwise(field, b: Bounds, n: int) -> np.ndarray:
    """Reference lattice: ``value`` at each point, NaN where it fails."""
    out = np.full((n + 1, n + 1), np.nan)
    xs = np.linspace(b.xmin, b.xmax, n + 1).tolist()
    ys = np.linspace(b.ymin, b.ymax, n + 1).tolist()
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            try:
                v = field.value(Point2(x, y))
            except FieldEvaluationError:
                continue
            if math.isfinite(v):
                out[i, j] = v
    return out


def assert_same_lattice(field, b: Bounds, n: int) -> None:
    want = pointwise(field, b, n).tobytes()
    assert sample_grid(field, b, n).values.tobytes() == want


@settings(max_examples=150, deadline=None)
@given(fields, bounds(), st.integers(2, 24))
def test_values_match_point_loop(field, b, n):
    assert_same_lattice(field, b, n)


def test_pole_lattice_matches_point_loop():
    # secants crossing at a lattice point: the normalized and faithful
    # denominators vanish there, and mixed-sign faithful weights add two
    # pole lines through it
    angles = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0, math.pi)
    points = [Point2(math.cos(t), math.sin(t)) for t in angles]
    tangents = [LineImplicit(math.cos(t), math.sin(t), -1.0) for t in angles]
    for w in (WeightTriple(1.0, 1.0, 1.0), WeightTriple(1.0, -1.0, 1.0)):
        for form in FORMS:
            spec = four_tangent_patch(tangents, points, w, form)
            pole = crossing(spec.c1, spec.c2)
            for n in (4, 16):
                b = Bounds(pole.x - 1, pole.y - 1, pole.x + 1, pole.y + 1)
                assert_same_lattice(spec, b, n)
                if form != "raw":
                    assert math.isnan(sample_grid(spec, b, n).values[n // 2, n // 2])


def test_overflow_matches_point_loop():
    # huge coefficients overflow to inf, and inf - inf to nan, away from the
    # axes; both become NaN on the lattice as they do in the point loop
    field = ConicCoeffs(1e308, 0.0, 1e308, 0.0, 0.0, -1e308)
    b = Bounds(-2, -2, 2, 2)
    assert_same_lattice(field, b, 8)
    values = sample_grid(field, b, 8).values
    assert np.isnan(values).any() and np.isfinite(values).any()


# SHA-256 of sample_grid(...).values.tobytes(), recorded with the point loop
# that sampled every lattice before array evaluation.  The axis-aligned
# scene files round exactly, so these generic configurations are what pin
# the blend's operation order; the pole lattices pin the NaN positions.
GOLDEN_GRID_SHA256 = {
    ((1.3, 0.7, -1.1), "raw"): "f47067a6d17e7eaadc118b94de87885e62439c4bfd6378fe9aeb67ba93d28082",
    ((1.3, 0.7, -1.1), "normalized"): "60391f684d4fc75945128fd6f428822bb19cda4070940c861c33a9bfe56337c7",
    ((1.3, 0.7, -1.1), "faithful"): "9ef725db996986bfe5b65cf4f7dc485fdb968e2058163651286d6ea46e64e18d",
    ((1.3, -0.7, -1.1), "raw"): "807d084a01cc294bcce1e05709e7a9f9aacd3e0e23319c3651f3c2a922fc497e",
    ((1.3, -0.7, -1.1), "normalized"): "90bd31cf618bb123f588cf6bac89b253cfe1c7d9dfa48cd2fa4fc1ce8211d7bd",
    ((1.3, -0.7, -1.1), "faithful"): "55cf069af4dce7f074bf25f63a7a9421b15427b7c38a667ec3f7c0e0a1c9638b",
    ("blend", None): "b8ea13ecd4f09e5640a6b1ddb413da378f7c3cf2ec8b8d248c0fded944f64b34",
    ("pole", "normalized"): "fa5f1357dd382047547f59c305af821eaf3169d5b833dc9449fadac18ae447d7",
    ("pole", "faithful"): "f2e75401d06433b4b080a85bc6f979091dc0defe79fa5bb8c04588140dcfeb19",
}


@pytest.mark.parametrize("case,form", list(GOLDEN_GRID_SHA256))
def test_lattice_matches_recorded_digest(case, form):
    if case == "pole":
        angles = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0, math.pi)
        points = [Point2(math.cos(t), math.sin(t)) for t in angles]
        tangents = [LineImplicit(math.cos(t), math.sin(t), -1.0) for t in angles]
        field = four_tangent_patch(tangents, points, WeightTriple(1.0, -1.0, 1.0), form)
        pole = crossing(field.c1, field.c2)
        b = Bounds(pole.x - 1, pole.y - 1, pole.x + 1, pole.y + 1)
        n = 16
    else:
        angles = (0.3, 1.9, 3.4, 4.9)
        points = [Point2(1.2 * math.cos(t), 0.8 * math.sin(t)) for t in angles]
        tangents = [LineImplicit(math.cos(t) / 1.2, math.sin(t) / 0.8, -1.0)
                    for t in angles]
        if case == "blend":
            field = LimingSpec(tangents[0], tangents[1],
                               secant_line(points[0], points[1]), 0.37)
        else:
            field = four_tangent_patch(tangents, points, WeightTriple(*case), form)
        b = Bounds(-1.9, -1.3, 1.7, 1.4)
        n = 64
    values = sample_grid(field, b, n).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == GOLDEN_GRID_SHA256[case, form]
