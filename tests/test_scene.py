from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from implicurve import (
    Point2,
    build_scene_field,
    parse_scene,
    serialize_scene,
)
from implicurve.errors import (
    ArityError,
    DuplicateName,
    ModeConflict,
    SceneSyntaxError,
    TangencyViolation,
    UnknownName,
)
from implicurve.ipatch import FORMS
from implicurve.scene import MODE_FOUR_TANGENT, MODE_LIMING

SCENES = Path(__file__).resolve().parent.parent / "scenes"
HEXAGON_SCENE = (SCENES / "pairs" / "hexagon.scene").read_text()

CIRCLE_SCENE = """\
# unit circle from four tangents
line l1 -1 0 1
line l2 0 -1 1
line l3 1 0 1
line l4 0 1 1
point p1 1 0
point p2 0 1
point p3 -1 0
point p4 0 -1
tangent l1 p1
tangent l2 p2
tangent l3 p3
tangent l4 p4
weights 2 2 -2
form normalized
"""

LIMING_SCENE = """\
line l1 -1 0 1
line l2 0 -1 1
point p1 1 0
point p2 0 1
tangent l1 p1
tangent l2 p2
secant c p1 p2
lambda 1/3
"""


class TestParse:
    def test_circle_scene(self):
        doc = parse_scene(CIRCLE_SCENE)
        assert doc.mode == MODE_FOUR_TANGENT
        assert len(doc.lines) == 4 and len(doc.points) == 4
        assert doc.weights == (2.0, 2.0, -2.0)
        assert doc.form == "normalized"
        assert doc.lam is None

    def test_liming_scene(self):
        doc = parse_scene(LIMING_SCENE)
        assert doc.mode == MODE_LIMING
        assert doc.lam == pytest.approx(1.0 / 3.0)
        assert doc.form == "normalized"  # default

    def test_rational_weights(self):
        doc = parse_scene(CIRCLE_SCENE.replace(
            "weights 2 2 -2", "weights 4/9 4/9 32/81"))
        assert doc.weights == (float(Fraction(4, 9)), float(Fraction(4, 9)),
                               float(Fraction(32, 81)))
        assert doc.weights[0] == pytest.approx(0.4444444444444444)
        assert doc.weights[2] == pytest.approx(0.3950617283950617)

    def test_round_trip_is_fixed_point(self):
        for text in (CIRCLE_SCENE, LIMING_SCENE):
            doc = parse_scene(text)
            again = parse_scene(serialize_scene(doc))
            assert again == doc
            assert serialize_scene(again) == serialize_scene(doc)

    def test_comment_and_blank_lines_ignored(self):
        doc = parse_scene("\n# nothing\n\n" + LIMING_SCENE + "\n   # tail\n")
        assert doc.mode == MODE_LIMING


class TestParseErrors:
    def test_unknown_tangent_line(self):
        with pytest.raises(UnknownName):
            parse_scene(CIRCLE_SCENE.replace("tangent l1 p1", "tangent L9 p1"))

    def test_unknown_point(self):
        with pytest.raises(UnknownName):
            parse_scene(LIMING_SCENE.replace("secant c p1 p2", "secant c p1 zz"))

    def test_duplicate_line_name(self):
        with pytest.raises(DuplicateName):
            parse_scene("line a 1 0 0\nline a 0 1 0\n" + CIRCLE_SCENE)

    def test_duplicate_tangent_binding(self):
        with pytest.raises(DuplicateName):
            parse_scene(CIRCLE_SCENE.replace("tangent l2 p2",
                                             "tangent l1 p2"))

    def test_mode_conflict_both(self):
        with pytest.raises(ModeConflict):
            parse_scene(CIRCLE_SCENE + "lambda 0.5\n")

    def test_mode_conflict_neither(self):
        with pytest.raises(ModeConflict):
            parse_scene("line l 1 0 0\n")

    def test_arity_wrong_tangent_count(self):
        with pytest.raises(ArityError):
            parse_scene(CIRCLE_SCENE.replace("tangent l4 p4\n", ""))

    def test_unknown_directive(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse_scene("line l 1 0 0\nfrobnicate 1\n")
        assert err.value.line == 2

    def test_bad_number_reports_position(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse_scene("point p 1 oops\n")
        assert err.value.line == 1
        assert err.value.column is not None

    def test_bad_rational(self):
        with pytest.raises(SceneSyntaxError):
            parse_scene("lambda 1/0\n")

    def test_rational_beyond_float_range(self):
        huge = "1" + "0" * 400 + "/1"
        with pytest.raises(SceneSyntaxError) as err:
            parse_scene(f"line l1 -1 0 {huge}\n")
        assert (err.value.line, err.value.column) == (1, 14)
        assert str(err.value) == f"line 1, col 14: bad number {huge!r}"

    def test_wrong_argument_count(self):
        with pytest.raises(SceneSyntaxError):
            parse_scene("point p 1\n")

    def test_bad_form(self):
        with pytest.raises(SceneSyntaxError):
            parse_scene(CIRCLE_SCENE.replace("form normalized", "form fancy"))

    def test_pair_in_liming_mode(self):
        with pytest.raises(ModeConflict):
            parse_scene(LIMING_SCENE + "pair l1 l2 | l1 l2\n")

    def test_liming_secant_must_join_the_tangency_points(self):
        with pytest.raises(ModeConflict):
            parse_scene(LIMING_SCENE.replace("secant c p1 p2",
                                             "point p3 -1 0\nsecant c p1 p3"))
        # a chord is a set of points, so either order joins them
        parse_scene(LIMING_SCENE.replace("secant c p1 p2", "secant c p2 p1"))


class TestPairing:
    def test_pair_reorders_lines(self):
        doc = parse_scene(CIRCLE_SCENE + "pair l3 l4 | l1 l2\n")
        scene = build_scene_field(doc)
        assert scene.tangent_lines[0].a == 1  # l3 first now
        assert scene.tangency_points[0] == Point2(-1, 0)

    def test_pair_unknown_line(self):
        with pytest.raises(UnknownName):
            parse_scene(CIRCLE_SCENE + "pair l3 l4 | l1 zz\n")

    def test_pair_repeated_line(self):
        with pytest.raises(ModeConflict):
            parse_scene(CIRCLE_SCENE + "pair l1 l2 | l1 l2\n")


class TestThreePairs:
    def test_hexagon_scene(self):
        doc = parse_scene(HEXAGON_SCENE)
        assert doc.mode == MODE_FOUR_TANGENT
        assert doc.weights == (4.0, 4.0, 4.0, -12.0)
        scene = build_scene_field(doc)
        assert len(scene.secant_lines) == 3
        assert scene.field.value(Point2(0.3, 0.2)) == pytest.approx(0.87, abs=1e-12)

    def test_three_pair_directive(self):
        doc = parse_scene(HEXAGON_SCENE + "pair l3 l4 | l5 l6 | l1 l2\n")
        assert doc.pairing == ("l3", "l4", "l5", "l6", "l1", "l2")
        assert "pair l3 l4 | l5 l6 | l1 l2\n" in serialize_scene(doc)
        scene = build_scene_field(doc)
        assert scene.tangency_points[0] == doc.point_named("p3")

    def test_matching_secants_accepted(self):
        text = HEXAGON_SCENE + "secant a p2 p1\nsecant b p5 p6\nsecant c p3 p4\n"
        assert len(build_scene_field(parse_scene(text)).secant_lines) == 3

    @pytest.mark.parametrize("extra,error", [
        ("pair l1 l2 | l3 l4\n", ModeConflict),
        ("pair l1 l2 | l3 l4 | l5\n", SceneSyntaxError),
        ("pair l1 l2 | l3 l4 , l5 l6\n", SceneSyntaxError),
        ("secant a p1 p2\nsecant b p3 p4\n", ArityError),
        ("secant a p1 p2\nsecant b p3 p4\nsecant c p2 p1\n", ModeConflict),
    ])
    def test_pairing_and_secants_checked(self, extra, error):
        with pytest.raises(error):
            parse_scene(HEXAGON_SCENE + extra)

    def test_weights_count_fixes_the_tangency_count(self):
        with pytest.raises(ArityError):
            parse_scene(HEXAGON_SCENE.replace("weights 4 4 4 -12", "weights 4 4 -12"))
        with pytest.raises(SceneSyntaxError):
            parse_scene(HEXAGON_SCENE.replace("weights 4 4 4 -12", "weights 4 -12"))


finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(finite.map(repr), st.tuples(st.integers(-99, 99), st.integers(1, 99))
                    .map(lambda pq: f"{pq[0]}/{pq[1]}"))


@st.composite
def scene_texts(draw):
    """Scene text in either mode; tangent-pair scenes have k = 2 to 4 pairs,
    an optional ``pair`` directive and 0 or k secants."""
    k = draw(st.one_of(st.none(), st.integers(2, 4)))
    n = 2 if k is None else 2 * k
    out = []
    for i in range(n):
        a, b = draw(st.tuples(numbers, numbers).filter(
            lambda ab: float(Fraction(ab[0])) != 0.0 or float(Fraction(ab[1])) != 0.0))
        out.append(f"line l{i} {a} {b} {draw(numbers)}")
        out.append(f"point p{i} {draw(numbers)} {draw(numbers)}")
    order = draw(st.permutations(range(n)))
    out += [f"tangent l{i} p{i}" for i in order]
    if k is not None and draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        pairs = zip(order[::2], order[1::2])
        out.append("pair " + " | ".join(f"l{a} l{b}" for a, b in pairs))
    chords = list(zip(order[::2], order[1::2]))
    if k is None or draw(st.booleans()):
        for s, (a, b) in enumerate(draw(st.permutations(chords))):
            a, b = draw(st.permutations((a, b)))
            out.append(f"secant c{s} p{a} p{b}")
    if k is None:
        out.append(f"lambda {draw(numbers)}")
    else:
        out.append("weights " + " ".join(draw(numbers) for _ in range(k + 1)))
    if draw(st.booleans()):
        out.append(f"form {draw(st.sampled_from(FORMS))}")
    return "\n".join(out) + "\n"


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(scene_texts())
    def test_serialize_then_parse_gives_the_same_doc(self, text):
        doc = parse_scene(text)
        again = parse_scene(serialize_scene(doc))
        assert again == doc
        assert serialize_scene(again) == serialize_scene(doc)


class TestSecantsInFourTangentMode:
    def test_matching_secants_accepted(self):
        doc = parse_scene(CIRCLE_SCENE
                          + "secant c1 p1 p2\nsecant c2 p3 p4\n")
        scene = build_scene_field(doc)
        assert len(scene.secant_lines) == 2

    def test_secant_joining_wrong_points(self):
        with pytest.raises(ModeConflict):
            parse_scene(CIRCLE_SCENE + "secant c1 p1 p3\nsecant c2 p2 p4\n")

    def test_single_secant_rejected(self):
        with pytest.raises(ArityError):
            parse_scene(CIRCLE_SCENE + "secant c1 p1 p2\n")


class TestBuildField:
    def test_four_tangent_field_values(self):
        scene = build_scene_field(parse_scene(CIRCLE_SCENE))
        assert scene.field.value(Point2(0, 0)) == pytest.approx(1.0)
        assert scene.field.value(Point2(1, 0)) == pytest.approx(0.0, abs=1e-14)

    def test_liming_field_values(self):
        scene = build_scene_field(parse_scene(LIMING_SCENE))
        assert scene.field.value(Point2(1, 0)) == pytest.approx(0.0, abs=1e-14)
        assert scene.field.value(Point2(0, 0)) == pytest.approx(1.0 / 3.0)

    def test_tangency_binding_violation(self):
        bad = CIRCLE_SCENE.replace("point p2 0 1", "point p2 0 0.99")
        with pytest.raises(TangencyViolation):
            build_scene_field(parse_scene(bad))

    def test_liming_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            build_scene_field(parse_scene(LIMING_SCENE.replace(
                "lambda 1/3", "lambda 1.5")))

    def test_default_bounds_inflate_tangency_bbox(self):
        scene = build_scene_field(parse_scene(CIRCLE_SCENE))
        b = scene.default_bounds()
        assert (b.xmin, b.ymin, b.xmax, b.ymax) == (-1.5, -1.5, 1.5, 1.5)
