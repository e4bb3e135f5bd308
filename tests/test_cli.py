import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import implicurve
from implicurve import parse_scene, build_scene_field
from implicurve.cli import main

from conftest import crossing

SCENES = Path(__file__).resolve().parent.parent / "scenes"
CIRCLE = str(SCENES / "circle.scene")
LIMING = str(SCENES / "liming.scene")
HEXAGON = str(SCENES / "pairs" / "hexagon.scene")
CIRCLE_TEXT = (SCENES / "circle.scene").read_text()


def crossing_scene_text():
    """Four-tangent scene on the unit circle whose secants intersect."""
    angles = (0.0, 2.0 * math.pi / 3.0, math.pi / 3.0, math.pi)
    out = []
    for k, t in enumerate(angles, start=1):
        out.append(f"line l{k} {math.cos(t)!r} {math.sin(t)!r} -1")
        out.append(f"point p{k} {math.cos(t)!r} {math.sin(t)!r}")
    for k in range(1, 5):
        out.append(f"tangent l{k} p{k}")
    out.append("weights 1 1 1")
    out.append("form normalized")
    return "\n".join(out) + "\n"


# SHA-256 of the SVG written by `render SCENE --grid 256`, recorded before
# lattice sampling moved to array evaluation; the circle scene is also drawn
# in its other two forms (the scene file is the normalized one)
GOLDEN_SVG_SHA256 = {
    ("circle", None): "9566ee943970fe0a2839f4fa8e10bfe859701c608d793b39cad105bc0fdd4899",
    ("liming", None): "92173a675398de355b50e52adb9848cab43339a9c6403e7d7d5ec75ea5364fd5",
    ("circle", "raw"): "3ad9bcd054706ea5601da9d0d9ea36e90cf201e74204c6d24161789ff1283620",
    ("circle", "faithful"): "9566ee943970fe0a2839f4fa8e10bfe859701c608d793b39cad105bc0fdd4899",
}


class TestRender:
    @pytest.mark.parametrize("scene,form", sorted(GOLDEN_SVG_SHA256, key=str))
    def test_golden_svg(self, tmp_path, scene, form):
        path = SCENES / f"{scene}.scene"
        if form is not None:
            path = tmp_path / f"{scene}-{form}.scene"
            path.write_text(CIRCLE_TEXT.replace("form normalized", f"form {form}"))
        out = tmp_path / "out.svg"
        assert main(["render", str(path), "--grid", "256", "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_SVG_SHA256[scene, form]

    def test_grid_above_bound_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "big.svg"
        assert main(["render", CIRCLE, "--grid", "2049", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error[Validation]:")
        assert not out.exists()

    def test_circle_scene(self, tmp_path, capsys):
        out = tmp_path / "circle.svg"
        assert main(["render", CIRCLE, "--grid", "128", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("mode=four-tangent weights=2,2,-2 ")
        svg = out.read_text()
        assert len(re.findall(r'<line [^>]*stroke="#0000FF"', svg)) == 4
        assert len(re.findall(r'<line [^>]*stroke="#FF0000"', svg)) == 2
        assert len(re.findall(r'<polyline [^>]*stroke="#800080"', svg)) == 1

    def test_byte_deterministic(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for out in (a, b):
            assert main(["render", CIRCLE, "--grid", "96", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_liming_scene(self, tmp_path, capsys):
        out = tmp_path / "liming.svg"
        assert main(["render", LIMING, "--grid", "96", "--out", str(out)]) == 0
        assert "mode=liming lambda=0.333333333333" in capsys.readouterr().out

    def test_missing_scene_exits_2(self, tmp_path, capsys):
        assert main(["render", str(tmp_path / "nope.scene")]) == 2
        assert capsys.readouterr().err.startswith("error[IO]:")

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "x.svg"
        assert main(["render", CIRCLE, "--grid", "8", "--out", str(target)]) == 2

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.scene"
        bad.write_text("frobnicate\n")
        assert main(["render", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[SyntaxError]:")

    def test_bounds_with_overflowing_diagonal(self, tmp_path, capsys):
        out = tmp_path / "wide.svg"
        assert main(["render", CIRCLE, "--grid", "16",
                     "--bounds=-1e200,-1,1e200,1", "--out", str(out)]) == 0
        assert 'width="2e+200"' in out.read_text()

    def test_bounds_with_overflowing_extent_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "inf.svg"
        assert main(["render", CIRCLE, "--grid", "16",
                     "--bounds=-1e308,-1,1e308,1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error[Validation]:")
        assert not out.exists()

    def test_explicit_bounds(self, tmp_path):
        out = tmp_path / "b.svg"
        code = main(["render", CIRCLE, "--grid", "64",
                     "--bounds=-2,-2,2,2", "--out", str(out)])
        assert code == 0
        assert 'viewBox="-2 -2 4 4"' in out.read_text()


class TestEval:
    def test_circle_center(self, capsys):
        assert main(["eval", CIRCLE, "--at", "0,0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "value 1"
        assert out[1].startswith("gradient ")

    def test_liming_tangency_point(self, capsys):
        assert main(["eval", LIMING, "--at", "1,0"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "value 0"

    def test_pole_reports_zero_denominator(self, tmp_path, capsys):
        scene_path = tmp_path / "crossing.scene"
        scene_path.write_text(crossing_scene_text())
        scene = build_scene_field(parse_scene(crossing_scene_text()))
        pole = crossing(scene.secant_lines[0], scene.secant_lines[1])
        code = main(["eval", str(scene_path), "--at", f"{pole.x!r},{pole.y!r}"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ZeroDenominator]:")
        assert "denominator zero" in err


class TestVerify:
    def test_circle_all_pass(self, capsys):
        assert main(["verify", CIRCLE]) == 0
        assert "4/4 tangencies pass" in capsys.readouterr().out

    def test_circle_residuals_exact(self, capsys):
        # the axis-aligned scene is float-exact, so even zero tolerance holds
        assert main(["verify", CIRCLE, "--tol-value", "0", "--tol-angle", "0"]) == 0
        assert "4/4 tangencies pass" in capsys.readouterr().out

    def test_zero_tolerances_fail_with_rounding(self, tmp_path, capsys):
        # trigonometric coordinates leave residuals of a few ulps, so a zero
        # tolerance must report failures
        scene_path = tmp_path / "crossing.scene"
        scene_path.write_text(crossing_scene_text())
        code = main(["verify", str(scene_path),
                     "--tol-value", "0", "--tol-angle", "0"])
        assert code == 1
        out = capsys.readouterr().out
        assert not out.splitlines()[-1].startswith("4/4")

    @pytest.mark.parametrize("option, value", [
        ("--tol-value", "nan"), ("--tol-value", "-1"), ("--tol-value", "inf"),
        ("--tol-angle", "nan"), ("--tol-angle", "-1e-8"), ("--tol-angle", "inf"),
    ])
    def test_bad_tolerance_is_validation_error(self, option, value, capsys):
        assert main(["verify", CIRCLE, f"{option}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[Validation]:")
        assert f"{option.lstrip('-').replace('-', '_')}={float(value)!r}" in captured.err

    def test_perturbed_point_is_validation_error(self, tmp_path, capsys):
        text = Path(CIRCLE).read_text().replace("point p2 0 1", "point p2 0 0.99")
        bad = tmp_path / "bad.scene"
        bad.write_text(text)
        assert main(["verify", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error[TangencyViolation]:")

    def test_large_mixed_weight_stays_tangent(self, tmp_path, capsys):
        # pushing w0 up shrinks the curve toward the secant crossing but
        # cannot break the tangencies
        text = crossing_scene_text().replace("weights 1 1 1", "weights 0.5 0.5 5")
        scene_path = tmp_path / "heavy.scene"
        scene_path.write_text(text)
        assert main(["verify", str(scene_path)]) == 0
        assert "4/4 tangencies pass" in capsys.readouterr().out
        out = tmp_path / "heavy.svg"
        assert main(["render", str(scene_path), "--grid", "96",
                     "--out", str(out)]) == 0
        assert out.exists()


class TestReproduce:
    def test_circle(self, capsys):
        assert main(["reproduce", CIRCLE, "--conic=-1,0,-1,0,0,1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "weights 2 2 -2"
        assert "convention" in out[1]

    def test_negated_conic_flips_weights(self, capsys):
        assert main(["reproduce", CIRCLE, "--conic=1,0,1,0,0,-1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "weights -2 -2 2"

    def test_not_tangent_exits_1(self, capsys):
        assert main(["reproduce", CIRCLE, "--conic=1,0,1,0.5,0,-1"]) == 1
        assert capsys.readouterr().err.startswith("error[NotTangent]:")

    def test_liming_scene_rejected(self, capsys):
        assert main(["reproduce", LIMING, "--conic=1,0,1,0,0,-1"]) == 1

    def test_liming_scene_is_a_mode_conflict(self, capsys):
        assert main(["reproduce", LIMING, "--conic=1,0,1,0,0,-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[ModeConflict]: reproduce requires")


class TestThreePairs:
    def test_hexagon_renders_verifies_and_reproduces(self, tmp_path, capsys):
        out = tmp_path / "hexagon.svg"
        assert main(["render", HEXAGON, "--grid", "128", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("mode=four-tangent weights=4,4,4,-12 ")
        svg = out.read_text()
        assert len(re.findall(r'<line [^>]*stroke="#0000FF"', svg)) == 6
        assert len(re.findall(r'<line [^>]*stroke="#FF0000"', svg)) == 3
        assert len(re.findall(r'<polyline [^>]*stroke="#800080"', svg)) == 1

        assert main(["verify", HEXAGON]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in lines[1:7]] == [f"l{i}" for i in range(1, 7)]
        assert lines[-1] == "6/6 tangencies pass"

        assert main(["reproduce", HEXAGON, "--conic=-1,0,-1,0,0,1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "weights 4 4 4 -12"
        assert "omega3*lambda3" in lines[1]

    def test_verify_names_lines_in_pair_order(self, tmp_path, capsys):
        scene = tmp_path / "paired.scene"
        scene.write_text(Path(HEXAGON).read_text() + "pair l3 l4 | l5 l6 | l1 l2\n")
        assert main(["verify", str(scene)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:7]
        assert [row.split()[0] for row in rows] == ["l3", "l4", "l5", "l6", "l1", "l2"]


class TestNumbers:
    @pytest.mark.parametrize("argv", [
        ["eval", CIRCLE, "--at=1/0,0"],
        ["render", CIRCLE, "--bounds=0,0,1/0,1"],
        ["reproduce", CIRCLE, "--conic=-1,0,-1,0,0,1/0"],
    ])
    def test_zero_denominator_is_validation_error(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error[Validation]: bad number '1/0'")

    def test_rational_beyond_float_range_is_validation_error(self, capsys):
        huge = "1" + "0" * 400 + "/1"
        assert main(["eval", CIRCLE, f"--at={huge},0"]) == 1
        assert capsys.readouterr().err == (
            f"error[Validation]: bad number {huge!r}: out of float range\n")


class TestFit:
    def test_circle_constraints(self, capsys):
        code = main(["fit", "--tangent=1,0,1,0", "--tangent=0,1,0,1",
                     "--point=-1,0"])
        assert code == 0
        values = [float(v) for v in capsys.readouterr().out.split()[1:]]
        unit = 1.0 / math.sqrt(3.0)
        assert values == pytest.approx([unit, 0, unit, 0, 0, -unit], abs=1e-10)

    def test_coincident_points_exit_1(self, capsys):
        code = main(["fit", "--tangent=1,0,1,0", "--tangent=1,0,1,0",
                     "--point=-1,0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[DegenerateInput]:")

    def test_rank_deficient_exit_1(self, capsys):
        code = main(["fit", "--tangent=0,0,0,1", "--tangent=1,0,0,1",
                     "--point=2,0"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[RankDeficient]:")


def _child_env():
    """The environment of a child process that imports the package from
    where this one did."""
    src = str(Path(implicurve.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "cli.svg"
        proc = subprocess.run(
            [sys.executable, "-m", "implicurve.cli", "render", CIRCLE,
             "--grid", "32", "--out", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert out.exists()


POINT_COMMANDS = [
    ["eval", CIRCLE, "--at=0.5,0.25"],
    ["eval", LIMING, "--at=0.5,0.25"],
    ["verify", CIRCLE],
    ["reproduce", CIRCLE, "--conic=1,0,1,0,0,-1"],
    ["fit", "--tangent=1,0,1,0", "--tangent=0,1,0,1", "--point=-1,0"],
]

# runs in a fresh interpreter; the last stdout line records whether numpy
# was loaded after the import, after the point commands and after a render
_IMPORT_GATE = """
import json, sys
import implicurve
from implicurve.cli import main
loaded = ["numpy" in sys.modules]
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded.append("numpy" in sys.modules)
codes.append(main(["render", sys.argv[2], "--grid", "32", "--out", sys.argv[3]]))
loaded.append("numpy" in sys.modules)
print(json.dumps({"codes": codes, "numpy_loaded": loaded}))
"""


class TestNumpyOnDemand:
    def test_point_commands_run_without_numpy(self, tmp_path, capsys):
        out = tmp_path / "child.svg"
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_GATE, json.dumps(POINT_COMMANDS), CIRCLE,
             str(out)], capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        *printed, last = proc.stdout.splitlines()
        assert json.loads(last) == {"codes": [0] * 6, "numpy_loaded": [False, False, True]}
        # the same output as in this process, where numpy is loaded
        ref = tmp_path / "ref.svg"
        for argv in POINT_COMMANDS + [["render", CIRCLE, "--grid", "32", "--out", str(ref)]]:
            assert main(argv) == 0
        want = capsys.readouterr().out.replace(str(ref), str(out))
        assert printed == want.splitlines()
        assert out.read_bytes() == ref.read_bytes()
