"""Error codes: the ``error[CODE]`` strings scripts match on."""

import inspect

from implicurve import errors
from implicurve.errors import CurveError, NotReproducible, SceneError

CODES = {
    "CurveError": "Error",
    "DegeneratePoints": "DegeneratePoints",
    "ReferenceOnLine": "ReferenceOnLine",
    "SampleNotOnConic": "SampleNotOnConic",
    "SampleOnTangent": "SampleOnTangent",
    "NotReproducible": "NotReproducible",
    "TangencyViolation": "TangencyViolation",
    "DegenerateSecant": "DegenerateSecant",
    "SecantThroughForeignPoint": "SecantThroughForeignPoint",
    "NotTangent": "NotTangent",
    "RecoveryFailed": "RecoveryFailed",
    "FieldEvaluationError": "FieldEvaluation",
    "ZeroDenominator": "ZeroDenominator",
    "DegenerateInput": "DegenerateInput",
    "RankDeficient": "RankDeficient",
    "SceneError": "Scene",
    "SceneSyntaxError": "SyntaxError",
    "UnknownName": "UnknownName",
    "DuplicateName": "DuplicateName",
    "ModeConflict": "ModeConflict",
    "ArityError": "ArityError",
}


def test_error_code_table():
    classes = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, CurveError)}
    assert {name: cls.code for name, cls in classes.items()} == CODES
    for cls in classes.values():
        assert cls("message").code == cls.code


def test_subclass_without_code_reports_its_name():
    class Custom(NotReproducible):
        pass

    class Located(SceneError):
        code = "Where"

    assert Custom.code == "Custom"
    assert Located("bad", line=3).code == "Where"
    assert str(Located("bad", line=3)) == "line 3: bad"
