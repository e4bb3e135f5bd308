"""Exception types shared across the package.

Every error carries a short ``code`` string; the CLI prefixes messages with
``error[CODE]:`` so scripts can match failures without parsing prose.
"""


class CurveError(Exception):
    """Base class for all library errors."""

    code = "Error"


# geometry primitives

class DegeneratePoints(CurveError):
    """Two points coincide where distinct points are required."""

    code = "DegeneratePoints"


class ReferenceOnLine(CurveError):
    """Orientation reference point lies on the line itself."""

    code = "ReferenceOnLine"


# two-tangent blend recovery

class SampleNotOnConic(CurveError):
    """Recovery sample does not lie on the target conic."""

    code = "SampleNotOnConic"


class SampleOnTangent(CurveError):
    """Recovery sample lies on one of the tangent lines."""

    code = "SampleOnTangent"


class NotReproducible(CurveError):
    """The blend of the given lines is not a scalar multiple of the conic."""

    code = "NotReproducible"


# four-tangent patches

class TangencyViolation(CurveError):
    """A prescribed tangency point does not lie on its tangent line."""

    code = "TangencyViolation"


class DegenerateSecant(CurveError):
    """A tangency-point pair coincides, leaving no secant."""

    code = "DegenerateSecant"


class SecantThroughForeignPoint(CurveError):
    """A secant passes through a tangency point of the other pair."""

    code = "SecantThroughForeignPoint"


class NotTangent(CurveError):
    """A line is not tangent to the target conic at the stated point."""

    code = "NotTangent"


class RecoveryFailed(CurveError):
    """Per-pair blend recovery failed while solving for patch weights."""

    code = "RecoveryFailed"


# field evaluation

class FieldEvaluationError(CurveError):
    """A field could not be evaluated at the requested point."""

    code = "FieldEvaluation"


class ZeroDenominator(FieldEvaluationError):
    """Denominator of a normalized or faithful patch vanishes."""

    code = "ZeroDenominator"


# constraint fitting

class DegenerateInput(CurveError):
    """Constraint points coincide; the fit is not well posed."""

    code = "DegenerateInput"


class RankDeficient(CurveError):
    """Constraint system rank is below 5; the null space is not a single curve."""

    code = "RankDeficient"


# scene files

class SceneError(CurveError):
    """Base class for scene-file problems; knows its source location."""

    code = "Scene"

    def __init__(self, message, line=None, column=None):
        if line is not None:
            where = f"line {line}" if column is None else f"line {line}, col {column}"
            message = f"{where}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class SceneSyntaxError(SceneError):
    """Malformed directive, bad token, or unparseable number."""

    code = "SyntaxError"


class UnknownName(SceneError):
    """A directive references an undeclared name."""

    code = "UnknownName"


class DuplicateName(SceneError):
    """A name is declared twice within its kind."""

    code = "DuplicateName"


class ModeConflict(SceneError):
    """The directive set does not describe exactly one construction mode."""

    code = "ModeConflict"


class ArityError(SceneError):
    """Wrong number of tangencies or secants for the inferred mode."""

    code = "ArityError"
