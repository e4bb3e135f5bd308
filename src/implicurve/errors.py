"""Exception types shared across the package.

Every error carries a short ``code`` string; the CLI prefixes messages with
``error[CODE]:`` so scripts can match failures without parsing prose.  A
class's code is its own name unless the class sets ``code`` itself, as
CurveError, FieldEvaluationError, SceneError and SceneSyntaxError do; a
subclass that sets none reports its own name, not its parent's code.
"""


class CurveError(Exception):
    """Base class for all library errors."""

    code = "Error"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "code" not in cls.__dict__:
            cls.code = cls.__name__


# geometry primitives

class DegeneratePoints(CurveError):
    """Two points coincide where distinct points are required."""


class ReferenceOnLine(CurveError):
    """Orientation reference point lies on the line itself."""


# two-tangent blend recovery

class SampleNotOnConic(CurveError):
    """Recovery sample does not lie on the target conic."""


class SampleOnTangent(CurveError):
    """Recovery sample lies on one of the tangent lines."""


class NotReproducible(CurveError):
    """The blend of the given lines is not a scalar multiple of the conic."""


# four-tangent patches

class TangencyViolation(CurveError):
    """A prescribed tangency point does not lie on its tangent line."""


class DegenerateSecant(CurveError):
    """A tangency-point pair coincides, leaving no secant."""


class SecantThroughForeignPoint(CurveError):
    """A secant passes through a tangency point of the other pair."""


class NotTangent(CurveError):
    """A line is not tangent to the target conic at the stated point."""


class RecoveryFailed(CurveError):
    """Per-pair blend recovery failed while solving for patch weights."""


# field evaluation

class FieldEvaluationError(CurveError):
    """A field could not be evaluated at the requested point."""

    code = "FieldEvaluation"


class ZeroDenominator(FieldEvaluationError):
    """Denominator of a normalized or faithful patch vanishes."""


# constraint fitting

class DegenerateInput(CurveError):
    """Constraint points coincide; the fit is not well posed."""


class RankDeficient(CurveError):
    """Constraint system rank is below 5; the null space is not a single curve."""


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


class DuplicateName(SceneError):
    """A name is declared twice within its kind."""


class ModeConflict(SceneError):
    """The directive set does not describe exactly one construction mode."""


class ArityError(SceneError):
    """Wrong number of tangencies or secants for the inferred mode."""
