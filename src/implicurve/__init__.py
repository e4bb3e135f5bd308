"""Implicit planar curves from prescribed tangent lines.

Conics blended from two tangents and a secant, fields of degree 2k blended
from k tangent pairs, parameter recovery for configurations known to
reproduce a conic, tangential conic fitting, and contour rendering to SVG.
"""

from . import errors
from .conicfit import (
    ConstraintSystem,
    TangentConstraint,
    build_constraint_system,
    fit_conic_two_tangents_one_point,
    null_space_1d,
)
from .contour import (
    Bounds,
    ContourSet,
    FieldRef,
    GridSampling,
    TangencyReport,
    sample_grid,
    trace_contours,
    verify_tangency,
)
from .geom import (
    ConicCoeffs,
    GradientVec,
    LineImplicit,
    Point2,
    conic_eval,
    conic_gradient,
    conic_tangent_line_at,
    equal_up_to_scale,
    intersect_lines,
    line_product,
    line_through,
    match_scale,
    orient_toward,
    secant_line,
)
from .ipatch import (
    FAITHFUL,
    NORMALIZED,
    RAW,
    IPatchSpec,
    TangentPairSpec,
    WeightTriple,
    expand_to_polynomial,
    four_tangent_patch,
    ipatch_eval,
    ipatch_gradient,
    reproduce_conic_weights,
)
from .liming import LambdaOmega, LimingSpec, liming_conic, recover_lambda
from .poly import BivariatePoly
from .scene import (
    SceneDoc,
    SceneField,
    build_scene_field,
    parse_scene,
    serialize_scene,
)
from .svgout import emit_svg

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Point2", "GradientVec", "LineImplicit", "ConicCoeffs",
    "line_through", "secant_line", "orient_toward",
    "intersect_lines", "line_product", "conic_eval", "conic_gradient",
    "conic_tangent_line_at", "match_scale", "equal_up_to_scale",
    "LimingSpec", "LambdaOmega", "liming_conic", "recover_lambda",
    "RAW", "NORMALIZED", "FAITHFUL",
    "IPatchSpec", "TangentPairSpec", "WeightTriple",
    "ipatch_eval", "ipatch_gradient", "four_tangent_patch",
    "reproduce_conic_weights", "expand_to_polynomial",
    "TangentConstraint", "ConstraintSystem", "build_constraint_system",
    "null_space_1d", "fit_conic_two_tangents_one_point",
    "Bounds", "GridSampling", "ContourSet", "FieldRef", "TangencyReport",
    "sample_grid", "trace_contours", "verify_tangency",
    "emit_svg",
    "SceneDoc", "SceneField", "parse_scene", "serialize_scene",
    "build_scene_field",
    "BivariatePoly",
]
