"""Scene-description files: parsing, serialization and field construction.

The format is line-oriented; ``#`` starts a comment and tokens are separated
by whitespace.  Directives:

    line NAME a b c          declare the line a*x + b*y + c
    point NAME x y           declare a point
    tangent LINE POINT       bind a tangency (POINT must lie on LINE)
    secant NAME P Q          declare a secant through two declared points
    lambda REAL              two-tangent blend parameter (two-tangent mode)
    weights w1 ... wk w0     weights of k >= 2 tangent pairs (four-tangent mode)
    form raw|normalized|faithful
    pair LA LB | LC LD ...   tangent pairing override, k pairs (four-tangent mode)

Numbers accept decimal and rational ``p/q`` forms; rationals are converted
to float once, at parse time.  The mode is inferred from the directive set:
``lambda`` selects the two-tangent construction (exactly 2 tangencies and
1 secant), ``weights`` the construction from k tangent pairs (exactly 2k
tangencies; 0 or k secants, derived from the pairing when omitted), whose
mode label is ``four-tangent`` for every k.  Tangencies pair up in
declaration order unless ``pair`` names them in another.  In either mode a
declared secant joins the two tangency points of a pair.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .contour import Bounds, FieldRef
from .errors import (
    ArityError,
    DuplicateName,
    ModeConflict,
    SceneSyntaxError,
    UnknownName,
)
from .geom import LineImplicit, Point2, check_tangency_points, secant_line
from .ipatch import FORMS, NORMALIZED, TangentPairSpec
from .liming import LimingSpec

MODE_LIMING = "liming"
MODE_FOUR_TANGENT = "four-tangent"

_TOKEN_RE = re.compile(r"\S+")


@dataclass(frozen=True)
class SceneDoc:
    """Parsed scene: declarations in source order plus the inferred mode."""

    lines: tuple[tuple[str, LineImplicit], ...]
    points: tuple[tuple[str, Point2], ...]
    tangents: tuple[tuple[str, str], ...]
    secants: tuple[tuple[str, str, str], ...]
    lam: float | None
    weights: tuple[float, ...] | None
    form: str
    pairing: tuple[str, ...] | None
    mode: str

    def line_named(self, name: str) -> LineImplicit:
        for n, line in self.lines:
            if n == name:
                return line
        raise KeyError(name)

    def point_named(self, name: str) -> Point2:
        for n, pt in self.points:
            if n == name:
                return pt
        raise KeyError(name)


def parse_real(token: str) -> float:
    """A decimal token, or a rational ``p/q`` converted to float once.

    Raises ValueError for a malformed token, a zero denominator or a
    rational beyond float range.
    """
    if "/" not in token:
        return float(token)
    try:
        return float(Fraction(token))
    except ZeroDivisionError as exc:
        raise ValueError(f"bad number {token!r}: zero denominator") from exc
    except OverflowError as exc:
        raise ValueError(f"bad number {token!r}: out of float range") from exc


def _parse_number(token: str, lineno: int, col: int) -> float:
    try:
        value = parse_real(token)
    except ValueError as exc:
        raise SceneSyntaxError(f"bad number {token!r}", lineno, col) from exc
    if value != value or value in (float("inf"), float("-inf")):
        raise SceneSyntaxError(f"non-finite number {token!r}", lineno, col)
    return value


def parse_scene(text: str) -> SceneDoc:
    """Parse scene text into a validated SceneDoc.

    Raises SceneSyntaxError (with line/column), UnknownName, DuplicateName,
    ModeConflict or ArityError.
    """
    lines: list[tuple[str, LineImplicit]] = []
    points: list[tuple[str, Point2]] = []
    tangents: list[tuple[str, str]] = []
    secants: list[tuple[str, str, str]] = []
    lam = None
    weights = None
    form = None
    pairing = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(body)]
        if not tokens:
            continue
        (word, col), args = tokens[0], tokens[1:]

        def expect(count: int) -> None:
            if len(args) != count:
                raise SceneSyntaxError(
                    f"'{word}' expects {count} arguments, got {len(args)}",
                    lineno, col)

        if word == "line":
            expect(4)
            name = args[0][0]
            if any(n == name for n, _ in lines):
                raise DuplicateName(f"line {name!r} already declared",
                                    lineno, args[0][1])
            a, b, c = (_parse_number(t, lineno, cc) for t, cc in args[1:])
            try:
                lines.append((name, LineImplicit(a, b, c)))
            except ValueError as exc:
                raise SceneSyntaxError(str(exc), lineno, col) from exc
        elif word == "point":
            expect(3)
            name = args[0][0]
            if any(n == name for n, _ in points):
                raise DuplicateName(f"point {name!r} already declared",
                                    lineno, args[0][1])
            x, y = (_parse_number(t, lineno, cc) for t, cc in args[1:])
            points.append((name, Point2(x, y)))
        elif word == "tangent":
            expect(2)
            tangents.append((args[0][0], args[1][0]))
        elif word == "secant":
            expect(3)
            name = args[0][0]
            if any(n == name for n, _, _ in secants):
                raise DuplicateName(f"secant {name!r} already declared",
                                    lineno, args[0][1])
            secants.append((name, args[1][0], args[2][0]))
        elif word == "lambda":
            expect(1)
            if lam is not None:
                raise SceneSyntaxError("duplicate 'lambda' directive", lineno, col)
            lam = _parse_number(args[0][0], lineno, args[0][1])
        elif word == "weights":
            if len(args) < 3:
                raise SceneSyntaxError(
                    f"'weights' expects at least 3 arguments, got {len(args)}",
                    lineno, col)
            if weights is not None:
                raise SceneSyntaxError("duplicate 'weights' directive", lineno, col)
            weights = tuple(_parse_number(t, lineno, cc) for t, cc in args)
        elif word == "form":
            expect(1)
            if form is not None:
                raise SceneSyntaxError("duplicate 'form' directive", lineno, col)
            form = args[0][0]
            if form not in FORMS:
                raise SceneSyntaxError(
                    f"form must be one of {'|'.join(FORMS)}, got {form!r}",
                    lineno, args[0][1])
        elif word == "pair":
            if pairing is not None:
                raise SceneSyntaxError("duplicate 'pair' directive", lineno, col)
            names = [t for t, _ in args]
            if len(names) < 5 or len(names) % 3 != 2 or set(names[2::3]) != {"|"}:
                raise SceneSyntaxError(
                    "'pair' expects: pair LINE LINE | LINE LINE [| LINE LINE ...]",
                    lineno, col)
            pairing = tuple(t for i, t in enumerate(names) if i % 3 != 2)
        else:
            raise SceneSyntaxError(f"unknown directive {word!r}", lineno, col)

    doc = SceneDoc(
        lines=tuple(lines),
        points=tuple(points),
        tangents=tuple(tangents),
        secants=tuple(secants),
        lam=lam,
        weights=weights,
        form=form if form is not None else NORMALIZED,
        pairing=pairing,
        mode=_infer_mode(lam, weights),
    )
    _validate(doc)
    return doc


def _infer_mode(lam, weights) -> str:
    if lam is not None and weights is not None:
        raise ModeConflict("scene declares both 'lambda' and 'weights'")
    if lam is not None:
        return MODE_LIMING
    if weights is not None:
        return MODE_FOUR_TANGENT
    raise ModeConflict(
        "cannot infer mode: declare 'lambda' (two-tangent) or 'weights' (four-tangent)")


def _validate(doc: SceneDoc) -> None:
    line_names = {n for n, _ in doc.lines}
    point_names = {n for n, _ in doc.points}

    seen_tangent_lines = set()
    for lname, pname in doc.tangents:
        if lname not in line_names:
            raise UnknownName(f"tangent references undeclared line {lname!r}")
        if pname not in point_names:
            raise UnknownName(f"tangent references undeclared point {pname!r}")
        if lname in seen_tangent_lines:
            raise DuplicateName(f"line {lname!r} bound by two tangent directives")
        seen_tangent_lines.add(lname)
    for sname, p, q in doc.secants:
        for pname in (p, q):
            if pname not in point_names:
                raise UnknownName(f"secant {sname!r} references undeclared point {pname!r}")
        if p == q:
            raise ArityError(f"secant {sname!r} needs two distinct points")

    if doc.mode == MODE_LIMING:
        if len(doc.tangents) != 2:
            raise ArityError(
                f"two-tangent mode needs exactly 2 tangencies, got {len(doc.tangents)}")
        if len(doc.secants) != 1:
            raise ArityError(
                f"two-tangent mode needs exactly 1 secant, got {len(doc.secants)}")
        if doc.pairing is not None:
            raise ModeConflict("'pair' applies only to four-tangent scenes")
    else:
        k = len(doc.weights) - 1
        if len(doc.tangents) != 2 * k:
            raise ArityError(f"{k} tangent pairs need exactly {2 * k} tangencies, "
                             f"got {len(doc.tangents)}")
        if len(doc.secants) not in (0, k):
            raise ArityError(
                f"{k} tangent pairs take 0 or {k} secants, got {len(doc.secants)}")
        if doc.pairing is not None:
            bound = [lname for lname, _ in doc.tangents]
            for name in doc.pairing:
                if name not in line_names:
                    raise UnknownName(f"pair references undeclared line {name!r}")
                if name not in bound:
                    raise ModeConflict(f"pair references unbound line {name!r}")
            if len(doc.pairing) != 2 * k or len(set(doc.pairing)) != 2 * k:
                raise ModeConflict(f"pair must name the {2 * k} tangent lines once each")
    _check_secants_match_chords(doc)


def _ordered_tangents(doc: SceneDoc) -> list[tuple[str, str]]:
    """Tangent bindings in pairing order (declaration order by default)."""
    if doc.pairing is None:
        return list(doc.tangents)
    by_line = dict(doc.tangents)
    return [(name, by_line[name]) for name in doc.pairing]


def _check_secants_match_chords(doc: SceneDoc) -> None:
    ordered = _ordered_tangents(doc)
    chords = [{p, q} for (_, p), (_, q) in zip(ordered[::2], ordered[1::2])]
    declared = {frozenset((p, q)) for _, p, q in doc.secants}
    for sname, p, q in doc.secants:
        if {p, q} not in chords:
            raise ModeConflict(
                f"secant {sname!r} does not join a tangency-point pair")
    if len(declared) != len(doc.secants):
        raise ModeConflict("the secants must join different tangency pairs")


def serialize_scene(doc: SceneDoc) -> str:
    """Emit scene text that parses back to a structurally equal SceneDoc."""
    out = []
    for name, line in doc.lines:
        out.append(f"line {name} {line.a!r} {line.b!r} {line.c!r}")
    for name, pt in doc.points:
        out.append(f"point {name} {pt.x!r} {pt.y!r}")
    for lname, pname in doc.tangents:
        out.append(f"tangent {lname} {pname}")
    for sname, p, q in doc.secants:
        out.append(f"secant {sname} {p} {q}")
    if doc.lam is not None:
        out.append(f"lambda {doc.lam!r}")
    if doc.weights is not None:
        out.append("weights " + " ".join(repr(w) for w in doc.weights))
    out.append(f"form {doc.form}")
    if doc.pairing is not None:
        names = doc.pairing
        pairs = (f"{a} {b}" for a, b in zip(names[::2], names[1::2]))
        out.append("pair " + " | ".join(pairs))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class SceneField:
    """A scene resolved into an evaluable field plus its display geometry."""

    doc: SceneDoc
    field: FieldRef
    tangent_lines: tuple[LineImplicit, ...]
    secant_lines: tuple[LineImplicit, ...]
    tangency_points: tuple[Point2, ...]

    def default_bounds(self) -> Bounds:
        return Bounds.around_points(self.tangency_points)


def build_scene_field(doc: SceneDoc) -> SceneField:
    """Resolve the scene into a field.

    Two-tangent scenes produce the expanded conic field; scenes of k tangent
    pairs produce the patch in the scene's form.  Construction validates the
    tangency bindings (each bound point must lie on its line).
    """
    ordered = _ordered_tangents(doc)
    t_lines = tuple(doc.line_named(n) for n, _ in ordered)
    t_points = tuple(doc.point_named(p) for _, p in ordered)

    if doc.mode == MODE_LIMING:
        _, p, q = doc.secants[0]
        secant = secant_line(doc.point_named(p), doc.point_named(q))
        check_tangency_points(t_lines, t_points)
        spec = LimingSpec(t_lines[0], t_lines[1], secant, doc.lam)
        return SceneField(doc, spec, t_lines, (secant,), t_points)

    spec = TangentPairSpec(t_lines, t_points, doc.weights, doc.form)
    return SceneField(doc, spec, t_lines, spec.secants, t_points)
