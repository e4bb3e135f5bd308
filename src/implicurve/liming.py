"""Two-tangent conic blends and recovery of their blending parameters.

The blend of two tangent lines L1, L2 against the squared secant C through
the tangency points,

    (1 - t) * L1 * L2 - t * C**2,        0 < t < 1,

is a conic touching both lines, and every conic tangent to L1 and L2 where
C meets them lies in this pencil (Liming, 1947).  Conversely,
:func:`recover_lambda` finds the pencil member that is a multiple of a given
conic, from one of its points off the tangent lines or, without one, by
projecting the conic onto the pencil, and verifies the claim
coefficient-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    NotReproducible,
    SampleNotOnConic,
    SampleOnTangent,
)
from .geom import (
    EPS_ON_CURVE,
    ConicCoeffs,
    GradientVec,
    LineImplicit,
    Point2,
    conic_gradient,
    _line_product_coeffs,
    _linear_product,
)


@dataclass(frozen=True)
class LimingSpec:
    """Two tangent lines, a secant, and the blend parameter in (0, 1).

    The blend is expanded once, at construction, into ``conic``; a blend
    that vanishes identically is rejected there.
    """

    l1: LineImplicit
    l2: LineImplicit
    c: LineImplicit
    lam: float
    conic: ConicCoeffs = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.lam) and 0.0 < self.lam < 1.0):
            raise ValueError(f"blend parameter must lie in (0, 1), got {self.lam!r}")
        coeffs = _blend_coeffs(self.l1, self.l2, self.c, self.lam)
        if not any(coeffs):
            raise ValueError(
                f"blend (1 - t)*L1*L2 - t*C^2 vanishes identically at t = {self.lam!r}")
        object.__setattr__(self, "conic", ConicCoeffs(*coeffs))

    def value(self, p: Point2) -> float:
        return self.conic.values(p.x, p.y)

    def values(self, x, y):
        return self.conic.values(x, y)

    def gradient(self, p: Point2) -> GradientVec:
        return conic_gradient(self.conic, p)


@dataclass(frozen=True)
class LambdaOmega:
    """Recovered blend parameter and the scale tying the blend to the conic."""

    lam: float
    omega: float

    def __post_init__(self):
        if self.omega == 0.0 or not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite and nonzero, got {self.omega!r}")


def _blend_coeffs(l1: LineImplicit, l2: LineImplicit, c: LineImplicit,
                  lam: float) -> list[float]:
    q12 = _line_product_coeffs(l1, l2)
    qcc = _line_product_coeffs(c, c)
    keep = 1.0 - lam
    return [keep * u - lam * v for u, v in zip(q12, qcc)]


def liming_conic(spec: LimingSpec) -> ConicCoeffs:
    """Expand (1 - t)*L1*L2 - t*C^2 into conic coefficients.

    Coincident tangents are not rejected; they yield a degenerate line-pair
    conic, which is the caller's concern.  A blend that vanishes identically
    is rejected when the spec is constructed.
    """
    return spec.conic


def recover_lambda(q: ConicCoeffs, l1: LineImplicit, l2: LineImplicit,
                   c: LineImplicit, sample: Point2 | None = None) -> LambdaOmega:
    """Recover (t, omega) with (1 - t)*L1*L2 - t*C^2 == omega * Q.

    With a ``sample``, a point of Q off both tangent lines, the returned
    ``t`` is exactly L1(s)*L2(s) / (L1(s)*L2(s) + C(s)^2).  Without one, Q is
    projected onto the pencil: Q ~ alpha*L1*L2 + beta*C^2 by least squares
    (see :func:`_pencil_lambda`), and t = -beta / (alpha - beta).  Either
    way ``t`` is not clamped to (0, 1), since sign-flipped line inputs
    legitimately push it outside.  The identity above is verified
    coefficient-wise to 1e-9 relative; failure raises NotReproducible, which
    means the given lines are not a tangent/secant configuration of Q.
    """
    if sample is None:
        return _verified(q, l1, l2, c, _pencil_lambda(q, l1, l2, c))
    qscale = max(1.0, q.max_abs())
    if abs(q.value(sample)) > EPS_ON_CURVE * qscale:
        raise SampleNotOnConic(f"sample {sample} is not on the conic")
    v1 = l1.value(sample)
    v2 = l2.value(sample)
    if abs(v1) <= 1e-12 * l1.normal_norm() or abs(v2) <= 1e-12 * l2.normal_norm():
        raise SampleOnTangent(f"sample {sample} lies on a tangent line")

    product = v1 * v2
    csq = _secant_square(c, sample)
    den = product + csq
    if abs(den) <= 1e-14 * max(abs(product), csq, 1e-30):
        raise NotReproducible("blend denominator vanishes at the sample point")
    return _verified(q, l1, l2, c, product / den)


def _verified(q: ConicCoeffs, l1: LineImplicit, l2: LineImplicit,
              c: LineImplicit, lam: float) -> LambdaOmega:
    """(lam, omega), omega from Q's largest coefficient, once the blend at
    ``lam`` is omega * Q to 1e-9 relative; else NotReproducible."""
    blend = _blend_coeffs(l1, l2, c, lam)
    # max() below skips a NaN that is not first, so overflow is tested for
    if not all(map(math.isfinite, blend)):
        raise NotReproducible("blend overflows a float")
    qc = q.coeffs()
    qabs = list(map(abs, qc))
    qmax = max(qabs)
    k = qabs.index(qmax)
    omega = blend[k] / qc[k]
    scale = max(max(map(abs, blend)), abs(omega) * qmax)
    if omega == 0.0 or not math.isfinite(omega) or scale == 0.0:
        raise NotReproducible("blend collapses to the zero polynomial")
    resid = max([abs(bv - omega * qv) for bv, qv in zip(blend, qc)])
    if resid > 1e-9 * scale:
        raise NotReproducible(
            f"blend differs from a multiple of the conic (residual {resid:.3g})")
    return LambdaOmega(lam, omega)


def _pencil_lambda(q: ConicCoeffs, l1: LineImplicit, l2: LineImplicit,
                   c: LineImplicit) -> float:
    """t of the pencil member nearest Q: Q ~ alpha*L1*L2 + beta*C^2 by least
    squares over the six coefficients, t = -beta / (alpha - beta).

    Each monomial is weighted by s**degree, s = max(1, |c| / |(a, b)|) over
    the three lines: substituting x = s*u maps lines that far from the
    origin back to it, where no coefficient of Q dwarfs the others.  Each
    weighted generator is scaled to unit max, so that no product below
    overflows.  The fit is taken on C^2 and D = L1*L2 -+ C^2, the sign that
    of their inner product: where both tangents run close to the chord,
    L1*L2 is close to +-C^2 and float subtraction forms their small
    difference exactly, which keeps the 2 x 2 system well conditioned.
    """
    r = 1.0 / max(1.0, abs(l1.c) / l1.normal_norm(), abs(l2.c) / l2.normal_norm(),
                  abs(c.c) / c.normal_norm())
    # s**(degree - 2) on each monomial of a product: each line's c over s
    g, k1 = _unit_max(_linear_product(l1.a, l1.b, l1.c * r, l2.a, l2.b, l2.c * r))
    h, k2 = _unit_max(_linear_product(c.a, c.b, c.c * r, c.a, c.b, c.c * r))
    qw, _ = _unit_max((q.a, q.b, q.c, q.d * r, q.e * r, q.f * r * r))
    sign = math.copysign(1.0, _dot(g, h))
    a, b = _least_squares(h, [x - sign * y for x, y in zip(g, h)], qw)
    # Q ~ b*g + (a - sign*b)*h, where g = L1*L2 / k1 and h = C^2 / k2
    alpha, beta = b, (a - sign * b) * (k1 / k2)
    if alpha == beta or not math.isfinite(lam := -beta / (alpha - beta)):
        raise NotReproducible("Q projects onto no member of the tangent/secant pencil")
    return lam


def _least_squares(u, v, q) -> tuple[float, float]:
    """(a, b) minimising |q - a*u - b*v| over six-vectors: the normal
    equations by Cramer's rule, then one refinement step on the residual."""
    uu, uv, vv = _dot(u, u), _dot(u, v), _dot(v, v)
    det = uu * vv - uv * uv
    if not det > 0.0:
        raise NotReproducible("L1*L2 and C^2 are proportional: the tangents are the secant")
    ru, rv = _dot(u, q), _dot(v, q)
    a = (ru * vv - rv * uv) / det
    b = (rv * uu - ru * uv) / det
    res = [z - a * x - b * y for z, x, y in zip(q, u, v)]
    ru, rv = _dot(u, res), _dot(v, res)
    return a + (ru * vv - rv * uv) / det, b + (rv * uu - ru * uv) / det


def _dot(u, v) -> float:
    u0, u1, u2, u3, u4, u5 = u
    v0, v1, v2, v3, v4, v5 = v
    return u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3 + u4 * v4 + u5 * v5


def _unit_max(v) -> tuple[list[float], float]:
    """``v`` divided by its largest magnitude, and that magnitude."""
    m = max(map(abs, v))
    if not 0.0 < m < math.inf:
        raise NotReproducible("weighted coefficients vanish or overflow")
    return [x / m for x in v], m


def _secant_square(c: LineImplicit, s: Point2) -> float:
    """C(s)^2, or NotReproducible where the square overflows a float."""
    try:
        return c.value(s) ** 2
    except OverflowError as exc:
        raise NotReproducible(f"squared secant overflows at {s}") from exc
