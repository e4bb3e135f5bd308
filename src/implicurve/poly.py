"""Dense bivariate polynomials, and the one product routine they share.

The product works on Python lists.  A polynomial is laid out flat for a
chosen ``width``: the coefficient of x**i * y**j sits at index
i * width + j, and as long as no y-degree reaches the width, the indices of
a product's terms are the sums of its factors' indices.  Solvers multiply
such lists directly; :class:`BivariatePoly` wraps a numpy matrix for
evaluation and tests.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geom import ConicCoeffs, LineImplicit


def add_product(out: list[float], a: list[tuple[int, float]],
                b: list[tuple[int, float]]) -> None:
    """Add the product of two polynomials, given as terms (index,
    coefficient), into the flat coefficients ``out`` of their layout.

    Each coefficient takes one product per term of ``a``, in the order of
    ``a``: for the nonzero terms of a matrix in row-major order and ``out``
    all 0.0, the shifted adds of a[i][j] * b of a slice-add product.  Zero
    terms may be listed or left out: a sum starting from 0.0 is never -0.0,
    so adding a finite zero leaves it as it is.
    """
    for i, u in a:
        for j, v in b:
            out[i + j] += u * v


def poly_terms(coeffs: list[float]) -> list[tuple[int, float]]:
    """The nonzero terms of flat coefficients, in index order."""
    return [(n, c) for n, c in enumerate(coeffs) if c != 0.0]


def line_terms(line: LineImplicit, width: int) -> list[tuple[int, float]]:
    """a*x + b*y + c as terms of the flat layout of ``width``."""
    return [(0, line.c), (1, line.b), (width, line.a)]


def conic_terms(q: ConicCoeffs, width: int) -> list[tuple[int, float]]:
    """The conic's six coefficients as terms of the flat layout of ``width``."""
    return [(0, q.f), (1, q.e), (2, q.c), (width, q.d), (width + 1, q.b), (2 * width, q.a)]


def _matrix_terms(c: np.ndarray, width: int) -> list[tuple[int, float]]:
    return [(i * width + j, v) for i, row in enumerate(c.tolist())
            for j, v in enumerate(row) if v != 0.0]


class BivariatePoly:
    """Polynomial in x and y; ``coeffs[i, j]`` multiplies x**i * y**j."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 2:
            raise ValueError("coefficient matrix must be two-dimensional")
        self.coeffs = c

    @classmethod
    def from_line(cls, line: LineImplicit) -> BivariatePoly:
        return cls([[line.c, line.b], [line.a, 0.0]])

    @classmethod
    def from_conic(cls, q: ConicCoeffs) -> BivariatePoly:
        return cls([[q.f, q.e, q.c], [q.d, q.b, 0.0], [q.a, 0.0, 0.0]])

    def padded(self, shape: tuple[int, int]) -> np.ndarray:
        out = np.zeros(shape)
        n, m = self.coeffs.shape
        out[:n, :m] = self.coeffs
        return out

    def __add__(self, other: BivariatePoly) -> BivariatePoly:
        shape = (max(self.coeffs.shape[0], other.coeffs.shape[0]),
                 max(self.coeffs.shape[1], other.coeffs.shape[1]))
        return BivariatePoly(self.padded(shape) + other.padded(shape))

    def __sub__(self, other: BivariatePoly) -> BivariatePoly:
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return BivariatePoly(self.coeffs * float(other))
        (n1, m1), (n2, m2) = self.coeffs.shape, other.coeffs.shape
        width = m1 + m2 - 1
        flat = [0.0] * ((n1 + n2 - 1) * width)
        add_product(flat, _matrix_terms(self.coeffs, width), _matrix_terms(other.coeffs, width))
        return BivariatePoly(np.reshape(flat, (-1, width)))

    __rmul__ = __mul__

    def squared(self) -> BivariatePoly:
        return self * self

    def __call__(self, x, y):
        return npoly.polyval2d(x, y, self.coeffs)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def __repr__(self):
        return f"BivariatePoly(shape={self.coeffs.shape}, max={self.max_abs():.3g})"
