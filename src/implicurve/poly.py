"""Dense bivariate polynomials over numpy coefficient matrices."""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geom import ConicCoeffs, LineImplicit


class BivariatePoly:
    """Polynomial in x and y; ``coeffs[i, j]`` multiplies x**i * y**j."""

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 2:
            raise ValueError("coefficient matrix must be two-dimensional")
        self.coeffs = c

    @classmethod
    def from_line(cls, line: LineImplicit) -> BivariatePoly:
        return cls(np.array([[line.c, line.b], [line.a, 0.0]]))

    @classmethod
    def from_conic(cls, q: ConicCoeffs) -> BivariatePoly:
        return cls(np.array([
            [q.f, q.e, q.c],
            [q.d, q.b, 0.0],
            [q.a, 0.0, 0.0],
        ]))

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
        n1, m1 = self.coeffs.shape
        n2, m2 = other.coeffs.shape
        # flattened rows of the product's width: x**i * y**j sits at
        # i * width + j in both factors and in their 1-D product, and no
        # y-degree reaches width, so no term carries into the next row
        width = m1 + m2 - 1
        flat = np.convolve(self.padded((n1, width)).ravel(),
                           other.padded((n2, width)).ravel())
        return BivariatePoly(flat[:(n1 + n2 - 1) * width].reshape(-1, width))

    __rmul__ = __mul__

    def squared(self) -> BivariatePoly:
        return self * self

    def __call__(self, x, y):
        return npoly.polyval2d(x, y, self.coeffs)

    def max_abs(self) -> float:
        return float(np.abs(self.coeffs).max())

    def __repr__(self):
        return f"BivariatePoly(shape={self.coeffs.shape}, max={self.max_abs():.3g})"
