"""Harmonic background potentials of degree <= 2.

A background is a combination of the harmonic monomials
1, x1, x2, x1^2 - x2^2, x1*x2, which covers every probing field the
closed-form approximations need.  Value, gradient and Hessian are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


@dataclass(frozen=True)
class HarmonicBackground:
    """Coefficients (c0, c1, c2, c3, c4) of 1, x1, x2, x1^2 - x2^2, x1*x2."""

    coeffs: tuple[float, float, float, float, float]

    @classmethod
    def linear(cls, a) -> "HarmonicBackground":
        a = np.asarray(a, dtype=float)
        if a.shape != (2,):
            raise ValueError(f"expected a 2-vector a, got shape {a.shape}")
        return cls((0.0, float(a[0]), float(a[1]), 0.0, 0.0))

    @classmethod
    def polynomial(cls, coeffs) -> "HarmonicBackground":
        coeffs = tuple(float(c) for c in coeffs)
        if len(coeffs) != 5:
            raise ValueError(f"expected 5 coefficients, got {len(coeffs)}")
        return cls(coeffs)

    @property
    def is_linear(self) -> bool:
        c = self.coeffs
        return c[3] == 0.0 and c[4] == 0.0

    @property
    def linear_part(self) -> NDArray:
        return np.array([self.coeffs[1], self.coeffs[2]])

    def value(self, x) -> NDArray:
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        c0, c1, c2, c3, c4 = self.coeffs
        # a zero coefficient multiplies first, so a linear H stays finite
        # where x1^2 overflows
        return c0 + c1 * x1 + c2 * x2 + c3 * (x1 - x2) * (x1 + x2) + c4 * x1 * x2

    def grad(self, x) -> NDArray:
        x = np.asarray(x, dtype=float)
        x1, x2 = x[..., 0], x[..., 1]
        _, c1, c2, c3, c4 = self.coeffs
        return np.stack([c1 + 2.0 * c3 * x1 + c4 * x2,
                         c2 - 2.0 * c3 * x2 + c4 * x1], axis=-1)

    def hessian(self, x) -> NDArray:
        x = np.asarray(x, dtype=float)
        _, _, _, c3, c4 = self.coeffs
        h = np.array([[2.0 * c3, c4], [c4, -2.0 * c3]])
        return np.broadcast_to(h, x.shape[:-1] + (2, 2)).copy()

    def rotated(self, angle: float) -> "HarmonicBackground":
        """The background expressed in a frame rotated by ``angle``.

        Returns H' with H'(x) = H(R x) for the rotation R by ``angle``.
        """
        c0, c1, c2, c3, c4 = self.coeffs
        c, s = np.cos(angle), np.sin(angle)
        # linear part: (c1', c2') = R^T (c1, c2)
        d1 = c * c1 + s * c2
        d2 = -s * c1 + c * c2
        # quadratic part: x^T A x with A = [[c3, c4/2], [c4/2, -c3]] -> R^T A R
        c2a, s2a = np.cos(2 * angle), np.sin(2 * angle)
        d3 = c3 * c2a + 0.5 * c4 * s2a
        d4 = -2.0 * c3 * s2a + c4 * c2a
        return HarmonicBackground((c0, d1, d2, d3, d4))

    def in_frame(self, frame) -> "HarmonicBackground":
        """H' with H'(x) = H(c + R x), c and R the centre and the rotation of
        ``frame`` (a RodSpec): H's Taylor series about c, rotated."""
        about_c = (self.value(frame.center), *self.grad(frame.center), *self.coeffs[3:])
        return HarmonicBackground(about_c).rotated(frame.angle)
