"""Row Schur functions B(z) = (b_1(z), ..., b_d(z)) and their defects."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .poly import CPoly, LaurentHerm, VecPoly, _Poly, circle_eval, pow2_at_least
from .tolerances import PSD_SLACK


class RowSchur(_Poly):
    """Polynomial 1 x d row with contractive values on the closed disk.

    Coefficient rows B_0..B_q live in C^d; B(z) = sum_k B_k z^k.  The sup of
    the Euclidean norm over a circle grid is checked at construction.  The
    coefficients are kept untrimmed, so the degree is the declared q.
    """

    __slots__ = ()

    def __init__(self, coeffs):
        arr = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValidationError("row coefficients must form a (q+1, d) array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("row coefficients must be finite")
        self.coeffs = arr
        self.dim = int(arr.shape[1])
        sup = self.sup_norm()
        if sup > 1.0 + PSD_SLACK:
            raise ValidationError(
                f"row is not a Schur function: sup |B| = {sup:.6g} > 1"
            )

    def coordinate(self, i: int) -> CPoly:
        return CPoly(self.coeffs[:, i])

    def pair(self, xi) -> CPoly:
        """Scalar symbol z -> B(z) xi^* for a constant vector xi."""
        return CPoly(self.coeffs @ np.conj(np.asarray(xi, dtype=complex)))

    def row_dot(self, h: VecPoly) -> CPoly:
        """Scalar product B(z) h(z) with a polynomial column h."""
        if h.is_zero:
            return CPoly.zero()
        out = np.zeros(self.degree + h.degree + 1, dtype=complex)
        for k in range(self.degree + 1):
            out[k : k + h.degree + 1] += h.coeffs @ self.coeffs[k]
        return CPoly(out)

    def sup_norm(self) -> float:
        n = pow2_at_least(max(4 * self.degree + 1, 64))
        vals = circle_eval(self.coeffs, n)
        return float(np.sqrt((np.abs(vals) ** 2).sum(axis=-1)).max())


def defect_laurent(B: RowSchur) -> LaurentHerm:
    """Boundary defect 1 - B(z)B(z)^* of B on the unit circle, as the
    (2q+1,) coefficients of a Hermitian Laurent polynomial,

        c_k = delta_{k0} - sum_j <B_{j+k}, B_j>,

    from one correlation of the flattened coefficient rows, read at the lags
    that are multiples of d.  It is also det(I - B*B); `mate_report`, the
    one engine run of `make_context`, factors it.
    """
    flat = B.coeffs.ravel()
    scalar = -np.correlate(flat, flat, "full")[B.dim - 1 :: B.dim]
    scalar[B.degree] += 1.0
    return LaurentHerm(scalar)
