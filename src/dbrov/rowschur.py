"""Row Schur functions B(z) = (b_1(z), ..., b_d(z)) and their defects."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .poly import CPoly, LaurentHerm, VecPoly, _Poly, autocorrelation, circle_eval, \
    pow2_at_least
from .tolerances import PSD_SLACK


class RowSchur(_Poly):
    """Polynomial 1 x d row with contractive values on the closed disk.

    Coefficient rows B_0..B_q live in C^d; B(z) = sum_k B_k z^k.  The sup of
    the Euclidean norm over a circle grid is checked at construction.  The
    coefficients are kept untrimmed, so the degree is the declared q.
    """

    __slots__ = ()

    def __init__(self, coeffs, tol_psd: float = PSD_SLACK):
        arr = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValidationError("row coefficients must form a (q+1, d) array")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("row coefficients must be finite")
        self.coeffs = arr
        self.dim = int(arr.shape[1])
        sup = self.sup_norm()
        if sup > 1.0 + tol_psd:
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


def defect_laurent(B: RowSchur) -> tuple[LaurentHerm, LaurentHerm]:
    """Boundary defects of B as Hermitian Laurent polynomials.

    Returns (scalar, matrix) where the scalar part equals 1 - B(z)B(z)^* and
    the matrix part equals I - B(z)^*B(z) on the unit circle:

        c_k = delta_{k0} - sum_j <B_{j+k}, B_j>,
        C_k = delta_{k0} I - sum_j B_j^* B_{j+k}.
    """
    q = B.degree
    matrix = -autocorrelation(B.coeffs)
    # sum_j <B_{j+k}, B_j> is the trace of the matrix coefficient
    scalar = np.trace(matrix, axis1=1, axis2=2)
    scalar[q] += 1.0
    matrix[q] += np.eye(B.dim)
    return LaurentHerm(scalar), LaurentHerm(matrix)
