"""Boundary behavior: Caratheodory checks and Clark measures."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryNotRegular,
    DegenerateSymbol,
    HigherOrderBoundaryZero,
    NonpositiveMass,
    NotPositive,
    NumericsError,
    ValidationError,
)
from .poly import CPoly, _divide_one_minus, circle_eval, horner, poly_roots, pow2_at_least
from .space import SpaceContext, hb_inner, kernel, on_circle, spectrum_member
from .tolerances import DENSITY_FLOOR, UNIMODULAR_TOL


@dataclass(frozen=True)
class BoundaryReport:
    """Point evaluation data at a unimodular point.

    When the Caratheodory condition holds the three kernel-norm estimates
    (exact pair norm, derivative limit, radial extrapolation) agree and the
    Clark point mass is their reciprocal.
    """

    lam: complex
    satisfies_caratheodory: bool
    boundary_vector: np.ndarray
    k_norm_sq_exact: float | None = None
    k_norm_sq_lhopital: float | None = None
    k_norm_sq_radial: float | None = None
    clark_mass: float | None = None


@dataclass(frozen=True)
class ClarkMeasure:
    """Positive measure in the Herglotz representation of (1 + b)/(1 - b).

    b(z) = B(z) xi^* is the scalar symbol; the partial fractions of the
    rational 2/(1 - b) are the measure.  The atoms (lam, m) of point_masses
    have principal parts 2 m lam/(lam - z); poles holds each other zero w of
    1 - b, outside the closed disk, with the coefficients (c_1, ..., c_k) of
    its principal part P_w(z) = sum_j c_j (z - w)^-j.
    """

    xi: np.ndarray
    symbol: CPoly
    point_masses: tuple
    poles: tuple
    total_mass: float
    imag_const: float

    @property
    def ac_mass(self) -> float:
        return self.total_mass - sum(m for _, m in self.point_masses)

    def mass_at(self, lam: complex) -> float:
        atom = spectrum_member(self.point_masses, lam)
        return 0.0 if atom is None else atom[1]

    def density(self, zeta) -> np.ndarray:
        """Absolutely continuous density at unimodular points zeta (its limit
        at an atom): (1 - |b|^2)/|1 - b|^2 = Re 2/(1 - b) - 1, in which each
        atom's part is m, so ac mass + Re sum_w (P_w(zeta) - P_w(0))."""
        return self.ac_mass + (_principal_sum(self.poles, zeta)
                               - _principal_sum(self.poles, 0j)).real


def caratheodory(ctx: SpaceContext, lam) -> BoundaryReport:
    """Decide bounded point evaluation at lam and certify the kernel norm."""
    lam = complex(lam)
    if not on_circle(lam):
        raise ValidationError("caratheodory probe needs a unimodular point")
    member = spectrum_member(ctx.Lambda, lam)
    bv = ctx.B(lam)
    if member is None:
        if abs((np.abs(bv) ** 2).sum() - 1.0) <= UNIMODULAR_TOL:
            raise BoundaryNotRegular(
                f"|B({lam})| = 1 but {lam} is not a mate zero; "
                "boundary spectrum is inconsistent"
            )
        return BoundaryReport(lam, False, bv)

    lam = member[0]
    bv = ctx.B(lam)
    g = ctx.B.pair(bv)
    lhopital = lam * g.derivative()(lam)
    if abs(lhopital.imag) > 1e-8 * max(1.0, abs(lhopital)):
        raise NumericsError(f"derivative limit {lhopital} is not real")
    k = kernel(ctx, lam)
    exact = float(hb_inner(ctx, k, k).real)

    def row_quotient(r):
        return float((1.0 - (np.abs(ctx.B(r * lam)) ** 2).sum())
                     / (1.0 - r * r))

    radial = radial_extrapolate(row_quotient)
    return BoundaryReport(lam, True, bv, exact, float(lhopital.real),
                          radial, _point_mass(lhopital, lam))


def radial_extrapolate(sample) -> float:
    """Radial boundary limit of sample(r) over r = 1 - 2^-k, k = 4..20."""
    return _richardson([sample(1.0 - 2.0 ** (-k)) for k in range(4, 21)])


def _richardson(values) -> float:
    """Neville table, six columns, for samples at steps h_k halving each time."""
    table = np.asarray(values, dtype=float)
    for j in range(1, min(6, table.shape[0] - 1) + 1):
        table = table[1:] + (table[1:] - table[:-1]) / (2.0 ** j - 1.0)
    return float(table[-1])


def clark(ctx: SpaceContext, xi) -> ClarkMeasure:
    """Aleksandrov-Clark measure of B in direction xi (|xi| <= 1).

    On the circle |b| <= |B| |xi| <= 1 for b = B xi^*, so b(lam) = 1 forces
    |B(lam)| = 1: every point mass sits at a member lam of the boundary
    spectrum with b(lam) = 1, with mass 1/(lam b'(lam)).  The other zeros
    of 1 - b, found with the atoms divided out, are the density's poles; the
    partial fractions of 2/(1 - b) are checked at eight interior points.
    """
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.shape[0] != ctx.dim:
        raise ValidationError(f"xi must have dimension {ctx.dim}")
    if not np.linalg.norm(xi) <= 1.0 + 1e-10:
        raise ValidationError("xi must lie in the closed unit ball")
    b = ctx.B.pair(xi)
    one_minus = 1.0 - b
    if one_minus.is_zero:
        raise DegenerateSymbol("symbol is identically one")
    db = b.derivative()

    masses = []
    rest = one_minus.coeffs
    for lam, _ in ctx.Lambda:
        if abs(1.0 - b(lam)) > UNIMODULAR_TOL:
            continue
        masses.append((complex(lam), _point_mass(lam * db(lam), lam)))
        rest = _divide_one_minus(rest, 1.0 / lam)
    # by (real, imag), with real parts that tie up to rounding (conjugate
    # atoms) ordered by imag
    masses.sort(key=lambda lm: (round(lm[0].real, 9), lm[0].imag))

    roots = poly_roots(CPoly(rest))
    for w, k in roots:
        # a zero in the closed disk that is no atom fails as an atom would (a
        # multiple zero on the circle, split by rounding when its slope
        # vanishes), or is a lost member of the spectrum
        if abs(w) <= 1.0 + (UNIMODULAR_TOL if k > 1 else 0.0):
            _point_mass(w * db(w) if k == 1 else 0.0, w)
            raise BoundaryNotRegular(f"b = 1 at {w}, which is not in the boundary spectrum")
    # 1 - |b|^2 has the density's sign off the atoms
    n = pow2_at_least(max(4 * b.degree + 1, 64))
    dip = float((1.0 - np.abs(circle_eval(b.coeffs, n)) ** 2).min())
    if dip < DENSITY_FLOOR:
        raise NotPositive(f"Clark density is negative: 1 - |b|^2 dips to {dip:.3e}")
    poles = tuple((w, _principal_part(one_minus.coeffs, w, k)) for w, k in roots)

    h0 = (1.0 + b(0)) / (1.0 - b(0))
    # 2/(1 - b) has a constant part only when 1 - b is constant
    const = 2.0 / one_minus.coeffs[0] if one_minus.degree == 0 else 0.0
    z = _PROBE_POINTS
    lhs, rhs = 2.0 / (1.0 - b(z)), const + _principal_sum(poles, z)
    for lam, m in masses:
        rhs += 2.0 * m * lam / (lam - z)
    err = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))))
    if err > 1e-6:
        raise NumericsError(f"partial fractions of 2/(1 - b) off by {err:.3e}")
    total = -1.0 + 2.0 * sum(m for _, m in masses) + (const + _principal_sum(poles, 0j)).real
    return ClarkMeasure(xi, b, tuple(masses), poles, float(total), float(h0.imag))


def _point_mass(s, lam) -> float:
    """Clark mass 1/s at a point lam where b(lam) = 1, for s = lam b'(lam).

    |1 - b|^2 has second angle derivative 2|s|^2 there, and a vanishing one
    is a higher-order zero.
    """
    if 2.0 * abs(s) ** 2 < 1e-14:
        raise HigherOrderBoundaryZero("1 - b vanishes beyond first order on the circle")
    mass = 1.0 / s
    if abs(mass.imag) > 1e-9 * max(1.0, abs(mass)) or mass.real <= 0:
        raise NonpositiveMass(f"mass {mass} at {lam} is not positive")
    return float(mass.real)


def _principal_part(p: np.ndarray, w: complex, k: int) -> np.ndarray:
    """Coefficients c_1..c_k of the principal part of 2/p at its zero w of
    order k: c_j = t_{k-j}, t the Taylor coefficients at w of 2/g for g =
    p/(z - w)^k, whose own are p's, sum_i C(i, j) p_i w^(i-j), from j = k."""
    s = [horner(p[j:] * [math.comb(i, j) for i in range(j, p.shape[0])], w)
         for j in range(k, 2 * k)]
    t = [2.0 / s[0]]
    for j in range(1, k):
        t.append(-sum(s[i] * t[j - i] for i in range(1, j + 1)) / s[0])
    return np.array(t[::-1])


def _principal_sum(poles, z) -> np.ndarray:
    """The sum of the principal parts P_w(z) over the poles."""
    z = np.asarray(z, dtype=complex)
    out = np.zeros(z.shape, dtype=complex)
    for w, c in poles:
        u = 1.0 / (z - w)
        out += u * horner(c, u)
    return out


# interior points at which the partial fractions are checked
_PROBE_POINTS = np.array([
    0.23 * np.exp(0.7j), 0.23 * np.exp(2.9j),
    0.41 * np.exp(1.3j), 0.41 * np.exp(-2.1j),
    0.57 * np.exp(0.4j), 0.57 * np.exp(-1.7j),
    0.73 * np.exp(2.2j), 0.73 * np.exp(-0.9j),
])
