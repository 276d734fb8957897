"""Boundary behavior: Caratheodory checks, Clark measures, kernel limits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryNotRegular,
    DegenerateSymbol,
    DomainError,
    HigherOrderBoundaryZero,
    NonpositiveMass,
    NotPositive,
    NumericsError,
    ValidationError,
)
from .poly import CPoly, poly_roots
from .space import UNIMODULAR_TOL, SpaceContext, hb_inner, kernel


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

    b(z) = B(z) xi^* is the scalar symbol; point_masses sit at the unimodular
    roots of 1 - b, and density tabulates the absolutely continuous part
    (1 - |b|^2)/|1 - b|^2 on an equispaced circle grid (removable points
    filled with their limit).
    """

    xi: np.ndarray
    symbol: CPoly
    point_masses: tuple
    density_values: np.ndarray
    total_mass: float
    imag_const: float

    @property
    def ac_mass(self) -> float:
        return self.total_mass - sum(m for _, m in self.point_masses)

    def mass_at(self, lam: complex, tol: float = 1e-8) -> float:
        for l, m in self.point_masses:
            if abs(l - lam) <= tol:
                return m
        return 0.0


def caratheodory(ctx: SpaceContext, lam) -> BoundaryReport:
    """Decide bounded point evaluation at lam and certify the kernel norm."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-10:
        raise ValidationError("caratheodory probe needs a unimodular point")
    member = None
    for l, _ in ctx.Lambda:
        if abs(l - lam) <= UNIMODULAR_TOL:
            member = l
            break
    bv = ctx.B(lam)
    if member is None:
        if abs((np.abs(bv) ** 2).sum() - 1.0) <= UNIMODULAR_TOL:
            raise BoundaryNotRegular(
                f"|B({lam})| = 1 but {lam} is not a mate zero; "
                "boundary spectrum is inconsistent"
            )
        return BoundaryReport(lam, False, bv)

    lam = member
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
    mass = clark(ctx, bv).mass_at(lam)
    return BoundaryReport(lam, True, bv, exact, float(lhopital.real),
                          radial, mass)


def radial_extrapolate(sample, k_range=range(4, 21)) -> float:
    """Radial boundary limit of sample(r) over r = 1 - 2^-k by extrapolation."""
    return _richardson([sample(1.0 - 2.0 ** (-k)) for k in k_range])


def _richardson(values, ratio: float = 2.0, max_col: int = 6) -> float:
    """Neville table for samples at geometrically shrinking steps h_k."""
    table = np.asarray(values, dtype=float)
    for j in range(1, min(max_col, table.shape[0] - 1) + 1):
        table = table[1:] + (table[1:] - table[:-1]) / (ratio ** j - 1.0)
    return float(table[-1])


def clark(ctx: SpaceContext, xi, grid_log2: int = 14) -> ClarkMeasure:
    """Aleksandrov-Clark measure of B in direction xi (|xi| <= 1).

    Point masses are located at the unimodular roots of the polynomial
    1 - b with b = B xi^*, each mass evaluated in closed form as
    conj(lam)/b'(lam); the density is tabulated on the grid and the Herglotz
    reconstruction is re-verified at eight interior points.
    """
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.shape[0] != ctx.dim:
        raise ValidationError(f"xi must have dimension {ctx.dim}")
    if np.linalg.norm(xi) > 1.0 + 1e-10:
        raise ValidationError("xi must lie in the closed unit ball")
    b = ctx.B.pair(xi)
    one_minus = 1.0 - b
    if one_minus.is_zero:
        raise DegenerateSymbol("symbol is identically one")

    masses = []
    if one_minus.degree >= 1:
        db = b.derivative()
        for r, mult in poly_roots(one_minus):
            if abs(abs(r) - 1.0) > UNIMODULAR_TOL:
                continue
            if mult >= 2:
                raise HigherOrderBoundaryZero(
                    f"unimodular zero of 1 - b at {r} has multiplicity {mult}"
                )
            lam = r / abs(r)
            mass = np.conj(lam) / db(lam)
            if abs(mass.imag) > 1e-9 * max(1.0, abs(mass)) or mass.real <= 0:
                raise NonpositiveMass(f"mass {mass} at {lam} is not positive")
            masses.append((complex(lam), float(mass.real)))

    n = 1 << grid_log2
    thetas = 2.0 * np.pi * np.arange(n) / n
    z = np.exp(1j * thetas)
    bz = b(z)
    num = 1.0 - np.abs(bz) ** 2
    den = np.abs(1.0 - bz) ** 2
    density = np.empty(n)
    fill = den < 1e-13
    density[~fill] = num[~fill] / den[~fill]
    if fill.any():
        d_lau = _scalar_defect_coeffs(b)
        e_lau = _product_conj_coeffs(one_minus)
        for j in np.nonzero(fill)[0]:
            density[j] = _removable_ratio(d_lau, e_lau, thetas[j])
    if density.min() < -1e-9:
        raise NotPositive(f"Clark density dips to {density.min():.3e}")

    h0 = (1.0 + b(0)) / (1.0 - b(0))
    total = sum(m for _, m in masses) + float(density.mean())
    measure = ClarkMeasure(xi, b, tuple(masses), density, total,
                           float(h0.imag))
    _verify_herglotz(measure, h0, z)
    return measure


def _scalar_defect_coeffs(b: CPoly) -> np.ndarray:
    """Laurent coefficients of 1 - b(z) b(z)* for |z| = 1, indices k+q."""
    c = b.coeffs
    q = max(b.degree, 0)
    out = np.zeros(2 * q + 1, dtype=complex)
    for k in range(q + 1):
        s = np.sum(c[k:] * np.conj(c[: c.shape[0] - k])) if c.shape[0] > k else 0.0
        out[q + k] = -s
        out[q - k] = -np.conj(s)
    out[q] += 1.0
    return out


def _product_conj_coeffs(p: CPoly) -> np.ndarray:
    """Laurent coefficients of p(z) p(z)* for |z| = 1, indices k+n."""
    c = p.coeffs
    n = max(p.degree, 0)
    out = np.zeros(2 * n + 1, dtype=complex)
    for k in range(n + 1):
        s = np.sum(c[k:] * np.conj(c[: c.shape[0] - k])) if c.shape[0] > k else 0.0
        out[n + k] = s
        out[n - k] = np.conj(s)
    return out


def _removable_ratio(d_lau: np.ndarray, e_lau: np.ndarray, theta: float) -> float:
    """Limit of two trig polynomials with matching double zeros at theta."""
    dm = d_lau.shape[0] // 2
    em = e_lau.shape[0] // 2
    ks_d = np.arange(-dm, dm + 1)
    ks_e = np.arange(-em, em + 1)
    num = -np.sum(ks_d ** 2 * d_lau * np.exp(1j * ks_d * theta)).real
    den = -np.sum(ks_e ** 2 * e_lau * np.exp(1j * ks_e * theta)).real
    if abs(den) < 1e-14:
        raise HigherOrderBoundaryZero(
            "density limit is 0/0 beyond second order at a mass point"
        )
    return float(num / den)


_PROBE_POINTS = [
    0.23 * np.exp(0.7j), 0.23 * np.exp(2.9j),
    0.41 * np.exp(1.3j), 0.41 * np.exp(-2.1j),
    0.57 * np.exp(0.4j), 0.57 * np.exp(-1.7j),
    0.73 * np.exp(2.2j), 0.73 * np.exp(-0.9j),
]


def _verify_herglotz(measure: ClarkMeasure, h0: complex, z_grid: np.ndarray):
    """Check the Cauchy-transform reconstruction of (1 - b)^{-1}."""
    b = measure.symbol
    for z in _PROBE_POINTS:
        lhs = 1.0 / (1.0 - b(z))
        rhs = (1.0 - np.conj(h0)) / 2.0
        for lam, m in measure.point_masses:
            rhs += m / (1.0 - z * np.conj(lam))
        rhs += np.mean(measure.density_values / (1.0 - z * np.conj(z_grid)))
        if abs(lhs - rhs) > 1e-6 * max(1.0, abs(lhs)):
            raise NumericsError(
                f"Herglotz reconstruction off by {abs(lhs - rhs):.3e} at {z}"
            )


def kernel_convergence(ctx: SpaceContext, lam, radii) -> list[float]:
    """||K_{r lam} - K_lam||^2 for each r, from reproducing identities only."""
    lam = complex(lam)
    k = kernel(ctx, lam)  # raises BoundaryNotRegular outside the spectrum
    knorm = float(hb_inner(ctx, k, k).real)
    out = []
    for r in radii:
        w = r * lam
        kww = (1.0 - (np.abs(ctx.B(w)) ** 2).sum()) / (1.0 - abs(w) ** 2)
        out.append(float(kww - 2.0 * k.f(w).real + knorm))
    return out


# ---------------------------------------------------------------------------
# closed-form boundary data for the infinite-rank limit of the TRUNC family


def trunc_limit_pairing(z):
    """B(z) B(1)* for the infinite-rank limit of the TRUNC fixtures.

    The geometric tail sums to a rational function: (1+z)/4 + z^2/(4-2z).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 2.0):
        raise DomainError("pairing has a pole at z = 2")
    out = (1.0 + z) / 4.0 + z * z / (4.0 - 2.0 * z)
    return complex(out) if out.ndim == 0 else out


def trunc_limit_slope(radial: bool = False) -> float:
    """Boundary slope lim_{z->1} (1 - g(z))/(1 - z) of the limit pairing."""
    if radial:
        return radial_extrapolate(
            lambda r: float(((1.0 - trunc_limit_pairing(r)) / (1.0 - r)).real)
        )
    # derivative of (1+z)/4 + z^2/(4-2z) at z = 1
    z = 1.0
    return float(0.25 + (8.0 * z - 2.0 * z * z) / (4.0 - 2.0 * z) ** 2)
