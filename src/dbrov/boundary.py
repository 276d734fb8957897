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
from .poly import CPoly, circle_eval
from .space import UNIMODULAR_TOL, SpaceContext, hb_inner, kernel, on_circle, \
    spectrum_member
from .tolerances import DENSITY_FLOOR

# circle points of the tabulated Clark density
CLARK_GRID = 1 << 14


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

    b(z) = B(z) xi^* is the scalar symbol; point_masses sit at the members
    of the boundary spectrum where b = 1, and density tabulates the
    absolutely continuous part (1 - |b|^2)/|1 - b|^2 on an equispaced circle
    grid (removable points filled with their limit).
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

    def mass_at(self, lam: complex) -> float:
        atom = spectrum_member(self.point_masses, lam)
        return 0.0 if atom is None else atom[1]


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
    spectrum with b(lam) = 1, with mass 1/(lam b'(lam)).  The density
    (1 - |b|^2)/|1 - b|^2 is tabulated on the CLARK_GRID circle points, and
    the Herglotz reconstruction is re-verified at eight interior points.
    """
    xi = np.asarray(xi, dtype=complex).reshape(-1)
    if xi.shape[0] != ctx.dim:
        raise ValidationError(f"xi must have dimension {ctx.dim}")
    if not np.linalg.norm(xi) <= 1.0 + 1e-10:
        raise ValidationError("xi must lie in the closed unit ball")
    b = ctx.B.pair(xi)
    if (1.0 - b).is_zero:
        raise DegenerateSymbol("symbol is identically one")
    db = b.derivative()

    masses = []
    for lam, _ in ctx.Lambda:
        if abs(1.0 - b(lam)) > UNIMODULAR_TOL:
            continue
        masses.append((complex(lam), _point_mass(lam * db(lam), lam)))
    # by (real, imag), with real parts that tie up to rounding (conjugate
    # atoms) ordered by imag
    masses.sort(key=lambda lm: (round(lm[0].real, 9), lm[0].imag))

    n = CLARK_GRID
    bz = circle_eval(b.coeffs, n)
    num = 1.0 - np.abs(bz) ** 2
    den = np.abs(1.0 - bz) ** 2
    fill = den < 1e-13
    density = np.divide(num, den, where=~fill, out=np.empty(n))
    if fill.any():
        # at b(z) = 1 the ratio of the two second angle derivatives, with
        # s = z b'(z) and c = z^2 b''(z)
        zf = np.exp(2j * np.pi * np.nonzero(fill)[0] / n)
        s = _slope(zf * db(zf))
        c = zf ** 2 * db.derivative()(zf)
        density[fill] = ((s + c).real - np.abs(s) ** 2) / np.abs(s) ** 2
    if density.min() < DENSITY_FLOOR:
        raise NotPositive(f"Clark density dips to {density.min():.3e}")

    h0 = (1.0 + b(0)) / (1.0 - b(0))
    total = sum(m for _, m in masses) + float(density.mean())
    measure = ClarkMeasure(xi, b, tuple(masses), density, total,
                           float(h0.imag))
    _verify_herglotz(measure, h0)
    return measure


def _point_mass(s, lam) -> float:
    """Clark mass 1/s at a point lam where b(lam) = 1, for s = lam b'(lam)."""
    mass = 1.0 / _slope(s)
    if abs(mass.imag) > 1e-9 * max(1.0, abs(mass)) or mass.real <= 0:
        raise NonpositiveMass(f"mass {mass} at {lam} is not positive")
    return float(mass.real)


def _slope(s):
    """s = z b'(z) at zeros of 1 - b on the circle; |1 - b|^2 has second
    angle derivative 2|s|^2 there, and a vanishing one is a higher-order
    zero."""
    if np.any(2.0 * np.abs(s) ** 2 < 1e-14):
        raise HigherOrderBoundaryZero(
            "1 - b vanishes beyond first order on the circle"
        )
    return s


_PROBE_POINTS = np.array([
    0.23 * np.exp(0.7j), 0.23 * np.exp(2.9j),
    0.41 * np.exp(1.3j), 0.41 * np.exp(-2.1j),
    0.57 * np.exp(0.4j), 0.57 * np.exp(-1.7j),
    0.73 * np.exp(2.2j), 0.73 * np.exp(-0.9j),
])
# terms of the density's power series summed at the probes
_HERGLOTZ_TERMS = 128


def _herglotz_rhs(measure: ClarkMeasure, h0: complex) -> np.ndarray:
    """(1 - conj h0)/2 + sum of m/(1 - z conj(lam)) over the atoms + the
    mean of rho_j/(1 - z conj(t_j)) over the grid t_j, at every probe z.

    The grid mean is exactly sum_k rho^_(k mod n) z^k, with rho^ the
    discrete Fourier coefficients of the tabulated density (one real FFT).
    The series is summed to R = _HERGLOTZ_TERMS terms; since |rho^_r| <=
    mean |rho| and |z| <= 0.73, the dropped tail is at most
    mean |rho| 0.73^R / 0.27 < 1.2e-17 mean |rho|.
    """
    z = _PROBE_POINTS
    rho = measure.density_values
    spec = np.fft.rfft(rho)[:_HERGLOTZ_TERMS] / rho.shape[0]
    rhs = (1.0 - np.conj(h0)) / 2.0 + (z[:, None] ** np.arange(_HERGLOTZ_TERMS)) @ spec
    for lam, m in measure.point_masses:
        rhs += m / (1.0 - z * np.conj(lam))
    return rhs


def _verify_herglotz(measure: ClarkMeasure, h0: complex):
    """Check the Cauchy-transform reconstruction of (1 - b)^{-1}."""
    lhs = 1.0 / (1.0 - measure.symbol(_PROBE_POINTS))
    err = np.abs(lhs - _herglotz_rhs(measure, h0))
    bad = np.nonzero(err > 1e-6 * np.maximum(1.0, np.abs(lhs)))[0]
    if bad.size:
        raise NumericsError(f"Herglotz reconstruction off by {err[bad[0]]:.3e} "
                            f"at {_PROBE_POINTS[bad[0]]}")


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
