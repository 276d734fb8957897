"""Cyclicity analysis: outer test, boundary spectrum, certificates.

A polynomial is cyclic for multiplication by z exactly when it is outer (no
zeros in the open disk; circle zeros are allowed) and does not vanish at any
point of the boundary spectrum, the unimodular zero set of the mate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InconclusiveGap, ValidationError, ZeroFunction
from .poly import CPoly, _as_cpoly, poly_roots
from .space import SpaceContext, _point_residuals
from .tolerances import UNIMODULAR_TOL

BOUNDARY_ZERO_REL = 1e-8


@dataclass(frozen=True)
class CyclicityCertificate:
    """Decision record: outer test, boundary evaluations, and margins."""

    is_outer: bool
    interior_roots: tuple
    boundary_checks: tuple
    verdict: bool
    min_boundary_abs: float | None
    max_interior_modulus: float | None


@dataclass(frozen=True)
class SpectrumSweep:
    """Point-evaluation residuals over spectrum members and control points."""

    entries: tuple
    gap_ratio: float
    order: int


def is_outer(f: CPoly):
    """(flag, interior_roots): outer iff all roots have |r| >= 1 - UNIMODULAR_TOL."""
    f = _as_cpoly(f)
    if f.is_zero:
        raise ZeroFunction("the zero function is neither outer nor cyclic")
    if f.degree == 0:
        return True, []
    interior = [(r, m) for r, m in poly_roots(f) if abs(r) < 1.0 - UNIMODULAR_TOL]
    return len(interior) == 0, interior


def cyclicity(ctx: SpaceContext, f) -> CyclicityCertificate:
    """Certificate for cyclicity of the polynomial f in the space."""
    f = _as_cpoly(f)
    if f.is_zero:
        raise ZeroFunction("the zero function is not cyclic")
    outer, interior = is_outer(f)
    scale = float(np.abs(f.coeffs).max())
    checks = []
    for lam, _ in ctx.Lambda:
        val = f(lam)
        checks.append((lam, val, abs(val) > BOUNDARY_ZERO_REL * scale))
    verdict = outer and all(ok for _, _, ok in checks)
    min_boundary = min((abs(v) for _, v, _ in checks), default=None)
    max_interior = max((abs(r) for r, _ in interior), default=None)
    return CyclicityCertificate(outer, tuple(interior), tuple(checks), verdict,
                                min_boundary, max_interior)


def spectrum_crosscheck(ctx: SpaceContext, N: int,
                        controls=None) -> SpectrumSweep:
    """Empirical validation of the boundary spectrum via residual gaps.

    Sweeps spectrum members and unimodular control points through the
    point-evaluation residual at order N; members stay bounded below while
    controls decay.  The decay is like 1/N, not geometric: for ROW2 a
    control lam has residual 8/(N|1 - lam|^2 + 10) against 4/5 at the
    member 1, so the gap ratio is 1 + N|1 - lam|^2/10.  That is (N+5)/5 at
    +-i, which exceeds 10 only from N = 46.  The default controls are the
    four of sixteen circle points farthest from the spectrum; for ROW2 the
    nearest is exp(2.46i), where the ratio exceeds 10 from N = 26.  A gap
    ratio below 10 is reported as an `InconclusiveGap` warning, not a
    failure.  One matrix product with the context's orthonormal
    polynomials serves every point.
    """
    if N < 2 * max(ctx.a.degree, 0) + 4:
        raise ValidationError(f"order N = {N} too small for this mate degree")
    if controls is None:
        controls = _default_controls(ctx)
    members = [lam for lam, _ in ctx.Lambda]
    points = members + [complex(lam) for lam in controls]
    residuals = _point_residuals(ctx, points, N).tolist()
    entries = [(lam, r, i < len(members))
               for i, (lam, r) in enumerate(zip(points, residuals))]
    member_min = min((r for _, r, flag in entries if flag), default=None)
    control_max = max((r for _, r, flag in entries if not flag), default=None)
    if member_min is None or control_max is None:
        ratio = float("inf")
    else:
        ratio = member_min / max(control_max, 1e-300)
        if ratio < 10.0:
            warnings.warn(
                f"spectrum gap ratio {ratio:.2f} < 10 at N = {N}",
                InconclusiveGap, stacklevel=2,
            )
    return SpectrumSweep(tuple(entries), ratio, N)


def _default_controls(ctx: SpaceContext):
    """The 4 of 16 circle points farthest from the spectrum."""
    points = np.exp(1j * (np.linspace(0.0, 2.0 * np.pi, 16,
                                      endpoint=False) + 0.5))
    dist = np.array([min((abs(z - lam) for lam, _ in ctx.Lambda),
                         default=np.inf) for z in points])
    keep = np.sort(np.argsort(-dist, kind="stable")[:4])
    return [complex(points[i]) for i in keep if dist[i] > 0.2]
