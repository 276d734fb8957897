"""Construction of the space context and its Hilbert-space geometry.

Every polynomial f belongs to the space; its embedded pair (f, f+) is the
unique one making the analytic part of B*f + A*f+ vanish, computed by a
banded back-substitution against A(0)*.  Norms, kernels, shifts and Gram
machinery all go through these pairs, which makes the norm identity exact by
construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BoundaryNotRegular,
    ConditioningWarning,
    DomainError,
    FactorizationDiverged,
    IllConditionedConstant,
    NumericsError,
)
from .factor import FactorReport, factor_residual, mate_report, outer_check, \
    wilson_report
from .poly import CPoly, MatPoly, VecPoly, circle_grid, pow2_at_least, \
    poly_roots, toeplitz_conj
from .rowschur import RowSchur, defect_laurent

UNIMODULAR_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    tol_psd: float = 1e-8
    tol_factor: float = 1e-10
    tol_outer: float = 1e-6
    tol_eval: float = 1e-8


@dataclass(frozen=True)
class HBElement:
    """Embedded pair (f, f+) with its exact squared norm.

    For truncated interior kernels, tail_bound carries the geometric bound on
    the norm of the dropped tail; exact elements have tail_bound 0.
    """

    f: CPoly
    f_plus: VecPoly
    norm_sq: float
    tail_bound: float = 0.0


class SpaceContext:
    """Immutable bundle (B, mate a, outer factor A, boundary spectrum)."""

    def __init__(self, B: RowSchur, a: CPoly, A: MatPoly, Lambda, tol: Tolerances,
                 reports: dict):
        self.B = B
        self.a = a
        self.A = A
        self.Lambda = tuple(Lambda)
        self.tol = tol
        self.reports = dict(reports)
        self._astar = np.conj(A.coeffs).transpose(0, 2, 1)

    @property
    def dim(self) -> int:
        return self.B.dim

    def __repr__(self):
        return (f"SpaceContext(d={self.dim}, deg B={self.B.degree}, "
                f"|Lambda|={len(self.Lambda)})")


def make_context(B: RowSchur, tol: Tolerances | None = None,
                 max_iter: int = 600,
                 grid_log2: int | None = None) -> SpaceContext:
    """Build the full context for B: mate, outer factor, boundary spectrum.

    The matrix factorization is pushed well below tol_factor when possible;
    boundary-degenerate densities that stall are accepted down to 1e-8, since
    regularizing them would perturb the boundary spectrum.
    """
    tol = tol or Tolerances()
    m_rep = mate_report(B, tol_psd=tol.tol_psd)
    a = m_rep.factor

    lam = []
    if a.degree >= 1:
        for r, mult in poly_roots(a):
            if abs(abs(r) - 1.0) <= UNIMODULAR_TOL:
                lam.append((r / abs(r), mult))
    lam.sort(key=lambda t: np.angle(t[0]))

    _, matrix_defect = defect_laurent(B)
    try:
        w_rep = wilson_report(matrix_defect, tol_factor=min(tol.tol_factor, 1e-12),
                              max_iter=max_iter, grid_log2=grid_log2)
    except FactorizationDiverged as exc:
        if exc.best_factor is None or exc.best_residual is None \
                or exc.best_residual > 1e-8:
            raise
        A = exc.best_factor
        w_rep = FactorReport(A, factor_residual(A, matrix_defect),
                             outer_check(A), len(exc.residual_trace or []))
    A = w_rep.factor

    a0_cond = float(np.linalg.cond(A.coeffs[0]))
    if a0_cond > 1e8:
        raise IllConditionedConstant(f"cond(A(0)) = {a0_cond:.3e}")
    reports = {
        "mate_residual_sup": m_rep.residual_sup,
        "factor_residual_sup": w_rep.residual_sup,
        "outer_gap_mate": m_rep.outer_gap,
        "outer_gap_factor": w_rep.outer_gap,
        "factor_iterations": w_rep.iterations,
        "A0_cond": a0_cond,
        "det_gap_sup": _det_gap(A, a),
    }
    ctx = SpaceContext(B, a, A, lam, tol, reports)
    _verify_context(ctx)
    return ctx


def _det_gap(A: MatPoly, a: CPoly, n_grid: int = 512) -> float:
    z = circle_grid(max(n_grid, pow2_at_least(4 * A.dim * max(A.degree, 1) + 1)))
    return float(np.abs(np.linalg.det(A(z)) - a(z)).max())


def _verify_context(ctx: SpaceContext) -> None:
    rep = ctx.reports
    checks = [
        ("mate residual", rep["mate_residual_sup"], 1e-8),
        ("factorization residual", rep["factor_residual_sup"], 1e-8),
        ("mate outer gap", rep["outer_gap_mate"], ctx.tol.tol_outer),
        ("factor outer gap", rep["outer_gap_factor"], ctx.tol.tol_outer),
        ("det A vs mate", rep["det_gap_sup"], 1e-7),
    ]
    for lam, _ in ctx.Lambda:
        bv = ctx.B(lam)
        checks.append(("|B(lam)| = 1", abs((np.abs(bv) ** 2).sum() - 1.0), 1e-8))
        checks.append(("A(lam) B(lam)* = 0",
                       float(np.abs(ctx.A(lam) @ np.conj(bv)).max()), 1e-7))
    for name, value, bound in checks:
        if not value <= bound:
            raise NumericsError(f"context check '{name}' failed: "
                                f"{value:.3e} > {bound:.1e}")


# ---------------------------------------------------------------------------
# embedding and inner products


def embed(ctx: SpaceContext, f) -> HBElement:
    """Embed a polynomial: the unique plus part of degree <= deg f.

    The one-column case of `_embed_block`, residual re-verified.
    """
    f = f if isinstance(f, CPoly) else CPoly(f)
    P, norms = _embed_block(ctx, f.coeffs[:, None])
    return HBElement(f, VecPoly(P[:, :, 0], dim=ctx.dim), float(norms[0]))


def _embed_block(ctx: SpaceContext, F: np.ndarray):
    """Plus parts P (n+1, d, m) and squared norms (m,) of the columns of F.

    Rows k = n .. 0 of the analytic part of B*f + A*f+ = 0 form a banded
    upper-triangular block Toeplitz system with diagonal block A(0)*, so
    every column of the coefficient block F (n+1, m) shares one
    back-substitution.  The band terms use einsum rather than BLAS and the
    norms are sequential sums, so a column's numbers do not depend on the
    other columns or on trailing zero rows.
    """
    if ctx.reports["A0_cond"] > 1e6:
        raise IllConditionedConstant(
            f"A(0)* solve would lose more than 6 digits "
            f"(cond = {ctx.reports['A0_cond']:.3e})"
        )
    n1, m = F.shape
    astar, bstar = ctx._astar, np.conj(ctx.B.coeffs)
    windows = sliding_window_view(
        np.vstack([F, np.zeros((bstar.shape[0], m))]), bstar.shape[0], axis=0)
    rhs = np.einsum("ja,kmj->kam", bstar, windows[:n1])
    P = np.zeros((n1, ctx.dim, m), dtype=complex)
    for k in range(n1 - 1, -1, -1):
        j = min(astar.shape[0], n1 - k)
        band = np.einsum("jab,jbm->am", astar[1:j], P[k + 1 : k + j])
        P[k] = -np.linalg.solve(astar[0], rhs[k] + band)
    _check_pairs(ctx, F, P)
    # the leading zero row gives an empty block zero norms
    sq = np.abs(np.vstack([np.zeros((1, m)), F, P.reshape(-1, m)])) ** 2
    return P, np.cumsum(sq, axis=0)[-1]


def _conj_band(adj: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Conjugate-analytic Toeplitz action r_k = sum_j adj_j x_{k+j} per column.

    adj holds adjoint coefficients (p+1, d, e), X the coefficient rows of m
    columns (n+1, e, m); the result has shape (n+1, d, m).
    """
    out = np.zeros((X.shape[0], adj.shape[1], X.shape[2]), dtype=complex)
    for j in range(min(adj.shape[0], X.shape[0])):
        out[: X.shape[0] - j] += adj[j] @ X[j:]
    return out


def _pair_residual(ctx: SpaceContext, F: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Per-column sup of the analytic part of B*f + A*f+; zero for true pairs.

    F (n+1, m) and P (n'+1, d, m) hold the coefficient rows of m pairs.
    """
    res = np.zeros((max(F.shape[0], P.shape[0]), ctx.dim, F.shape[1]),
                   dtype=complex)
    res[: F.shape[0]] += _conj_band(np.conj(ctx.B.coeffs)[:, :, None],
                                    F[:, None, :])
    res[: P.shape[0]] += _conj_band(ctx._astar, P)
    return np.abs(res).max(axis=(0, 1), initial=0.0)


def _check_pairs(ctx: SpaceContext, F: np.ndarray, P: np.ndarray) -> None:
    worst = _pair_residual(ctx, F, P)
    scale = 1.0 + np.maximum(np.abs(F).max(axis=0, initial=0.0),
                             np.abs(P).max(axis=(0, 1), initial=0.0))
    if np.any(worst > ctx.tol.tol_eval * scale):
        raise IllConditionedConstant(
            f"pair residual {worst.max():.3e} exceeds tolerance; "
            f"A(0)* solve degraded"
        )


def hb_inner(ctx: SpaceContext, F: HBElement, G: HBElement) -> complex:
    """<F, G> = <f, g>_{H2} + <f+, g+>_{H2(D)}, linear in the first slot."""
    return _pair_inner(F.f.coeffs, G.f.coeffs) + _pair_inner(
        F.f_plus.coeffs, G.f_plus.coeffs
    )


def _pair_inner(fa: np.ndarray, ga: np.ndarray) -> complex:
    n = min(fa.shape[0], ga.shape[0])
    if n == 0:
        return 0j
    return complex(np.vdot(ga[:n], fa[:n]))


# ---------------------------------------------------------------------------
# kernels


def kernel(ctx: SpaceContext, w, N: int | None = None) -> HBElement:
    """Reproducing kernel at w.

    Interior points yield a truncated pair with a reported geometric
    tail_bound; for w on the circle the kernel exists exactly when w lies in
    the boundary spectrum, where both numerators vanish at w and the division
    by (1 - conj(w) z) is exact polynomial division.
    """
    w = complex(w)
    if abs(abs(w) - 1.0) <= 1e-10:
        return _boundary_kernel(ctx, w)
    if abs(w) >= 1.0:
        raise DomainError(f"kernel point {w} lies outside the closed disk")
    bw = ctx.B(w)
    p = 1.0 - ctx.B.pair(bw)
    p_plus = ctx.A.matvec_const(-np.conj(bw))
    max_deg = max(p.degree, p_plus.degree, 0)
    if N is None:
        if w == 0:
            N = max_deg
        else:
            N = int(np.ceil(np.log(ctx.tol.tol_eval) / np.log(abs(w)))) + ctx.B.degree
        N = max(N, max_deg)
    wbar = np.conj(w) ** np.arange(N + 1)
    fc = np.convolve(p.coeffs, wbar)[: N + 1] if not p.is_zero else np.zeros(N + 1)
    pc = np.zeros((N + 1, ctx.dim), dtype=complex)
    for i in range(ctx.dim):
        col = p_plus.coeffs[:, i] if not p_plus.is_zero else np.zeros(1)
        pc[:, i] = np.convolve(col, wbar)[: N + 1]
    if w == 0:
        tail = 0.0
    else:
        cf = float(np.abs(p.coeffs).sum())
        cp = float(np.linalg.norm(p_plus.coeffs, axis=1).sum()) if not p_plus.is_zero else 0.0
        tail = (cf + cp) * abs(w) ** (N + 1 - max_deg) / np.sqrt(1.0 - abs(w) ** 2)
    f = CPoly(fc)
    f_plus = VecPoly(pc, dim=ctx.dim)
    return HBElement(f, f_plus, f.norm_sq() + f_plus.norm_sq(), tail_bound=tail)


def _boundary_kernel(ctx: SpaceContext, w: complex) -> HBElement:
    lam = None
    for l, _ in ctx.Lambda:
        if abs(l - w) <= 1e-8:
            lam = l
            break
    if lam is None:
        raise BoundaryNotRegular(
            f"{w} is not in the boundary spectrum; no bounded evaluation there"
        )
    bl = ctx.B(lam)
    p = 1.0 - ctx.B.pair(bl)
    p_plus = ctx.A.matvec_const(-np.conj(bl))
    fc, rem = _divide_by_one_minus(p.coeffs, lam)
    if abs(rem) > 1e-6:
        raise NumericsError(f"boundary kernel division remainder {abs(rem):.3e}")
    cols = []
    for i in range(ctx.dim):
        col = p_plus.coeffs[:, i] if not p_plus.is_zero else np.zeros(1, complex)
        qc, rem = _divide_by_one_minus(col, lam)
        if abs(rem) > 1e-6:
            raise NumericsError(
                f"boundary kernel plus-part remainder {abs(rem):.3e}"
            )
        cols.append(qc)
    n = max((c.shape[0] for c in cols), default=0)
    pc = np.zeros((n, ctx.dim), dtype=complex)
    for i, c in enumerate(cols):
        pc[: c.shape[0], i] = c
    f = CPoly(fc)
    f_plus = VecPoly(pc, dim=ctx.dim)
    _check_pairs(ctx, f.coeffs[:, None], f_plus.coeffs[:, :, None])
    return HBElement(f, f_plus, f.norm_sq() + f_plus.norm_sq())


def _divide_by_one_minus(coeffs: np.ndarray, lam: complex):
    """Divide p by (1 - conj(lam) z); returns (quotient, remainder)."""
    n = coeffs.shape[0] - 1
    if n < 0:
        return np.zeros(0, dtype=complex), 0j
    lb = np.conj(lam)
    q = np.zeros(max(n, 1), dtype=complex)
    acc = 0j
    for k in range(n):
        acc = coeffs[k] + lb * acc
        q[k] = acc
    rem = coeffs[n] + lb * (q[n - 1] if n >= 1 else 0.0)
    return q[:n] if n >= 1 else np.zeros(0, complex), complex(rem)


# ---------------------------------------------------------------------------
# shift operators


def backward_shift(ctx: SpaceContext, F: HBElement) -> HBElement:
    """(f, f+) -> (Lf, Lf+); contractive, annihilates constants."""
    f = F.f.backward()
    f_plus = F.f_plus.backward()
    return HBElement(f, f_plus, f.norm_sq() + f_plus.norm_sq(), F.tail_bound)


def multiply_z(ctx: SpaceContext, F: HBElement) -> HBElement:
    """Embed z*f; exact left inverse of backward_shift on embedded pairs."""
    return embed(ctx, F.f.shift_up())


def toeplitz_conj_hb(ctx: SpaceContext, phi: CPoly, F: HBElement) -> HBElement:
    """Conjugate-analytic Toeplitz operator acting on an embedded pair.

    Acts coefficientwise on both components; the plus part of the image is
    the image of the plus part, so the result is re-verified as a pair.
    """
    phi = phi if isinstance(phi, CPoly) else CPoly(phi)
    f = toeplitz_conj(phi, F.f)
    f_plus = toeplitz_conj(phi, F.f_plus) if not F.f_plus.is_zero \
        else VecPoly.zero(ctx.dim)
    if isinstance(f_plus, VecPoly) and f_plus.dim != ctx.dim:
        f_plus = VecPoly(f_plus.coeffs, dim=ctx.dim)
    _check_pairs(ctx, f.coeffs[:, None], f_plus.coeffs[:, :, None])
    return HBElement(f, f_plus, f.norm_sq() + f_plus.norm_sq())


# ---------------------------------------------------------------------------
# Gram machinery, density and point-evaluation residuals


def gram(ctx: SpaceContext, N: int) -> np.ndarray:
    """Hermitian positive definite monomial Gram matrix G_jk = <z^j, z^k>.

    One block embedding of 1, z, ..., z^N; the off-diagonal entries are the
    plus-part products P^T conj(P) and the diagonal is the pair norms, so
    G[k, k] equals embed(z^k).norm_sq exactly.
    """
    if N < 0:
        raise DomainError("Gram order must be nonnegative")
    P, norms = _embed_block(ctx, np.eye(N + 1, dtype=complex))
    Q = P.reshape(-1, N + 1)
    G = np.triu(Q.T @ np.conj(Q), 1)
    return G + np.conj(G.T) + np.diag(norms)


def _chol_psd(G: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        scale = float(np.abs(np.diag(G)).max(initial=1.0))
        warnings.warn(
            "Gram factorization needed 1e-12 diagonal jitter",
            ConditioningWarning, stacklevel=4,
        )
        return np.linalg.cholesky(G + 1e-12 * scale * np.eye(G.shape[0]))


def _section_kernel(ctx: SpaceContext, zeta: complex, N: int) -> float:
    """K^N_zeta(zeta) = e* G^{-1} e with e_j = zeta^j.

    The diagonal of the reproducing kernel of the polynomials of degree <= N
    under the norm of the space, from one Cholesky factor of the Gram.
    """
    y = np.linalg.solve(_chol_psd(gram(ctx, N)), zeta ** np.arange(N + 1))
    return float(np.vdot(y, y).real)


def density_residual(ctx: SpaceContext, w, N: int) -> float:
    """Squared distance from K_w to the span of 1, z, ..., z^N.

    The projection of K_w onto that span is the finite-section kernel, so
    the residual is K_w(w) - K^N_w(w).
    """
    w = complex(w)
    if abs(w) >= 1.0:
        raise DomainError("density residual needs an interior point")
    kww = float((1.0 - (np.abs(ctx.B(w)) ** 2).sum()) / (1.0 - abs(w) ** 2))
    val = kww - _section_kernel(ctx, w, N)
    if val < -1e-9:
        warnings.warn(f"density residual {val:.3e} is negative beyond -1e-9",
                      ConditioningWarning, stacklevel=2)
    return val


def point_eval_residual(ctx: SpaceContext, lam, N: int) -> float:
    """Squared distance in the space from 1 to span{(z - lam) z^k : k < N}.

    That span is exactly the polynomials of degree <= N vanishing at lam,
    so the distance is |1(lam)|^2 / K^N_lam(lam) = 1 / K^N_lam(lam).
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-10:
        raise DomainError("point evaluation probe needs a unimodular point")
    return 1.0 / _section_kernel(ctx, lam, max(N, 0))


def rank_one_identity_defect(ctx: SpaceContext, f, g) -> float:
    """Defect of the rank-one backward shift identity.

    |<Lf, g> - <f, zg> + sum_i <f, b_i> <L b_i, g>| with every inner product
    taken through embedded pairs.
    """
    f = f if isinstance(f, CPoly) else CPoly(f)
    g = g if isinstance(g, CPoly) else CPoly(g)
    F = embed(ctx, f)
    G = embed(ctx, g)
    t1 = hb_inner(ctx, backward_shift(ctx, F), G)
    t2 = hb_inner(ctx, F, embed(ctx, g.shift_up()))
    t3 = 0j
    for i in range(ctx.dim):
        bi = embed(ctx, ctx.B.coordinate(i))
        t3 += hb_inner(ctx, F, bi) * hb_inner(ctx, backward_shift(ctx, bi), G)
    return float(abs(t1 - t2 + t3))
