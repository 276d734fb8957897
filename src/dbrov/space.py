"""Construction of the space context and its Hilbert-space geometry.

Every polynomial f belongs to the space; its embedded pair (f, f+) is the
unique one making the analytic part of B*f + A*f+ vanish.  That system is
block Toeplitz: with one generator h, computed once per context by a banded
recurrence against A(0)* and continued on demand, z^k has plus part
(h_k, ..., h_0), f = sum c_m z^m has p_j = sum_i c_{j+i} h_i, and the
monomial Gram is built from h.  Norms, kernels, shifts and Gram machinery
all go through these pairs, with norms summed in one fixed order, which
makes the norm identity exact by construction.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoundaryNotRegular,
    ConditioningWarning,
    DomainError,
    IllConditionedConstant,
    NumericsError,
)
from .factor import MAX_ITER, _completion, _identities, mate_report
from .poly import CPoly, MatPoly, VecPoly, _as_cpoly, _check_size, _conj_band, \
    _divide_one_minus, _trim, horner, toeplitz_conj
from .rowschur import RowSchur
from .tolerances import BEST_FACTOR_TOL, DENSITY_FLOOR, UNIMODULAR_TOL, Tolerances


def on_circle(w):
    """|w| = 1 to 1e-10, elementwise: where kernels and point evaluations
    take their boundary branch."""
    return np.abs(np.abs(w) - 1.0) <= 1e-10


def spectrum_member(entries, w):
    """The (point, value) entry with its point within UNIMODULAR_TOL of w,
    or None; entries are ctx.Lambda (point, multiplicity) or the atoms
    (point, mass) of a Clark measure."""
    return next((e for e in entries if abs(e[0] - w) <= UNIMODULAR_TOL), None)


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
    """Immutable bundle (B, mate a, outer factor A, boundary spectrum).

    It lazily grows two private arrays, each replaced but never written in
    place, and no value the context reports changes: the embedding's
    generator (`_generator`, (N+1) x d entries) and the orthonormal
    polynomials L^{-1}, G = LL* the monomial Gram (`_orthonormal`, read by
    every density and point sweep), with (ceil((N+1)/32) * 32)^2 entries
    after a sweep of order N.  No Gram is kept.  `splits` holds the zero w
    of each factor the engine run split off, once per split.
    """

    def __init__(self, B: RowSchur, a: CPoly, A: MatPoly, Lambda, tol: Tolerances,
                 reports: dict, splits=()):
        self.B = B
        self.a = a
        self.A = A
        self.Lambda = tuple(Lambda)
        self.tol = tol
        self.reports = dict(reports)
        self._splits = tuple(splits)
        self._astar = np.conj(A.coeffs).transpose(0, 2, 1)
        self._h = np.zeros((0, self.dim), dtype=complex)
        self._linv = np.zeros((0, 0), dtype=complex)

    @property
    def dim(self) -> int:
        return self.B.dim

    @property
    def splits(self) -> tuple:
        return self._splits

    def __repr__(self):
        return (f"SpaceContext(d={self.dim}, deg B={self.B.degree}, "
                f"|Lambda|={len(self.Lambda)})")


def make_context(B: RowSchur, tol: Tolerances | None = None,
                 max_iter: int = MAX_ITER,
                 grid_log2: int | None = None) -> SpaceContext:
    """Build the full context for B: mate, outer factor, boundary spectrum.

    One engine run, `mate_report` with tol, max_iter and grid_log2, gives
    the mate a; a run that misses tol_factor is accepted down to 1e-8, since
    regularizing a boundary-degenerate defect would perturb the boundary
    spectrum.  A = a for d = 1; for d >= 2 the lossless completion of
    (a, B) gives it (`_completion`), with no second run.  The run's reports
    (iterations, grid, deflations, fallbacks, the mate's outer gap) hold for
    every d; `_identities` gives the residuals of a, A and det A = a and
    the outer gap of det A.  The boundary spectrum is the run's unimodular
    split points, multiplicity the number of splits at each; the context
    keeps all of the run's split points.
    """
    tol = tol or Tolerances()
    rep = mate_report(B, tol, max_iter, grid_log2)
    a = rep.factor
    A = _completion(B, a, rep.splits) if B.dim > 1 else MatPoly(a.coeffs[:, None, None])
    lam = Counter(w / abs(w) for w in rep.splits if abs(abs(w) - 1.0) <= UNIMODULAR_TOL)

    a0_cond = float(np.linalg.cond(A.coeffs[0]))
    if a0_cond > 1e8:
        raise IllConditionedConstant(f"cond(A(0)) = {a0_cond:.3e}")
    mate_sup, factor_sup, det_sup, outer_gap = _identities(B, a, A, rep.splits)
    reports = {
        "mate_residual_sup": mate_sup,
        "factor_residual_sup": factor_sup,
        "outer_gap_mate": rep.outer_gap,
        "outer_gap_factor": outer_gap,
        "factor_iterations": rep.iterations,
        "factor_grid": rep.grid,
        "boundary_deflations": len(rep.splits),
        "factor_fallback": float(rep.fallback),
        "mate_fallback": float(rep.fallback),
        "A0_cond": a0_cond,
        "det_gap_sup": det_sup,
    }
    ctx = SpaceContext(B, a, A, sorted(lam.items(), key=lambda t: np.angle(t[0])),
                       tol, reports, rep.splits)
    _verify_context(ctx)
    return ctx


def _verify_context(ctx: SpaceContext) -> None:
    rep = ctx.reports
    checks = [
        ("mate residual", rep["mate_residual_sup"], BEST_FACTOR_TOL),
        ("factorization residual", rep["factor_residual_sup"], BEST_FACTOR_TOL),
        ("mate outer gap", rep["outer_gap_mate"], ctx.tol.tol_outer),
        ("factor outer gap", rep["outer_gap_factor"], ctx.tol.tol_outer),
        ("det A vs mate", rep["det_gap_sup"], 1e-7),
    ]
    for lam, _ in ctx.Lambda:
        bv = ctx.B(lam)
        checks.append(("|B(lam)| = 1", abs((np.abs(bv) ** 2).sum() - 1.0),
                       UNIMODULAR_TOL))
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

    p_j = sum_i c_{j+i} h_i, residual re-verified; the norm sums the f rows,
    then the plus-part rows from the last to the first (`gram`'s order).
    """
    f = _as_cpoly(f)
    c, n1 = f.coeffs, f.coeffs.shape[0]
    hbar = np.conj(_generator(ctx, n1 - 1))
    P = np.zeros((n1, ctx.dim), dtype=complex)
    # np.correlate conjugates hbar back and sums by BLAS dot, 2-12x faster
    # than an einsum over sliding windows; it refuses the empty (zero) f
    for i in range(ctx.dim if n1 else 0):
        P[:, i] = np.correlate(c, hbar[:, i], "full")[n1 - 1 :]
    _check_pairs(ctx, *_pair_bounds(ctx, c[:, None], P[:, :, None])[:, -1])
    # the leading zero gives the zero polynomial a zero norm
    sq = np.abs(np.concatenate([[0.0], c, P[::-1].ravel()])) ** 2
    return HBElement(f, VecPoly(P, dim=ctx.dim), float(np.cumsum(sq)[-1]))


def _generator(ctx: SpaceContext, N: int) -> np.ndarray:
    """Rows h_0 .. h_N (N+1, d) of the embedding's Toeplitz generator."""
    if ctx.A.is_zero:
        raise IllConditionedConstant("A(0)* solve is singular: A vanishes identically")
    if ctx.reports["A0_cond"] > 1e6:
        raise IllConditionedConstant(f"A(0)* solve would lose more than 6 digits "
                                     f"(cond = {ctx.reports['A0_cond']:.3e})")
    h = ctx._h
    if h.shape[0] <= N:
        h = ctx._h = _extend_generator(ctx, h, N)
    return h[: N + 1]


def _extend_generator(ctx: SpaceContext, h: np.ndarray, N: int) -> np.ndarray:
    """The generator rows h continued to h_0 .. h_N, pair-checked.

    Rows k = N .. 0 of the analytic part of B*z^N + A*f+ = 0 give
    A(0)* h_i = -(conj(b_i) + sum_{j >= 1} A_j* h_{i-j}), h_i = f+_{N-i}.
    It runs on that column, P[N - i] = h_i, for every N, so einsum sums each
    row in one order and h does not depend on the order of the calls.
    `_pair_bounds` checks every z^k, k <= N, on it; a failure caches nothing.
    """
    astar, bstar = ctx._astar, np.conj(ctx.B.coeffs)[:, :, None]
    inv0 = np.linalg.inv(astar[0])
    P = np.zeros((N + 1, ctx.dim, 1), dtype=complex)
    P[N + 1 - h.shape[0] :, :, 0] = h[::-1]
    for i in range(h.shape[0], N + 1):
        k, j = N - i, min(astar.shape[0], i + 1)
        band = np.einsum("jab,jbm->am", astar[1:j], P[k + 1 : k + j])
        rhs = bstar[i] if i < bstar.shape[0] else 0.0
        P[k] = -np.einsum("ab,bm->am", inv0, rhs + band)
    _check_pairs(ctx, *_pair_bounds(ctx, np.eye(1, N + 1, N).T, P))
    return np.ascontiguousarray(P[::-1, :, 0])


def _pair_bounds(ctx: SpaceContext, F: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Worst pair residual and its scale 1 + max |coefficient|, per column.

    F (n+1, m) and P (n'+1, d, m) hold the coefficient rows of m pairs; the
    residual is the analytic part of B*f + A*f+, zero for true pairs.  Both
    are taken over the last r rows for every r, as an array (2, rows, m)
    whose last row covers the whole pair.  For the pair of z^N, row k covers
    the last k + 1 rows, which shifted down are the pair of z^k (`gram`).
    """
    nf, npl = F.shape[0], P.shape[0]
    res = np.zeros((max(nf, npl, 1), ctx.dim, F.shape[1]), dtype=complex)
    res[:nf] += _conj_band(np.conj(ctx.B.coeffs)[:, :, None], F[:, None, :])
    res[:npl] += _conj_band(ctx._astar, P)
    bounds = np.zeros((2, res.shape[0], res.shape[2]))
    bounds[0] = np.abs(res).max(axis=1)
    bounds[1, :nf] = np.abs(F)
    bounds[1, :npl] = np.maximum(bounds[1, :npl], np.abs(P).max(axis=1))
    bounds[1] += 1.0
    return np.maximum.accumulate(bounds[:, ::-1], axis=1)


def _check_pairs(ctx: SpaceContext, worst: np.ndarray, scale: np.ndarray) -> None:
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
    """Reproducing kernel at w: the numerators (1 - B(z)B(w)*, -A(z)B(w)*),
    the columns of one array, divided by (1 - conj(w) z).

    Inside the disk the quotient is a power series, truncated at order N with
    a reported tail_bound: geometric, or at w = 0 the exact norm of the
    dropped numerator rows.  On the circle the kernel exists exactly
    when w lies in the boundary spectrum, where both numerators vanish at w
    and the division is exact polynomial division (Sarason 1994).
    """
    w = complex(w)
    boundary = on_circle(w)
    if boundary:
        member = spectrum_member(ctx.Lambda, w)
        if member is None:
            raise BoundaryNotRegular(
                f"{w} is not in the boundary spectrum; no bounded evaluation there"
            )
        w = member[0]
    elif not abs(w) < 1.0:
        raise DomainError(f"kernel point {w} lies outside the closed disk")
    bw = np.conj(ctx.B(w))
    num = np.zeros((max(ctx.B.degree, ctx.A.degree) + 1, 1 + ctx.dim), complex)
    num[: ctx.B.degree + 1, 0] = -(ctx.B.coeffs @ bw)
    num[0, 0] += 1.0
    num[: ctx.A.degree + 1, 1:] = ctx.A.coeffs @ -bw
    num = _trim(num)
    tail = 0.0
    if boundary:
        rem = float(np.abs(horner(num, w)).max())
        if rem > 1e-6:
            raise NumericsError(f"boundary kernel division remainder {rem:.3e}")
        quot = _divide_one_minus(num, np.conj(w))
        _check_pairs(ctx, *_pair_bounds(ctx, quot[:, :1], quot[:, 1:, None])[:, -1])
    else:
        max_deg = num.shape[0] - 1
        if N is None:
            N = max_deg
            if w != 0:
                N = max(N, ctx.B.degree
                        + int(np.ceil(np.log(ctx.tol.tol_eval) / np.log(abs(w)))))
        elif N < 0:
            raise DomainError("kernel order must be nonnegative")
        _check_size((N + 1) * (ctx.dim + 1), f"kernel at {w} to order {N}")
        wbar = np.conj(w) ** np.arange(N + 1)
        quot = np.stack([np.convolve(col, wbar)[: N + 1] for col in num.T], axis=1)
        if w == 0:
            tail = float(np.linalg.norm(num[N + 1 :]))
        else:
            size = np.abs(num[:, 0]).sum() + np.linalg.norm(num[:, 1:], axis=1).sum()
            tail = float(size * abs(w) ** (N + 1 - max_deg) / np.sqrt(1 - abs(w) ** 2))
    f, f_plus = CPoly(quot[:, 0]), VecPoly(quot[:, 1:], dim=ctx.dim)
    return HBElement(f, f_plus, f.norm_sq() + f_plus.norm_sq(), tail_bound=tail)


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
    the image of the plus part, so the result is re-verified as a pair.  A
    dropped tail maps to norm at most sum |phi_j| times F's tail_bound.
    """
    phi = _as_cpoly(phi)
    f, f_plus = toeplitz_conj(phi, F.f), toeplitz_conj(phi, F.f_plus)
    _check_pairs(ctx, *_pair_bounds(ctx, f.coeffs[:, None],
                                    f_plus.coeffs[:, :, None])[:, -1])
    return HBElement(f, f_plus, f.norm_sq() + f_plus.norm_sq(),
                     float(np.abs(phi.coeffs).sum()) * F.tail_bound)


# ---------------------------------------------------------------------------
# Gram machinery, density and point-evaluation residuals


def gram(ctx: SpaceContext, N: int) -> np.ndarray:
    """Hermitian positive definite monomial Gram matrix G_jk = <z^j, z^k>.

    z^k has plus part (h_k, ..., h_0), h the context's pair-checked generator.
    G_jk - delta_jk = sum_{r <= min(j, k)} <h_{j-r}, h_{k-r}> is a cumulative
    sum along a diagonal of <h_a, h_b>, and the diagonal sums 1, |h_0|^2,
    |h_1|^2, ... in `embed`'s order, so G[k, k] equals embed(z^k).norm_sq
    exactly.
    """
    if N < 0:
        raise DomainError("Gram order must be nonnegative")
    _check_size((N + 1) ** 2 * (ctx.dim + 1), f"Gram of order {N}")
    n = N + 1
    h = _generator(ctx, N)
    # skewed layout: the flattened <h_a, h_b> read as (n, n + 1) holds diagonal
    # o in column o, so one cumulative sum over rows sums every diagonal
    S = np.zeros(n * (n + 1), dtype=complex)
    S[: n * n] = np.einsum("ia,ja->ij", h, np.conj(h)).ravel()
    S = np.cumsum(S.reshape(n, n + 1), axis=0)
    G = np.triu(S.ravel()[: n * n].reshape(n, n), 1)
    G += np.conj(G.T)
    sq = np.concatenate([[1.0], (np.abs(h) ** 2).ravel()])
    G[np.diag_indices(n)] = np.cumsum(sq)[ctx.dim :: ctx.dim]
    return G


# rows per growth step of the cached orthonormal polynomials
_BLOCK = 32


def _orthonormal(ctx: SpaceContext, N: int) -> np.ndarray:
    """Rows 0 .. N of L^{-1}, G = LL* the monomial Gram: row k holds the
    coefficients of the k-th orthonormal polynomial of the space.

    The context caches L^{-1} and grows it by bordering, in blocks of _BLOCK
    rows that start at multiples of _BLOCK, so each row's bits do not depend
    on the order of the calls.  With G = [[G11, G21*], [G21, G22]] and the
    cached rows F = L11^{-1}: Y = F G21* (= X*, X = G21 L11^{-*}),
    L22 = chol(G22 - Y*Y), and the new rows are L22^{-1} [-Y*F, I], from
    two plain products with the s cached rows of F.  One Gram, of the
    block-rounded order, serves a growth and is not kept; a failure caches
    nothing.
    """
    if N < 0:
        raise DomainError("finite-section order must be nonnegative")
    n, old = N + 1, ctx._linv
    m = -(-n // _BLOCK) * _BLOCK
    _check_size(m * m * (ctx.dim + 1), f"finite sections of order {N}")
    if old.shape[0] >= n:
        return old[:n, :n]
    G = gram(ctx, m - 1)
    F = np.zeros((m, m), dtype=complex)
    F[: old.shape[0], : old.shape[0]] = old
    for s in range(old.shape[0], m, _BLOCK):
        e = s + _BLOCK
        Y = F[:s, :s] @ G[:s, s:e]
        Yh = np.conj(Y.T)
        try:
            L = np.linalg.cholesky(G[s:e, s:e] - Yh @ Y)
        except np.linalg.LinAlgError as exc:
            raise NumericsError(f"Cholesky of the Gram block of orders "
                                f"{s} .. {e - 1} failed") from exc
        R = np.zeros((_BLOCK, _BLOCK), dtype=complex)  # L22^{-1}, row by row
        for i in range(_BLOCK):
            R[i, i] = 1.0 / L[i, i]
            R[i, :i] = -(L[i, :i] @ R[:i, :i]) * R[i, i]
        W = Yh @ F[:s, :s]
        F[s:e, :s] = R @ -W
        F[s:e, s:e] = R
    ctx._linv = F
    return F[:n, :n]


def _section_kernels(ctx: SpaceContext, zetas, N: int) -> np.ndarray:
    """K^n_zeta(zeta) for n = 0 .. N, one column per zeta.

    The diagonal of the reproducing kernel of the polynomials of degree <= n
    under the norm of the space is the Christoffel sum
    K^n_zeta(zeta) = sum_{k <= n} |phi_k(zeta)|^2 over the orthonormal
    polynomials phi_k, the rows of L^{-1} (`_orthonormal`): with
    (e)_j = zeta^j it is the cumulative sum of |L^{-1} e|^2 over the rows.
    """
    F = _orthonormal(ctx, N)  # refuses an N too large before E is built
    E = np.asarray(zetas, dtype=complex)[None, :] ** np.arange(N + 1)[:, None]
    return np.cumsum(np.abs(F @ E) ** 2, axis=0)


def density_residual(ctx: SpaceContext, w, N: int) -> float:
    """Squared distance from K_w to the span of 1, z, ..., z^N.

    The projection of K_w onto that span is the finite-section kernel, so
    the residual is K_w(w) - K^N_w(w).
    """
    return float(_density_residuals(ctx, w, N)[-1])


def _density_residuals(ctx: SpaceContext, w, N: int) -> np.ndarray:
    """`density_residual` at every order 0 .. N from one sweep."""
    w = complex(w)
    if not abs(w) < 1.0 or on_circle(w):  # K_w(w) is rounding over rounding there
        raise DomainError("density residual needs an interior point off the circle")
    kww = float((1.0 - (np.abs(ctx.B(w)) ** 2).sum()) / (1.0 - abs(w) ** 2))
    vals = kww - _section_kernels(ctx, [w], N)[:, 0]
    if vals.min() < DENSITY_FLOOR:
        warnings.warn(f"density residual {vals.min():.3e} is negative beyond "
                      f"{DENSITY_FLOOR:.0e}", ConditioningWarning, stacklevel=3)
    return vals


def point_eval_residual(ctx: SpaceContext, lam, N: int) -> float:
    """Squared distance in the space from 1 to span{(z - lam) z^k : k < N}.

    That span is exactly the polynomials of degree <= N vanishing at lam,
    so the distance is |1(lam)|^2 / K^N_lam(lam) = 1 / K^N_lam(lam).
    """
    return float(_point_residuals(ctx, [lam], N)[0])


def _point_residuals(ctx: SpaceContext, lams, N: int) -> np.ndarray:
    """`point_eval_residual` at every lam from one sweep."""
    lams = np.asarray(lams, dtype=complex)
    if not np.all(on_circle(lams)):
        raise DomainError("point evaluation probe needs a unimodular point")
    return 1.0 / _section_kernels(ctx, lams, max(N, 0))[-1]
