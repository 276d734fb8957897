"""Self-contained invariant suite: the one copy of each structural check.

`CHECKS` lists the checks in order, each a function (ctx, rng) -> CheckResult
that exercises one property of the constructed space on random inputs and
reports pass/fail with a measured worst case.  `dbrov verify` runs them all
on one seeded generator (`run_checks`); the acceptance suite runs each one
on its own seeds, and feeds the per-sample measures below inputs outside the
random draws.  Failures here indicate a broken build for the given row, not
a user error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import ClarkMeasure, caratheodory, clark
from .factor import _identities
from .poly import CPoly, VecPoly, circle_eval, toeplitz_conj
from .space import (
    SpaceContext,
    _density_residuals,
    _orthonormal,
    _pair_bounds,
    _pair_inner,
    backward_shift,
    embed,
    gram,
    hb_inner,
    kernel,
    multiply_z,
    toeplitz_conj_hb,
)
from .tolerances import DENSITY_FLOOR, OUTER_TOL

# random inputs per randomized check
_N_RANDOM = 25


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def rand_poly(rng, max_deg: int) -> CPoly:
    """Degree uniform in 0 .. max_deg, coefficients uniform in [-1, 1]^2."""
    deg = int(rng.integers(0, max_deg + 1))
    c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
    return CPoly(c)


def run_checks(ctx: SpaceContext, seed: int = 0) -> list[CheckResult]:
    """Run every check of `CHECKS`, in order, on one generator."""
    rng = np.random.default_rng(seed)
    return [check(ctx, rng) for check in CHECKS]


def _result(name, worst, bound) -> CheckResult:
    return CheckResult(name, bool(worst <= bound),
                       f"worst {worst:.3e} (bound {bound:.1e})")


def _worst(values) -> float:
    """The largest of 0 and the values: a check's worst sample."""
    return max([0.0, *values])


# ---------------------------------------------------------------------------
# per-sample measures: in exact arithmetic each is at most 0, each flag True


def pair_residual(ctx: SpaceContext, f) -> float:
    """Largest coefficient of the analytic part of B*f + A*f+ for embed(f),
    over the pair's scale 1 + max |coefficient| (as in the pair check)."""
    el = embed(ctx, f)
    worst, scale = _pair_bounds(ctx, el.f.coeffs[:, None],
                                el.f_plus.coeffs[:, :, None])[:, -1, 0]
    return float(worst / scale)


def complement_product(ctx: SpaceContext, f, h: VecPoly) -> float:
    """|<embed(f), (B h, A h)>|: the pairs are orthogonal to the range of
    (B, A) on vector polynomials h."""
    F = embed(ctx, f)
    return abs(_pair_inner(F.f.coeffs, ctx.B.row_dot(h).coeffs)
               + _pair_inner(F.f_plus.coeffs, ctx.A.matvec_poly(h).coeffs))


def reproducing_error(ctx: SpaceContext, f: CPoly, w) -> float:
    """|<f, K_w> - f(w)|, with K_w to order deg f: the plus part of f has
    degree <= deg f, so the pairing reads no kernel coefficient beyond it
    and the error is rounding alone."""
    k = kernel(ctx, w, max(f.degree, 0))
    return abs(hb_inner(ctx, embed(ctx, f), k) - f(w))


def shift_defects(ctx: SpaceContext, f) -> tuple[float, bool]:
    """(||Lf||^2 - ||f||^2, whether L M_z f is f bit for bit)."""
    F = embed(ctx, f)
    LG = backward_shift(ctx, multiply_z(ctx, F))
    exact = np.array_equal(LG.f.coeffs, F.f.coeffs) \
        and np.array_equal(LG.f_plus.coeffs, F.f_plus.coeffs)
    return backward_shift(ctx, F).norm_sq - F.norm_sq, exact


def toeplitz_defects(ctx: SpaceContext, phi: CPoly, f) -> tuple[float, float]:
    """(largest plus-part gap between T_phi* acting on embed(f) and the
    embedding of T_phi* f over the embedded pair's scale 1 + max |coefficient|
    (as in the pair check), norm excess of T_phi* for phi scaled to sup 1 over
    max(1, ||f||^2), the scale of the norms' rounding)."""
    if phi.is_zero:
        return 0.0, 0.0
    F = embed(ctx, f)
    via_pair = toeplitz_conj_hb(ctx, phi, F)
    via_embed = embed(ctx, toeplitz_conj(phi, f))
    n = max(via_pair.f_plus.coeffs.shape[0], via_embed.f_plus.coeffs.shape[0], 1)
    diff = np.zeros((n, ctx.dim), dtype=complex)
    diff[: via_pair.f_plus.coeffs.shape[0]] += via_pair.f_plus.coeffs
    diff[: via_embed.f_plus.coeffs.shape[0]] -= via_embed.f_plus.coeffs
    pair = (via_embed.f.coeffs, via_embed.f_plus.coeffs)
    scale = 1.0 + max(np.abs(c).max(initial=0.0) for c in pair)
    sup = float(np.abs(circle_eval(phi.coeffs, 256)).max())
    scaled = toeplitz_conj_hb(ctx, (1.0 / sup) * phi, F)
    return (float(np.abs(diff).max(initial=0.0)) / scale,
            (scaled.norm_sq - F.norm_sq) / max(1.0, F.norm_sq))


def containment_excess(ctx: SpaceContext, p: CPoly, h: CPoly) -> float:
    """Norm excess of a*p and of T_a* h over the Hardy norms of p and h."""
    return max(embed(ctx, ctx.a * p).norm_sq - p.norm_sq(),
               embed(ctx, toeplitz_conj(ctx.a, h)).norm_sq - h.norm_sq())


def clark_imbalance(mu: ClarkMeasure) -> float:
    """|total mass - Re (1 + b(0))/(1 - b(0))| of a Clark measure."""
    h0 = (1.0 + mu.symbol(0)) / (1.0 - mu.symbol(0))
    return abs(mu.total_mass - h0.real)


def rank_one_identity_defect(ctx: SpaceContext, f: CPoly, g: CPoly) -> float:
    """Defect of the rank-one backward shift identity.

    |<Lf, g> - <f, zg> + sum_i <f, b_i> <L b_i, g>| with every inner product
    taken through embedded pairs.
    """
    F = embed(ctx, f)
    G = embed(ctx, g)
    t1 = hb_inner(ctx, backward_shift(ctx, F), G)
    t2 = hb_inner(ctx, F, embed(ctx, g.shift_up()))
    t3 = 0j
    for i in range(ctx.dim):
        bi = embed(ctx, ctx.B.coordinate(i))
        t3 += hb_inner(ctx, F, bi) * hb_inner(ctx, backward_shift(ctx, bi), G)
    return float(abs(t1 - t2 + t3))


def _context_build(ctx, rng) -> CheckResult:
    return CheckResult("context_build", True, f"|Lambda| = {len(ctx.Lambda)}")


def _factorization_identities(ctx, rng) -> CheckResult:
    *residuals, gap = _identities(ctx.B, ctx.a, ctx.A, ctx.splits)
    res = _result("factorization_identities", max(residuals), 1e-8)
    return CheckResult(res.name, res.passed and gap <= OUTER_TOL,
                       f"{res.detail}, outer gap {gap:.3e} (bound {OUTER_TOL:.1e})")


def _embedding_residual(ctx, rng) -> CheckResult:
    worst = _worst(pair_residual(ctx, rand_poly(rng, 12)) for _ in range(_N_RANDOM))
    return _result("embedding_residual", worst, 1e-10)


def _orthogonal_complement(ctx, rng) -> CheckResult:
    shape = (4, ctx.dim)
    draws = ((rand_poly(rng, 10),
              VecPoly(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)))
             for _ in range(_N_RANDOM))
    worst = _worst(complement_product(ctx, f, h) for f, h in draws)
    return _result("orthogonal_complement", worst, 1e-9)


def _reproducing_property(ctx, rng) -> CheckResult:
    draws = ((rand_poly(rng, 10),
              rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform()))
             for _ in range(_N_RANDOM))
    worst = _worst(reproducing_error(ctx, f, w) for f, w in draws)
    return _result("reproducing_property", worst, 1e-10)


def _backward_shift(ctx, rng) -> CheckResult:
    growth, exact = zip(*(shift_defects(ctx, rand_poly(rng, 10))
                          for _ in range(_N_RANDOM)))
    worst, exact = _worst(growth), all(exact)
    detail = f"norm growth {worst:.3e}, L Mz exact: {exact}"
    return CheckResult("backward_shift", bool(worst <= 0 and exact), detail)


def _conjugate_toeplitz(ctx, rng) -> CheckResult:
    draws = ((rand_poly(rng, 8), rand_poly(rng, 5)) for _ in range(_N_RANDOM))
    gaps, excess = zip(*(toeplitz_defects(ctx, phi, f) for f, phi in draws))
    worst_id, worst_norm = _worst(gaps), _worst(excess)
    ok = worst_id <= 1e-10 and worst_norm <= 1e-9
    return CheckResult("conjugate_toeplitz", bool(ok),
                       f"plus-part identity {worst_id:.3e}, "
                       f"relative contraction excess {worst_norm:.3e}")


def _multiplier_containments(ctx, rng) -> CheckResult:
    draws = ((rand_poly(rng, 10), rand_poly(rng, 10)) for _ in range(_N_RANDOM))
    worst = _worst(containment_excess(ctx, p, h) for p, h in draws)
    return _result("multiplier_containments", worst, 1e-9)


def _clark_mass_balance(ctx, rng) -> CheckResult:
    """Clark mass balance at 0, at three random points of the ball and at
    B(lam) for each member lam, scaled into the ball: Lambda admits
    ||B(lam)|| up to 1 + UNIMODULAR_TOL, which `clark` refuses."""
    xis = [np.zeros(ctx.dim)]
    xis += [xi / max(1.0, np.linalg.norm(xi)) for xi in (ctx.B(lam) for lam, _ in ctx.Lambda)]
    for _ in range(3):
        v = rng.normal(size=ctx.dim) + 1j * rng.normal(size=ctx.dim)
        xis.append(0.9 * rng.uniform(0.2, 1.0) * v / np.linalg.norm(v))
    worst = _worst(clark_imbalance(clark(ctx, xi)) for xi in xis)
    return _result("clark_mass_balance", worst, 1e-6)


def _gram_and_density(ctx, rng) -> CheckResult:
    # the cached factor certified against a fresh Gram: L^{-1} G L^{-*} = I
    # up to rounding, which also makes G positive definite
    F = _orthonormal(ctx, 10)
    orth = float(np.abs(F @ gram(ctx, 10) @ np.conj(F.T) - np.eye(11)).max())
    vals = _density_residuals(ctx, 0.5, 8)
    mono = all(vals[i + 1] <= vals[i] + 1e-12 for i in range(8))
    ok = orth <= 1e-12 and mono and vals[-1] >= DENSITY_FLOOR
    return CheckResult("gram_and_density", bool(ok),
                       f"orthonormality {orth:.3e} (bound 1e-12), density "
                       f"monotone: {mono}, res(8) = {vals[-1]:.3e}")


def _rank_one_shift_identity(ctx, rng) -> CheckResult:
    worst = 0.0
    for _ in range(6):
        f, g = rand_poly(rng, 8), rand_poly(rng, 8)
        if f.is_zero or g.is_zero:
            continue
        scale = np.sqrt(embed(ctx, f).norm_sq * embed(ctx, g).norm_sq)
        worst = max(worst, rank_one_identity_defect(ctx, f, g) / max(scale, 1e-300))
    return _result("rank_one_shift_identity", worst, 1e-8)


def _boundary_mass_duality(ctx, rng) -> CheckResult:
    reps = (caratheodory(ctx, lam) for lam, _ in ctx.Lambda)
    worst = _worst(abs(r.k_norm_sq_exact * r.clark_mass - 1.0) for r in reps)
    return _result("boundary_mass_duality", worst, 1e-8)


# `dbrov verify`'s order; each function is named `_` + the name it reports
CHECKS = (
    _context_build,
    _factorization_identities,
    _embedding_residual,
    _orthogonal_complement,
    _reproducing_property,
    _backward_shift,
    _conjugate_toeplitz,
    _multiplier_containments,
    _clark_mass_balance,
    _gram_and_density,
    _rank_one_shift_identity,
    _boundary_mass_duality,
)
