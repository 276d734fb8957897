"""Self-contained invariant suite run by the CLI `verify` subcommand.

Each check exercises one structural property of the constructed space on
randomized inputs with a fixed seed and reports pass/fail with a measured
worst case.  Failures here indicate a broken build for the given row, not a
user error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import caratheodory, clark
from .poly import CPoly, VecPoly, circle_grid, toeplitz_conj
from .space import (
    SpaceContext,
    _density_residuals,
    _pair_bounds,
    backward_shift,
    embed,
    gram,
    hb_inner,
    kernel,
    multiply_z,
    rank_one_identity_defect,
    toeplitz_conj_hb,
)

# random inputs per randomized check
_N_RANDOM = 25


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rand_poly(rng, max_deg: int) -> CPoly:
    deg = int(rng.integers(0, max_deg + 1))
    c = rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1)
    return CPoly(c)


def run_checks(ctx: SpaceContext, seed: int = 0) -> list[CheckResult]:
    """Run every invariant check on a built context."""
    rng = np.random.default_rng(seed)
    out = [CheckResult("context_build", True,
                       f"|Lambda| = {len(ctx.Lambda)}")]
    out.append(_factor_identities(ctx))
    out.append(_embedding_residual(ctx, rng))
    out.append(_orthogonal_complement(ctx, rng))
    out.append(_reproducing(ctx, rng))
    out.append(_shift_properties(ctx, rng))
    out.append(_conj_toeplitz(ctx, rng))
    out.append(_containments(ctx, rng))
    out.append(_clark_balance(ctx, rng))
    out.append(_gram_density(ctx))
    out.append(_rank_one(ctx, rng))
    out.append(_boundary_duality(ctx))
    return out


def _result(name, worst, bound) -> CheckResult:
    return CheckResult(name, bool(worst <= bound),
                       f"worst {worst:.3e} (bound {bound:.1e})")


def _factor_identities(ctx) -> CheckResult:
    z = circle_grid(512)
    bv = ctx.B(z)
    av = ctx.A(z)
    ident = np.conj(av).transpose(0, 2, 1) @ av \
        + np.einsum("ni,nj->nij", np.conj(bv), bv) - np.eye(ctx.dim)
    worst = max(
        float(np.abs(ident).max()),
        float(np.abs(np.abs(ctx.a(z)) ** 2
                     + (np.abs(bv) ** 2).sum(axis=-1) - 1.0).max()),
        float(np.abs(np.linalg.det(av) - ctx.a(z)).max()),
    )
    return _result("factorization_identities", worst, 1e-8)


def _embedding_residual(ctx, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_N_RANDOM):
        el = embed(ctx, _rand_poly(rng, 12))
        res = _pair_bounds(ctx, el.f.coeffs[:, None],
                           el.f_plus.coeffs[:, :, None])[0, -1, 0]
        worst = max(worst, float(res))
    return _result("embedding_residual", worst, 1e-10)


def _orthogonal_complement(ctx, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_N_RANDOM):
        F = embed(ctx, _rand_poly(rng, 10))
        hc = rng.uniform(-1, 1, (4, ctx.dim)) + 1j * rng.uniform(-1, 1, (4, ctx.dim))
        h = VecPoly(hc)
        bh = ctx.B.row_dot(h)
        ah = ctx.A.matvec_poly(h)
        n = min(bh.coeffs.shape[0], F.f.coeffs.shape[0])
        ip = np.vdot(bh.coeffs[:n], F.f.coeffs[:n])
        n = min(ah.coeffs.shape[0], F.f_plus.coeffs.shape[0])
        ip += np.vdot(ah.coeffs[:n], F.f_plus.coeffs[:n])
        worst = max(worst, abs(ip))
    return _result("orthogonal_complement", worst, 1e-9)


def _reproducing(ctx, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_N_RANDOM):
        f = _rand_poly(rng, 10)
        w = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
        k = kernel(ctx, w)
        err = abs(hb_inner(ctx, embed(ctx, f), k) - f(w))
        worst = max(worst, err - k.tail_bound)
    return _result("reproducing_property", worst, 1e-8)


def _shift_properties(ctx, rng) -> CheckResult:
    worst = 0.0
    exact = True
    for _ in range(_N_RANDOM):
        F = embed(ctx, _rand_poly(rng, 10))
        worst = max(worst, backward_shift(ctx, F).norm_sq - F.norm_sq)
        G = multiply_z(ctx, F)
        LG = backward_shift(ctx, G)
        exact = exact and np.array_equal(LG.f.coeffs, F.f.coeffs) \
            and np.array_equal(LG.f_plus.coeffs, F.f_plus.coeffs)
    detail = f"norm growth {worst:.3e}, L Mz exact: {exact}"
    return CheckResult("backward_shift", bool(worst <= 0 and exact), detail)


def _conj_toeplitz(ctx, rng) -> CheckResult:
    worst_id = 0.0
    worst_norm = 0.0
    for _ in range(_N_RANDOM):
        f = _rand_poly(rng, 8)
        phi = _rand_poly(rng, 5)
        if phi.is_zero:
            continue
        F = embed(ctx, f)
        via_pair = toeplitz_conj_hb(ctx, phi, F)
        via_embed = embed(ctx, toeplitz_conj(phi, f))
        n = max(via_pair.f_plus.coeffs.shape[0], via_embed.f_plus.coeffs.shape[0], 1)
        diff = np.zeros((n, ctx.dim), dtype=complex)
        diff[: via_pair.f_plus.coeffs.shape[0]] += via_pair.f_plus.coeffs
        diff[: via_embed.f_plus.coeffs.shape[0]] -= via_embed.f_plus.coeffs
        worst_id = max(worst_id, float(np.abs(diff).max(initial=0.0)))
        sup = float(np.abs(phi(circle_grid(256))).max())
        scaled = toeplitz_conj_hb(ctx, (1.0 / sup) * phi, F)
        worst_norm = max(worst_norm, scaled.norm_sq - F.norm_sq)
    ok = worst_id <= 1e-10 and worst_norm <= 1e-9
    return CheckResult("conjugate_toeplitz", bool(ok),
                       f"plus-part identity {worst_id:.3e}, "
                       f"contraction excess {worst_norm:.3e}")


def _containments(ctx, rng) -> CheckResult:
    worst = 0.0
    for _ in range(_N_RANDOM):
        p = _rand_poly(rng, 10)
        ap = embed(ctx, ctx.a * p)
        worst = max(worst, ap.norm_sq - p.norm_sq())
        h = _rand_poly(rng, 10)
        th = embed(ctx, toeplitz_conj(ctx.a, h))
        worst = max(worst, th.norm_sq - h.norm_sq())
    return _result("multiplier_containments", worst, 1e-9)


def _clark_balance(ctx, rng) -> CheckResult:
    worst = 0.0
    xis = [np.zeros(ctx.dim)]
    xis += [ctx.B(lam) for lam, _ in ctx.Lambda]
    for _ in range(3):
        v = rng.normal(size=ctx.dim) + 1j * rng.normal(size=ctx.dim)
        xis.append(0.9 * rng.uniform(0.2, 1.0) * v / np.linalg.norm(v))
    for xi in xis:
        mu = clark(ctx, xi, grid_log2=13)
        h0 = (1.0 + mu.symbol(0)) / (1.0 - mu.symbol(0))
        worst = max(worst, abs(mu.total_mass - h0.real))
    return _result("clark_mass_balance", worst, 1e-6)


def _gram_density(ctx) -> CheckResult:
    G = gram(ctx, 10)
    try:
        np.linalg.cholesky(G)
        pd = True
    except np.linalg.LinAlgError:
        pd = False
    vals = _density_residuals(ctx, 0.5, 8)
    mono = all(vals[i + 1] <= vals[i] + 1e-12 for i in range(8))
    ok = pd and mono and vals[-1] >= -1e-9
    return CheckResult("gram_and_density", bool(ok),
                       f"gram PD: {pd}, density monotone: {mono}, "
                       f"res(8) = {vals[-1]:.3e}")


def _rank_one(ctx, rng) -> CheckResult:
    worst = 0.0
    for _ in range(6):
        f = _rand_poly(rng, 8)
        g = _rand_poly(rng, 8)
        if f.is_zero or g.is_zero:
            continue
        scale = np.sqrt(embed(ctx, f).norm_sq * embed(ctx, g).norm_sq)
        worst = max(worst, rank_one_identity_defect(ctx, f, g) / max(scale, 1e-300))
    return _result("rank_one_shift_identity", worst, 1e-8)


def _boundary_duality(ctx) -> CheckResult:
    worst = 0.0
    for lam, _ in ctx.Lambda:
        rep = caratheodory(ctx, lam)
        worst = max(worst, abs(rep.k_norm_sq_exact * rep.clark_mass - 1.0))
    return _result("boundary_mass_duality", worst, 1e-8)
