"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Every tolerance is fixed here, not configurable.
"""

import numpy as np

from dbrov import (
    CPoly,
    VecPoly,
    backward_shift,
    caratheodory,
    clark,
    cyclicity,
    density_residual,
    embed,
    hb_inner,
    kernel,
    mate_report,
    multiply_z,
    point_eval_residual,
    rank_one_identity_defect,
    toeplitz_conj,
    toeplitz_conj_hb,
    trunc_limit_slope,
    wilson_report,
)
from dbrov.errors import MateUndefined
from dbrov.fixtures import fixture
from dbrov.rowschur import defect_laurent

from conftest import circle_grid

SQ8 = 1.0 / (2.0 * np.sqrt(2.0))
FIXTURE_NAMES = ("ZERO", "SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)")


def _report(num: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {label}"
          + (f" -- {'; '.join(failures)}" if failures else ""))
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _rand_poly(rng, max_deg):
    deg = int(rng.integers(0, max_deg + 1))
    return CPoly(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


def test_criterion_1_mate_construction():
    failures = []
    got = mate_report(fixture("ROW2").B).factor.coeffs
    if np.abs(got - np.array([SQ8, -SQ8])).max() > 1e-9:
        failures.append(f"ROW2 mate off by {np.abs(got - [SQ8, -SQ8]).max():.2e}")
    got = mate_report(fixture("SARASON").B).factor.coeffs
    if np.abs(got - np.array([0.5, -0.5])).max() > 1e-9:
        failures.append("SARASON mate wrong")
    try:
        mate_report(fixture("FLAT").B)
        failures.append("FLAT did not raise MateUndefined")
    except MateUndefined:
        pass
    _report(1, "mate construction", failures)


def test_criterion_2_factorization_identities(all_contexts):
    failures = []
    z = circle_grid(512)
    for name in FIXTURE_NAMES:
        ctx = all_contexts[name]
        bv = ctx.B(z)
        av = ctx.A(z)
        ident = np.conj(av).transpose(0, 2, 1) @ av \
            + np.einsum("ni,nj->nij", np.conj(bv), bv) - np.eye(ctx.dim)
        worst = float(np.abs(ident).max())
        if worst > 1e-8:
            failures.append(f"{name}: |A*A + B*B - I| = {worst:.2e}")
        det_gap = float(np.abs(np.linalg.det(av) - ctx.a(z)).max())
        if det_gap > 1e-7:
            failures.append(f"{name}: |det A - a| = {det_gap:.2e}")
    _, scalar_as_matrix = defect_laurent(fixture("SARASON").B)
    rank1 = wilson_report(scalar_as_matrix).factor.coeffs.ravel()
    gap = np.abs(rank1
                 - mate_report(fixture("SARASON").B).factor.coeffs).max()
    if gap > 1e-8:
        failures.append(f"rank-1 factor vs mate: {gap:.2e}")
    _report(2, "factorization identities on 512 circle points", failures)


def test_criterion_3_embedding_exactness(all_contexts):
    failures = []
    rng = np.random.default_rng(2024)
    for name in FIXTURE_NAMES:
        ctx = all_contexts[name]
        worst_res, worst_orth = 0.0, 0.0
        for _ in range(200):
            f = _rand_poly(rng, 20)
            el = embed(ctx, f)
            r = toeplitz_conj(ctx.B, el.f)
            r2 = toeplitz_conj(ctx.A, el.f_plus)
            n = max(r.coeffs.shape[0], r2.coeffs.shape[0], 1)
            tot = np.zeros((n, ctx.dim), dtype=complex)
            tot[: r.coeffs.shape[0]] += r.coeffs
            tot[: r2.coeffs.shape[0]] += r2.coeffs
            worst_res = max(worst_res, float(np.abs(tot).max(initial=0.0)))
            hc = rng.uniform(-1, 1, (3, ctx.dim)) \
                + 1j * rng.uniform(-1, 1, (3, ctx.dim))
            h = VecPoly(hc)
            bh = ctx.B.row_dot(h)
            ah = ctx.A.matvec_poly(h)
            k = min(bh.coeffs.shape[0], el.f.coeffs.shape[0])
            ip = np.vdot(bh.coeffs[:k], el.f.coeffs[:k])
            k = min(ah.coeffs.shape[0], el.f_plus.coeffs.shape[0])
            ip += np.vdot(ah.coeffs[:k], el.f_plus.coeffs[:k])
            worst_orth = max(worst_orth, abs(ip))
        if worst_res > 1e-10:
            failures.append(f"{name}: pair residual {worst_res:.2e}")
        if worst_orth > 1e-9:
            failures.append(f"{name}: orthogonality {worst_orth:.2e}")
    ctx = all_contexts["SARASON"]
    if abs(embed(ctx, CPoly([1.0])).norm_sq - 2.0) > 1e-12:
        failures.append("SARASON ||1||^2 != 2")
    if abs(embed(ctx, CPoly([0, 1.0])).norm_sq - 6.0) > 1e-12:
        failures.append("SARASON ||z||^2 != 6")
    _report(3, "embedding exactness (200 random polynomials/fixture)", failures)


def test_criterion_4_reproducing_property(all_contexts):
    failures = []
    rng = np.random.default_rng(404)
    for name in FIXTURE_NAMES:
        ctx = all_contexts[name]
        worst = 0.0
        for _ in range(100):
            f = _rand_poly(rng, 15)
            w = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            k = kernel(ctx, w)
            err = abs(hb_inner(ctx, embed(ctx, f), k) - f(w))
            worst = max(worst, err - k.tail_bound)
        if worst > 1e-8:
            failures.append(f"{name}: reproducing error {worst:.2e}")
    _report(4, "reproducing property (100 random (f, w)/fixture)", failures)


def test_criterion_5_boundary_three_way(all_contexts):
    failures = []
    ctx = all_contexts["ROW2"]
    k1 = kernel(ctx, 1.0)
    if np.abs(k1.f.coeffs - np.array([0.75, 0.5])).max() > 1e-10:
        failures.append("ROW2 boundary kernel is not (3+2z)/4")
    exact = hb_inner(ctx, k1, k1).real
    if abs(exact - 1.25) > 1e-8:
        failures.append(f"ROW2 exact norm {exact}")
    rep = caratheodory(ctx, 1.0)
    if abs(rep.k_norm_sq_lhopital - 1.25) > 1e-10:
        failures.append("ROW2 derivative limit not 5/4")
    if abs(rep.k_norm_sq_radial - 1.25) > 1e-4:
        failures.append("ROW2 radial extrapolation not 5/4")
    if abs(rep.clark_mass - 0.8) > 1e-8 or abs(exact * rep.clark_mass - 1.0) > 1e-8:
        failures.append("ROW2 mass-norm product not 1")
    rep = caratheodory(all_contexts["SARASON"], 1.0)
    if abs(rep.k_norm_sq_exact - 0.5) > 1e-8 or abs(rep.clark_mass - 2.0) > 1e-8:
        failures.append("SARASON norm/mass not (1/2, 2)")
    if abs(trunc_limit_slope() - 1.75) > 1e-10:
        failures.append("limit pairing slope not 7/4")
    if abs(trunc_limit_slope(radial=True) - 1.75) > 1e-4:
        failures.append("limit pairing radial slope not 7/4")
    if abs(1.0 / trunc_limit_slope() - 4.0 / 7.0) > 1e-10:
        failures.append("limit pairing mass not 4/7")
    _report(5, "boundary kernel norms three ways + limit symbol", failures)


def test_criterion_6_clark_balance(all_contexts):
    failures = []
    rng = np.random.default_rng(606)
    for name in FIXTURE_NAMES:
        ctx = all_contexts[name]
        xis = [np.zeros(ctx.dim)] + [ctx.B(l) for l, _ in ctx.Lambda]
        for _ in range(20):
            v = rng.normal(size=ctx.dim) + 1j * rng.normal(size=ctx.dim)
            xis.append(rng.uniform(0.1, 0.97) * v / np.linalg.norm(v))
        worst = 0.0
        for xi in xis:
            mu = clark(ctx, xi)
            h0 = (1.0 + mu.symbol(0)) / (1.0 - mu.symbol(0))
            worst = max(worst, abs(mu.total_mass - h0.real))
        if worst > 1e-6:
            failures.append(f"{name}: balance off by {worst:.2e}")
    mu = clark(all_contexts["SARASON"], [1.0])
    if np.abs(mu.density_values - 1.0).max() > 1e-6:
        failures.append("SARASON density not identically 1")
    if abs(mu.mass_at(1.0) - 2.0) > 1e-9 or abs(mu.total_mass - 3.0) > 1e-6:
        failures.append("SARASON mass/total not (2, 3)")
    _report(6, "Clark mass balance and reconstruction (22 directions/fixture)",
            failures)


def test_criterion_7_polynomial_density(all_contexts):
    failures = []
    n_cal = 12  # frozen from the oracle runs: every fixture is below 1e-2 here
    for name in ("ZERO", "SARASON", "ROW2", "TRUNC(3)"):
        ctx = all_contexts[name]
        vals = [density_residual(ctx, 0.5, N) for N in range(n_cal + 1)]
        if not all(vals[i + 1] <= vals[i] + 1e-12 for i in range(n_cal)):
            failures.append(f"{name}: residuals not non-increasing")
        if not vals[n_cal] < 1e-2:
            failures.append(f"{name}: residual({n_cal}) = {vals[n_cal]:.2e}")
    _report(7, "polynomial density: kernel residuals shrink", failures)


def test_criterion_8_spectrum_crosscheck(all_contexts):
    # For ROW2 the residual is 4/5 at the member 1 for every N, and
    # 8/(N|1 - lam|^2 + 10) at a unimodular control lam: 4/(N+5) at +-i and
    # 4/(2N+5) at -1.  The member/control gap at i is therefore (N+5)/5,
    # which is 9 at N = 40 and exactly 10 at N = 45 (a floating-point tie);
    # (N+5)/5 > 10 first holds at N = 46.  Order 40 is checked against the
    # closed forms, the factor-10 gap at N_GAP.
    N_GAP = 46
    failures = []
    ctx = all_contexts["ROW2"]
    res_member = point_eval_residual(ctx, 1.0, 40)
    if abs(res_member - 0.8) > 1e-3:
        failures.append(f"ROW2 member residual {res_member:.6f} not 4/5")
    for lam, label, exact in ((-1.0, "-1", 4.0 / 85.0), (1j, "i", 4.0 / 45.0)):
        res = point_eval_residual(ctx, lam, 40)
        if abs(res - exact) > 1e-10:
            failures.append(
                f"ROW2 control residual at {label} is {res:.12f}, "
                f"closed form {exact:.12f} at N = 40"
            )
    res_member = point_eval_residual(ctx, 1.0, N_GAP)
    if abs(res_member - 0.8) > 1e-3:
        failures.append(f"ROW2 member residual {res_member:.6f} not 4/5")
    for lam, label in ((-1.0, "-1"), (1j, "i")):
        res = point_eval_residual(ctx, lam, N_GAP)
        if res > res_member / 10.0:
            failures.append(
                f"ROW2 control residual at {label} is {res:.6f} "
                f"> member/10 = {res_member / 10.0:.6f}"
            )
    ctx0 = all_contexts["ZERO"]
    for lam in (1.0, -1.0, 1j, -1j):
        res = point_eval_residual(ctx0, lam, 120)
        if res >= 1e-2:
            failures.append(f"ZERO residual at {lam} is {res:.2e}")
    _report(8, "point-evaluation residual gap at the spectrum", failures)


def test_criterion_9_rank_one_identity(all_contexts):
    failures = []
    for name in ("SARASON", "ROW2"):
        ctx = all_contexts[name]
        worst = 0.0
        for j in range(16):
            f = CPoly(np.concatenate([np.zeros(j), [1.0]]))
            for k in range(16):
                g = CPoly(np.concatenate([np.zeros(k), [1.0]]))
                worst = max(worst, rank_one_identity_defect(ctx, f, g))
        if worst > 1e-8:
            failures.append(f"{name}: defect {worst:.2e}")
    _report(9, "rank-one backward shift identity on monomial pairs", failures)


def test_criterion_10_cyclicity(all_contexts):
    failures = []
    ctx = all_contexts["ROW2"]
    cases = [
        (CPoly([1.0]), True, "f = 1"),
        (CPoly([1.0, -1.0]), False, "f = 1 - z"),
        (CPoly([0.0, 1.0]), False, "f = z"),
        (CPoly([2.0, -1.0]), True, "f = 2 - z"),
    ]
    for f, want, label in cases:
        if cyclicity(ctx, f).verdict is not want:
            failures.append(f"ROW2 {label}: expected {want}")
    rng = np.random.default_rng(1010)
    ctx3 = all_contexts["TRUNC(3)"]
    for _ in range(20):
        deg = int(rng.integers(1, 6))
        roots = rng.uniform(1.05, 3.0, deg) * np.exp(
            2j * np.pi * rng.uniform(size=deg))
        cert = cyclicity(ctx3, CPoly.from_roots(roots))
        if not (cert.is_outer and cert.verdict):
            failures.append("TRUNC(3): outer polynomial not cyclic")
    _report(10, "cyclicity decisions", failures)


def test_criterion_11_operator_properties(all_contexts):
    failures = []
    rng = np.random.default_rng(1111)
    ctx = all_contexts["ROW2"]
    for _ in range(30):
        F = embed(ctx, _rand_poly(rng, 12))
        if backward_shift(ctx, F).norm_sq > F.norm_sq:
            failures.append("backward shift expanded a norm")
        G = multiply_z(ctx, F)
        back = backward_shift(ctx, G)
        if not (np.array_equal(back.f.coeffs, F.f.coeffs)
                and np.array_equal(back.f_plus.coeffs, F.f_plus.coeffs)):
            failures.append("L Mz is not exactly the identity")
    worst_id = 0.0
    worst_con = 0.0
    for _ in range(50):
        phi = _rand_poly(rng, 6)
        f = _rand_poly(rng, 10)
        if phi.is_zero:
            continue
        one = toeplitz_conj_hb(ctx, phi, embed(ctx, f))
        two = embed(ctx, toeplitz_conj(phi, f))
        n = max(one.f_plus.coeffs.shape[0], two.f_plus.coeffs.shape[0], 1)
        diff = np.zeros((n, ctx.dim), dtype=complex)
        diff[: one.f_plus.coeffs.shape[0]] += one.f_plus.coeffs
        diff[: two.f_plus.coeffs.shape[0]] -= two.f_plus.coeffs
        worst_id = max(worst_id, float(np.abs(diff).max(initial=0.0)))
        scaled = (1.0 / np.abs(phi(circle_grid(256))).max()) * phi
        F = embed(ctx, f)
        worst_con = max(
            worst_con, toeplitz_conj_hb(ctx, scaled, F).norm_sq - F.norm_sq
        )
    if worst_id > 1e-10:
        failures.append(f"plus part of the Toeplitz image off by {worst_id:.2e}")
    if worst_con > 1e-9:
        failures.append(f"rescaled Toeplitz contraction excess {worst_con:.2e}")
    worst = 0.0
    for _ in range(100):
        p = _rand_poly(rng, 12)
        worst = max(worst, embed(ctx, ctx.a * p).norm_sq - p.norm_sq())
        h = _rand_poly(rng, 12)
        worst = max(worst, embed(ctx, toeplitz_conj(ctx.a, h)).norm_sq
                    - h.norm_sq())
    if worst > 1e-9:
        failures.append(f"multiplier containment excess {worst:.2e}")
    _report(11, "shift and Toeplitz operator properties", failures)
