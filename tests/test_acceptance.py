"""Acceptance suite: every invariant check of `dbrov verify` on every
fixture, and one test per closed-form criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Every tolerance is fixed here or in `dbrov.verify`, not
configurable.  The random parts of criteria 2, 3 and 6 (the factorization
identities, embedding exactness and Clark mass balance) are verify's checks
on seeded draws (`test_invariant_check`), and the inputs beyond those draws
are `test_inputs_beyond_the_draws`.  Criteria 4 and 11 keep their own draws
but measure each sample with verify's per-sample functions.
"""

import numpy as np
import pytest

from dbrov import (
    CPoly,
    VecPoly,
    caratheodory,
    clark,
    cyclicity,
    density_residual,
    embed,
    hb_inner,
    kernel,
    mate_report,
    point_eval_residual,
)
from dbrov.errors import MateUndefined
from dbrov.fixtures import fixture
from dbrov.verify import (
    CHECKS,
    clark_imbalance,
    complement_product,
    containment_excess,
    pair_residual,
    rand_poly,
    rank_one_identity_defect,
    reproducing_error,
    shift_defects,
    toeplitz_defects,
)

from conftest import circle_grid, matrix_factor, trunc_limit_slope

SQ8 = 1.0 / (2.0 * np.sqrt(2.0))
FIXTURE_NAMES = ("ZERO", "SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)")
# seeds per check, 25 draws each: enough to reach the per-fixture sample
# counts of the tests these checks replaced; the other checks take one
SEEDS = {
    "embedding_residual": 8,
    "orthogonal_complement": 8,
    "reproducing_property": 4,
    "backward_shift": 2,
    "conjugate_toeplitz": 2,
    "multiplier_containments": 4,
    "clark_mass_balance": 7,
}


def _report(num: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} {status}: {label}"
          + (f" -- {'; '.join(failures)}" if failures else ""))
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _of_degree(rng, deg):
    """Degree deg, coefficients drawn as `verify.rand_poly` draws them."""
    return CPoly(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__[1:])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_invariant_check(all_contexts, name, check):
    for seed in range(SEEDS.get(check.__name__[1:], 1)):
        result = check(all_contexts[name], np.random.default_rng(seed))
        assert result.passed, f"{name}, seed {seed}: {result.detail}"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_inputs_beyond_the_draws(all_contexts, name):
    # the ranges the checks' draws stop short of: degree 20 (criterion 3),
    # |w| < 0.05 and degree 15 (criterion 4), |xi| of 0.09 and 0.97
    # (criterion 6), degree 12, a degree-6 symbol and the mate as symbol
    # (criterion 11), each under its check's bound
    ctx = all_contexts[name]
    rng = np.random.default_rng(2024)
    f = _of_degree(rng, 20)
    shape = (3, ctx.dim)
    h = VecPoly(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    assert pair_residual(ctx, f) <= 1e-10
    assert complement_product(ctx, f, h) <= 1e-9
    f = _of_degree(rng, 15)
    for w in (0.0, 0.01 * np.exp(2j * np.pi * rng.uniform())):
        assert reproducing_error(ctx, f, w) <= 1e-10
    for radius in (0.09, 0.97):
        v = rng.normal(size=ctx.dim) + 1j * rng.normal(size=ctx.dim)
        assert clark_imbalance(clark(ctx, radius * v / np.linalg.norm(v))) <= 1e-6
    growth, exact = shift_defects(ctx, _of_degree(rng, 12))
    assert growth <= 0 and exact
    f = _of_degree(rng, 10)
    for phi in (_of_degree(rng, 6), ctx.a):
        gap, excess = toeplitz_defects(ctx, phi, f)
        assert gap <= 1e-10 and excess <= 1e-9
    assert containment_excess(ctx, _of_degree(rng, 12), _of_degree(rng, 12)) <= 1e-9


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


def test_criterion_2_factorization_identities():
    # on the fixtures: the factorization_identities check
    failures = []
    rank1 = matrix_factor(fixture("SARASON").B)[0].ravel()
    gap = np.abs(rank1
                 - mate_report(fixture("SARASON").B).factor.coeffs).max()
    if gap > 1e-8:
        failures.append(f"rank-1 factor vs mate: {gap:.2e}")
    _report(2, "factorization identities: rank-1 factor is the mate", failures)


def test_criterion_3_embedding_exactness(all_contexts):
    # random polynomials: the embedding_residual and orthogonal_complement checks
    failures = []
    ctx = all_contexts["SARASON"]
    if abs(embed(ctx, CPoly([1.0])).norm_sq - 2.0) > 1e-12:
        failures.append("SARASON ||1||^2 != 2")
    if abs(embed(ctx, CPoly([0, 1.0])).norm_sq - 6.0) > 1e-12:
        failures.append("SARASON ||z||^2 != 6")
    _report(3, "embedding exactness: SARASON norms", failures)


def test_criterion_4_reproducing_property(all_contexts):
    failures = []
    rng = np.random.default_rng(404)
    for name in FIXTURE_NAMES:
        ctx = all_contexts[name]
        worst = 0.0
        for _ in range(100):
            f = rand_poly(rng, 15)
            w = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
            worst = max(worst, reproducing_error(ctx, f, w))
        if worst > 1e-10:
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
    # random directions: the clark_mass_balance check
    failures = []
    mu = clark(all_contexts["SARASON"], [1.0])
    if np.abs(mu.density(circle_grid(64)) - 1.0).max() > 1e-6:
        failures.append("SARASON density not identically 1")
    if abs(mu.mass_at(1.0) - 2.0) > 1e-9 or abs(mu.total_mass - 3.0) > 1e-6:
        failures.append("SARASON mass/total not (2, 3)")
    _report(6, "Clark reconstruction: SARASON density and masses", failures)


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
        growth, exact = shift_defects(ctx, rand_poly(rng, 12))
        if growth > 0:
            failures.append("backward shift expanded a norm")
        if not exact:
            failures.append("L Mz is not exactly the identity")
    worst_id = 0.0
    worst_con = 0.0
    for _ in range(50):
        phi = rand_poly(rng, 6)
        gap, excess = toeplitz_defects(ctx, phi, rand_poly(rng, 10))
        worst_id = max(worst_id, gap)
        worst_con = max(worst_con, excess)
    if worst_id > 1e-10:
        failures.append(f"plus part of the Toeplitz image off by {worst_id:.2e}")
    if worst_con > 1e-9:
        failures.append(f"rescaled Toeplitz contraction excess {worst_con:.2e}")
    worst = 0.0
    for _ in range(100):
        p, h = rand_poly(rng, 12), rand_poly(rng, 12)
        worst = max(worst, containment_excess(ctx, p, h))
    if worst > 1e-9:
        failures.append(f"multiplier containment excess {worst:.2e}")
    _report(11, "shift and Toeplitz operator properties", failures)
