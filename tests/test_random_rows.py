"""Pipeline fuzz on random rows: strictly contractive and boundary-touching."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbrov import CPoly, RowSchur, hb_inner, kernel, make_context
from dbrov.errors import DbrovError, NumericsError
from dbrov.tolerances import BEST_FACTOR_TOL
from dbrov.verify import reproducing_error, run_checks


def _row_norm_sq(c, theta):
    z = np.exp(1j * np.asarray(theta))
    vals = np.zeros(z.shape + (c.shape[1],), dtype=complex)
    for row in c[::-1]:
        vals = vals * z[..., None] + row
    return (np.abs(vals) ** 2).sum(axis=-1)


def sup_angle(c, dense=1 << 14):
    """Angle where |B| attains its sup on the circle, for coefficients c."""
    thetas = 2 * np.pi * np.arange(dense) / dense
    j = int(np.argmax(_row_norm_sq(c, thetas)))
    # ternary refinement of the sup so the normalized row is truly Schur
    lo, hi = thetas[j] - 2 * np.pi / dense, thetas[j] + 2 * np.pi / dense
    for _ in range(80):
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if _row_norm_sq(c, m1) < _row_norm_sq(c, m2):
            lo = m1
        else:
            hi = m2
    return 0.5 * (lo + hi)


def random_row(rng, d, q, target_sup, dense=1 << 14):
    c = rng.normal(size=(q + 1, d)) + 1j * rng.normal(size=(q + 1, d))
    sup = float(np.sqrt(_row_norm_sq(c, sup_angle(c, dense))))
    return RowSchur(c * (target_sup / sup))


@pytest.mark.parametrize("seed,d,q", [(1, 1, 3), (2, 2, 2), (3, 3, 5), (4, 4, 4)])
def test_strictly_contractive_rows(seed, d, q):
    rng = np.random.default_rng(seed)
    ctx = make_context(random_row(rng, d, q, 0.9))
    assert ctx.Lambda == ()
    assert ctx.reports["det_gap_sup"] <= 1e-10
    f = CPoly(rng.normal(size=8) + 1j * rng.normal(size=8))
    assert reproducing_error(ctx, f, 0.6 * np.exp(1.1j)) <= 1e-10


@pytest.mark.parametrize("seed,d,q", [(11, 2, 3), (12, 3, 2), (3, 1, 10),
                                      (16, 1, 10)])
def test_rows_touching_the_circle(seed, d, q):
    # normalized so the sup over a dense grid is exactly 1: the defect has a
    # (numerically) double zero where the sup is attained
    rng = np.random.default_rng(seed)
    ctx = make_context(random_row(rng, d, q, 1.0))
    assert len(ctx.Lambda) >= 1
    assert ctx.reports["mate_residual_sup"] <= 1e-8
    assert ctx.reports["factor_residual_sup"] <= 1e-12
    assert ctx.reports["det_gap_sup"] <= 1e-10
    lam = ctx.Lambda[0][0]
    k = kernel(ctx, lam)
    mass_norm = hb_inner(ctx, k, k).real
    assert mass_norm > 0


@pytest.mark.parametrize("seed,d,q", [(21, 1, 16), (22, 2, 8), (25, 8, 4)])
def test_rows_nearly_touching_the_circle(seed, d, q):
    # sup 1 - 1e-5: the defect's determinant has a pair of zeros about 4e-3
    # from the circle, which a grid would need ~10^4 points to resolve; the
    # zero outside is split off like a boundary zero
    rng = np.random.default_rng(seed)
    ctx = make_context(random_row(rng, d, q, 1.0 - 1e-5))
    assert ctx.Lambda == ()
    assert ctx.reports["boundary_deflations"] >= 1
    assert ctx.reports["factor_residual_sup"] <= 1e-12
    assert ctx.reports["det_gap_sup"] <= 1e-10


@pytest.mark.parametrize("sup", [0.9, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("q", [40, 60, 80])
def test_large_degree_rows(q, seed, sup):
    # no roots are found: the mate, its boundary zeros and both outer gaps
    # come from the factorization engine, which Aberth failed on at q >= 32
    B = random_row(np.random.default_rng(seed), 2, q, sup)
    ctx = make_context(B)
    assert ctx.reports["mate_residual_sup"] <= 1e-12
    assert ctx.reports["det_gap_sup"] <= 1e-10
    if sup < 1.0:
        assert ctx.Lambda == ()
    else:
        touch = np.exp(1j * sup_angle(B.coeffs))
        assert min(abs(lam - touch) for lam, _ in ctx.Lambda) <= 1e-6


def test_stalled_factor_fallback_is_root_free():
    # both runs stall near 2e-12 here; the best factor is taken with the
    # Schur-Cohn count of its run, which finds no roots
    ctx = make_context(random_row(np.random.default_rng(2), 2, 32, 1.0 - 1e-9))
    assert ctx.reports["factor_fallback"] == 1.0
    assert ctx.reports["outer_gap_factor"] == 0.0


def test_mate_zero_just_outside_the_circle_builds():
    # a = (0.1828, 0.0707 + 0.1685i) has its one zero 2.7e-4 outside the
    # circle (|k| = 0.99973 < 1): outer by the count, where the 4096-point
    # Jensen mean read a gap of 9.2e-5 and the row raised NumericsError.  No
    # pass is certified: the zero lies within 1 + 36 / n on every grid up
    # to 2^16 points, and the 16,384- and 65,536-point passes diverge.  It
    # builds from the pass of least residual (4,096 points) as a fallback,
    # with no split and a mate residual near 5e-9
    ctx = make_context(random_row(np.random.default_rng(707), 8, 1, 1 + 1e-9))
    assert ctx.reports["outer_gap_mate"] == 0.0
    assert ctx.reports["outer_gap_factor"] == 0.0
    assert ctx.reports["mate_fallback"] == 1.0
    assert ctx.splits == ()
    assert ctx.reports["mate_residual_sup"] <= 1e-8
    zero = -ctx.a.coeffs[0] / ctx.a.coeffs[1]
    assert 2e-4 < abs(zero) - 1 < 4e-4


NEAR_ROWS = [(d, q, seed) for d in (1, 2, 4, 8) for q in (4, 8, 12, 16)
             for seed in (1, 2, 3)]
# the rows of NEAR_ROWS that build: all 48 (none did while the mate came
# from pairing defect roots, which put its zero on the circle)
NEAR_BUILT = list(NEAR_ROWS)


@pytest.mark.parametrize("d,q,seed", NEAR_ROWS)
def test_rows_touching_within_1e_9(d, q, seed):
    # sup 1 - 1e-9: the defect's zeros sit ~1e-5 off the circle, so the mate
    # has no boundary zero and det A = a must hold to the factor's accuracy
    B = random_row(np.random.default_rng(seed), d, q, 1.0 - 1e-9)
    try:
        results = run_checks(make_context(B))
    except NumericsError as exc:
        assert "det A vs mate" not in str(exc)
        assert (d, q, seed) not in NEAR_BUILT
        return
    except DbrovError:
        assert (d, q, seed) not in NEAR_BUILT
        return
    assert (d, q, seed) in NEAR_BUILT
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize("d,q,seed", NEAR_ROWS)
def test_rows_above_one_within_1e_9_verify(d, q, seed):
    # sup 1 + 1e-9: validation admits members with ||B(lam)|| - 1 up to
    # UNIMODULAR_TOL, and the Clark check scales each B(lam) into the ball
    results = run_checks(make_context(random_row(np.random.default_rng(seed), d, q,
                                                 1.0 + 1e-9)))
    assert len(results) == 12
    assert [r.name for r in results if not r.passed] == []


@settings(derandomize=True, max_examples=150, deadline=None)
@given(d=st.integers(1, 8), q=st.integers(0, 16),
       sup=st.sampled_from([0.9, 1.0 - 1e-5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9]),
       seed=st.integers(0, 1 << 16))
def test_draws_near_the_circle_end_verified_or_typed(d, q, sup, seed):
    # every drawn row builds with its four certificates within the context
    # checks' bounds, or ends in a typed DbrovError (a constant row of norm
    # 1 has no mate)
    try:
        ctx = make_context(random_row(np.random.default_rng(seed), d, q, sup))
    except DbrovError:
        return
    rep = ctx.reports
    assert rep["mate_residual_sup"] <= BEST_FACTOR_TOL
    assert rep["factor_residual_sup"] <= BEST_FACTOR_TOL
    assert rep["det_gap_sup"] <= 1e-7
    if d == 1:  # a 1 x 1 A is its own determinant
        assert rep["det_gap_sup"] == 0.0
    assert rep["outer_gap_factor"] <= ctx.tol.tol_outer
