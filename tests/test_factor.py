from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from dbrov import (
    CPoly,
    LaurentHerm,
    MatPoly,
    RowSchur,
    make_context,
    mate_report,
    outer_check,
    poly_roots,
    wilson_report,
)
import dbrov.factor as factor_mod
from dbrov.errors import DegenerateDeterminant, DomainError, FactorizationDiverged, \
    IllConditionedConstant, MateUndefined, NotPositive, NumericsError, SingularIterate
from dbrov.factor import _identities, _outer_gap, _polar, _split_off, _zero_free, \
    factor_residual
from dbrov.fixtures import fixture
from dbrov.poly import circle_eval, horner, pow2_at_least
from dbrov.rowschur import defect_laurent
from dbrov.space import SpaceContext, _verify_context
from dbrov.tolerances import BEST_FACTOR_TOL, OUTER_TOL
from dbrov.verify import _factorization_identities, run_checks

from conftest import assert_close, circle_grid, completion_oracle, fejer_riesz_mate, \
    matrix_factor
from test_boundary import DOUBLE_B
from test_random_rows import NEAR_ROWS, random_row

SQ8 = 1.0 / (2.0 * np.sqrt(2.0))


class TestMate:
    def test_zero_row(self):
        assert_close(mate_report(fixture("ZERO").B).factor.coeffs, [1.0],
                     1e-15)

    def test_sarason(self):
        assert_close(mate_report(fixture("SARASON").B).factor.coeffs,
                     [0.5, -0.5], 1e-12)

    def test_row2(self):
        assert_close(mate_report(fixture("ROW2").B).factor.coeffs,
                     [SQ8, -SQ8], 1e-12)

    def test_flat_has_no_mate(self):
        with pytest.raises(MateUndefined):
            mate_report(fixture("FLAT").B)

    @pytest.mark.parametrize("name", ["SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)"])
    def test_residual_and_outer(self, name):
        B = fixture(name).B
        rep = mate_report(B)
        assert rep.residual_sup <= 1e-9
        assert rep.outer_gap == 0.0
        for r, _ in poly_roots(rep.factor):
            assert abs(r) >= 1.0 - 1e-8

    def test_positive_at_zero(self):
        for name in ("SARASON", "ROW2", "TRUNC(4)"):
            a = mate_report(fixture(name).B).factor
            assert a(0).real > 0
            assert abs(a(0).imag) < 1e-14


def _fejer_riesz_mate(B: RowSchur) -> np.ndarray:
    """The 50-digit Fejér-Riesz mate (`conftest.fejer_riesz_mate`), rounded."""
    return np.array([complex(x) for x in fejer_riesz_mate(B)[0]])


# forward-error bounds per sup level from measured values: at q = 12 and 16
# (d = 1 .. 4, seeds 7 .. 12) at most 1.4e-14 at sup 1 and 1.3e-12 at sup
# 1 - 1e-9, where the mate's zeros sit about 1e-5 off the circle
MATE_ORACLE_ROWS = [pytest.param(fixture(name).B, 1e-10, id=name)
                    for name in ("SARASON", "ROW2", "TRUNC(3)")] \
    + [pytest.param(random_row(np.random.default_rng(seed), d, q, 0.9), 1e-10,
                    id=f"seed{seed}-d{d}-q{q}")
       for seed, d, q in [(1, 1, 4), (2, 1, 8), (3, 2, 5), (4, 2, 8),
                          (5, 3, 3), (6, 3, 8)]] \
    + [pytest.param(random_row(np.random.default_rng(seed), d, q, sup), bound,
                    id=f"seed{seed}-d{d}-q{q}-sup{sup}")
       for seed, d, q in [(8, 2, 12), (12, 4, 16)]
       for sup, bound in [(1.0, 2e-14), (1.0 - 1e-9, 2e-12)]]


@pytest.mark.parametrize("B,bound", MATE_ORACLE_ROWS)
def test_mate_against_fejer_riesz_oracle(B, bound):
    a = mate_report(B).factor.coeffs
    want = _fejer_riesz_mate(B)
    n = max(a.shape[0], want.shape[0])
    assert np.abs(np.pad(a, (0, n - a.shape[0]))
                  - np.pad(want, (0, n - want.shape[0]))).max() <= bound
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpc(complex(x)) for x in a[::-1]],
                                 maxsteps=400, extraprec=200) \
            if a.shape[0] > 1 else []
    assert all(abs(r) >= 1 - 1e-8 for r in roots)


class TestWilson:
    def test_identity_density(self):
        rep = wilson_report(LaurentHerm([1.0]))
        assert rep.residual_sup <= 1e-14
        assert_close(rep.factor.coeffs, [1.0], 1e-14)

    def test_rank_one_reproduces_mate(self):
        # for d = 1 the matrix reference factors the mate's own defect
        B = fixture("SARASON").B
        assert_close(matrix_factor(B)[0].ravel(), mate_report(B).factor.coeffs, 1e-8)

    def test_row2_determinant_identity(self):
        B = fixture("ROW2").B
        z = circle_grid(512)
        det = np.linalg.det(MatPoly(matrix_factor(B)[0])(z))
        assert np.abs(det - mate_report(B).factor(z)).max() <= 1e-8

    def test_constant_coefficient_hermitian_pd(self):
        a0 = make_context(fixture("ROW2").B).A.coeffs[0]
        assert np.abs(a0 - np.conj(a0).T).max() < 1e-12
        assert np.linalg.eigvalsh(a0).min() > 0

    def test_indefinite_density_rejected(self):
        bad = LaurentHerm([0.6, 1.0, 0.6])
        with pytest.raises(NotPositive):
            wilson_report(bad)


class TestOuterCheck:
    def test_mate_is_outer(self):
        gap = outer_check(CPoly([0.5, -0.5]))
        assert gap <= 1e-6

    def test_monomial_not_outer(self):
        gap = outer_check(CPoly([0.0, 1.0]))
        assert gap == np.inf

    def test_identity(self):
        assert outer_check(MatPoly.identity(3)) == 0.0

    def test_interior_zero_detected(self):
        gap = outer_check(CPoly([-0.5, 1.0]))  # root at 0.5
        assert abs(gap - (-np.log(0.5))) < 1e-12

    def test_degenerate_determinant(self):
        with pytest.raises(DegenerateDeterminant):
            outer_check(CPoly([0.0]))


class TestJensenGap:
    """The Schur-Cohn count `_outer_gap`: exactly 0.0 on a polynomial with no
    zero in the closed disk, else the roots' gap that `outer_check` gives.
    It replaces `_jensen_gap`, a mean of log|p| over 4096 circle points."""

    # replaces the 4096-point mean against `outer_check` on the same four
    # polynomials: the count reads 0.0 on the two outer ones, and the other
    # two take the roots' path
    @pytest.mark.parametrize("coeffs,outer", [([-0.5, 1.0], False), ([1.0, 0.3, -0.2j], True),
                                              ([0.2, 1.0, 0.5 + 0.5j], False),
                                              ([2.0, -1.0], True)],
                             ids=[f"coeffs{i}" for i in range(4)])
    def test_matches_roots(self, coeffs, outer):
        gap = _outer_gap(np.array(coeffs, dtype=complex))
        assert abs(gap - outer_check(CPoly(coeffs))) <= 1e-12
        assert (gap == 0.0) == outer

    # replaces the mean's agreement with the log-mean of the complex values
    # at a zero 0.01 outside: the zero at 0.5 alone sets the gap, -log 0.5
    def test_zero_just_outside(self):
        p = CPoly.from_roots([0.5, 1.01 * np.exp(0.7j)])
        gap = _outer_gap(p.coeffs)
        assert abs(gap - outer_check(p)) <= 1e-12
        assert abs(gap - np.log(2.0)) <= 1e-12

    # new: the 4096-point mean read these outer polynomials as 1.1e-16,
    # 2.0e-6, 8.9e-5, 1.27e-4, 1.32e-4, 1.32e-4 and 1.32e-4 for delta =
    # 1e-2 .. 1e-8, above OUTER_TOL = 1e-6 from delta = 1e-3 on
    @pytest.mark.parametrize("delta", [10.0 ** -e for e in range(2, 9)])
    def test_zero_at_one_plus_delta_reads_zero(self, delta):
        p = CPoly.from_roots([(1 + delta) * np.exp(0.7j), -2.0])
        assert _outer_gap(p.coeffs) == 0.0

    # new: a zero inside at 1 - delta gives the roots' gap, -log(1 - delta)
    # up to the rounding of the zero itself
    @pytest.mark.parametrize("delta", [10.0 ** -e for e in range(2, 9)])
    def test_zero_at_one_minus_delta_matches_roots(self, delta):
        p = CPoly.from_roots([(1 - delta) * np.exp(0.7j), -2.0])
        want = outer_check(p)
        assert abs(_outer_gap(p.coeffs) - want) <= 1e-12 * want
        assert abs(want + np.log1p(-delta)) <= 1e-15

    # new: p(0) = 0, the identically zero polynomial among them, also as
    # no coefficients at all
    @pytest.mark.parametrize("coeffs", [[0.0, 1.0], [0.0, 0.0, 0.5j], [0.0], [0.0, 0.0], []])
    def test_zero_at_the_origin_reads_inf(self, coeffs):
        assert _outer_gap(np.array(coeffs, dtype=complex)) == np.inf

    # new: constants, and top coefficients at or below 1e-14 max |p|, which
    # the trim removes before the count or the roots: the roots' path sees
    # degree 1 below the trim and degree 3 above it
    @pytest.mark.parametrize("top,degree", [(1e-17, 1), (1e-14, 1), (1e-13, 3)])
    def test_constants_and_rounding_top(self, top, degree, monkeypatch):
        for c in ([3.0], [0.5j], [1.0, 1e-17], [2.0, -1e-14 * 2.0]):
            assert _outer_gap(np.array(c, dtype=complex)) == 0.0
        seen, real = [], factor_mod.poly_roots
        monkeypatch.setattr(factor_mod, "poly_roots",
                            lambda p: seen.append(p.degree) or real(p))
        outer = np.array([1.0, -0.5, top * 1j, top], dtype=complex)
        assert _outer_gap(outer) == 0.0
        inner = np.array([-0.5, 1.0, top * 1j, top], dtype=complex)
        assert abs(_outer_gap(inner) - np.log(2.0)) <= 1e-12
        assert seen == [degree]

    # new: seeded draws of degree 1 to 12 with roots 10^(u +- 1e-3) from the
    # origin, u drawn in (0, 0.5) for every other draw (outer) and in
    # (-0.5, 0.5) for the rest (mostly not)
    def test_random_polynomials_agree_with_outer_check(self):
        rng = np.random.default_rng(36)
        outer = inner = 0
        for i in range(300):
            m = int(rng.integers(1, 13))
            u = rng.uniform(-0.5 * (i % 2), 0.5, m)
            mod = 10.0 ** (u + np.where(u >= 0, 1e-3, -1e-3))
            p = CPoly.from_roots(mod * np.exp(2j * np.pi * rng.random(m)),
                                 leading=complex(*rng.normal(size=2)))
            gap, want = _outer_gap(p.coeffs), outer_check(p)
            assert _zero_free(p.coeffs) == (want == 0.0)
            if want == 0.0:
                outer += 1
                assert gap == 0.0
            else:
                inner += 1
                assert abs(gap - want) <= 1e-12 * want
        assert outer >= 100 and inner >= 100

    @pytest.mark.parametrize("name", ["SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)"])
    def test_engine_factors_are_outer(self, name):
        rep = wilson_report(defect_laurent(fixture(name).B))
        assert rep.outer_gap == 0.0
        assert outer_check(rep.factor) <= 1e-8


def test_wilson_defect_residual_tight():
    for name in ("SARASON", "ROW2", "TRUNC(3)"):
        phi = defect_laurent(fixture(name).B)
        rep = wilson_report(phi)
        assert factor_residual(rep.factor, phi) <= 1e-12


class TestBoundarySplitting:
    """Rows composed with z -> z^k touch the circle at the k-th roots of 1."""

    @staticmethod
    def _compose(coeffs, k):
        out = np.zeros(((len(coeffs) - 1) * k + 1, len(coeffs[0])))
        out[::k] = coeffs
        return RowSchur(out)

    @pytest.mark.parametrize("k", [2, 3, 5, 6])
    @pytest.mark.parametrize("name,amp", [("SARASON", 0.5), ("ROW2", SQ8)])
    def test_roots_of_unity(self, name, amp, k):
        ctx = make_context(self._compose(fixture(name).B.coeffs.real, k))
        mate_k = np.zeros(k + 1)
        mate_k[0], mate_k[k] = amp, -amp
        assert_close(ctx.a.coeffs, mate_k, 1e-12, "mate (1 - z^k) amp")
        points = np.array([l for l, _ in ctx.Lambda])
        roots = np.exp(2j * np.pi * np.arange(k) / k)
        assert [m for _, m in ctx.Lambda] == [1] * k
        assert np.abs(points[:, None] - roots[None, :]).min(axis=0).max() \
            <= 1e-8
        assert ctx.reports["boundary_deflations"] == k
        assert ctx.reports["factor_residual_sup"] <= 1e-12
        assert ctx.reports["det_gap_sup"] <= 1e-10


@pytest.mark.parametrize("d", [8, 10, 12])
def test_trunc_factors_without_boundary_zeros(d):
    ctx = make_context(fixture(f"TRUNC({d})").B)
    assert ctx.Lambda == ()
    assert ctx.reports["det_gap_sup"] <= 1e-10
    assert abs(abs(np.linalg.det(ctx.A(1.0))) ** 2 - 2.0 ** (-d)) \
        <= 1e-10 * 2.0 ** (-d)


def test_reports_show_the_factorization():
    row2 = make_context(fixture("ROW2").B).reports
    trunc = make_context(fixture("TRUNC(8)").B).reports
    assert row2["boundary_deflations"] == 1
    assert trunc["boundary_deflations"] == 0
    for rep in (row2, trunc):
        assert rep["factor_fallback"] == 0.0
        assert rep["factor_grid"] >= 256


def _identities_per_point(B, a, A):
    """The first three `_identities` entries from `horner` values on its
    grid, with one product and one `np.linalg.det` per point."""
    d = B.dim
    ks = np.array([max(a.degree, B.degree), max(A.degree, B.degree),
                   max(d * A.degree, a.degree)])
    n = pow2_at_least(4 * max(ks.max(), 1) + 1)
    z = np.exp(2j * np.pi * np.arange(n) / n)
    sups = np.zeros(3)
    for b, s, M in zip(horner(B.coeffs, z), horner(a.coeffs, z), horner(A.coeffs, z)):
        sups = np.maximum(sups, [abs(abs(s) ** 2 + np.vdot(b, b).real - 1),
                                 np.abs(np.conj(M).T @ M + np.outer(np.conj(b), b)
                                        - np.eye(d)).max(),
                                 abs(np.linalg.det(M) - s)])
    return sups / np.cos(np.pi * ks / n)


# cond A(0) = 1.8e4: B = (0.6, 0.7999999992 z) is 1.28e-9 from unimodular
NEAR_UNIMODULAR = RowSchur([[0.6, 0], [0, 0.7999999992]])


@pytest.mark.parametrize("B", [
    *(pytest.param(fixture(name).B, id=name)
      for name in ("SARASON", "TRUNC(2)", "TRUNC(3)", "TRUNC(4)", "TRUNC(5)")),
    pytest.param(NEAR_UNIMODULAR, id="near-unimodular")])
def test_certificates_match_a_per_point_reference(B):
    # the batched (n, d, d) evaluation against a point-by-point one:
    # measured |difference| at most 3.4e-16 (the near-unimodular row's mate
    # residual), the residuals at most 2.7e-15 (TRUNC(5))
    ctx = make_context(B)
    got = _identities(ctx.B, ctx.a, ctx.A, ctx.splits)
    want = _identities_per_point(ctx.B, ctx.a, ctx.A)
    assert np.abs(np.array(got[:3]) - want).max() <= 1e-15
    assert max(want) <= 1e-14


class TestPolar:
    """A <- U A with U unitary and U A(0) Hermitian positive definite."""

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_constant_becomes_positive_and_gram_stays(self, d):
        rng = np.random.default_rng(40 + d)
        c = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
        c[0] += 3.0 * np.eye(d)
        A = _polar(c).coeffs
        assert np.abs(A[0] - np.conj(A[0]).T).max() <= 1e-15 * np.abs(A[0]).max()
        assert np.linalg.eigvalsh(A[0]).min() > 0
        before, after = circle_eval(c, 16), circle_eval(A, 16)
        gram = [np.conj(v).transpose(0, 2, 1) @ v for v in (before, after)]
        assert np.abs(gram[1] - gram[0]).max() <= 1e-15 * np.abs(gram[0]).max()

    def test_singular_constant_is_refused(self):
        # a singular A(0): rank one for d = 2, and a0 = 0 for d = 1
        for c in (np.array([np.diag([1.0, 0.0]), np.eye(2)], dtype=complex),
                  np.array([[[0.0]], [[1.0]]], dtype=complex)):
            with pytest.raises(SingularIterate):
                _polar(c)


def _outer_poly(m):
    """(1 + z / 2)^m: outer, its zero of order m at -2."""
    return CPoly.from_roots([-2.0] * m, leading=2.0 ** -m).coeffs


class TestDensityScale:
    """No absolute threshold in the engine: s |p|^2 factors to sqrt(s) p."""

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8])
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_scaled_identity(self, m, scale):
        p = _outer_poly(m)
        rep = wilson_report(LaurentHerm(scale * np.correlate(p, p, "full")))
        assert_close(rep.factor.coeffs, np.sqrt(scale) * p,
                     1e-14 * np.sqrt(scale) * np.abs(p).max(), "sqrt(s) p")

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_rank_deficient_constant_density(self, scale):
        # a scalar constant density is rank deficient only when it vanishes:
        # refused at any scale, with or without zero outer coefficients
        for coeffs in ([0.0], [0.0, 0.0, 0.0]):
            with pytest.raises(SingularIterate):
                wilson_report(LaurentHerm(scale * np.array(coeffs)))


@pytest.mark.parametrize("radius", [1.0, 1.005])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_off_divides_exactly(seed, radius):
    # psi = |p|^2 (deg p = 5) times |1 - z / w|^2, with w on the circle or
    # just outside it: the two exact divisions give psi back
    rng = np.random.default_rng(seed)
    p = rng.normal(size=6) + 1j * rng.normal(size=6)
    w = radius * np.exp(2j * np.pi * rng.random())
    psi = np.correlate(p, p, "full")
    e = np.array([-1 / np.conj(w), 1 + 1 / abs(w) ** 2, -1 / w])  # |1 - z/w|^2
    got = _split_off(LaurentHerm(np.convolve(psi, e)), w).coeffs
    assert np.abs(got - LaurentHerm(psi).coeffs).max() <= 1e-14 * np.abs(psi).max()


def test_stalled_run_stops_at_first_idle_enlargement(monkeypatch):
    # the mate run stalls near 1.2e-12, above ENGINE_TOL: its 1,024-point
    # pass is certified (residual within BEST_FACTOR_TOL, grid factor
    # zero-free within 1 + 36 / 1024), so the run stops there with fallback
    # set and no further enlargement (it grew to 2^16 points once); it is
    # the only run
    grids = []
    real = factor_mod._grid_pass

    def counting(phi, n, *args, **kwargs):
        grids.append(n)
        return real(phi, n, *args, **kwargs)

    monkeypatch.setattr(factor_mod, "_grid_pass", counting)
    ctx = make_context(random_row(np.random.default_rng(2), 2, 32, 1.0 - 1e-9))
    assert ctx.reports["factor_fallback"] == 1.0
    assert ctx.reports["factor_residual_sup"] <= BEST_FACTOR_TOL
    assert 0 < len(grids) <= 3
    assert max(grids) <= 4096


def _padded_gap(A, C):
    """Largest coefficient difference of two (k, d, d) stacks, the shorter
    padded with zeros."""
    n = max(A.shape[0], C.shape[0])
    pad = [np.concatenate([X, np.zeros((n - X.shape[0],) + X.shape[1:])]) for X in (A, C)]
    return float(np.abs(pad[0] - pad[1]).max())


ZERO_REUSE_ROWS = [pytest.param(fixture(name).B, id=name)
                   for name in ("ROW2", "TRUNC(3)", "TRUNC(8)")] \
    + [pytest.param(random_row(np.random.default_rng(seed), d, q, sup),
                    id=f"seed{seed}-d{d}-q{q}-sup{sup}")
       for seed, d, q in [(1, 2, 6), (2, 3, 4), (3, 4, 5)]
       for sup in (1.0, 1.0 - 1e-5, 1.0 - 1e-9)]


@pytest.mark.parametrize("B", ZERO_REUSE_ROWS)
def test_matrix_run_reuses_mate_zeros(B):
    # the context's A comes from the mate's zeros by the completion; a
    # matrix Newton run on I - B*B (`matrix_factor`), with its own null
    # vectors and grid, is the independent reference for it
    ctx = make_context(B)
    A, splits = matrix_factor(B)
    assert ctx.reports["boundary_deflations"] == len(splits)
    assert _padded_gap(ctx.A.coeffs, A) <= 1e-10


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("sup", [0.9, 1.0])
@pytest.mark.parametrize("q", [16, 33])
def test_first_grid_holds_the_factor(q, sup, d):
    # the first grid has more than 8 m1 points, m1 = q less the splits
    # (the half-degree left to the grid), so it holds the m1 + 1
    # coefficients of the grid factor with room to spare
    B = random_row(np.random.default_rng(q), d, q, sup)
    ctx = make_context(B)
    assert ctx.reports["factor_residual_sup"] <= 1e-12
    assert ctx.reports["factor_grid"] > 8 * (q - ctx.reports["boundary_deflations"])


def test_one_engine_run_per_context(monkeypatch):
    # make_context runs the engine once, for the mate, on the defect alone
    runs = []
    real = factor_mod.wilson_report

    def recording(phi):
        runs.append(phi.coeffs.shape)
        return real(phi)

    monkeypatch.setattr(factor_mod, "wilson_report", recording)
    make_context(fixture("ROW2").B)
    assert runs == [(3,)]


def test_stale_settings_raise_type_error():
    # the grid exponent, the residual target and the tolerances are no
    # settings: a stale keyword, or a stale positional argument, fails at
    # once instead of being read as another parameter
    B = fixture("ROW2").B
    phi = defect_laurent(B)
    for run in (lambda: make_context(B, grid_log2=12), lambda: make_context(B, None, 12),
                lambda: make_context(B, tol=None), lambda: make_context(B, None),
                lambda: mate_report(B, grid_log2=12), lambda: mate_report(B, None, 12),
                lambda: mate_report(B, None),
                lambda: wilson_report(phi, grid_log2=8), lambda: wilson_report(phi, 1e-12),
                lambda: wilson_report(phi, tol_factor=1e-12),
                lambda: wilson_report(phi, dip=-1e-8),
                lambda: RowSchur(B.coeffs, tol_psd=1.0)):
        with pytest.raises(TypeError):
            run()


def test_psd_slack_reaches_the_positivity_test():
    # ROW2 scaled by 1 + 2e-9 dips to -4e-9 at its boundary zero: within the
    # fixed slack PSD_SLACK = 1e-8 it builds, as a fallback with one member;
    # scaled by 1 + 6e-9 it dips to -1.2e-8, beyond the slack
    B = RowSchur(fixture("ROW2").B.coeffs * (1 + 2e-9))
    ctx = make_context(B)
    assert ctx.reports["factor_fallback"] and len(ctx.Lambda) == 1
    with pytest.raises(NotPositive, match="dips to -1.200e-08"):
        make_context(RowSchur(fixture("ROW2").B.coeffs * (1 + 6e-9)))


@pytest.mark.parametrize("B", [fixture(n).B for n in ("ZERO", "SARASON", "ROW2",
                                                      "TRUNC(3)", "TRUNC(8)")]
                         + [random_row(np.random.default_rng(s), d, q, sup)
                            for s, d, q, sup in ((21, 1, 4, 1.0), (22, 2, 3, 0.9),
                                                 (23, 3, 5, 1.0))])
def test_mate_report_is_the_context_mate(B):
    # the public mate is make_context's, bit for bit
    assert np.array_equal(mate_report(B).factor.coeffs, make_context(B).a.coeffs)


def test_stalled_run_returns_best_factor():
    # one stall policy: a public run that stalls near 2e-12 returns its best
    # factor with fallback set, as the runs of make_context do
    B = random_row(np.random.default_rng(2), 2, 32, 1.0 - 1e-9)
    rep = wilson_report(defect_laurent(B))
    assert rep.fallback
    assert 1e-12 < rep.residual_sup <= BEST_FACTOR_TOL


def test_run_above_best_factor_bound_raises(scaled_factor):
    # a run whose best residual stays above BEST_FACTOR_TOL has no fallback:
    # every pass's factor scaled by 1 + 1e-4 misses phi by about 1e-4, on
    # every grid up to 2^16 points, and the trace holds one residual a pass
    scaled_factor(1e-4)
    B = fixture("TRUNC(8)").B
    for build in (lambda: make_context(B),
                  lambda: wilson_report(defect_laurent(B))):
        with pytest.raises(FactorizationDiverged) as info:
            build()
        assert info.value.best.residual_sup > BEST_FACTOR_TOL
        assert len(info.value.residual_trace) == 5


@pytest.mark.parametrize("B", [fixture("SARASON").B, fixture("ROW2").B,
                               fixture("TRUNC(8)").B])
def test_one_zero_search_per_context(B, monkeypatch):
    calls = []
    real = factor_mod._boundary_zeros

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(factor_mod, "_boundary_zeros", counting)
    make_context(B)
    assert len(calls) == 1


@pytest.mark.parametrize("delta,grid", [(0.3, 256), (0.1, 1024), (0.05, 1024),
                                        (0.02, 4096), (0.01, 4096)])
def test_grid_resolves_the_nearest_zero(delta, grid):
    # a = (1 - z / w)(1 + (0.3 + 0.2i) z), w = (1 + delta) e^{0.7i}, outside
    # the split radius: the grid is the first 256 * 4^k >= 36 / delta, the
    # first n on which a has no zero within 1 + 36 / n
    w = (1 + delta) * np.exp(0.7j)
    a = np.convolve([1.0, -1 / w], [1.0, 0.3 + 0.2j])
    rep = wilson_report(LaurentHerm(np.correlate(a, a, "full")))
    assert (rep.grid, rep.splits, rep.fallback) == (grid, (), False)
    assert rep.residual_sup <= 1e-14
    assert_close(rep.factor.coeffs, a, 1e-14)


def test_grid_survives_a_last_bit_perturbation():
    # the grid follows the zeros of the grid factor, not the rounding of a
    # residual: B (1 + 2^-52 s), s = +-1, keeps the grid and the splits on
    # every NEAR_ROWS row at sup 1 - 1e-9, 1 and 1 + 1e-9 (52 of the 144
    # moved grid while the grid was chosen from residuals)
    rows = [(sup, row) for sup in (1.0 - 1e-9, 1.0, 1.0 + 1e-9) for row in NEAR_ROWS]
    signs = np.random.default_rng(0).choice([-1.0, 1.0], size=len(rows))
    moved = []
    for (sup, (d, q, seed)), s in zip(rows, signs):
        c = random_row(np.random.default_rng(seed), d, q, sup).coeffs
        reps = [mate_report(RowSchur(c * f)) for f in (1.0, 1.0 + s * 2.0 ** -52)]
        if len({(r.grid, len(r.splits)) for r in reps}) > 1:
            moved.append((sup, d, q, seed))
    assert moved == []


def test_oversized_grid_refused_before_any_run(monkeypatch):
    # a density of half-degree 2^21 takes a first grid of 2^25 points, one
    # stack of more than 2^24 entries: its size check refuses it, typed,
    # before any grid pass.  A stand-in carries the degree alone, with the
    # zero search patched out, so no array of that size is made
    def refused(*args, **kwargs):
        raise AssertionError("a grid pass ran")

    monkeypatch.setattr(factor_mod, "_boundary_zeros", lambda phi: ([], 0.0))
    monkeypatch.setattr(factor_mod, "_grid_pass", refused)
    with pytest.raises(DomainError, match="factorization grid of 33554432 points"):
        wilson_report(SimpleNamespace(half_degree=1 << 21))


@pytest.mark.parametrize("coeffs,top", [([[1, 0], [0, 1e-5]], -1e-10),
                                        ([[1 + 2e-9]], -4e-9),
                                        ([[0], [1 + 2e-9]], -4e-9)])
def test_nowhere_positive_defect_has_no_mate(coeffs, top):
    # validation admits each row (sup |B| <= 1 + PSD_SLACK) and its defect
    # stays above the dip, but it is negative on the whole circle: within
    # the slack it vanishes, as FLAT's does, and no factor of eps-clamped
    # values is built
    with pytest.raises(MateUndefined, match=f"at most {top:.3e} on the circle"):
        make_context(RowSchur(coeffs))


def test_mate_run_errors_come_first():
    with pytest.raises(MateUndefined):
        make_context(fixture("FLAT").B)
    with pytest.raises(NotPositive, match="dips to -1.200e-08"):
        # sup |B| = 1 + 6e-9 passes validation; its defect goes beyond the slack
        make_context(RowSchur(fixture("ROW2").B.coeffs * (1 + 6e-9)))


COMPLETION_ROWS = [pytest.param(fixture(name).B, id=name)
                   for name in ("ROW2", "TRUNC(8)", "TRUNC(10)")] \
    + [pytest.param(random_row(np.random.default_rng(seed), d, q, sup),
                    id=f"seed{seed}-d{d}-q{q}-sup{sup}")
       for seed, d, q in [(1, 2, 16), (2, 3, 8), (3, 4, 12), (4, 8, 4)]
       for sup in (0.9, 1.0, 1.0 - 1e-9)]


@pytest.mark.parametrize("B", COMPLETION_ROWS)
def test_completion_is_outer_and_verified(B):
    # the completed factor, outer as built, passes every check, A(0) is
    # Hermitian positive definite, and det A has no zero in the disk: by the
    # Schur-Cohn count, and by the roots of det A (TRUNC(10)'s det A nearly
    # vanishes at z = 1, where the defect is 2^-10)
    ctx = make_context(B)
    assert [r.name for r in run_checks(ctx) if not r.passed] == []
    a0 = ctx.A.coeffs[0]
    assert np.abs(a0 - np.conj(a0).T).max() <= 1e-12
    assert np.linalg.eigvalsh(a0).min() > 0
    assert ctx.reports["det_gap_sup"] <= 1e-10
    assert ctx.reports["outer_gap_factor"] == 0.0
    assert outer_check(ctx.A) <= 1e-8


def _unitary_with_det(phase, d=2):
    """A constant d x d unitary, not diagonal, with determinant e^(i phase):
    a rotation in the plane of the first two axes around diag(e^(i phase),
    1, ..., 1)."""
    c, s = np.cos(0.3), np.sin(0.3)
    V = np.eye(d)
    V[:2, :2] = [[c, -s], [s, c]]
    return V @ np.diag(np.append(np.exp(1j * phase), np.ones(d - 1))) @ V.T


def _times_z_along(A, x):
    """(I - xx* + z xx*) A: unitary on the circle, so A*A is unchanged, and
    det A gains the zero 0."""
    P = np.outer(x, np.conj(x))
    out = np.zeros((A.shape[0] + 1,) + A.shape[1:], dtype=complex)
    out[:-1] = A - P @ A
    out[1:] += P @ A
    return out


def _unit_along(d):
    """The unit vector (0.6, 0.8i, 0, ..., 0) of C^d."""
    return np.append([0.6, 0.8j], np.zeros(d - 2))


# each corruption of a built (a, A), the _identities entry it moves and the
# _verify_context check that must then fail
CORRUPTIONS = [
    (lambda a, A: (a * (1 + 1e-6), A), 0, "mate residual", "a-scaled"),
    (lambda a, A: (a, A * (1 + 1e-6)), 1, "factorization residual", "A-scaled"),
    (lambda a, A: (a, _unitary_with_det(0.1, A.shape[1]) @ A), 2, "det A vs mate",
     "A-rotated"),
    (lambda a, A: (a, _times_z_along(A, _unit_along(A.shape[1]))), 3,
     "factor outer gap", "A-times-z"),
]


def _grid_sizes(monkeypatch):
    """The grid size of every `_identities` evaluation from here on: the n of
    each `circle_eval` of a (k, d, d) stack, which only A's is."""
    sizes, real = [], factor_mod.circle_eval

    def spy(coeffs, n, *args, **kwargs):
        if coeffs.ndim == 3:
            sizes.append(n)
        return real(coeffs, n, *args, **kwargs)

    monkeypatch.setattr(factor_mod, "circle_eval", spy)
    return sizes


# ROW2 (d = 2) on 32 points, TRUNC(4) and TRUNC(5) on 128: the batched `@`
# and `np.linalg.det` of the (n, d, d) values at d = 2, 4 and 5
@pytest.mark.parametrize("name,corrupt,entry,check,grid", [
    pytest.param(name, corrupt, entry, check, grid,
                 id=label if name == "ROW2" else f"{name}-{label}")
    for name, grid in (("ROW2", 32), ("TRUNC(4)", 128), ("TRUNC(5)", 128))
    for corrupt, entry, check, label in CORRUPTIONS])
def test_certificates_catch_corrupt_factors(name, corrupt, entry, check, grid, monkeypatch):
    ctx = make_context(fixture(name).B)
    a, A = corrupt(ctx.a.coeffs, ctx.A.coeffs)
    a, A = CPoly(a), MatPoly(A, dim=ctx.dim)
    sizes = _grid_sizes(monkeypatch)
    values = _identities(ctx.B, a, A, ctx.splits)
    names = ("mate_residual_sup", "factor_residual_sup", "det_gap_sup",
             "outer_gap_factor")
    reports = {**ctx.reports, **dict(zip(names, values))}
    bound = {0: BEST_FACTOR_TOL, 1: BEST_FACTOR_TOL, 2: 1e-7, 3: OUTER_TOL}
    assert sizes == [grid]
    assert values[entry] > bound[entry]
    with pytest.raises(NumericsError, match=f"'{check}' failed"):
        _verify_context(SpaceContext(ctx.B, a, A, ctx.Lambda, reports))


def _constant_row(d, norm, seed):
    """A constant row of C^d with the given norm, in a seeded direction."""
    v = np.random.default_rng(seed).normal(size=(d, 2)) @ [1, 1j]
    return RowSchur(norm * v[None, :] / np.linalg.norm(v))


# deg B = 0: every residual has degree at most 1, certified on 8 points; the
# two d = 2 rows are CI's near-unimodular `verify` specs
@pytest.mark.parametrize("B", [
    pytest.param(RowSchur([[0.5]]), id="d1"),
    pytest.param(RowSchur([[0.6, 0.7999999992]]), id="d2-near"),
    pytest.param(RowSchur([[0.6, 0.7999999999992]]), id="d2-near12"),
    pytest.param(_constant_row(5, 0.9, 1), id="d5"),
    pytest.param(_constant_row(8, 1 - 1e-9, 2), id="d8-near")])
def test_constant_rows_certified_on_eight_points(B, monkeypatch):
    sizes = _grid_sizes(monkeypatch)
    ctx = make_context(B)
    assert sizes == [8]
    _verify_context(ctx)


def _trig_dense(coeffs, n):
    """Values on n circle points of sum_k coeffs[k] z^(k - K), K = len // 2."""
    return circle_eval(coeffs, n, low=-(coeffs.shape[0] // 2))


@pytest.mark.parametrize("K", range(1, 17))
def test_sampling_bound_at_the_offset_cosine(K):
    # cos K (theta - pi / N) on N = 4 K + 1 points rounded up to a power of
    # 2: the grid maximum times sec(pi K / N) is at least the sup 1, and
    # equals it where 2 K divides N, the lemma's extremal case
    N = pow2_at_least(4 * K + 1)
    theta = 2 * np.pi * np.arange(N) / N
    bound = np.abs(np.cos(K * (theta - np.pi / N))).max() / np.cos(np.pi * K / N)
    assert bound >= 1 - 1e-15
    if N % (2 * K) == 0:
        assert bound == pytest.approx(1.0, abs=1e-14)
    else:
        assert bound > 1 + 1e-3


def test_sampling_bound_on_random_polynomials():
    # 200 seeded complex trigonometric polynomials of degree K <= 16, each
    # turned so that its peak on 2^14 points sits half a step of the
    # N-point grid from every point: the scaled grid maximum is never below
    # that peak (measured: bound / peak from 1.013 to 1.283)
    rng = np.random.default_rng(7)
    dense = 1 << 14
    for _ in range(200):
        K = int(rng.integers(1, 17))
        N = pow2_at_least(4 * K + 1)
        c = rng.normal(size=2 * K + 1) + 1j * rng.normal(size=2 * K + 1)
        peak = np.argmax(np.abs(_trig_dense(c, dense)))
        # p(theta + psi), psi = theta* - pi / N, peaks at pi / N
        shift = 2 * np.pi * peak / dense - np.pi / N
        c = c * np.exp(1j * (np.arange(2 * K + 1) - K) * shift)
        sup = np.abs(_trig_dense(c, dense)).max()
        sample = np.abs(_trig_dense(c, N)).max()
        assert sample < sup
        assert sample / np.cos(np.pi * K / N) >= sup * (1 - 1e-14)


def _residual_curves(B, a, A, n):
    """|a|^2 + BB* - 1, the largest entry of |A*A + B*B - I| and |det A - a|
    at n circle points, by one batched product and LAPACK determinant: the
    tests' reference for `_identities`."""
    bv, av, Av = (circle_eval(c, n) for c in (B.coeffs, a.coeffs, A.coeffs))
    mate = np.abs(np.abs(av) ** 2 + (np.abs(bv) ** 2).sum(axis=1) - 1.0)
    ident = np.conj(Av).transpose(0, 2, 1) @ Av \
        + np.conj(bv)[:, :, None] * bv[:, None, :] - np.eye(B.dim)
    return mate, np.abs(ident).max(axis=(1, 2)), np.abs(np.linalg.det(Av) - av)


def _turned(c, psi):
    """Coefficients of p(e^(i psi) z) from those of p."""
    return c * np.exp(1j * psi * np.arange(c.shape[0])).reshape((-1,) + (1,) * (c.ndim - 1))


@pytest.mark.parametrize("offset", ["grid", "parent"])
@pytest.mark.parametrize("entry", [0, 1, 2])
@pytest.mark.parametrize("name", ["ROW2", "TRUNC(3)", "TRUNC(5)"])
def test_identities_bound_the_residual_sup(name, entry, offset, monkeypatch):
    # A + delta z^(deg A) M and a + delta z^(deg a), delta = 1e-9, turned so
    # that the peak of one residual on 2^14 points sits half a step of
    # _identities' grid ("grid") or of a fixed 512-point grid ("parent")
    # from every point of it: the reported sup is never below the peak
    # (measured: 1.001 to 1.22 times it), while the unscaled maximum on that
    # grid is.  At "parent" the 512-point sample misses the peak by up to
    # 4e-4 of it; at "grid" the 512 points hold the peak to 2e-7 of it
    ctx = make_context(fixture(name).B)
    d, delta, dense = ctx.dim, 1e-9, 1 << 14
    M = np.random.default_rng(5).normal(size=(d, d, 2)) @ [1, 1j]
    a, A = ctx.a.coeffs.copy(), ctx.A.coeffs.copy()
    a[-1] += delta
    A[-1] += delta * M
    B = ctx.B.coeffs
    sizes = _grid_sizes(monkeypatch)
    _identities(ctx.B, CPoly(a), MatPoly(A, dim=d), ctx.splits)
    n = sizes[0]
    step = n if offset == "grid" else 512
    curves = _residual_curves(ctx.B, CPoly(a), MatPoly(A, dim=d), dense)
    psi = 2 * np.pi * np.argmax(curves[entry]) / dense - np.pi / step
    turned = (RowSchur(_turned(B, psi)), CPoly(_turned(a, psi)),
              MatPoly(_turned(A, psi), dim=d))
    curve = _residual_curves(*turned, dense)[entry]
    sup = curve.max()
    assert sup > 1e3 * np.finfo(float).eps
    value = _identities(*turned, tuple(w * np.exp(-1j * psi) for w in ctx.splits))[entry]
    assert value >= sup
    assert curve[:: dense // step].max() < sup


@pytest.mark.parametrize("shift_mate", [False, True])
def test_verify_checks_the_outer_gap(shift_mate):
    # (I - xx* + z xx*) A keeps A*A and gains the zero 0 in det A; with the
    # mate shifted to z a as well, every residual holds and only the outer
    # gap, taken with the context's split points divided out, sees it
    ctx = make_context(fixture("ROW2").B)
    A = MatPoly(_times_z_along(ctx.A.coeffs, np.array([0.6, 0.8j])), dim=2)
    a = CPoly(np.append(0.0, ctx.a.coeffs)) if shift_mate else ctx.a
    bad = SpaceContext(ctx.B, a, A, ctx.Lambda, ctx.reports, ctx.splits)
    result = _factorization_identities(bad, None)
    words = result.detail.split()
    assert not result.passed
    assert float(words[6]) > 10.0  # -log of the rounding left at z = 0
    assert (float(words[1]) <= 1e-8) == shift_mate


def test_zero_factor_fails_the_outer_gap():
    # A with no coefficients is the zero polynomial: the outer gap of its
    # det is inf, so the identities check fails, and the checks after it
    # end typed
    ctx = make_context(fixture("ROW2").B)
    A = MatPoly(np.zeros((1, 2, 2)))
    bad = SpaceContext(ctx.B, ctx.a, A, ctx.Lambda, ctx.reports, ctx.splits)
    result = _factorization_identities(bad, None)
    assert not result.passed
    assert result.detail.endswith("outer gap inf (bound 1.0e-06)")
    with pytest.raises(IllConditionedConstant):
        run_checks(bad)


def test_context_keeps_the_split_points():
    # ROW2's defect vanishes at 1 to order 2: one split, read-only
    ctx = make_context(fixture("ROW2").B)
    assert len(ctx.splits) == ctx.reports["boundary_deflations"] == 1
    assert abs(ctx.splits[0] - 1.0) <= 1e-8
    assert _factorization_identities(ctx, None).passed
    with pytest.raises(AttributeError):
        ctx.splits = ()


def _row_with_mate(a):
    """(b, b) / sqrt 2 with b the outer partner of the row (a): its mate is a."""
    b = mate_report(RowSchur(np.asarray(a)[:, None])).factor.coeffs
    return RowSchur(np.column_stack([b, b]) / np.sqrt(2.0))


@pytest.mark.parametrize("B,mate", [
    pytest.param(random_row(np.random.default_rng(seed), d, q, 0.9), None,
                 id=f"seed{seed}-d{d}-q{q}")
    for seed, d, q in [(1, 1, 3), (2, 2, 2), (3, 3, 5), (4, 4, 4)]]
    + [pytest.param(_row_with_mate([0.1, -0.15, 0.075, -0.0125]),
                    [0.1, -0.15, 0.075, -0.0125], id="partner-triple-zero")])
def test_cold_scalar_run_takes_one_step(B, mate):
    # the cepstral factor exp [log phi]_+ on the first, 256-point grid is
    # certified: one pass; forward errors measured: <= 1.2e-16 on
    # the contractive rows, 1.2e-14 on the partner row of 0.1 (1 - z / 2)^3
    with mpmath.workdps(50):
        want = [complex(x) for x in (fejer_riesz_mate(B)[0] if mate is None else mate)]
    rep = mate_report(B)
    assert (rep.iterations, rep.grid) == (1, 256)
    assert _padded_gap(rep.factor.coeffs[:, None, None], np.array(want)[:, None, None]) \
        <= (1e-15 if mate is None else 5e-14)


# a = 0.1 (1 - z / w)^3, a triple zero near the circle: from a constant start
# a Newton run on the mate's defect diverged at a residual of 4.2e-4; its
# cepstral factor needs no step.  Forward errors of a measured: 1.4e-12 and 1.6e-12 at
# w = 1.2i, 9.5e-12 (d = 1) and 5.5e-11 (d = 2) at w = 1.1
@pytest.mark.parametrize("w,bound", [(1.2j, 1e-11), (1.1, 2e-10)])
@pytest.mark.parametrize("d", [1, 2])
def test_triple_zero_near_circle_mate(w, bound, d):
    a = 0.1 * np.array([1, -3 / w, 3 / w ** 2, -1 / w ** 3])
    b = mate_report(RowSchur(a[:, None])).factor.coeffs
    ctx = make_context(RowSchur(np.column_stack([b] * d) / np.sqrt(d)))
    assert ctx.reports["factor_fallback"] == 0.0
    _verify_context(ctx)
    assert _padded_gap(ctx.a.coeffs[:, None, None], a[:, None, None]) <= bound


# forward-error bounds from measured values: <= 1.4e-15 at sup 0.9 and 1,
# and <= 4.5e-13 at sup 1 - 1e-9, where the mate's zeros sit about 3e-5 off
# the circle; the mate 0.3 (1 - z / 2)^2, whose double zero rounding splits
# by about 1e-7, reads 1.3e-15
COMPLETION_ORACLE_ROWS = [pytest.param(fixture(name).B, None, 1e-14, id=name)
                          for name in ("ROW2", "TRUNC(3)")] \
    + [pytest.param(RowSchur(np.column_stack([DOUBLE_B] * 2) / np.sqrt(2.0)),
                    ([0.125, -0.25, 0.125], [1, 1]), 1e-14, id="double-member-d2"),
       pytest.param(_row_with_mate([0.3, -0.3, 0.075]), ([0.3, -0.3, 0.075], [2, 2]),
                    1e-14, id="double-exterior-zero-d2")] \
    + [pytest.param(random_row(np.random.default_rng(seed), d, q, sup), None,
                    2e-12 if sup == 1.0 - 1e-9 else 1e-14,
                    id=f"seed{seed}-d{d}-q{q}-sup{sup}")
       for seed, d, q in [(32, 2, 4), (33, 2, 6), (34, 3, 3), (35, 3, 6)]
       for sup in (0.9, 1.0, 1.0 - 1e-9)]


@pytest.mark.parametrize("B", [
    pytest.param(fixture("ROW2").B, id="ROW2"),
    pytest.param(fixture("TRUNC(5)").B, id="TRUNC(5)"),
    pytest.param(_row_with_mate([0.3, -0.3, 0.075]), id="double-exterior-zero-d2"),
    pytest.param(_row_with_mate(0.1 * np.array([1, -3 / 1.2j, 3 / 1.2j ** 2, -1 / 1.2j ** 3])),
                 id="triple-zero-1.2i-d2")])
def test_completion_finds_no_zeros(B, monkeypatch):
    # the reversed row's block has det c a, outer as built: no root of a is
    # sought, and the certificates read rounding
    calls = []
    real = factor_mod.poly_roots

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(factor_mod, "poly_roots", spy)
    ctx = make_context(B)
    assert calls == []
    assert ctx.reports["det_gap_sup"] <= 1e-12
    assert ctx.reports["outer_gap_factor"] == 0.0


@pytest.mark.parametrize("B,mate,bound", COMPLETION_ORACLE_ROWS)
def test_factor_against_completion_oracle(B, mate, bound):
    # forward error of A against the completion run in mpmath at 50 digits
    # on the Fejér-Riesz mate, or on the closed form where a multiple zero
    # of the defect makes its roots ill-conditioned
    with mpmath.workdps(50):
        a, zeros = fejer_riesz_mate(B) if mate is None \
            else ([mpmath.mpf(x) for x in mate[0]], [mpmath.mpf(w) for w in mate[1]])
        want = completion_oracle(B, a, zeros)
    assert _padded_gap(make_context(B).A.coeffs, want) <= bound


@pytest.mark.parametrize("B", [fixture("SARASON").B, fixture("ZERO").B]
                         + [random_row(np.random.default_rng(seed), 1, q, sup)
                            for seed, q in [(1, 3), (2, 8), (3, 16)]
                            for sup in (0.9, 1.0, 1.0 - 1e-9)])
def test_scalar_row_runs_the_engine_once(B, monkeypatch):
    # for d = 1 both defects are 1 - |b|^2: one run gives a and A = a
    runs = []
    real = factor_mod.wilson_report

    def counting(*args, **kwargs):
        runs.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(factor_mod, "wilson_report", counting)
    ctx = make_context(B)
    assert len(runs) == 1
    A = ctx.A.coeffs[:, 0, 0]
    assert np.array_equal(A[: ctx.a.coeffs.shape[0]], ctx.a.coeffs)
    assert not A[ctx.a.coeffs.shape[0]:].any()
    assert ctx.reports["det_gap_sup"] == 0.0
    assert ctx.reports["factor_fallback"] == ctx.reports["mate_fallback"]


def _defect_roots_near_circle(B):
    """Roots w of z^q (1 - BB*) with 1 <= |w| < 1 + _NEAR, from the
    companion matrix; det(I - B*B) = 1 - BB*, so `matrix_factor` splits
    I - B*B at them too.

    Rounding splits a double root on the circle into a pair about sqrt(eps)
    off it, so roots within 1e-6 of one another count once."""
    out = []
    for r, _ in poly_roots(CPoly(_defect_coeffs(B.coeffs))):
        if 1 - 1e-6 <= abs(r) < 1 + factor_mod._NEAR \
                and all(abs(r - u) > 1e-6 for u in out):
            out.append(r)
    return out


def _row_with_zero_off_circle(rng, d, q, delta):
    """A random row scaled so that the defect's zero nearest the circle
    sits at |w| - 1 = delta (bisection on the scale of a touching row)."""
    B = random_row(rng, d, q, 1.0)

    def gap(s):
        radii = np.abs(np.roots(_defect_coeffs(B.coeffs * s)[::-1]))
        return radii[radii >= 1].min() - 1

    lo, hi = 0.5, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gap(mid) > delta else (lo, mid)
    return RowSchur(B.coeffs * lo)


def _defect_coeffs(c):
    """z^q (1 - BB*) in ascending powers: the coefficient of z^k in BB* is
    sum_j <B_{j+k}, B_j>, a numpy correlation, apart from `defect_laurent`."""
    bb = sum(np.correlate(c[:, i], c[:, i], mode="full") for i in range(c.shape[1]))
    out = -bb
    out[c.shape[0] - 1] += 1.0
    return out


PLACED_ROWS = [pytest.param(_row_with_zero_off_circle(
    np.random.default_rng(seed), d, q, rel * factor_mod._NEAR),
    id=f"seed{seed}-d{d}-q{q}-near{rel}")
    for seed, d, q in [(1, 1, 6), (2, 2, 5), (3, 3, 4)]
    for rel in (0.5, 0.99, 1.01, 2.0)]


@pytest.mark.parametrize("B", ZERO_REUSE_ROWS + PLACED_ROWS + [
    pytest.param(random_row(np.random.default_rng(seed), d, q, 1.0 - 1e-9),
                 id=f"near-d{d}-q{q}-seed{seed}") for d, q, seed in NEAR_ROWS])
def test_screened_zeros_match_companion_roots(B):
    # grid minima screened off before the angle Newton lose no zero within
    # _NEAR of the circle
    want = _defect_roots_near_circle(B)
    got, _ = factor_mod._boundary_zeros(defect_laurent(B))
    assert len(got) == len(want)
    for w in want:
        assert min(abs(np.asarray(got) - w)) <= 1e-6


def _bauer_factor(B, N):
    """A's coefficients by Bauer's method, with no factorization engine.

    T = [W_{j-i}] is the block Toeplitz matrix (N + 1 blocks) of
    W = I - B*B = A*A, W_m = delta_m0 I - sum_j b_j^H b_{j+m}.  Its Cholesky
    factor's last block row, conjugate-transposed and reversed, tends to A
    up to a unitary on the left, which A(0) > 0 fixes.
    """
    c = B.coeffs
    q1, d = c.shape
    n = N + 1
    W = np.zeros((2 * N + 1, d, d), dtype=complex)  # W_m at index N + m
    W[N] = np.eye(d)
    for m in range(q1):
        W[N + m] -= np.conj(c[: q1 - m]).T @ c[m:]
        W[N - m] = np.conj(W[N + m]).T
    idx = np.arange(n)
    T = W[N + idx[None, :] - idx[:, None]].transpose(0, 2, 1, 3)
    L = np.linalg.cholesky(T.reshape(n * d, n * d))
    C = np.conj(L[-d:].reshape(d, n, d)[:, ::-1].transpose(1, 2, 0))
    u, _, vh = np.linalg.svd(C[0])
    return np.conj(u @ vh).T @ C


@pytest.mark.parametrize("B", [fixture("TRUNC(3)").B, fixture("TRUNC(8)").B]
                         + [random_row(np.random.default_rng(seed), d, q, 0.9)
                            for seed, d, q in [(1, 1, 8), (2, 2, 4), (3, 3, 6),
                                               (4, 4, 8), (5, 4, 3)]])
def test_factor_matches_bauer(B):
    # strictly contractive rows: Bauer's method converges geometrically, and
    # 151 blocks leave it at rounding level
    A = make_context(B).A.coeffs
    want = _bauer_factor(B, 150)
    assert np.abs(A - want[: A.shape[0]]).max() <= 1e-10
    assert np.abs(want[A.shape[0]:]).max() <= 1e-10
