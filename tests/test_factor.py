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
import dbrov.space as space_mod
from dbrov.errors import DegenerateDeterminant, DomainError, FactorizationDiverged, \
    MateUndefined, NotPositive, SingularIterate
from dbrov.factor import _grid_inv, _grid_mul, _jensen_gap, _wilson_grid, \
    factor_residual
from dbrov.fixtures import fixture
from dbrov.poly import grid_det
from dbrov.rowschur import defect_laurent
from dbrov.verify import run_checks

from conftest import assert_close, circle_grid
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
        assert rep.outer_gap <= 1e-6
        for r, _ in poly_roots(rep.factor):
            assert abs(r) >= 1.0 - 1e-8

    def test_positive_at_zero(self):
        for name in ("SARASON", "ROW2", "TRUNC(4)"):
            a = mate_report(fixture(name).B).factor
            assert a(0).real > 0
            assert abs(a(0).imag) < 1e-14


def _fejer_riesz_mate(B: RowSchur, dps: int = 50) -> np.ndarray:
    """The mate from the roots of z^m (1 - BB*), found to dps digits.

    An oracle apart from the factorization engine: the defect coefficients
    c_k = delta_k0 - sum_j <B_{j+k}, B_j> are formed in mpmath, and of each
    circle-reflected root pair the one outside is kept.  Rounding the input
    to floats splits a double root on the circle by about sqrt(eps), so the
    two roots within 1e-6 of the circle (at most one such pair here) are
    merged into their mean, which is accurate to O(eps), put on the circle.
    Then a = a0 prod (1 - z / r) with a0^2 = |c_m| prod |r|.
    """
    with mpmath.workdps(dps):
        rows = [[mpmath.mpc(complex(x)) for x in row] for row in B.coeffs]
        q = len(rows) - 1
        c = [int(k == 0) - mpmath.fsum(
            rows[j + k][i] * mpmath.conj(rows[j][i])
            for j in range(q + 1 - k) for i in range(B.dim))
            for k in range(q + 1)]
        m = max(k for k in range(q + 1) if k == 0 or abs(c[k]) > 1e-30)
        desc = c[m:0:-1] + [c[0]] + [mpmath.conj(x) for x in c[1 : m + 1]]
        roots = mpmath.polyroots(desc, maxsteps=400, extraprec=4 * dps) \
            if m else []
        near = [r for r in roots if abs(abs(r) - 1) < 1e-6]
        outside = [r for r in roots if abs(r) >= 1 + 1e-6]
        if near:
            assert len(near) == 2
            outside.append((near[0] + near[1]) / abs(near[0] + near[1]))
        assert len(outside) == m
        poly = [mpmath.sqrt(abs(c[m]) * mpmath.fprod(abs(r) for r in outside))]
        for r in outside:
            poly = [x - (poly[j - 1] / r if j else 0)
                    for j, x in enumerate(poly + [0])]
        return np.array([complex(x) for x in poly])


MATE_ORACLE_ROWS = [pytest.param(fixture(name).B, id=name)
                    for name in ("SARASON", "ROW2", "TRUNC(3)")] \
    + [pytest.param(random_row(np.random.default_rng(seed), d, q, 0.9),
                    id=f"seed{seed}-d{d}-q{q}")
       for seed, d, q in [(1, 1, 4), (2, 1, 8), (3, 2, 5), (4, 2, 8),
                          (5, 3, 3), (6, 3, 8)]]


@pytest.mark.parametrize("B", MATE_ORACLE_ROWS)
def test_mate_against_fejer_riesz_oracle(B):
    a = mate_report(B).factor.coeffs
    want = _fejer_riesz_mate(B)
    n = max(a.shape[0], want.shape[0])
    assert np.abs(np.pad(a, (0, n - a.shape[0]))
                  - np.pad(want, (0, n - want.shape[0]))).max() <= 1e-10
    with mpmath.workdps(50):
        roots = mpmath.polyroots([mpmath.mpc(complex(x)) for x in a[::-1]],
                                 maxsteps=400, extraprec=200) \
            if a.shape[0] > 1 else []
    assert all(abs(r) >= 1 - 1e-8 for r in roots)


class TestWilson:
    def test_identity_density(self):
        rep = wilson_report(LaurentHerm(np.eye(2, dtype=complex)[None]))
        assert rep.residual_sup <= 1e-14
        assert_close(rep.factor.coeffs, np.eye(2)[None], 1e-14)

    def test_rank_one_reproduces_mate(self):
        B = fixture("SARASON").B
        _, matrix = defect_laurent(B)
        rep = wilson_report(matrix)
        assert_close(rep.factor.coeffs.ravel(), mate_report(B).factor.coeffs,
                     1e-8)

    def test_row2_determinant_identity(self):
        B = fixture("ROW2").B
        _, matrix = defect_laurent(B)
        rep = wilson_report(matrix)
        z = circle_grid(512)
        det = np.linalg.det(rep.factor(z))
        assert np.abs(det - mate_report(B).factor(z)).max() <= 1e-8

    def test_constant_coefficient_hermitian_pd(self):
        _, matrix = defect_laurent(fixture("ROW2").B)
        a0 = wilson_report(matrix).factor.coeffs[0]
        assert np.abs(a0 - np.conj(a0).T).max() < 1e-12
        assert np.linalg.eigvalsh(a0).min() > 0

    def test_indefinite_density_rejected(self):
        bad = LaurentHerm(np.array([[[0.6]], [[1.0]], [[0.6]]], dtype=complex))
        with pytest.raises(NotPositive):
            wilson_report(bad)

    @pytest.mark.parametrize("name", ["SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)"])
    def test_grid_residuals_non_increasing(self, name):
        _, matrix = defect_laurent(fixture(name).B)
        trace = []
        _wilson_grid(matrix, 256, 200, 1e-13, trace)
        tail = trace[3:]
        assert all(tail[i + 1] <= tail[i] * (1 + 1e-9) for i in range(len(tail) - 1))


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
    """The root-free outer gap against the one `outer_check` gets from roots."""

    @pytest.mark.parametrize("coeffs", [[-0.5, 1.0], [1.0, 0.3, -0.2j],
                                        [0.2, 1.0, 0.5 + 0.5j], [2.0, -1.0]])
    def test_matches_roots(self, coeffs):
        A = MatPoly(np.array(coeffs, dtype=complex)[:, None, None])
        assert abs(_jensen_gap(A, 4096) - outer_check(CPoly(coeffs))) <= 1e-12

    @pytest.mark.parametrize("name", ["SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)"])
    def test_engine_factors_are_outer(self, name):
        _, matrix = defect_laurent(fixture(name).B)
        rep = wilson_report(matrix)
        assert rep.outer_gap <= 1e-12
        assert outer_check(rep.factor) <= 1e-8


def test_wilson_defect_residual_tight():
    for name in ("SARASON", "ROW2", "TRUNC(3)"):
        _, matrix = defect_laurent(fixture(name).B)
        rep = wilson_report(matrix)
        assert factor_residual(rep.factor, matrix) <= 1e-12


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


def _stack(rng, d, n, cond=None):
    """(d, d, n) random complex stack; with cond, each matrix U diag V* has
    singular values spread log-evenly from 1 down to 1 / cond."""
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    if cond is not None:
        u, _, vh = np.linalg.svd(a)
        sing = np.logspace(0, -np.log10(cond), d)
        a = (u * sing[None, None, :]) @ vh
    return np.ascontiguousarray(a.transpose(1, 2, 0)), a


class TestGridKernels:
    """The (d, d, n) products, inverses and determinants against numpy's
    per-matrix `@`, `inv` and `det` on (n, d, d) stacks."""

    @pytest.mark.parametrize("cond", [None, 1e6])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_product(self, d, cond):
        rng = np.random.default_rng(d)
        (a, at), (b, bt) = _stack(rng, d, 64, cond), _stack(rng, d, 64, cond)
        want = at @ bt
        got = _grid_mul(a, b).transpose(2, 0, 1)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("cond", [None, 1e6])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_inverse_and_determinant(self, d, cond):
        a, at = _stack(np.random.default_rng(10 + d), d, 64, cond)
        want = np.linalg.inv(at)
        got = _grid_inv(a).transpose(2, 0, 1)
        # both are backward stable: forward errors scale with cond
        rel = 1e-13 * (cond or 1e3)
        assert np.abs(got - want).max() <= rel * np.abs(want).max()
        assert np.abs(got @ at - np.eye(d)).max() <= rel
        det, want_det = grid_det(a), np.linalg.det(at)
        assert np.abs(det - want_det).max() <= rel * np.abs(want_det).max()

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_singular_point_is_refused(self, d):
        a, _ = _stack(np.random.default_rng(20 + d), d, 16)
        a[:, :, 5] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _grid_inv(a)

    @pytest.mark.parametrize("d", [2, 5])
    def test_singular_iterate_raises(self, d):
        # a start that is singular at every grid point stops the iteration
        start = MatPoly(np.diag([0.0] + [1.0] * (d - 1))[None])
        phi = LaurentHerm(np.eye(d, dtype=complex)[None])
        with pytest.raises(SingularIterate):
            _wilson_grid(phi, 64, 10, 1e-14, [], start=start)


class TestDensityScale:
    """The singular-density check is relative to the scale of phi."""

    @pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_scaled_identity(self, d, scale):
        rep = wilson_report(LaurentHerm(scale * np.eye(d, dtype=complex)[None]))
        assert_close(rep.factor.coeffs, np.sqrt(scale) * np.eye(d)[None],
                     1e-14 * np.sqrt(scale), "sqrt(s) I")

    @pytest.mark.parametrize("scale", [1.0, 1e-8])
    def test_rank_deficient_constant_density(self, scale):
        with pytest.raises(SingularIterate):
            wilson_report(LaurentHerm(scale * np.diag([1.0, 0.0, 1.0])[None]))


def test_stalled_run_stops_at_first_idle_enlargement(monkeypatch):
    # both runs stall near 2e-12: once the best residual is below
    # BEST_FACTOR_TOL, an enlargement that does not lower it ends the run
    # (the mate grew to 2^16 points and the matrix factor to 2^17 before)
    grids = []
    real = factor_mod._wilson_grid

    def counting(phi, n, *args, **kwargs):
        grids.append((phi.dim, n))
        return real(phi, n, *args, **kwargs)

    monkeypatch.setattr(factor_mod, "_wilson_grid", counting)
    ctx = make_context(random_row(np.random.default_rng(2), 2, 32, 1.0 - 1e-9))
    assert ctx.reports["factor_fallback"] == 1.0
    assert ctx.reports["factor_residual_sup"] <= factor_mod.BEST_FACTOR_TOL
    assert len([n for d, n in grids if d == 1]) <= 3
    assert len([n for d, n in grids if d == 2]) <= 2
    assert max(n for _, n in grids) <= 4096


def _splits_match(got, want):
    assert len(got) == len(want)
    for w in want:
        assert min(abs(np.asarray(got) - w)) <= 1e-10


ZERO_REUSE_ROWS = [pytest.param(fixture(name).B, id=name)
                   for name in ("ROW2", "TRUNC(3)", "TRUNC(8)")] \
    + [pytest.param(random_row(np.random.default_rng(seed), d, q, sup),
                    id=f"seed{seed}-d{d}-q{q}-sup{sup}")
       for seed, d, q in [(1, 2, 6), (2, 3, 4), (3, 4, 5)]
       for sup in (1.0, 1.0 - 1e-5, 1.0 - 1e-9)]


@pytest.mark.parametrize("B", ZERO_REUSE_ROWS)
def test_matrix_run_reuses_mate_zeros(B, monkeypatch):
    # make_context hands the mate run's zeros to the matrix run; a
    # standalone run on I - B*B searches them itself and splits the same
    reports = []
    real = space_mod.wilson_report

    def recording(phi, *run, search):
        reports.append(real(phi, *run, search=search))
        return reports[-1]

    monkeypatch.setattr(space_mod, "wilson_report", recording)
    ctx = make_context(B)
    alone = wilson_report(defect_laurent(B)[1], tol_factor=1e-12, max_iter=600)
    assert len(reports) == 2  # the mate run, then the matrix run
    _splits_match(reports[1].splits, alone.splits)
    assert ctx.reports["boundary_deflations"] == len(alone.splits)
    assert np.abs(ctx.A.coeffs - alone.factor.coeffs).max() <= 1e-10


def test_both_runs_take_the_engine_settings(monkeypatch):
    # the mate run of a d >= 2 row gets make_context's settings, as the
    # matrix run does
    runs = []
    real = factor_mod.wilson_report

    def recording(phi, *run, search):
        runs.append(run)
        return real(phi, *run, search=search)

    monkeypatch.setattr(factor_mod, "wilson_report", recording)
    monkeypatch.setattr(space_mod, "wilson_report", recording)
    make_context(fixture("ROW2").B, max_iter=7, grid_log2=12)
    assert runs == [(1e-12, 7, 12), (1e-12, 7, 12)]


@pytest.mark.parametrize("B", [fixture(n).B for n in ("ZERO", "SARASON", "ROW2",
                                                      "TRUNC(3)", "TRUNC(8)")]
                         + [random_row(np.random.default_rng(s), d, q, sup)
                            for s, d, q, sup in ((21, 1, 4, 1.0), (22, 2, 3, 0.9),
                                                 (23, 3, 5, 1.0))])
def test_mate_report_is_the_context_mate(B):
    # one Newton budget, MAX_ITER, for the public mate and make_context's
    assert np.array_equal(mate_report(B).factor.coeffs, make_context(B).a.coeffs)


def test_stalled_run_returns_best_factor():
    # one stall policy: a public run that stalls near 2e-12 returns its best
    # factor with fallback set, as the runs of make_context do
    B = random_row(np.random.default_rng(2), 2, 32, 1.0 - 1e-9)
    rep = wilson_report(defect_laurent(B)[1], 1e-12, 600)
    assert rep.fallback
    assert 1e-12 < rep.residual_sup <= factor_mod.BEST_FACTOR_TOL


def test_run_above_best_factor_bound_raises():
    # a run whose best residual stays above BEST_FACTOR_TOL has no fallback
    B = fixture("TRUNC(8)").B
    for build in (lambda: make_context(B, max_iter=1),
                  lambda: wilson_report(defect_laurent(B)[1], 1e-12, 1)):
        with pytest.raises(FactorizationDiverged) as info:
            build()
        assert info.value.best.residual_sup > factor_mod.BEST_FACTOR_TOL


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


def test_oversized_grid_refused_before_any_run(monkeypatch):
    # at d = 8 the matrix run's first grid of 2^20 points needs 2^26 entries:
    # make_context refuses it before the mate run's 2^20-point grid
    def refused(*args, **kwargs):
        raise AssertionError("wilson_report ran")

    monkeypatch.setattr(space_mod, "wilson_report", refused)
    monkeypatch.setattr(factor_mod, "wilson_report", refused)
    with pytest.raises(DomainError, match="factorization grid of 1048576 points"):
        make_context(fixture("TRUNC(8)").B, grid_log2=20)


def test_mate_run_errors_come_first():
    with pytest.raises(MateUndefined):
        make_context(fixture("FLAT").B)
    with pytest.raises(NotPositive):
        # sup |B| = 1.06 gets past validation only with a loose tol_psd
        make_context(RowSchur(np.array([[0.8, 0.0], [0.0, 0.7]]), tol_psd=1.0))


COLD_ROWS = [pytest.param(fixture(name).B, 2, id=name)
             for name in ("ROW2", "TRUNC(8)")] \
    + [pytest.param(fixture("TRUNC(10)").B, 3, id="TRUNC(10)")] \
    + [pytest.param(random_row(np.random.default_rng(seed), d, q, sup), 2,
                    id=f"seed{seed}-d{d}-q{q}-sup{sup}")
       for seed, d, q in [(1, 2, 16), (2, 3, 8), (3, 4, 12), (4, 8, 4)]
       for sup in (0.9, 1.0, 1.0 - 1e-9)]


@pytest.mark.parametrize("B,steps", COLD_ROWS)
def test_cold_matrix_run_starts_coarse(B, steps, monkeypatch):
    # the coarse pass hands the first grid a start one or two Newton steps
    # from the factor (five or six from the Cholesky start).  TRUNC(10) needs
    # three: det A nearly vanishes at z = 1 (the defect is 2^-10 there), so
    # the sampled density's factor aliases more
    calls = []
    real = factor_mod._wilson_grid

    def spying(phi, n, max_iter, tol, trace, start=None):
        before = len(trace)
        out = real(phi, n, max_iter, tol, trace, start=start)
        calls.append((phi.dim, start is not None, len(trace) - before))
        return out

    monkeypatch.setattr(factor_mod, "_wilson_grid", spying)
    ctx = make_context(B)
    # the first grid of the matrix run is the one that starts cold
    _, coarse, took = next(c for c in calls if c[0] > 1)
    assert coarse and took <= steps
    assert [r.name for r in run_checks(ctx) if not r.passed] == []
    a0 = ctx.A.coeffs[0]
    assert np.abs(a0 - np.conj(a0).T).max() <= 1e-12
    assert np.linalg.eigvalsh(a0).min() > 0
    assert ctx.reports["det_gap_sup"] <= 1e-10


@pytest.mark.parametrize("failure", ["raises", "above bound"])
@pytest.mark.parametrize("B", [fixture("TRUNC(8)").B,
                               random_row(np.random.default_rng(5), 4, 6, 1.0)])
def test_failed_coarse_pass_keeps_cholesky_start(B, failure, monkeypatch):
    # a coarse pass that meets a singular iterate, or stops above the warm
    # bound, leaves the run exactly as without a coarse pass
    _, matrix = defect_laurent(B)
    monkeypatch.setattr(factor_mod, "_coarse_start", lambda *args: None)
    want = wilson_report(matrix, 1e-12, 600)
    monkeypatch.undo()
    real = factor_mod._newton_grid

    def failing(vals, a_grid, max_iter, floor, trace):
        if vals.shape[-1] < 256:  # the coarse pass: 64 points, then 256
            if failure == "raises":
                raise SingularIterate("forced")
            return real(vals, a_grid, max_iter, floor, trace)[0], np.inf
        return real(vals, a_grid, max_iter, floor, trace)

    monkeypatch.setattr(factor_mod, "_newton_grid", failing)
    got = wilson_report(matrix, 1e-12, 600)
    assert np.array_equal(got.factor.coeffs, want.factor.coeffs)
    assert got.residual_sup == want.residual_sup
    extra = got.iterations - want.iterations
    assert extra == 0 if failure == "raises" else extra > 0


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
    monkeypatch.setattr(space_mod, "wilson_report", counting)
    ctx = make_context(B)
    assert len(runs) == 1
    A = ctx.A.coeffs[:, 0, 0]
    assert np.array_equal(A[: ctx.a.coeffs.shape[0]], ctx.a.coeffs)
    assert not A[ctx.a.coeffs.shape[0]:].any()
    assert ctx.reports["det_gap_sup"] == 0.0
    assert ctx.reports["factor_fallback"] == ctx.reports["mate_fallback"]


def _defect_roots_near_circle(B):
    """Roots w of z^q (1 - BB*) with 1 <= |w| < 1 + _NEAR, from the
    companion matrix; det(I - B*B) = 1 - BB*, so they are det phi's too.

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
    # _NEAR of the circle, for the scalar defect and for I - B*B
    want = _defect_roots_near_circle(B)
    for phi in defect_laurent(B):
        got, _ = factor_mod._boundary_zeros(phi)
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
