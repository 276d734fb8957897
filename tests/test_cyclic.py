import warnings

import numpy as np
import pytest

from dbrov import (
    CPoly,
    RowSchur,
    caratheodory,
    cyclicity,
    fixture,
    gram,
    hb_inner,
    is_outer,
    kernel,
    make_context,
    point_eval_residual,
    spectrum_crosscheck,
)
from dbrov.errors import InconclusiveGap, ValidationError, ZeroFunction

from conftest import assert_close
from test_boundary import DOUBLE_B
from test_random_rows import random_row


class TestIsOuter:
    def test_circle_zero_allowed(self):
        flag, interior = is_outer(CPoly([1, -1]))
        assert flag and interior == []

    def test_monomial_not_outer(self):
        flag, interior = is_outer(CPoly([0, 1]))
        assert not flag
        assert interior == [(0j, 1)]

    def test_exterior_zero(self):
        flag, _ = is_outer(CPoly([2, -1]))
        assert flag

    def test_zero_function(self):
        with pytest.raises(ZeroFunction):
            is_outer(CPoly([0]))


class TestBoundarySpectrum:
    def test_hardy_space(self, ctx_zero):
        assert list(ctx_zero.Lambda) == []

    def test_row2(self, ctx_row2):
        spec = list(ctx_row2.Lambda)
        assert len(spec) == 1
        lam, mult = spec[0]
        assert abs(lam - 1.0) < 1e-12 and mult == 1

    def test_trunc_has_empty_spectrum(self, ctx_trunc3, ctx_trunc8):
        assert list(ctx_trunc3.Lambda) == []
        assert list(ctx_trunc8.Lambda) == []

    def test_members_pass_caratheodory(self, ctx_sarason, ctx_row2):
        for ctx in (ctx_sarason, ctx_row2):
            for lam, _ in ctx.Lambda:
                rep = caratheodory(ctx, lam)
                assert rep.satisfies_caratheodory
                assert abs((np.abs(rep.boundary_vector) ** 2).sum() - 1) <= 1e-8


class TestCyclicity:
    def test_constant_is_cyclic(self, ctx_row2):
        assert cyclicity(ctx_row2, CPoly([1.0])).verdict

    def test_boundary_zero_blocks(self, ctx_row2):
        cert = cyclicity(ctx_row2, CPoly([1.0, -1.0]))
        assert cert.is_outer and not cert.verdict

    def test_inner_factor_blocks(self, ctx_row2):
        cert = cyclicity(ctx_row2, CPoly([0.0, 1.0]))
        assert not cert.is_outer and not cert.verdict

    def test_exterior_zero_cyclic(self, ctx_row2):
        assert cyclicity(ctx_row2, CPoly([2.0, -1.0])).verdict

    def test_scaling_invariance(self, ctx_row2):
        rng = np.random.default_rng(13)
        for _ in range(10):
            c = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
            f = CPoly(c)
            if f.is_zero:
                continue
            base = cyclicity(ctx_row2, f).verdict
            for s in (2.0, -0.5j, 1e-3):
                assert cyclicity(ctx_row2, s * f).verdict == base

    def test_multiplicative_obstruction(self, ctx_row2):
        f = CPoly([2.0, -1.0])  # cyclic
        lam = ctx_row2.Lambda[0][0]
        blocked = CPoly([-lam, 1.0]) * f
        assert not cyclicity(ctx_row2, blocked).verdict
        still = CPoly([-1.7, 1.0]) * f  # zero outside the disk
        assert cyclicity(ctx_row2, still).verdict

    def test_deterministic(self, ctx_row2):
        f = CPoly([1.0, 0.3, -0.2])
        a = cyclicity(ctx_row2, f)
        b = cyclicity(ctx_row2, f)
        assert a == b

    def test_zero_function(self, ctx_row2):
        with pytest.raises(ZeroFunction):
            cyclicity(ctx_row2, CPoly([0.0]))

    def test_outer_random_on_trunc(self, ctx_trunc3):
        # empty boundary spectrum: outer polynomials are cyclic
        rng = np.random.default_rng(14)
        for _ in range(10):
            roots = rng.uniform(1.05, 3.0, 3) * np.exp(
                2j * np.pi * rng.uniform(size=3))
            f = CPoly.from_roots(roots)
            cert = cyclicity(ctx_trunc3, f)
            assert cert.is_outer and cert.verdict


class TestSpectrumCrosscheck:
    def test_row2_member_vs_controls(self, ctx_row2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", InconclusiveGap)
            sweep = spectrum_crosscheck(ctx_row2, 40)
        assert sweep.gap_ratio > 10
        members = [r for _, r, m in sweep.entries if m]
        controls = [r for _, r, m in sweep.entries if not m]
        assert abs(members[0] - 0.8) < 1e-3
        assert max(controls) < members[0]

    def test_sarason_member_value(self, ctx_sarason):
        # the constant 1 is proportional to the boundary kernel here, so the
        # residual equals 1/||K_1||^2 = 2 at every order
        val = point_eval_residual(ctx_sarason, 1.0, 30)
        assert abs(val - 2.0) < 1e-8

    def test_hardy_all_decay(self, ctx_zero):
        sweep = spectrum_crosscheck(ctx_zero, 120)
        assert all(not m for _, _, m in sweep.entries)
        assert all(r < 1e-2 for _, r, _ in sweep.entries)
        assert sweep.gap_ratio == np.inf

    def test_row2_gap_inconclusive_below_26(self, ctx_row2):
        # the nearest default control of ROW2 separates by 10x only from N = 26
        with pytest.warns(InconclusiveGap, match="at N = 12"):
            sweep = spectrum_crosscheck(ctx_row2, 12)
        assert 5.0 < sweep.gap_ratio < 10.0

    def test_order_guard(self, ctx_row2):
        with pytest.raises(ValidationError):
            spectrum_crosscheck(ctx_row2, 2)


def complement_gram(ctx, f, N, k=1):
    """The Gram, in the space, of the projections of 1, z, ..., z^{k-1} onto
    the complement of f P_{N - deg f} in P_N, by least squares.

    gram(ctx, N)[j, k] = <z^j, z^k> is linear in the first slot, so a
    polynomial with coefficients c has squared norm c* H c with H = G^T
    (c* G c is wrong on complex rows).  With H = C*C, the projections are
    the least-squares residuals R of C E, E the first k columns of I,
    against the columns C M, M the matrix of multiplication by f on
    P_{N - deg f}; their Gram is R*R, entry (j, l) = <P z^l, P z^j>.
    """
    c = np.asarray(f, dtype=complex)
    cols = N - (c.shape[0] - 1)
    M = np.zeros((N + 1, cols + 1), dtype=complex)
    for j in range(cols + 1):
        M[j : j + c.shape[0], j] = c
    C = np.conj(np.linalg.cholesky(gram(ctx, N).T).T)
    E = np.eye(N + 1, k)
    R = C @ (E - M @ np.linalg.lstsq(C @ M, C @ E, rcond=None)[0])
    return np.conj(R.T) @ R


def distance_to_multiples(ctx, f, N):
    """dist^2(1, f P_{N - deg f}) in the space."""
    return float(complement_gram(ctx, f, N)[0, 0].real)


@pytest.fixture(scope="module")
def ctx_complex_touching():
    # complex coefficients, d = 2, q = 4, one simple member of Lambda
    return make_context(random_row(np.random.default_rng(1), 2, 4, 1.0))


class TestCyclicityByDistance:
    """The paper's cyclic-vector theorem as an oracle for `cyclicity`:
    f is cyclic exactly when dist(1, f P_N) -> 0.  The rates, not one
    threshold, tell the verdicts apart: a zero on Lambda or in the disk
    pins the distance at or above 1/K_zeta(zeta) at every order, a circle
    zero off Lambda lets it fall like 1/N, and an exterior zero
    geometrically."""

    ORDERS = (10, 40, 160)

    def distances(self, ctx, f):
        return np.array([distance_to_multiples(ctx, f, N) for N in self.ORDERS])

    def test_row2_verdicts(self, ctx_row2):
        floor = 1.0 / kernel(ctx_row2, 1.0).norm_sq  # 4/5
        w = 0.5
        inner = (1.0 - abs(w) ** 2) / (1.0 - (np.abs(ctx_row2.B(w)) ** 2).sum())
        # a simple zero on Lambda: 4/5 at every order
        assert not cyclicity(ctx_row2, CPoly([1, -1])).verdict
        assert np.abs(self.distances(ctx_row2, [1, -1]) - floor).max() <= 1e-10
        # an interior zero: 1/K_w(w) = 12/11 from above, geometrically
        assert not cyclicity(ctx_row2, CPoly([w, -1])).verdict
        excess = self.distances(ctx_row2, [w, -1]) - inner
        assert np.all(excess >= -1e-12)
        assert excess[0] <= 1e-6 and np.all(excess[1:] <= 1e-12)
        # a double zero on Lambda: above 4/5, the excess falling like 1/N
        f = [1, -2, 1]
        assert not cyclicity(ctx_row2, CPoly(f)).verdict
        excess = self.distances(ctx_row2, f) - floor
        assert np.all(excess > 0.0)
        assert np.all((0.15 < excess[1:] / excess[:-1])
                      & (excess[1:] / excess[:-1] < 0.4))
        # a circle zero off Lambda: cyclic, the distance falling like 1/N
        f = [1, 1]
        assert cyclicity(ctx_row2, CPoly(f)).verdict
        d = self.distances(ctx_row2, f)
        assert np.all((0.2 < d[1:] / d[:-1]) & (d[1:] / d[:-1] < 0.4))
        assert np.all((1.0 < d * self.ORDERS) & (d * self.ORDERS < 3.0))
        # an exterior zero: cyclic, geometric
        f = [2, -1]
        assert cyclicity(ctx_row2, CPoly(f)).verdict
        d = self.distances(ctx_row2, f)
        assert d[0] < 1e-3 and d[1] < 1e-20

    def test_complex_touching_row_verdicts(self, ctx_complex_touching):
        ctx = ctx_complex_touching
        (lam, mult), = ctx.Lambda
        assert mult == 1
        f = [-lam, 1]
        assert not cyclicity(ctx, CPoly(f)).verdict
        floor = 1.0 / kernel(ctx, lam).norm_sq  # 0.5864
        assert np.abs(self.distances(ctx, f) - floor).max() <= 1e-10
        f = [2, -1]
        assert cyclicity(ctx, CPoly(f)).verdict
        d = self.distances(ctx, f)
        assert d[0] < 1e-3 and d[1] < 1e-20


class TestCodimensionOfMateMultiples:
    """The paper's hypothesis dim (aH^2)^perp < oo as an oracle for Lambda.

    For rational b, H(b) = aH^2 + P_{m-1}, m the circle zeros of a with
    multiplicity (Costara & Ransford), and each K_lam, lam in Lambda, is
    orthogonal to aH^2: <ap, K_lam> = a(lam) p(lam) = 0.  So C_N, the Gram
    of the projections of 1, ..., z^{k-1} onto the complement of a P_N in
    P_{N + deg a}, tends to F W^{-1} F* with W_ij = <K_lam_j, K_lam_i> and
    F_ji = conj(lam_i)^j, of rank |Lambda|; the other eigenvalues come from
    the zeros of a off the circle and decay geometrically.  This checks
    Lambda, its points and its count, and `kernel` on Lambda against the
    Gram alone.
    """

    # name, row, k, {N: bound on max |C_N - F W^-1 F*|}, the nonzero
    # eigenvalues of the limit in closed form (None: not known)
    CASES = [
        ("ROW2", fixture("ROW2").B, 4, {10: 1e-14, 40: 1e-14, 160: 1e-14}, [3.2]),
        ("SARASON", fixture("SARASON").B, 4, {10: 1e-14, 40: 5e-14, 160: 5e-14},
         [8.0]),
        ("(1 + z^2)/2", RowSchur(np.array([[0.5], [0.0], [0.5]])), 4,
         {10: 1e-14, 40: 1e-14, 160: 5e-14}, [4.0, 4.0]),
        ("seed 1 (2, 4)", random_row(np.random.default_rng(1), 2, 4, 1.0), 6,
         {10: 2e-2, 40: 2e-13, 160: 1e-14}, None),
        ("seed 3 (3, 6)", random_row(np.random.default_rng(3), 3, 6, 1.0), 6,
         {10: 2e-2, 40: 5e-12, 160: 1e-14}, None),
        ("TRUNC(3)", fixture("TRUNC(3)").B, 4, {10: 2e-6, 40: 1e-20}, []),
    ]

    @pytest.mark.parametrize("name,B,k,bounds,eigs", CASES, ids=[c[0] for c in CASES])
    def test_complement_tends_to_boundary_kernels(self, name, B, k, bounds, eigs):
        ctx = make_context(B)
        lams = [lam for lam, _ in ctx.Lambda]
        assert all(mult == 1 for _, mult in ctx.Lambda)
        K = [kernel(ctx, lam) for lam in lams]
        W = np.array([[hb_inner(ctx, Kj, Ki) for Kj in K] for Ki in K])
        F = np.conj(np.array(lams))[None, :] ** np.arange(k)[:, None]
        limit = F @ np.linalg.solve(W.reshape(len(K), len(K)), np.conj(F.T))
        if eigs is not None:
            assert len(lams) == len(eigs)
            assert_close(np.linalg.eigvalsh(limit)[k - len(eigs):], eigs, 1e-12, name)
        for N, bound in bounds.items():
            C = complement_gram(ctx, ctx.a.coeffs, N + ctx.a.degree, k)
            assert np.abs(C - limit).max() <= bound, (name, N)
            # rank |Lambda|: the rest of the spectrum is within the bound of 0
            ev = np.linalg.eigvalsh(C)
            assert np.all(np.abs(ev[: k - len(lams)]) <= 2 * bound), (name, N)
            assert np.all(ev[k - len(lams):] > 1.0), (name, N)


@pytest.fixture(scope="module")
def ctx_double_member():
    # the d = 1 row of `TestDoubleMember`: a = (1 - z)^2 / 8, Lambda = {1: 2}
    return make_context(RowSchur(DOUBLE_B[:, None]))


class TestCodimensionOfInvariantSubspaces:
    """The paper's z-invariant subspaces as an oracle: for rational b with
    dim (aH^2)^perp < oo, [f] is cut out by conditions at the zeros of f in
    the disk and on Lambda (Costara & Ransford; Fricain, Hartmann & Ross), so
    codim [f] = sum_D mult_f(w) + sum_Lambda min(mult_f(lam), mult_Lambda(lam)).
    The complement Gram of 1, ..., z^{deg f} against f P_{N - deg f} has that
    many persistent eigenvalues: its other modes decay like 1/N (a circle
    zero off Lambda, or the excess of a zero's order over its member's) or
    sit at rounding."""

    ORDERS = (40, 160, 640)

    @staticmethod
    def codimension(roots, Lambda):
        inside = sum(abs(r) < 1 - 1e-9 for r in roots)
        return inside + sum(min(sum(abs(r - lam) <= 1e-9 for r in roots), mult)
                            for lam, mult in Lambda)

    @pytest.mark.parametrize("row,roots,want", [
        pytest.param(row, roots, want, id=f"{row}-{'-'.join(map(str, roots))}")
        for row, roots, want in (
            ("ROW2", (0.5, 1), 2),
            ("ROW2", (0.5, -1), 1),
            ("ROW2", (0.5, 0.5, 1), 3),
            ("ROW2", (0.3j, 2, 1, 1), 2),
            ("double", (1,), 1),
            ("double", (1, 1), 2),
            ("double", (1, 1, 1), 2),
            ("double", (0.5, 1, 1), 3))])
    def test_persistent_modes_count_the_codimension(self, row, roots, want, request):
        ctx = request.getfixturevalue("ctx_row2" if row == "ROW2" else "ctx_double_member")
        assert self.codimension(roots, ctx.Lambda) == want
        f = CPoly.from_roots(roots).coeffs
        ev = np.array([np.linalg.eigvalsh(complement_gram(ctx, f, N, len(roots) + 1))
                       for N in self.ORDERS])
        # modes at rounding (below 1e-12 of the top at N = 640) are dropped
        live = ev[-1] > 1e-12 * ev[-1].max()
        steps = ev[1:, live] / ev[:-1, live]
        persistent = steps[-1] > 0.8
        one_over_n = np.all((0.15 < steps) & (steps < 0.4), axis=0)
        assert np.all(persistent | one_over_n), (roots, ev)
        assert persistent.sum() == want, (roots, ev)
