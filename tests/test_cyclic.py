import warnings

import numpy as np
import pytest

from dbrov import (
    CPoly,
    caratheodory,
    cyclicity,
    gram,
    is_outer,
    kernel,
    make_context,
    point_eval_residual,
    spectrum_crosscheck,
)
from dbrov.errors import InconclusiveGap, ValidationError, ZeroFunction

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


def distance_to_multiples(ctx, f, N):
    """dist^2(1, f P_{N - deg f}) in the space, by least squares.

    gram(ctx, N)[j, k] = <z^j, z^k> is linear in the first slot, so a
    polynomial with coefficients c has squared norm c* H c with H = G^T
    (c* G c is wrong on complex rows).  With H = C*C, the distance is the
    least-squares residual of C e_0 against the columns C M, M the matrix
    of multiplication by f on P_{N - deg f}.
    """
    c = np.asarray(f, dtype=complex)
    cols = N - (c.shape[0] - 1)
    M = np.zeros((N + 1, cols + 1), dtype=complex)
    for j in range(cols + 1):
        M[j : j + c.shape[0], j] = c
    C = np.conj(np.linalg.cholesky(gram(ctx, N).T).T)
    e = np.eye(N + 1, 1)[:, 0]
    x = np.linalg.lstsq(C @ M, C @ e, rcond=None)[0]
    r = C @ (e - M @ x)
    return float(np.vdot(r, r).real)


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
