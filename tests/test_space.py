import numpy as np
import pytest

from dbrov import (
    CPoly,
    RowSchur,
    VecPoly,
    backward_shift,
    density_residual,
    embed,
    fixture,
    gram,
    hb_inner,
    kernel,
    make_context,
    multiply_z,
    point_eval_residual,
    rank_one_identity_defect,
    toeplitz_conj,
    toeplitz_conj_hb,
)
from dbrov.errors import BoundaryNotRegular, DomainError
from dbrov.poly import circle_grid

from conftest import assert_close


def monomial(k):
    return CPoly(np.concatenate([np.zeros(k), [1.0]]))


def stacked(el, n, d):
    """Coefficients of the pair (f, f+) as one vector of length n (1 + d)."""
    f = np.zeros(n, dtype=complex)
    p = np.zeros((n, d), dtype=complex)
    f[: el.f.coeffs.shape[0]] = el.f.coeffs
    p[: el.f_plus.coeffs.shape[0]] = el.f_plus.coeffs
    return np.concatenate([f, p.ravel()])


def rand_poly(rng, max_deg):
    deg = int(rng.integers(0, max_deg + 1))
    return CPoly(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


def pair_residual(ctx, el):
    """Analytic part of B* f + A* f+ in coefficients; zero for true pairs."""
    r = toeplitz_conj(ctx.B, el.f)
    r2 = toeplitz_conj(ctx.A, el.f_plus)
    n = max(r.coeffs.shape[0], r2.coeffs.shape[0], 1)
    tot = np.zeros((n, ctx.dim), dtype=complex)
    tot[: r.coeffs.shape[0]] += r.coeffs
    tot[: r2.coeffs.shape[0]] += r2.coeffs
    return float(np.abs(tot).max(initial=0.0))


class TestEmbed:
    def test_constant_on_sarason(self, ctx_sarason):
        el = embed(ctx_sarason, CPoly([1.0]))
        assert_close(el.f_plus.coeffs.ravel(), [-1.0], 1e-12)
        assert abs(el.norm_sq - 2.0) < 1e-12

    def test_monomial_on_sarason(self, ctx_sarason):
        el = embed(ctx_sarason, CPoly([0, 1.0]))
        assert_close(el.f_plus.coeffs.ravel(), [-2.0, -1.0], 1e-12)
        assert abs(el.norm_sq - 6.0) < 1e-12

    def test_zero(self, ctx_row2):
        el = embed(ctx_row2, CPoly([0.0]))
        assert el.norm_sq == 0.0
        assert el.f_plus.is_zero

    def test_plus_degree_bounded(self, ctx_row2):
        rng = np.random.default_rng(0)
        for _ in range(10):
            f = rand_poly(rng, 15)
            el = embed(ctx_row2, f)
            assert el.f_plus.degree <= f.degree

    @pytest.mark.parametrize("name", ["ZERO", "SARASON", "ROW2", "TRUNC(3)"])
    def test_residual_random(self, all_contexts, name):
        ctx = all_contexts[name]
        rng = np.random.default_rng(1)
        for _ in range(30):
            el = embed(ctx, rand_poly(rng, 20))
            assert pair_residual(ctx, el) <= 1e-10

    def test_row_membership_plus_part(self, ctx_row2):
        # embedding B(z) x carries plus part A(z) x - (A(0)*)^{-1} x
        for x in (np.array([1.0, 0.0]), np.array([0.3, -0.4 + 0.2j])):
            f = ctx_row2.B.row_dot(VecPoly(x[None, :]))
            el = embed(ctx_row2, f)
            expected = ctx_row2.A.matvec_const(x).coeffs.copy()
            expected[0] -= np.linalg.solve(np.conj(ctx_row2.A.coeffs[0]).T, x)
            got = np.zeros_like(expected)
            got[: el.f_plus.coeffs.shape[0]] = el.f_plus.coeffs
            assert_close(got, expected, 1e-10, "row membership")


class TestInner:
    def test_cross_term_sarason(self, ctx_sarason):
        one = embed(ctx_sarason, CPoly([1.0]))
        z = embed(ctx_sarason, CPoly([0, 1.0]))
        assert abs(hb_inner(ctx_sarason, one, z) - 2.0) < 1e-12

    def test_conjugate_symmetry(self, ctx_row2):
        rng = np.random.default_rng(2)
        F = embed(ctx_row2, rand_poly(rng, 8))
        G = embed(ctx_row2, rand_poly(rng, 8))
        assert abs(hb_inner(ctx_row2, F, G)
                   - np.conj(hb_inner(ctx_row2, G, F))) < 1e-12

    def test_norm_matches_inner(self, ctx_row2):
        rng = np.random.default_rng(3)
        F = embed(ctx_row2, rand_poly(rng, 12))
        assert abs(hb_inner(ctx_row2, F, F).real - F.norm_sq) < 1e-12

    def test_zero_inner(self, ctx_sarason):
        F = embed(ctx_sarason, CPoly([1, 2]))
        Z = embed(ctx_sarason, CPoly([0]))
        assert hb_inner(ctx_sarason, F, Z) == 0


class TestKernel:
    def test_interior_at_origin(self, ctx_sarason):
        k = kernel(ctx_sarason, 0.0)
        assert_close(k.f.coeffs, [0.75, -0.25], 1e-14)
        assert k.tail_bound == 0.0

    def test_boundary_sarason(self, ctx_sarason):
        k = kernel(ctx_sarason, 1.0)
        assert_close(k.f.coeffs, [0.5], 1e-12)
        assert abs(k.norm_sq - 0.5) < 1e-12

    def test_boundary_row2(self, ctx_row2):
        k = kernel(ctx_row2, 1.0)
        assert_close(k.f.coeffs, [0.75, 0.5], 1e-12)
        assert abs(k.f(1.0) - 1.25) < 1e-12
        assert abs(hb_inner(ctx_row2, k, k).real - 1.25) < 1e-10

    def test_boundary_not_regular(self, ctx_row2):
        with pytest.raises(BoundaryNotRegular):
            kernel(ctx_row2, -1.0)

    def test_outside_disk(self, ctx_row2):
        with pytest.raises(DomainError):
            kernel(ctx_row2, 1.2)

    @pytest.mark.parametrize("name", ["ZERO", "SARASON", "ROW2", "TRUNC(3)"])
    def test_reproducing(self, all_contexts, name):
        ctx = all_contexts[name]
        rng = np.random.default_rng(4)
        for _ in range(25):
            f = rand_poly(rng, 12)
            w = rng.uniform(0.05, 0.9) * np.exp(2j * np.pi * rng.uniform())
            k = kernel(ctx, w)
            err = abs(hb_inner(ctx, embed(ctx, f), k) - f(w))
            assert err <= 1e-8 + k.tail_bound

    def test_short_truncation_reports_honest_tail(self, ctx_row2):
        w = 0.8
        k = kernel(ctx_row2, w, N=6)
        assert k.tail_bound > 1e-3
        f = CPoly([0.5, 0.5])
        F = embed(ctx_row2, f)
        err = abs(hb_inner(ctx_row2, F, k) - f(w))
        assert err <= np.sqrt(F.norm_sq) * k.tail_bound + 1e-10

    def test_longer_truncation_shrinks_tail(self, ctx_row2):
        bounds = [kernel(ctx_row2, 0.8, N=N).tail_bound for N in (6, 20, 60)]
        assert bounds[0] > bounds[1] > bounds[2]


class TestShifts:
    def test_shift_of_constant(self, ctx_sarason):
        F = embed(ctx_sarason, CPoly([1.0]))
        L = backward_shift(ctx_sarason, F)
        assert L.norm_sq == 0.0

    def test_shift_drops_power(self, ctx_row2):
        F = embed(ctx_row2, CPoly([0, 0, 1.0]))
        L = backward_shift(ctx_row2, F)
        assert_close(L.f.coeffs, [0, 1.0], 1e-15)

    def test_annihilation(self, ctx_row2):
        F = embed(ctx_row2, CPoly([1, 1, 1.0]))
        for _ in range(4):
            F = backward_shift(ctx_row2, F)
        assert F.norm_sq == 0.0

    def test_contraction_and_inverse(self, ctx_row2):
        rng = np.random.default_rng(5)
        for _ in range(20):
            F = embed(ctx_row2, rand_poly(rng, 10))
            assert backward_shift(ctx_row2, F).norm_sq <= F.norm_sq
            G = multiply_z(ctx_row2, F)
            back = backward_shift(ctx_row2, G)
            assert np.array_equal(back.f.coeffs, F.f.coeffs)
            assert np.array_equal(back.f_plus.coeffs, F.f_plus.coeffs)

    def test_multiply_z_on_sarason(self, ctx_sarason):
        F = embed(ctx_sarason, CPoly([1.0]))
        assert abs(multiply_z(ctx_sarason, F).norm_sq - 6.0) < 1e-12


class TestConjToeplitz:
    def test_identity_symbol(self, ctx_row2):
        F = embed(ctx_row2, CPoly([1, 2, 3.0]))
        G = toeplitz_conj_hb(ctx_row2, CPoly([1.0]), F)
        assert_close(G.f.coeffs, F.f.coeffs, 1e-15)
        assert_close(G.f_plus.coeffs, F.f_plus.coeffs, 1e-15)

    def test_z_symbol_is_backward_shift(self, ctx_row2):
        F = embed(ctx_row2, CPoly([1, 2, 3.0]))
        G = toeplitz_conj_hb(ctx_row2, CPoly([0, 1.0]), F)
        L = backward_shift(ctx_row2, F)
        assert_close(G.f.coeffs, L.f.coeffs, 1e-15)
        assert_close(G.f_plus.coeffs, L.f_plus.coeffs, 1e-15)

    @pytest.mark.parametrize("name", ["SARASON", "ROW2"])
    def test_two_route_identity(self, all_contexts, name):
        # acting with the mate symbol commutes with the embedding
        ctx = all_contexts[name]
        rng = np.random.default_rng(6)
        for _ in range(15):
            f = rand_poly(rng, 10)
            one = toeplitz_conj_hb(ctx, ctx.a, embed(ctx, f))
            two = embed(ctx, toeplitz_conj(ctx.a, f))
            n = max(one.f_plus.coeffs.shape[0], two.f_plus.coeffs.shape[0], 1)
            diff = np.zeros((n, ctx.dim), dtype=complex)
            diff[: one.f_plus.coeffs.shape[0]] += one.f_plus.coeffs
            diff[: two.f_plus.coeffs.shape[0]] -= two.f_plus.coeffs
            assert float(np.abs(diff).max(initial=0.0)) <= 1e-10

    def test_contraction_rescaled(self, ctx_row2):
        rng = np.random.default_rng(7)
        for _ in range(20):
            phi = rand_poly(rng, 6)
            if phi.is_zero:
                continue
            phi = (1.0 / np.abs(phi(circle_grid(256))).max()) * phi
            F = embed(ctx_row2, rand_poly(rng, 10))
            assert toeplitz_conj_hb(ctx_row2, phi, F).norm_sq <= F.norm_sq + 1e-9


class TestGramAndResiduals:
    def test_gram_identity_on_hardy(self, ctx_zero):
        assert_close(gram(ctx_zero, 4), np.eye(5), 1e-14)

    def test_gram_sarason(self, ctx_sarason):
        G = gram(ctx_sarason, 1)
        assert_close(G, [[2.0, 2.0], [2.0, 6.0]], 1e-12)

    @pytest.mark.parametrize("name", ["SARASON", "ROW2", "TRUNC(3)"])
    def test_gram_positive_definite(self, all_contexts, name):
        G = gram(all_contexts[name], 12)
        np.linalg.cholesky(G)  # raises if not PD

    def test_hardy_tail_oracle(self, ctx_zero):
        for w in (0.5, 0.3 + 0.2j):
            for N in (0, 2, 5):
                got = density_residual(ctx_zero, w, N)
                want = abs(w) ** (2 * N + 2) / (1 - abs(w) ** 2)
                assert abs(got - want) < 1e-12

    def test_sarason_origin_value(self, ctx_sarason):
        # brute-force oracle: distance^2 from K_0 to constants is
        # K_0(0) - |<K_0, 1>|^2 / ||1||^2 = 3/4 - 1/2 = 1/4
        assert abs(density_residual(ctx_sarason, 0.0, 0) - 0.25) < 1e-12

    @pytest.mark.parametrize("name", ["ZERO", "SARASON", "ROW2", "TRUNC(3)"])
    def test_density_monotone(self, all_contexts, name):
        ctx = all_contexts[name]
        vals = [density_residual(ctx, 0.5, N) for N in range(10)]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(9))
        assert all(v >= -1e-9 for v in vals)

    def test_point_eval_hardy_decay(self, ctx_zero):
        # no bounded boundary evaluation on the full Hardy space
        vals = [point_eval_residual(ctx_zero, 1.0, N) for N in (10, 40, 120)]
        assert vals[0] > vals[1] > vals[2]
        assert abs(vals[2] - 1.0 / 121.0) < 1e-9

    def test_point_eval_row2_lower_bound(self, ctx_row2):
        # distance^2 to ker of the evaluation is |1(1)|^2/||K_1||^2 = 4/5
        val = point_eval_residual(ctx_row2, 1.0, 40)
        assert abs(val - 0.8) < 1e-3

    def test_gram_diagonal_is_embedded_norm(self, ctx_row2):
        # a column's numbers do not depend on the columns embedded with it
        G = gram(ctx_row2, 160)
        for k in (0, 80, 160):
            assert G[k, k] == embed(ctx_row2, monomial(k)).norm_sq

    def test_density_complex_row_against_lstsq(self):
        # ROW2 rotated by z -> exp(0.7i) z with unimodular column phases: a
        # touching row with complex coefficients, so its Gram is complex.
        # Oracle: least-squares distance from the kernel pair to the stacked
        # monomial pairs, with no Gram and no conjugation convention.
        phase = np.exp(0.7j * np.arange(3))[:, None] * np.exp([0.3j, -1.1j])
        ctx = make_context(RowSchur(fixture("ROW2").B.coeffs * phase))
        w = 0.5j
        k = kernel(ctx, w, N=80)
        n = k.f.coeffs.shape[0]
        y = stacked(k, n, ctx.dim)
        for N in (0, 5, 20):
            M = np.stack([stacked(embed(ctx, monomial(j)), n, ctx.dim)
                          for j in range(N + 1)], axis=1)
            r = y - M @ np.linalg.lstsq(M, y, rcond=None)[0]
            assert abs(density_residual(ctx, w, N) - np.vdot(r, r).real) <= 1e-10

    def test_point_eval_row2_closed_form(self, ctx_row2):
        for lam in (1j, -1.0, np.exp(2.5j)):
            for N in (10, 40, 120):
                want = 8.0 / (N * abs(1.0 - lam) ** 2 + 10.0)
                assert abs(point_eval_residual(ctx_row2, lam, N) - want) <= 1e-13

    def test_point_eval_off_spectrum_decays(self, ctx_row2):
        vals = [point_eval_residual(ctx_row2, -1.0, N) for N in (10, 40, 200)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-2


class TestOrthoComplement:
    @pytest.mark.parametrize("name", ["SARASON", "ROW2", "TRUNC(3)"])
    def test_pair_range_orthogonality(self, all_contexts, name):
        ctx = all_contexts[name]
        rng = np.random.default_rng(8)
        for _ in range(20):
            F = embed(ctx, rand_poly(rng, 10))
            hc = rng.uniform(-1, 1, (4, ctx.dim)) \
                + 1j * rng.uniform(-1, 1, (4, ctx.dim))
            h = VecPoly(hc)
            bh = ctx.B.row_dot(h)
            ah = ctx.A.matvec_poly(h)
            n = min(bh.coeffs.shape[0], F.f.coeffs.shape[0])
            ip = np.vdot(bh.coeffs[:n], F.f.coeffs[:n])
            n = min(ah.coeffs.shape[0], F.f_plus.coeffs.shape[0])
            ip += np.vdot(ah.coeffs[:n], F.f_plus.coeffs[:n])
            assert abs(ip) <= 1e-9


class TestContainments:
    @pytest.mark.parametrize("name", ["SARASON", "ROW2", "TRUNC(3)"])
    def test_multiplier_and_adjoint(self, all_contexts, name):
        ctx = all_contexts[name]
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = rand_poly(rng, 10)
            assert embed(ctx, ctx.a * p).norm_sq <= p.norm_sq() + 1e-9
            h = rand_poly(rng, 10)
            assert embed(ctx, toeplitz_conj(ctx.a, h)).norm_sq \
                <= h.norm_sq() + 1e-9


class TestRankOneIdentity:
    def test_zero_inputs(self, ctx_sarason):
        assert rank_one_identity_defect(ctx_sarason, CPoly([0]), CPoly([1])) == 0

    def test_constants_sarason(self, ctx_sarason):
        assert rank_one_identity_defect(
            ctx_sarason, CPoly([1.0]), CPoly([1.0])) <= 1e-10

    def test_random_monomials_row2(self, ctx_row2):
        rng = np.random.default_rng(10)
        for _ in range(15):
            j, k = rng.integers(0, 16, 2)
            f = CPoly(np.concatenate([np.zeros(j), [1.0]]))
            g = CPoly(np.concatenate([np.zeros(k), [1.0]]))
            assert rank_one_identity_defect(ctx_row2, f, g) <= 1e-8


def test_lincomb_matches_embedding(ctx_row2):
    # the embedding is linear: 2 (1 + 2z) - i z^2 = 2 + 4z - i z^2
    a = embed(ctx_row2, CPoly([1, 2.0]))
    b = embed(ctx_row2, CPoly([0, 0, 1.0]))
    direct = embed(ctx_row2, CPoly([2.0, 4.0, -1j]))
    combo = 2.0 * stacked(a, 3, 2) - 1j * stacked(b, 3, 2)
    want = stacked(direct, 3, 2)
    assert_close(combo[:3], want[:3], 1e-14)
    assert_close(combo[3:], want[3:], 1e-12)
