import inspect

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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
    spectrum_crosscheck,
    toeplitz_conj,
    toeplitz_conj_hb,
)
from dbrov import space
from dbrov.errors import BoundaryNotRegular, DomainError, \
    IllConditionedConstant, ValidationError
from dbrov.space import SpaceContext, _density_residuals, _extend_generator, \
    _generator, _pair_bounds, _section_kernels

from conftest import assert_close, circle_grid
from test_random_rows import random_row


def monomial(k):
    return CPoly(np.concatenate([np.zeros(k), [1.0]]))


def stacked(el, n, d):
    """Coefficients of the pair (f, f+) as one vector of length n (1 + d)."""
    f = np.zeros(n, dtype=complex)
    p = np.zeros((n, d), dtype=complex)
    f[: el.f.coeffs.shape[0]] = el.f.coeffs
    p[: el.f_plus.coeffs.shape[0]] = el.f_plus.coeffs
    return np.concatenate([f, p.ravel()])


@pytest.fixture(scope="module")
def ctx_touching():
    # complex coefficients, d = 3, q = 6, one boundary spectrum point
    return make_context(random_row(np.random.default_rng(1), 3, 6, 1.0))


@pytest.fixture(scope="module")
def gram_contexts(all_contexts, ctx_touching):
    names = ("ROW2", "SARASON", "TRUNC(8)")
    return {**{n: all_contexts[n] for n in names}, "touching": ctx_touching}


def fresh(ctx, **reports):
    """The same context with an empty generator and the given reports."""
    return SpaceContext(ctx.B, ctx.a, ctx.A, ctx.Lambda, ctx.tol,
                        {**ctx.reports, **reports})


def back_substitution(ctx, F):
    """Plus parts (n+1, d, m) of the columns of F (n+1, m), the reference.

    Rows k = n .. 0 of the analytic part of B*f + A*f+ = 0 form a banded
    upper-triangular block Toeplitz system with diagonal block A(0)*, solved
    for every column at once, with einsum so that columns do not mix.
    """
    n1, m = F.shape
    astar = np.conj(ctx.A.coeffs).transpose(0, 2, 1)
    bstar = np.conj(ctx.B.coeffs)
    inv0 = np.linalg.inv(astar[0])
    windows = sliding_window_view(
        np.vstack([F, np.zeros((bstar.shape[0], m))]), bstar.shape[0], axis=0)
    rhs = np.einsum("ja,kmj->kam", bstar, windows[:n1])
    P = np.zeros((n1, ctx.dim, m), dtype=complex)
    for k in range(n1 - 1, -1, -1):
        j = min(astar.shape[0], n1 - k)
        band = np.einsum("jab,jbm->am", astar[1:j], P[k + 1 : k + j])
        P[k] = -np.einsum("ab,bm->am", inv0, rhs[k] + band)
    return P


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_coefficient_refused(self, ctx_row2, bad):
        with pytest.raises(ValidationError):
            embed(ctx_row2, [bad, 1.0])

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

    @pytest.mark.parametrize("N", [0, 1, 2])
    def test_origin_truncation_reports_dropped_norm(self, ctx_row2, N):
        # at w = 0 the series is the numerator, of degree 1 for ROW2: the tail
        # is the norm of the dropped rows
        k = kernel(ctx_row2, 0.0, N)
        full = kernel(ctx_row2, 0.0).norm_sq
        assert abs(k.tail_bound ** 2 - (full - k.norm_sq)) <= 1e-15
        assert (k.tail_bound == 0.0) == (N >= 1)

    def test_longer_truncation_shrinks_tail(self, ctx_row2):
        bounds = [kernel(ctx_row2, 0.8, N=N).tail_bound for N in (6, 20, 60)]
        assert bounds[0] > bounds[1] > bounds[2]

    @pytest.mark.parametrize("w", [complex(np.nan, 0.0), complex(0.5, np.nan),
                                   complex(np.inf, 0.0)])
    def test_non_finite_point_rejected(self, ctx_row2, w):
        with pytest.raises(DomainError):
            kernel(ctx_row2, w)
        with pytest.raises(DomainError):
            density_residual(ctx_row2, w, 4)


@pytest.fixture(scope="module")
def ctx_query_touching():
    # the touching (3, 6) row of the query benchmark at seed 1, drawn the same way
    return make_context(random_row(np.random.default_rng([1, 2]), 3, 6, 1.0))


@pytest.mark.parametrize("name", ["SARASON", "ROW2", "query touching"])
def test_interior_kernel_tends_to_boundary_kernel(all_contexts, ctx_query_touching,
                                                   name):
    # K at r lam differs from K at lam by O(1 - r): in every coefficient, from
    # the division by 1 - r conj(lam) z, and in norm_sq = K_w(w)
    ctx = ctx_query_touching if name == "query touching" else all_contexts[name]
    assert ctx.Lambda
    for lam, _ in ctx.Lambda:
        kb = kernel(ctx, lam)
        errs = []
        for r in (1 - 1e-2, 1 - 1e-3, 1 - 1e-4):
            ki = kernel(ctx, r * lam)
            err = abs(ki.norm_sq - kb.norm_sq)
            for a, b in ((ki.f.coeffs, kb.f.coeffs),
                         (ki.f_plus.coeffs, kb.f_plus.coeffs)):
                pad = ((0, a.shape[0] - b.shape[0]),) + ((0, 0),) * (b.ndim - 1)
                err = max(err, np.abs(a - np.pad(b, pad)).max())
            assert err <= 20.0 * (1 - r), (lam, r, err)
            errs.append(err)
        assert errs[0] > 5 * errs[1] > 25 * errs[2]


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

    def test_gram_diagonal_is_embedded_norm(self, gram_contexts):
        # the diagonal sums 1, |h_0|^2, ..., |h_k|^2 in embed's order; the
        # scalar touching row also needs both to square the same contiguous
        # rows (numpy's |.| can differ in the last bit on strided input)
        scalar = make_context(random_row(np.random.default_rng(0), 1, 4, 1.0))
        for name, ctx in [(n, gram_contexts[n]) for n in
                          ("ROW2", "TRUNC(8)", "touching")] + [("d=1", scalar)]:
            G = gram(ctx, 160)
            for k in (0, 1, 80, 159, 160):
                assert G[k, k] == embed(ctx, monomial(k)).norm_sq, name

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


class TestGeneratorGram:
    @pytest.mark.parametrize("name", ["ROW2", "SARASON", "TRUNC(8)", "touching"])
    def test_gram_against_embedded_inner_products(self, gram_contexts, name):
        ctx = gram_contexts[name]
        els = [embed(ctx, monomial(k)) for k in range(161)]
        ref = np.array([[hb_inner(ctx, F, G) for G in els] for F in els])
        for N in (0, 1, 40, 160):
            want = ref[: N + 1, : N + 1]
            err = np.abs(gram(ctx, N) - want).max()
            assert err <= 1e-14 * np.abs(want).max(), (N, err)

    @pytest.mark.parametrize("name", ["ROW2", "TRUNC(8)", "touching"])
    def test_leading_block_is_lower_order_gram(self, gram_contexts, name):
        ctx = gram_contexts[name]
        G = gram(ctx, 160)
        for n in (0, 1, 40, 159):
            assert np.array_equal(G[: n + 1, : n + 1], gram(ctx, n)), n

    def test_gram_back_substitutes_one_column(self, ctx_row2, monkeypatch):
        # the generator is computed once and continued on demand: a Gram of
        # order 160 computes 161 rows, lower orders, monomial embeddings and
        # sweeps up to 160 compute none, and order 200 adds the 40 missing
        ctx = fresh(ctx_row2)
        rows = []

        def spy(ctx, h, N):
            rows.append(N + 1 - h.shape[0])
            return _extend_generator(ctx, h, N)

        monkeypatch.setattr(space, "_extend_generator", spy)
        gram(ctx, 160)
        assert rows == [161]
        gram(ctx, 40)
        for k in range(161):
            embed(ctx, monomial(k))
        _density_residuals(ctx, 0.5, 160)
        point_eval_residual(ctx, 1j, 160)
        assert rows == [161]
        gram(ctx, 200)
        assert rows == [161, 40]
        assert ctx._h.shape == (201, ctx.dim)

    @pytest.mark.parametrize("name", ["ROW2", "TRUNC(8)", "touching"])
    def test_gram_does_not_depend_on_call_order(self, gram_contexts, name):
        # cold, after a larger Gram, and after an ascending per-order sweep
        ctx = gram_contexts[name]
        cold, big, swept = fresh(ctx), fresh(ctx), fresh(ctx)
        gram(big, 160)
        for n in range(161):
            density_residual(swept, 0.5, n)
        want = gram(cold, 40).tobytes()
        assert gram(big, 40).tobytes() == want
        assert gram(swept, 40).tobytes() == want

    @pytest.mark.parametrize("name", ["ZERO", "SARASON", "ROW2", "TRUNC(3)",
                                      "TRUNC(8)", "touching"])
    def test_generator_solves_the_toeplitz_system(self, all_contexts,
                                                  ctx_touching, name):
        # h = -Ã^{-1} b̃ in power series, Ã(z) = sum A_j* z^j and
        # b̃(z) = sum conj(b_j) z^j: a dense block lower-triangular Toeplitz
        # system, solved without the recurrence
        ctx = ctx_touching if name == "touching" else all_contexts[name]
        N, d = 80, ctx.dim
        astar = np.conj(ctx.A.coeffs).transpose(0, 2, 1)
        T = np.zeros((N + 1, d, N + 1, d), dtype=complex)
        for i in range(N + 1):
            for j in range(max(0, i - astar.shape[0] + 1), i + 1):
                T[i, :, j, :] = astar[i - j]
        rhs = np.zeros((N + 1, d), dtype=complex)
        q = min(ctx.B.coeffs.shape[0], N + 1)
        rhs[:q] = -np.conj(ctx.B.coeffs[:q])
        want = np.linalg.solve(T.reshape(-1, (N + 1) * d), rhs.ravel())
        got = _generator(fresh(ctx), N).ravel()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(initial=0.0)

    def test_public_signatures(self):
        for fn, params in ((gram, ["ctx", "N"]),
                           (density_residual, ["ctx", "w", "N"]),
                           (point_eval_residual, ["ctx", "lam", "N"]),
                           (spectrum_crosscheck, ["ctx", "N", "controls"])):
            assert list(inspect.signature(fn).parameters) == params

    @pytest.mark.parametrize("name", ["ROW2", "TRUNC(8)"])
    def test_one_column_check_matches_block_check(self, all_contexts, name):
        # per-column worst residual and scale of z^0..z^N, from z^N alone
        # and from the (N+1)-column identity block
        ctx = all_contexts[name]
        N = 40
        eye = np.eye(N + 1, dtype=complex)
        want = _pair_bounds(ctx, eye, back_substitution(ctx, eye))[:, -1]
        P = _generator(fresh(ctx), N)[::-1, :, None]
        got = _pair_bounds(ctx, eye[:, N:], P)[:, :, 0]
        assert np.array_equal(got, want)
        assert want[0].max() > 0.0

    @pytest.mark.parametrize("name", ["ZERO", "SARASON", "ROW2", "TRUNC(3)",
                                      "TRUNC(8)", "touching"])
    def test_embed_matches_back_substitution(self, all_contexts, ctx_touching,
                                             name):
        # the correlation with the generator against the banded
        # back-substitution of the coefficients themselves
        ctx = ctx_touching if name == "touching" else all_contexts[name]
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = rand_poly(rng, 60)
            el = embed(ctx, f)
            want = back_substitution(ctx, f.coeffs[:, None])[:, :, 0]
            got = np.zeros_like(want)
            got[: el.f_plus.coeffs.shape[0]] = el.f_plus.coeffs
            scale = max(1.0, np.abs(want).max(initial=0.0))
            assert np.abs(got - want).max(initial=0.0) <= 1e-13 * scale
            norm = f.norm_sq() + (np.abs(want) ** 2).sum()
            assert abs(el.norm_sq - norm) <= 1e-13 * norm

    def test_ill_conditioned_constant_refused(self, ctx_row2):
        # cond(A(0)) > 1e6 refuses every embedding and Gram, the zero
        # polynomial included, even when the generator is already cached
        F = embed(ctx_row2, CPoly([1.0, 2.0]))
        bad = fresh(ctx_row2, A0_cond=1e7)
        bad._h = ctx_row2._h
        calls = [lambda: embed(bad, CPoly([1.0, 2.0])),
                 lambda: embed(bad, CPoly.zero()),
                 lambda: multiply_z(bad, F),
                 lambda: gram(bad, 4),
                 lambda: density_residual(bad, 0.5, 4),
                 lambda: point_eval_residual(bad, 1.0, 4)]
        for call in calls:
            with pytest.raises(IllConditionedConstant):
                call()


class TestSweeps:
    @pytest.mark.parametrize("name", ["ROW2", "TRUNC(8)", "touching"])
    def test_section_kernels_match_per_order_values(self, gram_contexts, name):
        ctx = gram_contexts[name]
        for w in (0.5, 0.3 + 0.6j):
            kww = (1.0 - (np.abs(ctx.B(w)) ** 2).sum()) / (1.0 - abs(w) ** 2)
            K = _section_kernels(ctx, [w], 40)[:, 0]
            for n in range(41):
                assert abs(kww - K[n] - density_residual(ctx, w, n)) <= 1e-14
        lams = [1.0, -1.0, 1j, np.exp(2.5j)]
        K = _section_kernels(ctx, lams, 60)
        for n in range(61):
            for i, lam in enumerate(lams):
                assert abs(1.0 / K[n, i] - point_eval_residual(ctx, lam, n)) \
                    <= 1e-14

    def test_density_values_pinned(self, all_contexts):
        # criterion 7 values at w = 0.5 as computed with one Gram and one
        # Cholesky factor per order; ZERO is |w|^(2N+2) / (1 - |w|^2)
        for name, want in DENSITY_AT_HALF.items():
            got = [density_residual(all_contexts[name], 0.5, N)
                   for N in range(13)]
            assert np.abs(np.array(got) - want).max() <= 1e-14, name
        got = _density_residuals(all_contexts["ZERO"], 0.5, 12)
        want = 0.25 ** np.arange(1, 14) / 0.75
        assert np.abs(got - want).max() <= 1e-14

    def test_point_values_closed_forms(self, ctx_zero, ctx_row2):
        # criterion 8 points: 8/(N|1 - lam|^2 + 10) on ROW2, 1/(N+1) on H^2
        for N in (40, 46):
            for lam in (1.0, -1.0, 1j):
                want = 8.0 / (N * abs(1.0 - lam) ** 2 + 10.0)
                assert abs(point_eval_residual(ctx_row2, lam, N) - want) <= 1e-14
        for lam in (1.0, -1.0, 1j, -1j):
            assert abs(point_eval_residual(ctx_zero, lam, 120) - 1 / 121) <= 1e-14


DENSITY_AT_HALF = {
    "SARASON": [
        0.08333333333333348, 0.02083333333333348, 0.005208333333333481,
        0.0013020833333334814, 0.00032552083333348136, 8.138020833348136e-05,
        2.0345052083481363e-05, 5.086263020981363e-06, 1.271565755356363e-06,
        3.1789143895011307e-07, 7.947285984855057e-08, 1.9868215073159945e-08,
        4.967053879312289e-09,
    ],
    "ROW2": [
        0.06666666666666698, 0.010416666666667074, 0.0026041666666670737,
        0.0006510416666670737, 0.00016276041666707375, 4.069010416707375e-05,
        1.0172526042073748e-05, 2.5431315108237484e-06, 6.357828780112484e-07,
        1.5894571980812344e-07, 3.973643025734219e-08, 9.93410786964688e-09,
        2.4835272727230517e-09,
    ],
    "TRUNC(3)": [
        0.08173520917046129, 0.006033120903646827, 0.00037994279622510785,
        9.498569905652676e-05, 2.374642476432598e-05, 5.9366061913035395e-06,
        1.4841515479924183e-06, 3.710378873034159e-07, 9.275947210340973e-08,
        2.318986824789704e-08, 5.7974672840188646e-09, 1.4493670708048967e-09,
        3.6234204525698033e-10,
    ],
}


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
