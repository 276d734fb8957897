import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dbrov import CPoly, LaurentHerm, MatPoly, VecPoly, poly_roots, toeplitz_conj
from dbrov.errors import DomainError, RootFindingFailed, ValidationError
from dbrov.fixtures import fixture
from dbrov.poly import _merge_clusters, circle_eval, det_coeffs, horner
from dbrov.rowschur import RowSchur, defect_laurent

from conftest import assert_close, matrix_defect


def _laurent_values(c, z):
    """sum_k C_k z^k, k = -m..m, of a (2m+1, d, d) stack at the points z."""
    return horner(c, z) * (z ** -(c.shape[0] // 2))[..., None, None]


class TestEvaluation:
    def test_zero_poly(self):
        p = CPoly([0])
        assert p.is_zero
        assert p(0.3 + 0.1j) == 0

    def test_root_of_mate_like(self):
        p = CPoly([0.5, -0.5])  # (1 - z)/2
        assert p(1.0) == 0
        assert p(0.0) == 0.5

    def test_row2_defect_at_i(self):
        scalar = defect_laurent(fixture("ROW2").B)
        # boundary formula gives 1/2 - |1+i|^2/8 = 1/4
        assert abs(scalar(1j) - 0.25) < 1e-14

    def test_laurent_at_zero_rejected(self):
        scalar = defect_laurent(fixture("SARASON").B)
        with pytest.raises(DomainError):
            scalar(0.0)

    def test_laurent_hermitian_values(self):
        B = fixture("ROW2").B
        scalar, matrix = defect_laurent(B), matrix_defect(B)
        z = np.exp(0.7j)
        assert abs(scalar(z).imag) < 1e-14
        m = _laurent_values(matrix, z)
        assert np.abs(m - np.conj(m).T).max() < 1e-14

    def test_matpoly_eval_and_det(self):
        A = MatPoly(np.array([np.eye(2), [[0, 1], [0, 0]]], dtype=complex))
        z = 0.3 + 0.2j
        assert_close(A(z), np.eye(2) + z * np.array([[0, 1], [0, 0]]), 1e-15)
        det = A.det_poly()
        assert_close(det.coeffs, [1.0], 1e-12, "det of unipotent")

    def test_det_poly_of_one_by_one_is_its_entry(self):
        # the entry itself; the (N, 1, 1) circle values it skips give it back
        # from their entries, and from LAPACK's det, which goes through the
        # log-determinant, to rounding
        rng = np.random.default_rng(4)
        c = rng.normal(size=(5, 1, 1)) + 1j * rng.normal(size=(5, 1, 1))
        assert np.array_equal(MatPoly(c).det_poly().coeffs, c[:, 0, 0])
        vals = circle_eval(c, 16)
        assert_close(det_coeffs(vals, vals[:, 0, 0], 5), c[:, 0, 0], 1e-15)
        assert_close(det_coeffs(vals, np.linalg.det(vals), 5), c[:, 0, 0], 1e-14)

    @pytest.mark.parametrize("c", [10.0, 1e2, 1e4])
    def test_det_poly_drops_interpolation_noise(self, c):
        # det(I + c (z + z^2) N) = 1 for nilpotent N, but the values carry
        # rounding errors of size eps c^2 that interpolate to degree 4
        N = np.outer([1.0, 1.0], [1.0, -1.0])
        A = MatPoly(np.array([np.eye(2), c * N, c * N], dtype=complex))
        det = A.det_poly()
        assert det.degree == 0
        assert abs(det.coeffs[0] - 1.0) <= 1e-15 * c * c


class TestConstruction:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("build", [
        lambda c: CPoly([1.0, c]),
        lambda c: VecPoly([[1.0, 0.0], [0.0, c]]),
        lambda c: MatPoly([[[1.0]], [[c]]]),
    ], ids=["CPoly", "VecPoly", "MatPoly"])
    def test_non_finite_coefficients_refused(self, build, bad):
        with pytest.raises(ValidationError, match="finite"):
            build(bad)

    def test_two_dimensional_scalar_coefficients_refused(self):
        with pytest.raises(ValueError, match="1-D"):
            CPoly([[1.0, 2.0], [3.0, 4.0]])

    def test_even_laurent_coefficient_count_refused(self):
        with pytest.raises(ValueError, match="odd"):
            LaurentHerm([1.0, 2.0])

    @pytest.mark.parametrize("shape", [(3, 1, 1), (3, 2), (3, 2, 3)])
    def test_laurent_needs_a_flat_array(self, shape):
        # a density is scalar: (2m+1,) coefficients, not a matrix stack
        with pytest.raises(ValueError, match="flat"):
            LaurentHerm(np.ones(shape))

    def test_repr(self):
        assert repr(CPoly([1.0, 2.0])) == "CPoly(deg=1, dim=1)"
        assert repr(VecPoly.zero(3)) == "VecPoly(deg=-1, dim=3)"
        assert repr(MatPoly.identity(2)) == "MatPoly(deg=0, dim=2)"
        assert repr(RowSchur([[0.5, 0.0], [0.0, 0.0]])) == "RowSchur(deg=1, dim=2)"


class TestCircleEval:
    """One FFT evaluates sum_k c_k z^(k + low) on offset circle grids."""

    @pytest.mark.parametrize("n", [5, 16, 64])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)],
                             ids=["scalar", "row", "matrix"])
    def test_matches_horner(self, n, offset, shape):
        # degree 11 >= n = 5 aliases the coefficients; the values stay exact
        rng = np.random.default_rng(n + len(shape))
        c = rng.normal(size=(12,) + shape) + 1j * rng.normal(size=(12,) + shape)
        z = np.exp(2j * np.pi * (np.arange(n) + offset) / n)
        assert_close(circle_eval(c, n, offset), horner(c, z), 1e-13, "values")

    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_negative_powers(self, offset):
        # low = -m shifts the powers, as for Laurent coefficients k = -m..m
        rng = np.random.default_rng(7)
        c = rng.normal(size=(9, 2, 2)) + 1j * rng.normal(size=(9, 2, 2))
        n = 6
        z = np.exp(2j * np.pi * (np.arange(n) + offset) / n)
        want = horner(c, z) * (z ** -4)[:, None, None]
        assert_close(circle_eval(c, n, offset, low=-4), want, 1e-13, "values")

    @pytest.mark.parametrize("k,n,offset,low", [(12, 5, 0.0, 0), (9, 16, 0.0, -4),
                                                (9, 16, 0.5, 0), (12, 5, 0.5, -4)],
                             ids=["alias", "negative", "offset", "all"])
    def test_general_cases_match_horner(self, k, n, offset, low):
        # more coefficients than points, negative powers, the half-sample
        # offset: within k eps of Horner relative to sum |c_k|, the order of
        # Horner's own rounding
        rng = np.random.default_rng(k + n)
        c = rng.normal(size=(k, 2)) + 1j * rng.normal(size=(k, 2))
        z = np.exp(2j * np.pi * (np.arange(n) + offset) / n)
        want = horner(c, z) * (z ** low)[:, None]
        err = np.abs(circle_eval(c, n, offset, low) - want).max()
        assert err <= k * np.finfo(float).eps * np.abs(c).sum(axis=0).max()

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)], ids=["scalar", "row", "matrix"])
    def test_plain_grid_is_the_phase_weighted_scatter(self, shape):
        # no offset and no alias: the coefficients are copied in, the same
        # bytes as the scatter-add of phase-weighted coefficients it skips
        rng = np.random.default_rng(len(shape))
        c = rng.normal(size=(9,) + shape) + 1j * rng.normal(size=(9,) + shape)
        ks = np.arange(9)
        spec = np.zeros((16,) + shape, dtype=complex)
        phase = np.exp(2j * np.pi * 0.0 * ks / 16).reshape((-1,) + (1,) * len(shape))
        np.add.at(spec, ks % 16, c * phase)
        assert np.array_equal(circle_eval(c, 16), np.fft.ifft(spec, axis=0, norm="forward"))

    def test_empty_coefficients_vanish(self):
        assert_close(circle_eval(np.zeros((0, 2)), 8), np.zeros((8, 2)), 0.0)


class TestRoots:
    def test_quadratic_with_known_factors(self):
        # numerator of the boundary kernel on ROW2: (1 - z)(3 + 2z)
        roots = poly_roots(CPoly([3, -1, -2]))
        assert_close([r for r, _ in roots], [-1.5, 1.0], 1e-12)
        assert [m for _, m in roots] == [1, 1]

    def test_separated_roots_skip_the_merge(self):
        # the general path, run on the same roots plus a double root far
        # off, returns them bit for bit as the path with no close pair does
        rng = np.random.default_rng(5)
        roots = rng.normal(size=6) + 1j * rng.normal(size=6)
        c = CPoly.from_roots(roots).coeffs
        centers, mults = _merge_clusters(roots, c, c[1:] * np.arange(1, 7))
        assert np.array_equal(centers, roots) and mults.tolist() == [1] * 6
        pair = np.array([9.0, 9.0 + 1e-9])
        c = CPoly.from_roots(np.concatenate([roots, [9.0, 9.0]])).coeffs
        centers, mults = _merge_clusters(np.concatenate([roots, pair]), c,
                                         c[1:] * np.arange(1, 9))
        assert np.array_equal(centers[:6], roots) and mults.tolist() == [1] * 6 + [2]
        assert centers[6] == pair.mean()

    def test_mate_double_zero_merges(self):
        # 0.3 (1 - z / 2)^2, the mate of the double exterior zero
        roots = poly_roots(CPoly([0.3, -0.3, 0.075]))
        assert len(roots) == 1 and roots[0][1] == 2
        assert abs(roots[0][0] - 2.0) < 1e-8

    def test_double_root(self):
        roots = poly_roots(CPoly([1, -2, 1]))
        assert len(roots) == 1
        r, mult = roots[0]
        assert mult == 2
        assert abs(r - 1.0) < 1e-8

    def test_monomial(self):
        assert poly_roots(CPoly([0, 1])) == [(0j, 1)]

    def test_zero_poly_rejected(self):
        with pytest.raises(DomainError):
            poly_roots(CPoly([0]))

    def test_inaccurate_eigenvalues_refused(self, monkeypatch):
        # companion eigenvalues at 0 for z^2 - 4: the polish cannot move off
        # the critical point, and the residual 4 fails the test
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.zeros(a.shape[0], complex))
        with pytest.raises(RootFindingFailed) as err:
            poly_roots(CPoly([-4.0, 0.0, 1.0]))
        assert err.value.best_residuals == [4.0]

    def test_reconstruction_random_degree_30(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            c = rng.uniform(-1, 1, 31) + 1j * rng.uniform(-1, 1, 31)
            p = CPoly(c)
            roots = poly_roots(p)
            assert sum(m for _, m in roots) == p.degree
            rebuilt = CPoly.from_roots(
                [r for r, m in roots for _ in range(m)], leading=p.coeffs[-1]
            )
            scale = np.abs(p.coeffs).max()
            assert_close(rebuilt.coeffs / scale, p.coeffs / scale, 1e-8, "reconstruction")

    @pytest.mark.parametrize("roots", [
        [1, 1],
        [1, 1, 1, 1, -1, -1, -1],
        [1j, 1j, 0.5],
        [np.exp(0.3j), np.exp(0.3j), -0.2],
    ])
    def test_clusters_against_50_digit_roots(self, roots):
        # the float coefficients have a cluster of roots near each multiple
        # root; its size and its mean are what the merged roots must match
        p = CPoly.from_roots(roots)
        with mpmath.workdps(50):
            # a root of multiplicity 4 is resolved to eps^(1/4) of the
            # working precision, so 800 extra bits put it below 1e-50
            oracle = mpmath.polyroots([mpmath.mpc(complex(c))
                                       for c in p.coeffs[::-1]],
                                      maxsteps=2000, extraprec=800)
            nominal = list(dict.fromkeys(complex(r) for r in roots))
            clusters: dict[int, list] = {}
            for r in oracle:
                near = int(np.argmin([abs(complex(r) - u) for u in nominal]))
                clusters.setdefault(near, []).append(r)
            want = [(complex(mpmath.fsum(c) / len(c)), len(c))
                    for c in clusters.values()]
        got = poly_roots(p)
        assert len(got) == len(want)
        for center, mult in got:
            w_center, w_mult = min(want, key=lambda t: abs(t[0] - center))
            assert mult == w_mult
            assert abs(center - w_center) <= 1e-10


class TestToeplitzConj:
    def test_mate_on_constant(self):
        a = CPoly([0.5, -0.5])
        out = toeplitz_conj(a, CPoly([1.0]))
        assert_close(out.coeffs, [0.5], 1e-15)

    def test_zero_argument(self):
        out = toeplitz_conj(CPoly([1, 2, 3]), CPoly([0]))
        assert out.is_zero

    def test_symbol_on_monomial(self):
        b = CPoly([0.5, 0.5])
        out = toeplitz_conj(b, CPoly([0, 1]))
        assert_close(out.coeffs, [0.5, 0.5], 1e-15)

    def test_row_symbol_gives_vector(self):
        B = fixture("ROW2").B
        out = toeplitz_conj(B, CPoly([1.0]))
        assert isinstance(out, VecPoly)
        assert out.dim == 2

    def test_against_laurent_convolution_oracle(self):
        # analytic projection of conj(phi(z)) g(z) by full Laurent expansion
        rng = np.random.default_rng(5)
        for _ in range(25):
            np_, ng = int(rng.integers(1, 8)), int(rng.integers(1, 10))
            phi = rng.uniform(-1, 1, np_) + 1j * rng.uniform(-1, 1, np_)
            g = rng.uniform(-1, 1, ng) + 1j * rng.uniform(-1, 1, ng)
            full = np.convolve(np.conj(phi)[::-1], g)
            expected = full[phi.shape[0] - 1 :]
            got = toeplitz_conj(CPoly(phi), CPoly(g))
            padded = np.zeros(expected.shape[0], dtype=complex)
            padded[: got.coeffs.shape[0]] = got.coeffs
            assert_close(padded, expected, 1e-14, "convolution oracle")


def _coeffs(rng, n, *shape):
    return rng.normal(size=(n, *shape)) + 1j * rng.normal(size=(n, *shape))


def _inner(u, v) -> complex:
    """<u, v> of coefficient arrays, zero-padded to a common length."""
    n = max(u.shape[0], v.shape[0])
    pad = [np.pad(x, ((0, n - x.shape[0]),) + ((0, 0),) * (x.ndim - 1))
           for x in (u, v)]
    return complex(np.vdot(pad[1], pad[0]))


def _operands(kind, rng, p, n, d, zero):
    """(phi, g, h, phi h) for one operand kind; phi h from an analytic
    product that runs no band.  zero is 0 (none), 1 (phi) or 2 (g)."""
    p, n = (-1 if zero == 1 else p), (-1 if zero == 2 else n)
    if kind == "scalar":
        phi, g, h = CPoly(_coeffs(rng, p + 1)), CPoly(_coeffs(rng, n + 1)), \
            CPoly(_coeffs(rng, 5))
        return phi, g, h, phi * h
    if kind == "scalar on vector":
        phi, g = CPoly(_coeffs(rng, p + 1)), VecPoly(_coeffs(rng, n + 1, d), dim=d)
        h = VecPoly(_coeffs(rng, 5, d), dim=d)
        phi_eye = MatPoly(phi.coeffs[:, None, None] * np.eye(d), dim=d)
        return phi, g, h, phi_eye.matvec_poly(h)
    if kind == "row":
        c = _coeffs(rng, p + 1, d)
        phi = RowSchur(c / max(1.0, np.linalg.norm(c, axis=1).sum())) if p >= 0 \
            else RowSchur(np.zeros((1, d)))
        h = VecPoly(_coeffs(rng, 5, d), dim=d)
        return phi, CPoly(_coeffs(rng, n + 1)), h, phi.row_dot(h)
    phi = MatPoly(_coeffs(rng, p + 1, d, d), dim=d)
    h = VecPoly(_coeffs(rng, 5, d), dim=d)
    return phi, VecPoly(_coeffs(rng, n + 1, d), dim=d), h, phi.matvec_poly(h)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(kind=st.sampled_from(["scalar", "scalar on vector", "row", "matrix"]),
       seed=st.integers(0, 2 ** 32 - 1), p=st.integers(0, 5),
       n=st.integers(0, 9), d=st.integers(1, 3), zero=st.sampled_from([0, 0, 1, 2]))
def test_toeplitz_conj_is_adjoint_of_multiplication(kind, seed, p, n, d, zero):
    # <T_{phi bar} g, h> = <g, phi h> for every polynomial h
    phi, g, h, phi_h = _operands(kind, np.random.default_rng(seed), p, n, d, zero)
    r = toeplitz_conj(phi, g)
    assert isinstance(r, CPoly if kind == "scalar" else VecPoly)
    assert r.coeffs.shape[0] <= g.coeffs.shape[0]
    lhs, rhs = _inner(r.coeffs, h.coeffs), _inner(g.coeffs, phi_h.coeffs)
    scale = 1.0 + np.abs(g.coeffs).sum() * np.abs(phi_h.coeffs).sum()
    assert abs(lhs - rhs) <= 1e-13 * scale


@pytest.mark.parametrize("phi,g", [
    (MatPoly(np.eye(2)), CPoly([1.0])),
    (fixture("ROW2").B, VecPoly([[1.0, 0.0]])),
    (VecPoly([[1.0, 0.0]]), CPoly([1.0])),
    (CPoly([1.0]), fixture("ROW2").B),
    (CPoly([1.0]), np.ones(3)),
])
def test_toeplitz_conj_refuses_shapes_that_do_not_compose(phi, g):
    with pytest.raises(TypeError):
        toeplitz_conj(phi, g)


class TestDefects:
    def test_zero_row(self):
        B = fixture("ZERO").B
        scalar, matrix = defect_laurent(B), matrix_defect(B)
        assert_close(scalar.coeffs, [1.0], 1e-15)
        assert_close(matrix, np.eye(1)[None], 1e-15)

    def test_sarason_coefficients(self):
        scalar = defect_laurent(fixture("SARASON").B)
        assert_close(scalar.coeffs, [-0.25, 0.5, -0.25], 1e-15)

    def test_row2_coefficients(self):
        scalar = defect_laurent(fixture("ROW2").B)
        assert_close(scalar.coeffs, [-0.125, 0.25, -0.125], 1e-15)

    @pytest.mark.parametrize("name", ["SARASON", "ROW2", "TRUNC(3)", "TRUNC(5)"])
    def test_circle_identity(self, name):
        B = fixture(name).B
        scalar, matrix = defect_laurent(B), matrix_defect(B)
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        bv = B(z)
        direct = 1.0 - (np.abs(bv) ** 2).sum(axis=-1)
        assert_close(scalar(z).real, direct, 1e-12, "scalar defect on circle")
        mv = _laurent_values(matrix, z)
        gram = np.einsum("ni,nj->nij", np.conj(bv), bv)
        assert_close(mv, np.eye(B.dim) - gram, 1e-12, "matrix defect on circle")

    @pytest.mark.parametrize("d,q", [(1, 6), (3, 4), (5, 9)])
    def test_matches_lag_loop(self, d, q):
        # reference: the sums over j and lag k written out term by term
        rng = np.random.default_rng(d * 10 + q)
        c = rng.normal(size=(q + 1, d)) + 1j * rng.normal(size=(q + 1, d))
        B = RowSchur(0.9 * c / np.abs(c).sum(axis=0).max() / np.sqrt(d))
        rows = B.coeffs
        scalar = np.zeros(2 * q + 1, dtype=complex)
        matrix = np.zeros((2 * q + 1, d, d), dtype=complex)
        for k in range(q + 1):
            for j in range(q + 1 - k):
                scalar[q + k] -= rows[j + k] @ np.conj(rows[j])
                matrix[q + k] -= np.outer(np.conj(rows[j]), rows[j + k])
            scalar[q - k] = np.conj(scalar[q + k])
            matrix[q - k] = np.conj(matrix[q + k]).T
        scalar[q] += 1.0
        matrix[q] += np.eye(d)
        got_s, got_m = defect_laurent(B), matrix_defect(B)
        assert_close(got_s.coeffs, scalar, 1e-15, "scalar defect")
        assert_close(got_m, matrix, 1e-15, "matrix defect")

    @pytest.mark.parametrize("n", [7, 64])
    @pytest.mark.parametrize("offset", [0.0, 0.5])
    def test_circle_values_by_fft(self, n, offset):
        # n = 7 < 2m + 1 aliases the coefficients; both must match the sum
        B = fixture("TRUNC(5)").B
        z = np.exp(2j * np.pi * (np.arange(n) + offset) / n)
        scalar, matrix = defect_laurent(B), matrix_defect(B)
        assert_close(circle_eval(scalar.coeffs, n, offset, -scalar.half_degree),
                     scalar(z), 1e-14, "scalar grid values")
        assert_close(circle_eval(matrix, n, offset, -B.degree),
                     _laurent_values(matrix, z), 1e-14, "matrix grid values")

    @pytest.mark.parametrize("q", [0, 1, 3, 8])
    def test_scalar_defect_is_the_d1_matrix_defect(self, q):
        # for d = 1, 1 - BB* and I - B*B are one density in one storage form
        c = np.random.default_rng(q).normal(size=(q + 1, 1))
        B = RowSchur(0.9 * c / np.abs(c).sum())
        scalar, matrix = defect_laurent(B), matrix_defect(B)
        assert scalar.coeffs.shape == (2 * q + 1,) and matrix.shape == (2 * q + 1, 1, 1)
        assert np.array_equal(scalar.coeffs, matrix[:, 0, 0])

    def test_row_validation(self):
        with pytest.raises(Exception):
            RowSchur([[2.0]])
