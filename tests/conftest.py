import mpmath
import numpy as np
import pytest

import dbrov.factor as factor_mod
from dbrov import fixture, make_context
from dbrov.boundary import radial_extrapolate
from dbrov.errors import DomainError
from dbrov.poly import CPoly, _divide_one_minus, circle_eval
from dbrov.rowschur import RowSchur, defect_laurent


@pytest.fixture(scope="session")
def ctx_zero():
    return make_context(fixture("ZERO").B)


@pytest.fixture(scope="session")
def ctx_sarason():
    return make_context(fixture("SARASON").B)


@pytest.fixture(scope="session")
def ctx_row2():
    return make_context(fixture("ROW2").B)


@pytest.fixture(scope="session")
def ctx_trunc3():
    return make_context(fixture("TRUNC(3)").B)


@pytest.fixture(scope="session")
def ctx_trunc8():
    return make_context(fixture("TRUNC(8)").B)


@pytest.fixture(scope="session")
def all_contexts(ctx_zero, ctx_sarason, ctx_row2, ctx_trunc3, ctx_trunc8):
    return {
        "ZERO": ctx_zero,
        "SARASON": ctx_sarason,
        "ROW2": ctx_row2,
        "TRUNC(3)": ctx_trunc3,
        "TRUNC(8)": ctx_trunc8,
    }


def unchecked_row(coeffs) -> RowSchur:
    """A RowSchur holding coeffs with no contraction check, for the internal
    branches that only a row outside the Schur class reaches."""
    B = RowSchur.__new__(RowSchur)
    B.coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    B.dim = B.coeffs.shape[1]
    return B


def circle_grid(n):
    """n equispaced points exp(2 pi i j / n) on the unit circle: the tests'
    own grid, evaluated by Horner as a reference independent of the FFT."""
    return np.exp(2j * np.pi * np.arange(n) / n)


@pytest.fixture
def scaled_factor(monkeypatch):
    """scale(eps) makes every engine pass return its factor times 1 + eps:
    a residual of about 2 eps max phi on every grid, while the zeros of the
    grid factor, and so its certificate, stay where they are."""
    real = factor_mod._grid_pass

    def scale(eps):
        monkeypatch.setattr(factor_mod, "_grid_pass",
                            lambda phi, n: CPoly(real(phi, n).coeffs * (1 + eps)))

    return scale


def matrix_defect(B):
    """I - B(z)^*B(z) on the circle as a (2q+1, d, d) Laurent stack,
    C_k = delta_{k0} I - sum_j B_j^* B_{j+k} at index k + q, entry (r, s) one
    correlation of the columns s and r.  The library builds A from the mate
    and never forms this density; `matrix_factor` factors it.  For d = 1 it
    is `defect_laurent`'s coefficients, value for value."""
    c, q = B.coeffs, B.degree
    out = np.array([[-np.correlate(c[:, s], c[:, r], "full") for s in range(B.dim)]
                    for r in range(B.dim)]).transpose(2, 0, 1)
    out[q] += np.eye(B.dim)
    return out


def matrix_factor(B):
    """The outer factor A of I - B*B, (q+1, d, d) with A(0) positive
    definite, and its split points: the tests' reference for A apart from
    the library's lossless completion, by Wilson's Newton iteration.

    The zeros w of det(I - B*B) = 1 - BB* on or near the circle, and the
    null floor, come from the library's scalar search (`_boundary_zeros`).
    While phi(w) has a singular value at the floor, E(z) = I - (z / w) vv*,
    v its null vector, is split off: phi <- E^{-*} phi E^{-1} =
    P phi P + P g v* + v g* P + t vv* with P = I - vv*, g = phi v / (1 - z / w)
    and t = v* g / (1 - 1 / (conj(w) z)), both divisions exact
    (Youla-Kazanjian).  The rest is factored on 4,096 half-sample offset
    points by A1 <- [A1^{-*} phi A1^{-1} + I]_+ A1, one inverse per point,
    from the Cholesky factor of the grid mean to a residual of 1e-13 (at
    most 100 steps); then A = A1 E_k ... E_1, turned by an SVD polar.  No
    grid enlargement, warm start or fallback.
    """
    q, d, n = B.degree, B.dim, 4096
    phi = matrix_defect(B)
    zeros, floor = factor_mod._boundary_zeros(defect_laurent(B))
    splits = []
    for w in zeros:
        while len(splits) < q:
            m = phi.shape[0] // 2
            _, sing, vh = np.linalg.svd(np.tensordot(w ** np.arange(-m, m + 1), phi, 1))
            if sing[-1] > floor:
                break
            v = np.conj(vh[-1])
            P = np.eye(d) - np.outer(v, np.conj(v))
            g = _divide_one_minus(phi @ v, 1 / w)
            t = -np.conj(w) * _divide_one_minus(g @ np.conj(v), np.conj(w))
            phi = P @ phi @ P
            phi[:-1] += (g @ P.T)[:, :, None] * np.conj(v)
            phi[1:] += v[:, None] * (np.conj(g) @ P)[::-1, None, :]
            phi[1:-1] += np.multiply.outer(t, np.outer(v, np.conj(v)))
            splits.append((w, v))
    m = phi.shape[0] // 2
    vals = circle_eval(phi, n, 0.5, -m)
    vals = 0.5 * (vals + np.conj(vals).transpose(0, 2, 1))
    half = np.where(np.arange(n) < n // 2, 1.0, 0.0)
    half[[0, n // 2]] = 0.5
    A = np.repeat(np.conj(np.linalg.cholesky(vals.mean(axis=0))).T[None], n, axis=0)
    for _ in range(100):
        inv = np.linalg.inv(A)
        g = np.conj(inv).transpose(0, 2, 1) @ vals @ inv + np.eye(d)
        A = np.fft.ifft(np.fft.fft(g, axis=0) * half[:, None, None], axis=0) @ A
        if np.abs(np.conj(A).transpose(0, 2, 1) @ A - vals).max() <= 1e-13:
            break
    A = (np.fft.fft(A, axis=0)[: m + 1] / n
         * np.exp(-1j * np.pi * np.arange(m + 1) / n)[:, None, None])
    for w, v in reversed(splits):
        A = np.concatenate([A, np.zeros((1, d, d))]) \
            - np.concatenate([np.zeros((1, d, d)), (A @ v)[:, :, None] * np.conj(v) / w])
    u, _, vh = np.linalg.svd(A[0])
    return np.conj(u @ vh).T @ A[: q + 1], [w for w, _ in splits]


def assert_close(actual, expected, tol, label=""):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape, f"{label}: shape {actual.shape} != {expected.shape}"
    worst = float(np.abs(actual - expected).max()) if actual.size else 0.0
    assert worst <= tol, f"{label}: max deviation {worst:.3e} > {tol:.1e}"


# closed-form boundary data for the infinite-rank limit of the TRUNC family


def trunc_limit_pairing(z):
    """B(z) B(1)* for the infinite-rank limit of the TRUNC fixtures.

    The geometric tail sums to a rational function: (1+z)/4 + z^2/(4-2z).
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z == 2.0):
        raise DomainError("pairing has a pole at z = 2")
    out = (1.0 + z) / 4.0 + z * z / (4.0 - 2.0 * z)
    return complex(out) if out.ndim == 0 else out


def trunc_limit_slope(radial: bool = False) -> float:
    """Boundary slope lim_{z->1} (1 - g(z))/(1 - z) of the limit pairing."""
    if radial:
        return radial_extrapolate(
            lambda r: float(((1.0 - trunc_limit_pairing(r)) / (1.0 - r)).real)
        )
    # derivative of (1+z)/4 + z^2/(4-2z) at z = 1
    z = 1.0
    return float(0.25 + (8.0 * z - 2.0 * z * z) / (4.0 - 2.0 * z) ** 2)


# 50-digit references: the mate by Fejer-Riesz, A by the lossless completion


def fejer_riesz_mate(B, dps: int = 50):
    """The mate's coefficients and zeros, from the roots of z^m (1 - BB*)
    found to dps digits (mpmath numbers, for use inside workdps(dps)).

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
        return poly, outside


def completion_oracle(B, a, zeros, dps: int = 50) -> np.ndarray:
    """The outer factor A of I - B*B, (q+1, d, d), by the lossless
    completion of the row (a, B) run in mpmath at dps digits.

    a holds the mate's coefficients and zeros its zeros, as mpmath numbers
    (`fejer_riesz_mate`).  A path apart from the library's, which completes
    the reversed row (z^q conj(a(1 / conj(z))), B) and flips nothing: this
    one completes the forward row, whose block has det c z^q conj(a(1 /
    conj(z))), and moves that determinant's zeros out of the disk.  With no
    grid and no Newton: degree-one sections p <- p (I - uu* + uu* / z),
    u = p_q* / |p_q|; a unitary completion of the unit row left, times the
    inverse sections; a Blaschke-Potapov flip at 1 / conj(w) for each zero
    w of a off the circle and at 0 to order q - deg a, with x* A(z0) = 0
    from an mpmath SVD; and the polar rotation that makes A(0) positive
    definite.
    """
    mp, conj = mpmath.mp, mpmath.conj
    with mpmath.workdps(dps):
        q, d = B.coeffs.shape[0] - 1, B.dim
        p = [[a[k] if k < len(a) else mpmath.mpc(0)]
             + [mpmath.mpc(complex(x)) for x in row] for k, row in enumerate(B.coeffs)]
        sections = []
        for _ in range(q):
            norm = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in p[-1]))
            u = [conj(x) / norm for x in p[-1]]
            pu = [mpmath.fsum(x * y for x, y in zip(row, u)) for row in p]
            p = [[x + (pu[k + 1] - pu[k]) * conj(y) for x, y in zip(p[k], u)]
                 for k in range(len(p) - 1)]
            sections.append(u)
        # Gram-Schmidt of the unit vectors least aligned with r, against r
        r = p[0]
        basis = [r]
        for j in sorted(range(d + 1), key=lambda j: abs(r[j]))[:d]:
            e = [mpmath.mpc(int(i == j)) for i in range(d + 1)]
            for b in basis:
                t = mpmath.fsum(x * conj(y) for x, y in zip(e, b))
                e = [x - t * y for x, y in zip(e, b)]
            norm = mpmath.sqrt(mpmath.fsum(abs(x) ** 2 for x in e))
            basis.append([x / norm for x in e])
        U = [[row for row in basis[1:]]]
        for u in reversed(sections):
            uu = [[x * conj(y) for y in u] for x in u]
            out = [[[mpmath.mpc(0)] * (d + 1) for _ in range(d)] for _ in range(len(U) + 1)]
            for k, Uk in enumerate(U):
                for i in range(d):
                    s = [mpmath.fsum(Uk[i][l] * uu[l][j] for l in range(d + 1))
                         for j in range(d + 1)]
                    for j in range(d + 1):
                        out[k][i][j] += Uk[i][j] - s[j]
                        out[k + 1][i][j] += s[j]
            U = out
        A = [mp.matrix([[Uk[i][j + 1] for j in range(d)] for i in range(d)]) for Uk in U]
        points = [1 / conj(w) for w in zeros if abs(w) - 1 > mpmath.mpf(10) ** (-dps // 2)]
        points += [mpmath.mpc(0)] * (q + 1 - len(a))
        for z0 in points:
            x = mp.svd_c(sum((Ak * z0 ** k for k, Ak in enumerate(A)), mp.zeros(d)))[0]
            x = x[:, d - 1]
            h = [x.H * Ak for Ak in A]
            g = [None] * q
            g[q - 1] = h[q]
            for k in range(q - 1, 0, -1):
                g[k - 1] = h[k] + z0 * g[k]
            for k in range(q + 1):
                new = (g[k] if k < q else 0 * h[k]) - (conj(z0) * g[k - 1] if k else 0 * h[k])
                A[k] = A[k] + x * (new - h[k])
        W, _, V = mp.svd_c(A[0])
        turn = V.H * W.H
        return np.array([[[complex(v) for v in (turn * Ak).tolist()[i]] for i in range(d)]
                         for Ak in A])
