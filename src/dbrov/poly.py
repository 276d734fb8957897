"""Complex polynomial, matrix-polynomial and Laurent arithmetic on the disk.

Coefficients are stored ascending: ``coeffs[k]`` multiplies ``z**k``.
All containers are immutable after construction and safe to share.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, RootFindingFailed, ValidationError

# canonical form: trailing coefficients below this relative size are dropped
TRIM_REL = 1e-14
# arrays with more complex entries than this (256 MiB) are refused
_MAX_ENTRIES = 1 << 24


def _check_size(entries: int, what: str) -> None:
    """Refuse a size whose arrays would exceed _MAX_ENTRIES."""
    if entries > _MAX_ENTRIES:
        raise DomainError(f"{what} needs {float(entries):.3g} complex entries, "
                          f"more than the {_MAX_ENTRIES} allowed")


def _trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 0:
        c = c.reshape(1)
    if c.shape[0] == 0:
        return c
    mags = np.abs(c).reshape(c.shape[0], -1).max(axis=1)
    scale = mags.max()
    if not np.isfinite(scale):  # NaN or inf exactly when some coefficient is
        raise ValidationError("polynomial coefficients must be finite")
    if scale == 0.0:
        return c[:0]
    keep = np.nonzero(mags > TRIM_REL * scale)[0]
    return c[: keep[-1] + 1] if keep.size else c[:0]


def pow2_at_least(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << max(0, int(n - 1)).bit_length()


def circle_eval(coeffs: np.ndarray, n: int, offset: float = 0.0,
                low: int = 0) -> np.ndarray:
    """sum_k coeffs[k] z^(k + low) at z_j = exp(2 pi i (j + offset) / n), j < n,
    by one FFT along the first axis.  z_j^k depends on k only modulo n once
    the offset phase is in the coefficients, so any n works (they alias)."""
    ks = np.arange(coeffs.shape[0]) + low
    phase = np.exp(2j * np.pi * offset * ks / n)
    spec = np.zeros((n,) + coeffs.shape[1:], dtype=complex)
    np.add.at(spec, ks % n, coeffs * phase.reshape((-1,) + (1,) * (coeffs.ndim - 1)))
    return np.fft.ifft(spec, axis=0, norm="forward")


def grid_adjugate(a: np.ndarray):
    """Adjugates and determinants of a (d, d, n) stack, d <= 3, by cofactors."""
    d = a.shape[0]
    if d == 1:
        cof = np.ones_like(a)
    elif d == 2:
        cof = np.array([[a[1, 1], -a[1, 0]], [-a[0, 1], a[0, 0]]])
    else:  # cyclic index pairs give the signed 3 x 3 cofactors
        r = ((1, 2), (2, 0), (0, 1))
        cof = np.array([[a[i, j] * a[k, l] - a[i, l] * a[k, j] for j, l in r]
                        for i, k in r])
    return cof.transpose(1, 0, 2), (a[0] * cof[0]).sum(axis=0)


def grid_det(a: np.ndarray) -> np.ndarray:
    """Determinants of a (d, d, n) stack: cofactors up to d = 3, LAPACK above."""
    if a.shape[0] > 3:
        return np.linalg.det(a.transpose(2, 0, 1))
    return grid_adjugate(a)[1]


def _divide_one_minus(h: np.ndarray, c: complex) -> np.ndarray:
    """Quotient g with h = (1 - c z) g, for h vanishing at 1/c.

    Synthetic division runs forward from the low end and backward from the
    high end to meet in the middle, which spreads the remainder of an
    inexact zero instead of dropping it all at one end.
    """
    n = max(h.shape[0] - 1, 0)
    g = np.zeros((n,) + h.shape[1:], dtype=complex)
    half = n // 2
    acc = np.zeros(h.shape[1:], dtype=complex)
    for k in range(half):
        acc = h[k] + c * acc
        g[k] = acc
    acc = np.zeros(h.shape[1:], dtype=complex)
    for k in range(n, half, -1):
        acc = (acc - h[k]) / c
        g[k - 1] = acc
    return g


def horner(coeffs: np.ndarray, z) -> np.ndarray:
    """sum_k coeffs[k] z^k by Horner's rule, for every point of z.

    The trailing dimensions of the coefficients are kept: the result has
    shape z.shape + coeffs.shape[1:].
    """
    z = np.asarray(z)
    zz = z.reshape(z.shape + (1,) * (coeffs.ndim - 1))
    out = np.zeros(z.shape + coeffs.shape[1:], dtype=np.result_type(coeffs, z))
    for c in coeffs[::-1]:
        out = out * zz + c
    return out


def autocorrelation(c: np.ndarray) -> np.ndarray:
    """Coefficients sum_j c_j^* c_{j+k} for k = -q..q, stored at index k + q.

    The c_j are scalars or rows of C^d (then c_j^* c_{j+k} is a d x d
    matrix); on the unit circle sum_k out[k + q] z^k = c(z)^* c(z).
    """
    q = c.shape[0] - 1
    out = np.zeros((2 * q + 1,) + c.shape[1:] + c.shape[1:], dtype=complex)
    for k in range(q + 1):
        s = np.conj(c[: q + 1 - k]).T @ c[k:]
        out[q + k] = s
        out[q - k] = np.conj(s).T
    return out


def angle_derivatives(coeffs: np.ndarray, theta: float) -> np.ndarray:
    """Real parts of the value and the first two theta-derivatives of
    sum_{k=-m..m} c_k e^{ik theta}, for coefficients stored at index k + m."""
    m = coeffs.shape[0] // 2
    ik = 1j * np.arange(-m, m + 1)
    e = np.exp(ik * theta)
    return (ik ** np.arange(3)[:, None] * coeffs * e).sum(axis=1).real


class _Poly:
    """Ascending coefficient stack shared by the polynomial containers:
    coeffs[k] multiplies z**k and holds a scalar, a row or column of C^dim,
    or a dim x dim matrix."""

    __slots__ = ("coeffs", "dim")

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[0] == 0

    def __call__(self, z):
        out = horner(self.coeffs, z)
        return complex(out) if out.ndim == 0 else out

    def norm_sq(self) -> float:
        """Squared Hardy-space norm: sum of squared coefficient moduli."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def __repr__(self):
        return f"{type(self).__name__}(deg={self.degree}, dim={self.dim})"


class CPoly(_Poly):
    """Scalar polynomial with complex coefficients."""

    __slots__ = ()
    dim = 1

    def __init__(self, coeffs):
        arr = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if arr.ndim != 1:
            raise ValueError("scalar polynomial coefficients must be 1-D")
        self.coeffs = _trim(arr)

    @classmethod
    def zero(cls) -> "CPoly":
        return cls(np.zeros(0))

    @classmethod
    def from_roots(cls, roots, leading=1.0) -> "CPoly":
        c = np.array([complex(leading)])
        for r in roots:
            c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
        return cls(c)

    def __add__(self, other):
        a, b = self.coeffs, _as_cpoly(other).coeffs
        n = max(a.shape[0], b.shape[0])
        out = np.zeros(n, dtype=complex)
        out[: a.shape[0]] += a
        out[: b.shape[0]] += b
        return CPoly(out)

    def __rsub__(self, other):
        return _as_cpoly(other) + (-1.0) * self

    def __mul__(self, other):
        if np.isscalar(other):
            return CPoly(self.coeffs * other)
        b = _as_cpoly(other).coeffs
        if self.is_zero or b.shape[0] == 0:
            return CPoly.zero()
        return CPoly(np.convolve(self.coeffs, b))

    def __rmul__(self, other):
        return self.__mul__(other)

    def shift_up(self) -> "CPoly":
        """Multiply by z."""
        if self.is_zero:
            return self
        return CPoly(np.concatenate([[0j], self.coeffs]))

    def backward(self) -> "CPoly":
        """Backward shift (p - p(0)) / z: drop the constant coefficient."""
        return CPoly(self.coeffs[1:])

    def derivative(self) -> "CPoly":
        if self.degree < 1:
            return CPoly.zero()
        return CPoly(self.coeffs[1:] * np.arange(1, self.coeffs.shape[0]))


def _as_cpoly(x) -> CPoly:
    return x if isinstance(x, CPoly) else CPoly(x)


class VecPoly(_Poly):
    """Polynomial with coefficients in C^d, stored as rows of shape (n+1, d)."""

    __slots__ = ()

    def __init__(self, coeffs, dim=None):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.shape[0] == 0 and dim is not None:
            arr = arr.reshape(0, dim)
        self.coeffs = _trim(arr)
        self.dim = int(arr.shape[1] if dim is None else dim)

    @classmethod
    def zero(cls, dim: int) -> "VecPoly":
        return cls(np.zeros((0, dim)), dim=dim)

    def backward(self) -> "VecPoly":
        return VecPoly(self.coeffs[1:], dim=self.dim)


class MatPoly(_Poly):
    """Square matrix polynomial A(z) = sum_k A_k z^k with d x d coefficients."""

    __slots__ = ()

    def __init__(self, coeffs, dim=None):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim == 2:
            arr = arr[None, :, :]
        if arr.shape[0] == 0 and dim is not None:
            arr = arr.reshape(0, dim, dim)
        self.coeffs = _trim(arr)
        self.dim = int(arr.shape[1] if dim is None else dim)

    @classmethod
    def identity(cls, dim: int) -> "MatPoly":
        return cls(np.eye(dim, dtype=complex)[None, :, :])

    def matvec_const(self, x) -> VecPoly:
        """A(z) x for a constant vector x."""
        x = np.asarray(x, dtype=complex)
        if self.is_zero:
            return VecPoly.zero(self.dim)
        return VecPoly(self.coeffs @ x, dim=self.dim)

    def matvec_poly(self, h: VecPoly) -> VecPoly:
        """A(z) h(z) for a polynomial vector h."""
        if self.is_zero or h.is_zero:
            return VecPoly.zero(self.dim)
        out = np.zeros((self.degree + h.degree + 1, self.dim), dtype=complex)
        for i, mat in enumerate(self.coeffs):
            out[i : i + h.degree + 1] += h.coeffs @ mat.T
        return VecPoly(out, dim=self.dim)

    def det_poly(self) -> CPoly:
        """Determinant as a scalar polynomial, via FFT interpolation.

        Trailing coefficients at the rounding level of the values, d eps
        times their Hadamard bound prod_i |A(z) e_i|, are dropped as noise.
        """
        n = self.dim * max(self.degree, 0) + 1
        vals = circle_eval(self.coeffs, pow2_at_least(max(2 * n, 8))).transpose(1, 2, 0)
        coeffs = np.fft.fft(grid_det(vals))[:n] / vals.shape[-1]
        hadamard = np.prod(np.linalg.norm(vals, axis=0), axis=0).max()
        noise = self.dim * np.finfo(float).eps * hadamard
        keep = np.nonzero(np.abs(coeffs) > noise)[0]
        return CPoly(coeffs[: keep[-1] + 1] if keep.size else coeffs[:0])


class LaurentHerm:
    """Hermitian Laurent polynomial sum_{k=-m..m} C_k z^k with C_{-k} = C_k*.

    Coefficients are stored for k = -m..m at index k + m; entries are scalars
    or d x d matrices.  Construction symmetrizes, so values on the unit circle
    are Hermitian (real, in the scalar case) by design.
    """

    __slots__ = ("coeffs", "half_degree", "dim")

    def __init__(self, coeffs):
        arr = np.asarray(coeffs, dtype=complex)
        if arr.shape[0] % 2 != 1:
            raise ValueError("Laurent coefficient count must be odd (k=-m..m)")
        m = arr.shape[0] // 2
        rev = np.conj(arr[::-1])  # C_{-k}^*, at index k + m
        sym = 0.5 * (arr + (rev.transpose(0, 2, 1) if arr.ndim == 3 else rev))
        # symmetric trim: drop matching +-k tail pairs that are negligible
        mags = np.abs(sym).reshape(sym.shape[0], -1).max(axis=1)
        scale = mags.max() if mags.size else 0.0
        tiny = TRIM_REL * scale
        while m > 0 and scale > 0 and mags[0] <= tiny and mags[-1] <= tiny:
            sym, mags, m = sym[1:-1], mags[1:-1], m - 1
        self.coeffs = sym
        self.half_degree = m
        self.dim = int(sym.shape[1]) if sym.ndim == 3 else 1

    @property
    def is_matrix(self) -> bool:
        return self.coeffs.ndim == 3

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(z == 0):
            raise DomainError("Laurent polynomial cannot be evaluated at z = 0")
        # z^-m times the Horner value of the coefficients, stored from k = -m
        out = horner(self.coeffs, z)
        out = out * (z ** -self.half_degree)[(...,) + (None,) * (out.ndim - z.ndim)]
        return complex(out) if out.ndim == 0 else out

    def circle_values(self, n_grid: int, offset: float = 0.0) -> np.ndarray:
        """Values at exp(2 pi i (j + offset) / n_grid), j < n_grid (`circle_eval`)."""
        return circle_eval(self.coeffs, n_grid, offset, -self.half_degree)

    def __repr__(self):
        kind = "matrix" if self.is_matrix else "scalar"
        return f"LaurentHerm({kind}, m={self.half_degree})"


def _conj_band(adj: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Conjugate-analytic Toeplitz action r_k = sum_j adj_j x_{k+j} per column.

    adj holds adjoint coefficients (p+1, d, e), X the coefficient rows of m
    columns (n+1, e, m); the result has shape (n+1, d, m).  einsum rather
    than BLAS keeps each column's numbers independent of the others.
    """
    out = np.zeros((X.shape[0], adj.shape[1], X.shape[2]), dtype=complex)
    for j in range(min(adj.shape[0], X.shape[0])):
        out[: X.shape[0] - j] += np.einsum("ab,kbm->kam", adj[j], X[j:])
    return out


def toeplitz_conj(phi, g):
    """Conjugate-analytic Toeplitz action r_k = sum_{j>=0} phi_j^* g_{k+j}.

    One `_conj_band` over phi's adjoint coefficients as a (p+1, d, e) stack
    and g's rows as an (n+1, e, m) stack: a scalar phi acts on each
    coordinate of g, the adjoint of a row maps a scalar g into C^d, and a
    matrix acts on a vector g by conjugate transpose.  The result has degree
    <= degree(g), and is a CPoly only when both operands are scalar; other
    operand types raise TypeError.
    """
    from .rowschur import RowSchur  # cycle-free: rowschur imports nothing here

    scalar_g = isinstance(g, CPoly)
    if isinstance(phi, CPoly) and (scalar_g or isinstance(g, VecPoly)):
        adj = np.conj(phi.coeffs)[:, None, None]
        X = g.coeffs[:, None, None] if scalar_g else g.coeffs[:, None, :]
    elif isinstance(phi, RowSchur) and scalar_g:
        adj, X = np.conj(phi.coeffs)[:, :, None], g.coeffs[:, None, None]
    elif isinstance(phi, MatPoly) and isinstance(g, VecPoly):
        adj, X = np.conj(phi.coeffs).transpose(0, 2, 1), g.coeffs[:, :, None]
    else:
        raise TypeError(f"unsupported operand shapes: {type(phi)}, {type(g)}")
    r = _conj_band(adj, X)
    if isinstance(phi, CPoly):
        return CPoly(r[:, 0, 0]) if scalar_g else VecPoly(r[:, 0], dim=g.dim)
    return VecPoly(r[:, :, 0], dim=r.shape[1])


# ---------------------------------------------------------------------------
# root finding: companion-matrix eigenvalues with cluster merging

# a root is accepted when |p| is within 100 (n + 1) TOL_ROOT of its scale
TOL_ROOT = 1e-13
# roots this close, relative to 1 + |root|, always fall into one cluster
CLUSTER_TOL = 1e-8


def poly_roots(p: CPoly):
    """All roots of p with multiplicities.

    The eigenvalues of the companion matrix of p / p_n, which are backward
    stable for the polynomial (Edelman & Murakami, Math. Comp. 64, 1995),
    followed by cluster merging and a multiplicity-aware Newton polish of
    each cluster center.  Returns a list of (root, multiplicity) sorted by
    (real, imag); multiplicities sum to the degree.  Raises
    RootFindingFailed (with the residual attached) when a polished center
    does not meet the residual test.
    """
    if p.is_zero:
        raise DomainError("cannot compute roots of the zero polynomial")
    c = p.coeffs.copy()
    roots_at_zero = 0
    while c.shape[0] > 1 and c[0] == 0:
        c = c[1:]
        roots_at_zero += 1
    out: list[tuple[complex, int]] = []
    if roots_at_zero:
        out.append((0j, roots_at_zero))
    n = c.shape[0] - 1
    if n >= 1:
        dc = c[1:] * np.arange(1, n + 1)
        companion = np.diag(np.ones(n - 1, dtype=complex), -1)
        companion[:, -1] = -c[:-1] / c[-1]
        found = np.linalg.eigvals(companion)
        for center, mult in _merge_clusters(found, c, dc):
            center = _polish_multiple(c, dc, center, mult)
            resid = float(abs(horner(c, center)))
            # sum_j |c_j| |z|^j, the natural backward-error scale at z
            scale = float(horner(np.abs(c), abs(center)))
            if resid > 100 * (n + 1) * TOL_ROOT * max(scale, 1e-300):
                raise RootFindingFailed(
                    f"residual {resid:.3e} too large at root {center}",
                    best_residuals=[resid],
                )
            out.append((center, mult))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _merge_clusters(roots: np.ndarray, c: np.ndarray, dc: np.ndarray):
    """Merge nearby roots; radii widen with the local Newton correction.

    A multiple root computed in floating point scatters into a cluster of
    radius about eps**(1/m); the Newton correction p/p' is of that same order
    there, so it sets a reliable per-root merge radius.
    """
    k = roots.shape[0]
    if k == 0:
        return []
    pv, dv = horner(c, roots), horner(dc, roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(dv != 0, np.abs(pv / np.where(dv == 0, 1, dv)), np.inf)
    corr = np.where(np.isfinite(corr), corr, np.abs(roots) + 1.0)
    radii = np.maximum(CLUSTER_TOL * (1.0 + np.abs(roots)), 3.0 * corr)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(roots[i] - roots[j]) <= radii[i] + radii[j]:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return [(complex(np.mean(roots[idx])), len(idx)) for idx in groups.values()]


def _polish_multiple(c: np.ndarray, dc: np.ndarray, center: complex,
                     mult: int) -> complex:
    """Newton polish x -> x - m p/p', quadratic for multiplicity-m roots.

    Keeps the best point seen: near the rounding floor the correction is
    noise-dominated and a step can move away from the root.
    """
    z = center
    best = (abs(horner(c, z)), z)
    for _ in range(4):
        pv, dv = horner(c, z), horner(dc, z)
        if dv == 0:
            break
        step = mult * pv / dv
        if not np.isfinite(step):
            break
        z = z - step
        resid = abs(horner(c, z))
        if resid < best[0]:
            best = (resid, z)
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return complex(best[1])
