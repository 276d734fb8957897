"""Complex polynomial, matrix-polynomial and Laurent arithmetic on the disk.

Coefficients are stored ascending: ``coeffs[k]`` multiplies ``z**k``.
All containers are immutable after construction and safe to share.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, RootFindingFailed

# canonical form: trailing coefficients below this relative size are dropped
TRIM_REL = 1e-14


def _trim(coeffs: np.ndarray) -> np.ndarray:
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 0:
        c = c.reshape(1)
    if c.shape[0] == 0:
        return c
    mags = np.abs(c).reshape(c.shape[0], -1).max(axis=1)
    scale = mags.max()
    if scale == 0.0:
        return c[:0]
    keep = np.nonzero(mags > TRIM_REL * scale)[0]
    return c[: keep[-1] + 1] if keep.size else c[:0]


def pow2_at_least(n: int) -> int:
    """Smallest power of two >= n."""
    return 1 << max(0, int(n - 1)).bit_length()


def circle_grid(n: int) -> np.ndarray:
    """n equispaced points exp(2*pi*i*j/n) on the unit circle."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def grid_to_coeffs(values: np.ndarray) -> np.ndarray:
    """Fourier analysis on circle_grid samples: values_j = sum_k c_k z_j^k."""
    return np.fft.fft(values, axis=0) / values.shape[0]


class CPoly:
    """Scalar polynomial with complex coefficients."""

    __slots__ = ("coeffs",)

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

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[0] == 0

    def coeff(self, k: int) -> complex:
        return complex(self.coeffs[k]) if 0 <= k < self.coeffs.shape[0] else 0j

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape, dtype=complex)
        for c in self.coeffs[::-1]:
            out = out * z + c
        return complex(out) if out.ndim == 0 else out

    def __add__(self, other):
        a, b = self.coeffs, _as_cpoly(other).coeffs
        n = max(a.shape[0], b.shape[0])
        out = np.zeros(n, dtype=complex)
        out[: a.shape[0]] += a
        out[: b.shape[0]] += b
        return CPoly(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self + (-1.0) * _as_cpoly(other)

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

    def shift_up(self, k: int = 1) -> "CPoly":
        """Multiply by z**k."""
        if self.is_zero:
            return self
        return CPoly(np.concatenate([np.zeros(k, dtype=complex), self.coeffs]))

    def backward(self) -> "CPoly":
        """Backward shift (p - p(0)) / z: drop the constant coefficient."""
        return CPoly(self.coeffs[1:])

    def derivative(self) -> "CPoly":
        if self.degree < 1:
            return CPoly.zero()
        return CPoly(self.coeffs[1:] * np.arange(1, self.coeffs.shape[0]))

    def norm_sq(self) -> float:
        """Squared Hardy-space norm: sum of squared coefficient moduli."""
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def __repr__(self):
        return f"CPoly(deg={self.degree})"


def _as_cpoly(x) -> CPoly:
    return x if isinstance(x, CPoly) else CPoly(x)


class VecPoly:
    """Polynomial with coefficients in C^d, stored as rows of shape (n+1, d)."""

    __slots__ = ("coeffs", "dim")

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

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[0] == 0

    def coordinate(self, i: int) -> CPoly:
        if self.is_zero:
            return CPoly.zero()
        return CPoly(self.coeffs[:, i])

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape + (self.dim,), dtype=complex)
        for row in self.coeffs[::-1]:
            out = out * z[..., None] + row
        return out

    def backward(self) -> "VecPoly":
        return VecPoly(self.coeffs[1:], dim=self.dim)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def __repr__(self):
        return f"VecPoly(deg={self.degree}, dim={self.dim})"


class MatPoly:
    """Square matrix polynomial A(z) = sum_k A_k z^k with d x d coefficients."""

    __slots__ = ("coeffs", "dim")

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

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape + (self.dim, self.dim), dtype=complex)
        for mat in self.coeffs[::-1]:
            out = out * z[..., None, None] + mat
        return out

    def matvec_const(self, x) -> VecPoly:
        """A(z) x for a constant vector x."""
        x = np.asarray(x, dtype=complex)
        if self.coeffs.shape[0] == 0:
            return VecPoly.zero(self.dim)
        return VecPoly(self.coeffs @ x, dim=self.dim)

    def matvec_poly(self, h: VecPoly) -> VecPoly:
        """A(z) h(z) for a polynomial vector h."""
        if self.coeffs.shape[0] == 0 or h.is_zero:
            return VecPoly.zero(self.dim)
        out = np.zeros((self.degree + h.degree + 1, self.dim), dtype=complex)
        for i, mat in enumerate(self.coeffs):
            out[i : i + h.degree + 1] += h.coeffs @ mat.T
        return VecPoly(out, dim=self.dim)

    def det_poly(self) -> CPoly:
        """Determinant as a scalar polynomial, via FFT interpolation."""
        n = self.dim * max(self.degree, 0) + 1
        grid = circle_grid(pow2_at_least(max(2 * n, 8)))
        coeffs = grid_to_coeffs(np.linalg.det(self(grid)))
        return CPoly(coeffs[:n])

    def __repr__(self):
        return f"MatPoly(deg={self.degree}, dim={self.dim})"


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
        sym = np.empty_like(arr)
        for k in range(-m, m + 1):
            a = arr[k + m]
            b = np.conj(arr[-k + m]).T if arr.ndim == 3 else np.conj(arr[-k + m])
            sym[k + m] = 0.5 * (a + b)
        # symmetric trim: drop matching +-k tail pairs that are negligible
        mags = np.abs(sym).reshape(sym.shape[0], -1).max(axis=1)
        scale = mags.max() if mags.size else 0.0
        while m > 0 and scale > 0 and mags[0] <= TRIM_REL * scale \
                and mags[-1] <= TRIM_REL * scale:
            sym = sym[1:-1]
            mags = mags[1:-1]
            m -= 1
        self.coeffs = sym
        self.half_degree = m
        self.dim = int(sym.shape[1]) if sym.ndim == 3 else 1

    @property
    def is_matrix(self) -> bool:
        return self.coeffs.ndim == 3

    def coeff(self, k: int):
        m = self.half_degree
        if -m <= k <= m:
            return self.coeffs[k + m]
        return np.zeros((self.dim, self.dim), dtype=complex) if self.is_matrix else 0j

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        if np.any(z == 0):
            raise DomainError("Laurent polynomial cannot be evaluated at z = 0")
        m = self.half_degree
        if self.is_matrix:
            out = np.zeros(z.shape + self.coeffs.shape[1:], dtype=complex)
            for k in range(-m, m + 1):
                out += self.coeffs[k + m] * (z ** k)[..., None, None]
        else:
            out = np.zeros(z.shape, dtype=complex)
            for k in range(-m, m + 1):
                out += self.coeffs[k + m] * z ** k
            if out.ndim == 0:
                return complex(out)
        return out

    def circle_values(self, n_grid: int) -> np.ndarray:
        return self(circle_grid(n_grid))

    def min_circle_eig(self, n_grid: int | None = None) -> float:
        """Smallest eigenvalue (scalar: smallest value) over a circle grid."""
        n = n_grid or pow2_at_least(max(4 * 2 * self.half_degree + 1, 512))
        vals = self.circle_values(n)
        if self.is_matrix:
            return float(np.linalg.eigvalsh(vals).min())
        return float(vals.real.min())

    def __repr__(self):
        kind = "matrix" if self.is_matrix else "scalar"
        return f"LaurentHerm({kind}, m={self.half_degree})"


def toeplitz_conj(phi, g):
    """Conjugate-analytic Toeplitz action in coefficients.

    Returns r with r_k = sum_{j>=0} phi_j^* g_{k+j}; the adjoint of a matrix
    coefficient acts by conjugate transpose, so the result lives in the
    domain-side coefficient space and has degree <= degree(g).
    """
    from .rowschur import RowSchur  # cycle-free: rowschur imports nothing here

    if isinstance(phi, CPoly):
        if isinstance(g, CPoly):
            if phi.is_zero or g.is_zero:
                return CPoly.zero()
            full = np.correlate(g.coeffs, phi.coeffs, mode="full")
            return CPoly(full[phi.coeffs.shape[0] - 1 :])
        if isinstance(g, VecPoly):
            if phi.is_zero or g.is_zero:
                return VecPoly.zero(g.dim)
            cols = [
                np.correlate(g.coeffs[:, i], phi.coeffs, mode="full")[
                    phi.coeffs.shape[0] - 1 :
                ]
                for i in range(g.dim)
            ]
            return VecPoly(np.stack(cols, axis=1), dim=g.dim)
    if isinstance(phi, RowSchur) and isinstance(g, CPoly):
        # row symbol: phi_j^* is a column, scalar g maps into C^d
        if g.is_zero:
            return VecPoly.zero(phi.dim)
        cols = [
            np.correlate(g.coeffs, phi.coeffs[:, i], mode="full")[
                phi.coeffs.shape[0] - 1 :
            ]
            for i in range(phi.dim)
        ]
        return VecPoly(np.stack(cols, axis=1), dim=phi.dim)
    if isinstance(phi, MatPoly) and isinstance(g, VecPoly):
        if g.is_zero:
            return VecPoly.zero(g.dim)
        n = g.degree
        adj = np.conj(phi.coeffs).transpose(0, 2, 1)
        out = np.zeros((n + 1, g.dim), dtype=complex)
        for j in range(phi.coeffs.shape[0]):
            tail = g.coeffs[j:]
            if tail.shape[0] == 0:
                break
            out[: tail.shape[0]] += tail @ adj[j].T
        return VecPoly(out, dim=g.dim)
    raise TypeError(f"unsupported operand shapes: {type(phi)}, {type(g)}")


# ---------------------------------------------------------------------------
# root finding: Aberth-Ehrlich simultaneous iteration with cluster merging


def _poly_and_deriv(coeffs: np.ndarray, z: np.ndarray):
    p = np.zeros_like(z)
    dp = np.zeros_like(z)
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _eval_scale(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_j |c_j| |z|^j, the natural backward-error scale at z."""
    az = np.abs(z)
    out = np.zeros_like(az)
    for c in np.abs(coeffs[::-1]):
        out = out * az + c
    return out


def poly_roots(p: CPoly, tol_root: float = 1e-13, max_iter: int = 200,
               cluster_tol: float = 1e-8):
    """All roots of p with multiplicities.

    Aberth-Ehrlich simultaneous iteration from randomly perturbed points on a
    circle enclosing all roots, followed by cluster merging and a
    multiplicity-aware Newton polish of each cluster center.  Returns a list
    of (root, multiplicity) sorted by (real, imag); multiplicities sum to the
    degree.  Raises RootFindingFailed (with the best residuals attached) on
    non-convergence.
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
        found = _aberth(c, tol_root, max_iter)
        for center, mult in _merge_clusters(found, c, cluster_tol):
            center = _polish_multiple(c, center, mult)
            resid = abs(_poly_and_deriv(c, np.array([center]))[0][0])
            scale = float(_eval_scale(c, np.array([center]))[0])
            if resid > 100 * (n + 1) * max(tol_root, 1e-15) * max(scale, 1e-300):
                raise RootFindingFailed(
                    f"residual {resid:.3e} too large at root {center}",
                    best_residuals=[resid],
                )
            out.append((center, mult))
    out.sort(key=lambda rm: (rm[0].real, rm[0].imag))
    return out


def _aberth(c: np.ndarray, tol_root: float, max_iter: int) -> np.ndarray:
    n = c.shape[0] - 1
    if n == 1:
        return np.array([-c[0] / c[1]])
    rng = np.random.default_rng(0x5EED)
    radius = 1.0 + np.max(np.abs(c[:-1] / c[-1])) if n > 0 else 1.0
    angles = 2 * np.pi * (np.arange(n) + rng.uniform(0.2, 0.8, n)) / n
    z = radius * np.exp(1j * angles)
    eps_floor = np.finfo(float).eps
    best = None
    for _ in range(max_iter):
        pv, dv = _poly_and_deriv(c, z)
        scale = _eval_scale(c, z)
        resid = np.abs(pv) / np.maximum(scale, 1e-300)
        if best is None or resid.max() < best[0]:
            best = (resid.max(), z.copy(), np.abs(pv))
        done = resid <= 4 * (n + 1) * eps_floor
        if np.all(done):
            return z
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0.0)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            s = np.sum(1.0 / diff, axis=1) - 1.0 / np.diag(diff)
            denom = 1.0 - newton * s
            step = np.where(np.abs(denom) > 1e-300, newton / denom, newton)
        step = np.where(done, 0.0, step)
        z = z - step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(z))):
            pv2, _ = _poly_and_deriv(c, z)
            resid2 = np.abs(pv2) / np.maximum(_eval_scale(c, z), 1e-300)
            if resid2.max() <= max(tol_root, 64 * (n + 1) * eps_floor):
                return z
    if best is not None and best[0] <= max(tol_root, 1e4 * (n + 1) * eps_floor):
        return best[1]
    raise RootFindingFailed(
        f"Aberth iteration did not converge in {max_iter} steps",
        best_residuals=None if best is None else list(best[2]),
    )


def _merge_clusters(roots: np.ndarray, c: np.ndarray, cluster_tol: float):
    """Merge nearby roots; radii widen with the local Newton correction.

    A multiple root computed in floating point scatters into a cluster of
    radius about eps**(1/m); the Newton correction p/p' is of that same order
    there, so it sets a reliable per-root merge radius.
    """
    k = roots.shape[0]
    if k == 0:
        return []
    pv, dv = _poly_and_deriv(c, roots)
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = np.where(dv != 0, np.abs(pv / np.where(dv == 0, 1, dv)), np.inf)
    corr = np.where(np.isfinite(corr), corr, np.abs(roots) + 1.0)
    radii = np.maximum(cluster_tol * (1.0 + np.abs(roots)), 3.0 * corr)
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


def _polish_multiple(c: np.ndarray, center: complex, mult: int) -> complex:
    """Newton polish x -> x - m p/p', quadratic for multiplicity-m roots.

    Keeps the best point seen: near the rounding floor the correction is
    noise-dominated and a step can move away from the root.
    """
    z = center
    best = (abs(_poly_and_deriv(c, np.array([z]))[0][0]), z)
    for _ in range(4):
        pv, dv = _poly_and_deriv(c, np.array([z]))
        if dv[0] == 0:
            break
        step = mult * pv[0] / dv[0]
        if not np.isfinite(step):
            break
        z = z - step
        resid = abs(_poly_and_deriv(c, np.array([z]))[0][0])
        if resid < best[0]:
            best = (resid, z)
        if abs(step) <= 1e-16 * (1.0 + abs(z)):
            break
    return complex(best[1])
