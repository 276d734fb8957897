"""Spectral factorization of boundary defects.

One engine, `wilson_report`, factors both defects: the scalar 1 - BB* into
the mate a and the matrix I - B*B into the analytic outer factor A with
A(0) Hermitian positive definite.  Every zero of the density's determinant
on or just outside the circle is split off as an elementary factor
I - (z / w) vv*, and the strictly positive remainder is factored by a
Newton iteration on FFT grids.  A run that stalls at a residual of at most
BEST_FACTOR_TOL returns its best factor with fallback set; any other failed
run raises FactorizationDiverged.  For d >= 2 the two runs are kept apart,
so that det A = a compares two factorizations; for d = 1 the two defects
are one Laurent polynomial and one run gives both (the mate's independent
check is the 50-digit Fejér-Riesz oracle of the tests).  Outerness is
certified without roots, by Jensen's formula.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateDeterminant,
    FactorizationDiverged,
    MateUndefined,
    NotPositive,
    SingularIterate,
)
from .poly import CPoly, LaurentHerm, MatPoly, _check_size, _divide_one_minus, \
    angle_derivatives, circle_eval, grid_adjugate, grid_det, poly_roots, pow2_at_least
from .rowschur import RowSchur, defect_laurent
from .tolerances import ENGINE_TOL, PSD_SLACK

ZERO_DEFECT_TOL = 1e-12
# a stalled iteration's best factor is accepted from this residual down:
# regularizing a boundary-degenerate density would move its boundary zeros
BEST_FACTOR_TOL = 1e-8
# Newton steps per grid: the budget of every run, mate and matrix factor alike
MAX_ITER = 600


@dataclass(frozen=True)
class FactorReport:
    """Outcome of a factorization: the factor plus certification numbers.

    splits holds the zero w of each elementary factor split off (|w| >= 1),
    once per split; fallback says the best factor of a stalled run was taken.
    """

    factor: CPoly | MatPoly
    residual_sup: float
    outer_gap: float
    iterations: int
    grid: int = 0
    splits: tuple = ()
    fallback: bool = False


def mate_report(B: RowSchur, tol_psd: float = PSD_SLACK) -> FactorReport:
    """The mate as the d = 1 case of `wilson_report`, on 1 - BB*.

    The zeros of the defect on the circle, or within the split radius
    _NEAR = 36 / 4096 outside it, are split off as factors 1 - z / w; the
    unimodular split points are the zeros of a on the circle, once per
    split.  outer_gap is the Jensen gap of the grid factor a1, which every
    split factor leaves unchanged, and a stalled run is handled as in
    `wilson_report`.
    """
    scalar = defect_laurent(B)[0]
    search = _defect_zeros(scalar, tol_psd)[0]
    return _as_mate(B, wilson_report(scalar, ENGINE_TOL, search=search))


def _defect_zeros(scalar: LaurentHerm, tol_psd: float):
    """The (zeros, null floor) searches of 1 - BB* and I - B*B, from one on
    1 - BB* that also tests positivity to min(tol_psd, PSD_SLACK): det(I - B*B)
    = 1 - BB*, and I - B*B has top eigenvalue 1 for d >= 2 (rank-one B*B)."""
    if np.abs(scalar.coeffs).max(initial=0.0) <= ZERO_DEFECT_TOL:
        raise MateUndefined("1 - BB* vanishes identically on the circle")
    zeros, floor = _boundary_zeros(scalar, -min(tol_psd, PSD_SLACK))
    return (zeros, floor), (zeros, _NULL_REL)


def _as_mate(B: RowSchur, rep: FactorReport) -> FactorReport:
    """A run on 1 - BB* read as the mate a, with residual |a|^2 + BB* - 1."""
    a = CPoly(rep.factor.coeffs[:, 0, 0])
    n = max(512, pow2_at_least(4 * max(B.degree, a.degree) + 1))
    bb = (np.abs(circle_eval(B.coeffs, n)) ** 2).sum(axis=-1)
    resid = float(np.abs(np.abs(circle_eval(a.coeffs, n)) ** 2 + bb - 1.0).max())
    return replace(rep, factor=a, residual_sup=resid)


def _refine_boundary_angle(laurent_coeffs: np.ndarray, theta: float) -> float:
    """Newton on the angle at a boundary minimum of the defect.

    The defect is a real trigonometric polynomial with an even-order zero at
    the cluster angle, so Newton on its derivative is quadratically exact and
    beats the sqrt(eps) scatter of a generic double root.  It runs to a step
    below 1e-15 (three steps left 1e-11 rad, and a 3e-9 factor residual, at
    degree 60).
    """
    for _ in range(20):
        _, d1, d2 = angle_derivatives(laurent_coeffs, theta)
        if abs(d2) < 1e-14:
            break
        step = d1 / d2
        theta -= step
        if abs(step) < 1e-15:
            break
    return theta


# the grid iterates the split density to this residual, not just to
# tol_factor (putting each split factor back can multiply its error by up to
# 4), and finer grids are tried while the factor's residual stays above it
_GRID_TOL = 1e-14
# a factor with a residual of at most this fraction of the scale of phi
# starts a finer grid (a grid enlargement, or the full grid after a coarse
# pass): no zero of its determinant can have crossed the circle
_WARM_REL = 1e-8
# a singular value of phi(w) below this fraction of the largest eigenvalue
# of phi on the circle is a null direction
_NULL_REL = 1e-8
# a grid of n points resolves a zero of det phi at |w| - 1 = delta once
# n >= 36 / delta ((1 + delta)^-n < 2e-16); zeros nearer the circle than
# what the budget resolves are split off, and the Jensen mean uses a grid of
# at least the budget
_GRID_BUDGET = 1 << 12
_NEAR = 36.0 / _GRID_BUDGET


def wilson_report(phi: LaurentHerm, tol_factor: float = 1e-10, max_iter: int = MAX_ITER,
                  grid_log2: int | None = None, *, search=None) -> FactorReport:
    """Outer factor A with A*A = phi: split circle zeros off, grid the rest.

    At each zero w of det phi on the circle or within the split radius
    _NEAR = 36 / 4096 outside it, with null vector v of phi(w), the
    elementary factor E(z) = I - (z / w) vv* is split off: phi = E* phi1 E
    with phi1 = E^{-*} phi E^{-1} again Hermitian Laurent of half-degree
    <= m (Youla-Kazanjian), repeated while phi1(w) stays singular; search
    is the (zeros, null floor) of `_boundary_zeros`, run here if not given.
    The Newton iteration A1 <- A1 [A1^{-*} phi1 A1^{-1} + I]_+ on an FFT grid
    ([.]_+ keeps the analytic half, constant term halved) factors the
    strictly positive phi1 with quadratic convergence (Wilson).
    A = A1 E_k ... E_1, trimmed to degree m, keeps A(0) = A1(0) Hermitian
    positive definite since E(0) = I, so det A = a exactly.  A matrix run
    starts its first grid from a Newton pass on a coarse grid (see
    `_coarse_start`), whose steps count in the iterations.  The residual
    is checked against phi; the grid grows four-fold, warm-started, while
    it is above tol_factor, or above rounding level and still falling.

    outer_gap is the Jensen gap of det A = det A1 prod (1 - z / w_k): each
    factor with |w_k| >= 1 has gap 0, so it is
    |log|det A1(0)| - mean of log|det A1| over the circle|, which det A1,
    zero-free within _NEAR of the circle, gives to rounding on a grid of
    _GRID_BUDGET points.  A failed run whose best residual is at most
    BEST_FACTOR_TOL returns that best factor with fallback set, at once when
    an enlargement does not lower it; any other failed run raises
    FactorizationDiverged with the report of its best factor.
    """
    zeros, floor = _boundary_zeros(phi) if search is None else search
    m = phi.half_degree
    scale = float(np.abs(phi.coeffs).max(initial=0.0))
    phi1, splits = phi, []
    for w in zeros:
        # det phi has 2 d m zeros, so no more than d m factors can split off
        while phi1.half_degree > 0 and len(splits) < phi.dim * m:
            _, sing, vh = np.linalg.svd(np.atleast_2d(phi1(w)))
            if sing[-1] > floor:
                break
            splits.append((w, np.conj(vh[-1])))
            phi1 = _split_off(phi1, *splits[-1])
    n0 = (1 << grid_log2) if grid_log2 is not None \
        else max(pow2_at_least(8 * max(phi1.half_degree, 1) + 1), 256)
    trace: list[float] = []  # one residual per Newton step, on every grid
    best: tuple = (np.inf, None, None, n0)
    n, prev, A1 = n0, np.inf, None
    while True:
        _check_size(n * phi.dim ** 2, f"factorization grid of {n} points")
        if n == n0:
            A1 = _coarse_start(phi1, n, max_iter, trace)
        a_grid = _wilson_grid(phi1, n, max_iter, min(tol_factor, _GRID_TOL), trace,
                              start=A1)
        iterations = len(trace)
        A1 = _finish(a_grid, phi1.half_degree, phi.dim)
        factor = _reinflate(A1, splits, m)
        resid = factor_residual(factor, phi)
        stalled = best[0] <= BEST_FACTOR_TOL and resid >= best[0]
        if resid < best[0]:
            best = (resid, factor, A1, n)
        last = n >= max(1 << 16, 8 * n0) or iterations >= 4 * max_iter or stalled
        # a coarse grid aliases the factor: enlarge it while that pays off
        settled = resid <= _GRID_TOL * scale or resid > prev / 4 or last
        done = best[0] <= tol_factor and settled
        if done or last:
            report = None if best[1] is None else FactorReport(
                best[1], best[0], _jensen_gap(best[2], max(best[3], _GRID_BUDGET)),
                iterations, best[3], tuple(w for w, _ in splits),
                fallback=not done)
            if done or best[0] <= BEST_FACTOR_TOL:
                return report
            raise FactorizationDiverged(
                f"residual {best[0]:.3e} after {iterations} iterations "
                f"(grid up to {n})",
                residual_trace=trace,
                best=report,
            )
        n, prev = 4 * n, resid
        A1 = A1 if resid <= _WARM_REL * scale else None


def _jensen_gap(A1: MatPoly, n: int) -> float:
    """|log|det A1(0)| - mean of log|det A1| over n circle points|."""
    det = A1.det_poly().coeffs
    vals = np.fft.fft(det, n=max(n, det.shape[0]))
    with np.errstate(divide="ignore"):
        return float(abs(np.log(abs(det[0])) - np.log(np.abs(vals)).mean()))


def _boundary_zeros(phi: LaurentHerm, dip: float = -PSD_SLACK):
    """Zeros w of det phi on or near the circle, and the floor for nulls.

    det phi is a nonnegative trigonometric polynomial.  A grid minimum,
    refined by Newton on the angle, that vanishes at rounding scale is a
    zero on the circle; a positive one comes from zeros w, 1/conj(w) about
    sqrt(2 value / curvature) off the circle, and when that is below _NEAR
    Newton in the plane finds the w with |w| > 1.  A minimum whose parabola
    through its three grid values puts that pair twice _NEAR off the circle
    skips the angle Newton.  The null floor is relative to the largest
    eigenvalue of phi on the circle, so that it holds for d = 1 too.  An
    eigenvalue below dip on the grid (of at least 1024 points) raises
    NotPositive first.
    """
    dm = phi.dim * phi.half_degree
    n = pow2_at_least(max(4 * (2 * dm) + 1, 1024))
    vals = phi.circle_values(n)
    eigs = np.linalg.eigvalsh(vals) if phi.is_matrix else vals.real[:, None]
    if eigs.min() < dip:
        raise NotPositive(f"density dips to {eigs.min():.3e} on the circle")
    floor = _NULL_REL * float(eigs.max())
    dets = eigs.prod(axis=1)
    top = float(dets.max())
    if top <= 0:
        return [], floor
    spec = np.fft.fft(dets) / n
    lau = np.concatenate([spec[n - dm :], spec[: dm + 1]])
    out: list[complex] = []
    minima = (dets < np.roll(dets, 1)) & (dets < np.roll(dets, -1))
    for j in np.nonzero(minima)[0]:
        # parabola v + c x^2 / 2 through the grid values at j - 1, j, j + 1:
        # its zero pair sits sqrt(2 v / c) off the circle
        lo, mid, hi = dets[j - 1], dets[j], dets[(j + 1) % n]
        bend = lo - 2 * mid + hi
        c = bend * (n / (2 * np.pi)) ** 2
        v = mid - (hi - lo) ** 2 / (8 * bend)
        if v > 1e-10 * top and 2 * v >= 4 * _NEAR ** 2 * c:
            continue
        theta = _refine_boundary_angle(lau, 2.0 * np.pi * j / n)
        value, _, curv = angle_derivatives(lau, theta)
        w = complex(np.exp(1j * theta))
        if value > 1e-10 * top:
            if curv <= 0 or 2 * value >= _NEAR ** 2 * curv:
                continue
            w = _zero_off_circle(phi, w * (1 + np.sqrt(2 * value / curv)))
            if not 1 < abs(w) < 1 + _NEAR:
                continue
        if all(abs(w - u) >= 1e-8 for u in out):
            out.append(w)
    return out, floor


def _zero_off_circle(phi: LaurentHerm, z: complex) -> complex:
    """Newton z <- z - 1 / tr(phi(z)^{-1} phi'(z)) on det phi; root |w| > 1."""
    c = phi.coeffs if phi.is_matrix else phi.coeffs[:, None, None]
    ks = np.arange(c.shape[0]) - phi.half_degree
    for _ in range(50):
        zk = z ** ks
        val = np.tensordot(zk, c, axes=1)
        der = np.tensordot(ks * zk / z, c, axes=1)
        try:
            step = 1.0 / np.trace(np.linalg.solve(val, der))
        except np.linalg.LinAlgError:
            break
        z -= step
        if not abs(step) > 1e-15 * abs(z):
            break
    return z if abs(z) >= 1 else 1 / np.conj(z)


def _split_off(phi: LaurentHerm, w: complex, v: np.ndarray) -> LaurentHerm:
    """E^{-*} phi E^{-1} for E(z) = I - (z / w) vv*, with phi(w) v = 0.

    With P = I - vv* and g = phi v / (1 - z / w), on the circle

        E^{-*} phi E^{-1} = P phi P + P g v* + v g* P + t vv*,
        t = v* g / (1 - 1 / (conj(w) z)),

    and both divisions are exact: phi v vanishes at w, and v* g at
    1/conj(w), because phi(1/conj(w)) = phi(w)* there.
    """
    c = phi.coeffs if phi.is_matrix else phi.coeffs[:, None, None]
    P = np.eye(phi.dim) - np.outer(v, np.conj(v))
    g = _divide_one_minus(c @ v, 1 / w)  # powers -m .. m-1
    # 1 - 1/(conj(w) z) = -(1 - conj(w) z) / (conj(w) z): powers -m+1 .. m-1
    t = -np.conj(w) * _divide_one_minus(g @ np.conj(v), np.conj(w))
    out = P @ c @ P
    out[:-1] += (g @ P.T)[:, :, None] * np.conj(v)
    out[1:] += v[:, None] * (np.conj(g) @ P)[::-1, None, :]
    out[1:-1] += t[:, None, None] * np.outer(v, np.conj(v))
    return LaurentHerm(out if phi.is_matrix else out[:, 0, 0])


def _reinflate(A1: MatPoly, splits, m: int) -> MatPoly:
    """A1 E_k ... E_1 trimmed to degree m, with E(z) = I - (z / w) vv*."""
    coeffs = A1.coeffs
    for w, v in reversed(splits):
        out = np.zeros((coeffs.shape[0] + 1,) + coeffs.shape[1:], dtype=complex)
        out[:-1] = coeffs
        out[1:] -= (coeffs @ v)[:, :, None] * np.conj(v) / w
        coeffs = out
    return MatPoly(coeffs[: m + 1], dim=A1.dim)


def _coarse_start(phi: LaurentHerm, n: int, max_iter: int, trace: list[float]):
    """The start of a cold matrix run on n points, or None for the Cholesky one.

    A matrix run (d >= 2) first iterates on n_c = max(64, 4m + 2) points,
    rounded up to a power of two, from the Cholesky factor of the mean of
    phi, to a residual of _WARM_REL times the scale of phi; a step there
    costs a fraction of one on n.  That pass converges to the factor of the
    sampled density, which differs from the degree-m factor by the aliasing
    of its inverse's tail.  Its coefficients 0..m start the run on n, which
    then takes one or two steps instead of five or six (three from 2m + 2
    points).  A pass that meets a singular iterate or stops above that
    residual leaves the Cholesky start.  A scalar run (d = 1) keeps it
    anyway: its steps cost about the same on 32 points as on 256.
    """
    n_c = max(64, pow2_at_least(4 * phi.half_degree + 2))
    if phi.dim == 1 or n_c >= n:
        return None
    try:
        vals, scale = _density_grid(phi, n_c)
        a_grid, resid = _newton_grid(vals, _cholesky_start(vals), max_iter,
                                     _WARM_REL * scale, trace)
        return _finish(a_grid, phi.half_degree, phi.dim) \
            if resid <= _WARM_REL * scale else None
    except SingularIterate:
        return None


def _wilson_grid(phi: LaurentHerm, n: int, max_iter: int, tol_factor: float,
                 trace: list[float], start: MatPoly | None = None) -> np.ndarray:
    """Run the grid iteration on n points; returns the grid values.

    It starts from the factor `start` of a coarser grid when one is given,
    and from the Cholesky factor of the grid mean of phi otherwise.  Each
    step appends its residual to trace.
    """
    vals, scale = _density_grid(phi, n)
    a_grid = _cholesky_start(vals) if start is None \
        else _grid_values(start.coeffs, phi.dim, n, 0.5)
    return _newton_grid(vals, a_grid, max_iter,
                        max(tol_factor, 16 * np.finfo(float).eps * scale), trace)[0]


def _density_grid(phi: LaurentHerm, n: int):
    """Hermitian values of phi on the half-sample offset n-point grid, and
    their scale, which the singular test and the residual floors use."""
    vals = _grid_values(phi.coeffs, phi.dim, n, 0.5, -phi.half_degree)
    vals = 0.5 * (vals + np.conj(vals).transpose(1, 0, 2))
    scale = np.abs(vals).max()
    if np.abs(grid_det(vals)).max() <= 1e-13 * scale ** phi.dim:
        raise SingularIterate("density is identically singular on the circle")
    return vals, scale


def _cholesky_start(vals: np.ndarray) -> np.ndarray:
    """The constant grid factor C* with C C* the grid mean of the density."""
    try:
        chol = np.linalg.cholesky(vals.mean(axis=-1))
    except np.linalg.LinAlgError as exc:
        raise SingularIterate("mean density is not positive definite") from exc
    return np.conj(chol).T[:, :, None] * np.ones(vals.shape[-1])


def _newton_grid(vals: np.ndarray, a_grid: np.ndarray, max_iter: int, floor: float,
                 trace: list[float]):
    """Newton steps on the grid from a_grid until the residual is at most
    floor or stalls; returns the best grid factor and its residual."""
    n = vals.shape[-1]
    eye = np.eye(vals.shape[0])[:, :, None]
    best = (np.inf, a_grid)
    stall = 0
    for _ in range(max_iter):
        try:
            inv = _grid_inv(a_grid)
        except np.linalg.LinAlgError as exc:
            raise SingularIterate("singular iterate on the grid") from exc
        g = _grid_mul(_grid_mul(np.conj(inv).transpose(1, 0, 2), vals), inv) + eye
        spec = np.fft.fft(g, axis=-1)
        spec[..., 0] *= 0.5
        spec[..., n // 2] *= 0.5
        spec[..., n // 2 + 1 :] = 0.0
        # for the A*A convention the projection multiplies from the left
        # (mirror image of the classical rho rho* update)
        a_grid = _grid_mul(np.fft.ifft(spec, axis=-1), a_grid)
        resid = float(np.abs(
            _grid_mul(np.conj(a_grid).transpose(1, 0, 2), a_grid) - vals).max())
        trace.append(resid)
        # Newton steps at least halve the residual until rounding stops them
        stall = stall + 1 if resid > 0.5 * best[0] else 0
        if resid < best[0]:
            best = (resid, a_grid)
        if resid <= floor or stall >= 3:
            break
    return best[1], best[0]


def _grid_values(coeffs: np.ndarray, d: int, n: int, offset: float = 0.0,
                 low: int = 0) -> np.ndarray:
    """Matrix (for d = 1 also scalar) coefficients on a `circle_eval` grid,
    as a (d, d, n) stack in the memory order of `_grid_mul`."""
    vals = circle_eval(coeffs.reshape(-1, d, d), n, offset, low).transpose(1, 2, 0)
    return np.ascontiguousarray(vals) if d <= 4 else vals


def _grid_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pointwise products of (d, d, n) stacks: a few whole-array calls, not
    one BLAS call per point.  Elementwise for d = 1, einsum up to d = 4 (ten
    times cheaper than `@` at d = 2, n = 256) with n innermost in memory,
    `@` above with n outermost; ufuncs and FFTs keep the order."""
    if a.shape[0] == 1:
        return a * b
    if a.shape[0] <= 4:
        return np.einsum("ijn,jkn->ikn", a, b)
    return (a.transpose(2, 0, 1) @ b.transpose(2, 0, 1)).transpose(1, 2, 0)


def _grid_inv(a: np.ndarray) -> np.ndarray:
    """Pointwise inverses: adjugate over determinant up to d = 3 (five times
    cheaper than LAPACK at d = 3), LAPACK above.  They only steer Newton:
    the residual A*A - phi certifies the factor."""
    if a.shape[0] > 3:
        inv = np.linalg.inv(a.transpose(2, 0, 1)).transpose(1, 2, 0)
        return np.ascontiguousarray(inv) if a.shape[0] <= 4 else inv
    adj, det = grid_adjugate(a)
    if not np.all(det):
        raise np.linalg.LinAlgError("singular matrix on the grid")
    return adj / det


def _finish(a_grid: np.ndarray, m: int, d: int) -> MatPoly:
    """Coefficients 0..m of half-sample offset grid values, A(0) made PD.

    The constant coefficient is rotated to its polar part: A <- U A with U
    unitary, so that A(0) is Hermitian positive definite and A*A unchanged.
    """
    n = a_grid.shape[-1]
    coeffs = np.moveaxis(np.fft.fft(a_grid, axis=-1)[..., : m + 1] / n
                         * np.exp(-1j * np.pi * np.arange(m + 1) / n), -1, 0)
    a0 = coeffs[0]
    w, v = np.linalg.eigh(np.conj(a0).T @ a0)
    if w.min() <= 0:
        raise SingularIterate("constant coefficient of the factor is singular")
    h = (v * np.sqrt(w)) @ np.conj(v).T
    u = np.conj(a0 @ np.linalg.inv(h)).T
    return MatPoly(np.einsum("ij,kjl->kil", u, coeffs), dim=d)


def factor_residual(A: MatPoly, phi: LaurentHerm) -> float:
    """sup over the circle grid of |A(z)^*A(z) - phi(z)| entrywise."""
    n = max(512, pow2_at_least(4 * max(A.degree, phi.half_degree) + 1))
    av = _grid_values(A.coeffs, phi.dim, n)
    pv = _grid_values(phi.coeffs, phi.dim, n, low=-phi.half_degree)
    return float(np.abs(_grid_mul(np.conj(av).transpose(1, 0, 2), av) - pv).max())


def outer_check(A: MatPoly | CPoly) -> float:
    """Outerness gap: |log|det A(0)| - circle mean of log|det A||.

    For a polynomial determinant the circle mean of log|det A| is evaluated
    exactly through the roots (the mean of log|z - r| over the circle is
    log max(|r|, 1)), so the gap reduces to -sum_{|r|<1} log|r|; an
    equispaced grid with singular points excluded would carry an O(log N / N)
    bias far above the tolerances used here.  The grid is still swept to
    detect degenerate determinants.
    """
    det = A if isinstance(A, CPoly) else A.det_poly()
    if det.is_zero:
        raise DegenerateDeterminant("determinant vanishes identically")
    n = pow2_at_least(max(4 * det.degree + 1, 512))
    vals = np.abs(circle_eval(det.coeffs, n))
    excluded = int((vals < 1e-13 * max(1.0, vals.max())).sum())
    if excluded > 0.10 * n:
        raise DegenerateDeterminant(
            f"{excluded}/{n} circle points have vanishing determinant"
        )
    if det.degree == 0:
        return 0.0
    gap = 0.0
    for r, mult in poly_roots(det):
        ar = abs(r)
        if ar < 1.0:
            if ar == 0.0:
                return float("inf")
            gap -= mult * np.log(ar)
    return float(gap)
