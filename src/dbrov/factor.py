"""Spectral factorization of boundary defects.

One engine, `wilson_report`, factors any nonnegative Hermitian Laurent
polynomial into its outer factor with a(0) > 0; `mate_report` is its one
run on the scalar defect 1 - BB*, the mate a, and `make_context`'s only way
in.  Every zero of the density on or just outside the circle, found on its
own coefficients, is split off as an elementary factor 1 - z / w, and the
strictly positive remainder by its cepstral factor on FFT grids, grown
until a Schur-Cohn count certifies a pass.  A factor above ENGINE_TOL
but within BEST_FACTOR_TOL is returned with fallback set, and a worse one
raises FactorizationDiverged.  The matrix outer factor A of I - B*B needs no
second run: for d >= 2, `_completion` reads it off the reversed lossless row
(z^q conj(a(1 / conj(z))), B) by degree-one sections and a unitary
completion, whose lower-right block has determinant c a and so is outer;
for d = 1 it is a itself.  Circle zeros of A are seated in place.
`_identities` certifies the built row from one circle evaluation of B, a and
A: |a|^2 + BB* = 1, A*A + B*B = I, det A = a, and the outerness of det A
with the split points divided out, by a Schur-Cohn count (`_outer_gap`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDeterminant, FactorizationDiverged, MateUndefined, \
    NotPositive, SingularIterate
from .poly import CPoly, LaurentHerm, MatPoly, _check_size, _divide_one_minus, \
    angle_derivatives, circle_eval, det_coeffs, horner, poly_roots, pow2_at_least
from .rowschur import RowSchur, defect_laurent
from .tolerances import BEST_FACTOR_TOL, ENGINE_TOL, PSD_SLACK, UNIMODULAR_TOL

ZERO_DEFECT_TOL = 1e-12


@dataclass(frozen=True)
class FactorReport:
    """Outcome of a factorization: the factor plus certification numbers.

    iterations counts the grid passes; splits holds the zero w of each
    elementary factor split off (|w| >= 1), once per split; fallback says
    residual_sup is above ENGINE_TOL.
    """

    factor: CPoly
    residual_sup: float
    outer_gap: float
    iterations: int
    grid: int = 0
    splits: tuple = ()
    fallback: bool = False


def mate_report(B: RowSchur) -> FactorReport:
    """The mate a by the one `wilson_report` run on 1 - BB* (`defect_laurent`),
    `make_context`'s; a defect that vanishes identically, or is negative on
    the whole circle within PSD_SLACK, raises MateUndefined.  The unimodular
    split points are the zeros of a on the circle, once per split;
    residual_sup is |a|^2 - (1 - BB*), outer_gap the gap of the grid factor
    a1, which the split factors leave unchanged.
    """
    defect = defect_laurent(B)
    if np.abs(defect.coeffs).max(initial=0.0) <= ZERO_DEFECT_TOL:
        raise MateUndefined("1 - BB* vanishes identically on the circle")
    return wilson_report(defect)


def _identities(B: RowSchur, a: CPoly, A: MatPoly, splits=()):
    """(sup ||a|^2 + BB* - 1|, sup |A*A + B*B - I|, sup |det A - a|, outer
    gap of det A) from one evaluation of B, a and A on n = 4 K + 1 circle
    points rounded up to a power of 2, K = max(d deg A, deg a, deg B, 1).
    A trigonometric polynomial of degree k < n / 2 has sup at most
    sec(pi k / n) times its largest value on the grid (Ehlich & Zeller 1964;
    cos k theta offset by half a step attains it when 2 k divides n), so each
    grid maximum times that factor, k its residual's degree, is a bound, not
    a sample.  A 1 x 1 A is its own determinant: LAPACK's goes through the
    log-determinant, and det A = a then holds exactly.  det A is one FFT of
    its grid values (n > d deg A); the split points are divided out of it,
    and `_outer_gap` counts its zeros in the closed disk."""
    d = B.dim
    ks = np.array([max(a.degree, B.degree), max(A.degree, B.degree), max(d * A.degree, a.degree)])
    n = pow2_at_least(4 * max(ks.max(), 1) + 1)
    bv, av, Av = (circle_eval(c, n) for c in (B.coeffs, a.coeffs, A.coeffs))
    mate = np.abs(np.abs(av) ** 2 + (np.abs(bv) ** 2).sum(axis=1) - 1.0).max()
    ident = np.conj(Av).swapaxes(1, 2) @ Av + np.conj(bv)[:, :, None] * bv[:, None, :]
    dets = Av[:, 0, 0] if d == 1 else np.linalg.det(Av)
    det = det_coeffs(Av, dets, d * max(A.degree, 0) + 1)
    for w in splits:
        det = _divide_one_minus(det, 1 / w)
    sups = np.array([mate, np.abs(ident - np.eye(d)).max(), np.abs(dets - av).max()])
    return (*(sups / np.cos(np.pi * ks / n)).tolist(), _outer_gap(det))


def _completion(B: RowSchur, a: CPoly, splits) -> MatPoly:
    """The outer factor A of I - B*B from the mate a and the split points
    of its run by the lossless completion of the reversed row p = (a~, B),
    a~(z) = z^q conj(a(1 / conj(z))), pp* = 1.

    Sections: p <- p (I - uu* + uu* / z), u = p_q* / |p_q|, the top
    eigenvector of p_q* p_q - p_0* p_0 (p_0 p_q* = 0), lower deg p from q to
    0.  |p_q| starts at |(a(0), B_q)| >= a(0) > 0 and never falls: the next
    top p_{q-1} (I - uu*) + |p_q| u* is the sum of two orthogonal parts.
    Completion: a unitary with the unit row left as its first row, times
    the inverse sections in reverse order, is paraunitary with first row p
    (Vaidyanathan, Multirate Systems and Filter Banks, ch. 14); its
    lower-right block A has A*A = I - B*B and, on the circle,
    det A = c z^q conj(a~) = c a, so A is outer as it stands.
    The zeros on the circle stay, but q sections leave them only to
    rounding, which sweeps to high order amplify: each is seated in place,
    Av <- (1 - z / w) g with g = Av / (1 - z / w) and v the null vector of
    A(w), so A(w) v = 0 exactly.  `_polar` makes A(0) positive definite.
    A has degree at most q; `_identities` certifies it.
    """
    a, d = a.coeffs, B.dim
    q = max(B.degree, a.shape[0] - 1)
    p = np.zeros((q + 1, d + 1), dtype=complex)
    p[q + 1 - a.shape[0] :, 0] = np.conj(a[::-1])
    p[: B.coeffs.shape[0], 1:] = B.coeffs
    sections = []
    for _ in range(q):
        u = np.conj(p[-1]) / np.linalg.norm(p[-1])
        pu = p @ u
        p = p[:-1] + np.outer(pu[1:] - pu[:-1], np.conj(u))
        sections.append(u)
    # QR puts r* in column 0 of Q, up to a phase: the others give the rows
    U = np.zeros((q + 1, d, d + 1), dtype=complex)
    U[0] = np.conj(np.linalg.qr(np.conj(p[0])[:, None], mode="complete")[0][:, 1:].T)
    for k, u in enumerate(reversed(sections)):
        xu = (U[: k + 1] @ u)[..., None] * np.conj(u)
        U[: k + 1] -= xu
        U[1 : k + 2] += xu
    A = U[:, :, 1:]
    for w in splits:
        if abs(w) - 1 <= UNIMODULAR_TOL:
            v = np.conj(np.linalg.svd(horner(A, w))[2][-1])
            av = A @ v
            g = _divide_one_minus(av, 1 / w)
            A -= av[..., None] * np.conj(v)
            A[:-1] += g[..., None] * np.conj(v)
            A[1:] -= (g / w)[..., None] * np.conj(v)
    return _polar(A)


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


# phi(w) below this fraction of the largest value of phi on the circle is a
# zero
_NULL_REL = 1e-8
# n points alias a factor with no zero within 1 + _RESOLVE / n by at most
# (1 + _RESOLVE / n)^-n < 2.4e-15 (n >= 256; e^-36 as n grows): the grid's
# certificate.  Zeros nearer than what 4096 points resolve are split off
_RESOLVE = 36.0
_NEAR = _RESOLVE / 4096


def wilson_report(phi: LaurentHerm) -> FactorReport:
    """Outer factor a with |a|^2 = phi: split circle zeros off, grid the rest.

    At each zero w of phi on the circle or within the split radius
    _NEAR = 36 / 4096 outside it, the factor 1 - z / w is split off:
    phi = |1 - z / w|^2 phi1 with phi1 again Hermitian Laurent, of
    half-degree one less (Youla-Kazanjian), repeated while |phi1(w)| stays
    at the null floor, both from `_boundary_zeros`, which raises
    NotPositive where phi dips below -PSD_SLACK on the circle, and
    MateUndefined where it stays below 0 on the whole circle.  A pass on n
    grid points factors the strictly positive phi1 by its cepstral factor
    a1 = exp [log phi1]_+ (Kolmogorov; `_grid_pass`), a fixed point of Wilson's
    Newton map a1 <- [phi1 / |a1|^2 + 1]_+ a1, since |a1|^2 = phi1 on the
    grid.  a = a1 (1 - z / w_1) ... (1 - z / w_k), trimmed to degree m,
    keeps a(0) = a1(0) > 0.  The residual is checked against phi.  The
    first grid, n0 = max(8 m1 + 1 rounded up to a power of 2, 256) points
    for phi1 of half-degree m1, holds the coefficients of a1.  It grows
    four-fold, up to max(2^16, 8 n0) points, until a pass is certified: its
    residual is at most BEST_FACTOR_TOL, and a1 has no zero within
    1 + _RESOLVE / n (`_zero_free`): n points alias it at rounding.  The
    certified pass, else the one of least residual, is returned when its
    residual is at most BEST_FACTOR_TOL, with fallback set above
    ENGINE_TOL; else FactorizationDiverged carries its report.  outer_gap
    is the outer gap of a1 (`_outer_gap`), exactly 0.0 when a1 has no zero
    in the closed disk: each factor 1 - z / w_k with |w_k| >= 1 has gap 0.
    """
    zeros, floor = _boundary_zeros(phi)
    m = phi.half_degree
    phi1, splits = phi, []
    for w in zeros:
        # each split lowers the half-degree: at most m factors split off
        while phi1.half_degree > 0 and abs(phi1(w)) <= floor:
            splits.append(w)
            phi1 = _split_off(phi1, w)
    m1 = phi1.half_degree
    n0 = max(pow2_at_least(8 * max(m1, 1) + 1), 256)
    trace: list[float] = []  # the residual of each pass
    best, n = (np.inf, None, None, n0), n0
    while True:
        _check_size(n, f"factorization grid of {n} points")
        a1 = _grid_pass(phi1, n)
        coeffs = c1 = a1.coeffs
        for w in reversed(splits):
            coeffs = np.append(coeffs, 0) - np.append(0, coeffs) / w
        factor = CPoly(coeffs[: m + 1])
        resid = factor_residual(factor, phi)
        trace.append(resid)
        certified = resid <= BEST_FACTOR_TOL and _zero_free(
            c1 * (1 + _RESOLVE / n) ** np.arange(c1.shape[0]))
        if certified or resid < best[0]:
            best = (resid, factor, a1, n)
        if certified or n >= max(1 << 16, 8 * n0):
            break
        n *= 4
    report = None if best[1] is None else FactorReport(
        best[1], best[0], _outer_gap(best[2].coeffs), len(trace), best[3],
        tuple(splits), fallback=best[0] > ENGINE_TOL)
    if best[0] <= BEST_FACTOR_TOL:
        return report
    raise FactorizationDiverged(
        f"residual {best[0]:.3e} after {len(trace)} passes (grid up to {n})",
        residual_trace=trace, best=report)


def _zero_free(p: np.ndarray) -> bool:
    """Whether p has no zero in the closed disk: the Schur-Cohn step
    p <- p - k p~, k = p_m / conj(p_0), p~ = conj(p[::-1]), drops the top
    coefficient and keeps the count of zeros there while |k| < 1 (Rouche;
    |p~| = |p| on the circle), and every |k| < 1 exactly when it is 0
    (Schur, Cohn).  O(m^2) flops on Python scalars; numpy's are 4x slower."""
    q = p.tolist()
    while len(q) > 1:
        if abs(q[-1]) >= abs(q[0]):
            return False
        k = q[-1] / q[0].conjugate()
        q = [x - k * y.conjugate() for x, y in zip(q[:-1], reversed(q[1:]))]
    return True


def _outer_gap(p: np.ndarray) -> float:
    """Jensen's gap |log|p(0)| - mean of log|p| on the circle|: 0.0 when
    `_zero_free` finds no zero in the closed disk, else `_roots_gap`; inf
    when p(0) = 0, p is empty (the zero polynomial) or p is not finite.
    Top coefficients at or below 1e-14 max |p| are trimmed first (det A's
    beyond deg a are rounding)."""
    top = float(np.abs(p).max(initial=0.0))
    c = p.tolist()
    while len(c) > 1 and abs(c[-1]) <= 1e-14 * top:
        c.pop()
    if not (c and c[0] and np.isfinite(top)):
        return float("inf")
    return 0.0 if _zero_free(p[: len(c)]) else _roots_gap(CPoly(c))


def _boundary_zeros(phi: LaurentHerm):
    """Zeros w of phi on or near the circle, and the floor for nulls.

    phi is a nonnegative trigonometric polynomial.  A grid minimum, refined
    by Newton on the angle, that vanishes at rounding scale is a zero on the
    circle; a positive one comes from zeros w, 1/conj(w) about
    sqrt(2 value / curvature) off the circle, and when that is below _NEAR
    Newton in the plane finds the w with |w| > 1.  A minimum whose parabola
    through its three grid values puts that pair twice _NEAR off the circle
    skips the angle Newton.  The null floor is relative to the largest
    value of phi on the circle.  A value below -PSD_SLACK on the grid (of
    at least 1024 points) raises NotPositive first, and a grid maximum
    below 0, phi negative everywhere within the slack, MateUndefined: phi
    vanishes there, as a defect 1 - BB* that is 0 identically does.
    """
    m = phi.half_degree
    n = pow2_at_least(max(8 * m + 1, 1024))
    vals = circle_eval(phi.coeffs, n, low=-m).real
    if vals.min() < -PSD_SLACK:
        raise NotPositive(f"density dips to {vals.min():.3e} on the circle")
    top = float(vals.max())
    if top < 0:
        raise MateUndefined(f"density is at most {top:.3e} on the circle: it vanishes"
                            " within the positivity slack")
    floor = _NULL_REL * top
    if not top:
        return [], floor
    out: list[complex] = []
    minima = (vals < np.roll(vals, 1)) & (vals < np.roll(vals, -1))
    for j in np.nonzero(minima)[0]:
        # parabola v + c x^2 / 2 through the grid values at j - 1, j, j + 1:
        # its zero pair sits sqrt(2 v / c) off the circle
        lo, mid, hi = vals[j - 1], vals[j], vals[(j + 1) % n]
        bend = lo - 2 * mid + hi
        c = bend * (n / (2 * np.pi)) ** 2
        v = mid - (hi - lo) ** 2 / (8 * bend)
        if v > 1e-10 * top and 2 * v >= 4 * _NEAR ** 2 * c:
            continue
        theta = _refine_boundary_angle(phi.coeffs, 2.0 * np.pi * j / n)
        value, _, curv = angle_derivatives(phi.coeffs, theta)
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
    """Newton z <- z - phi(z) / phi'(z) on phi; the root with |w| > 1."""
    c = phi.coeffs
    ks = np.arange(c.shape[0]) - phi.half_degree
    for _ in range(50):
        zk = z ** ks
        step = (zk @ c) / ((ks * zk / z) @ c)
        z -= step
        if not abs(step) > 1e-15 * abs(z):
            break
    return z if abs(z) >= 1 else 1 / np.conj(z)


def _split_off(phi: LaurentHerm, w: complex) -> LaurentHerm:
    """phi / |1 - z / w|^2, with phi(w) = 0.

    On the circle |1 - z / w|^2 = (1 - z / w) (1 - 1 / (conj(w) z)), and
    both divisions are exact: phi vanishes at w, and phi / (1 - z / w) at
    1/conj(w), because phi(1/conj(w)) = conj(phi(w)) there.
    """
    g = _divide_one_minus(phi.coeffs, 1 / w)  # powers -m .. m-1
    # 1 - 1/(conj(w) z) = -(1 - conj(w) z) / (conj(w) z): powers -m+1 .. m-1
    return LaurentHerm(-np.conj(w) * _divide_one_minus(g, np.conj(w)))


def _grid_pass(phi: LaurentHerm, n: int) -> CPoly:
    """The cepstral factor exp [log phi]_+ on n points, |a|^2 = phi there
    ([.]_+ keeps the analytic half, constant and Nyquist terms halved), as
    coefficients 0..m off the half-sample offset grid, turned so that
    a(0) > 0; phi is clamped to eps times its scale, and one that vanishes
    identically raises SingularIterate."""
    m = phi.half_degree
    vals = circle_eval(phi.coeffs, n, 0.5, -m).real
    scale = np.abs(vals).max()
    if not scale:
        raise SingularIterate("density vanishes identically on the circle")
    half = np.where(np.arange(n) < n // 2, 1.0, 0.0)
    half[[0, n // 2]] = 0.5
    logs = np.log(np.maximum(vals, np.finfo(float).eps * scale))
    a_grid = np.exp(np.fft.ifft(np.fft.fft(logs) * half))
    coeffs = np.fft.fft(a_grid)[: m + 1] / n * np.exp(-1j * np.pi * np.arange(m + 1) / n)
    if not coeffs[0]:
        raise SingularIterate("constant coefficient of the factor is singular")
    return CPoly(coeffs * (abs(coeffs[0]) / coeffs[0]))


def _polar(coeffs: np.ndarray) -> MatPoly:
    """A <- U A, U unitary, making A(0) its polar part."""
    a0 = coeffs[0]
    w, v = np.linalg.eigh(np.conj(a0).T @ a0)
    if w.min() <= 0:
        raise SingularIterate("constant coefficient of the factor is singular")
    h = (v * np.sqrt(w)) @ np.conj(v).T
    u = np.conj(a0 @ np.linalg.inv(h)).T
    return MatPoly(np.einsum("ij,kjl->kil", u, coeffs))


def factor_residual(a: CPoly, phi: LaurentHerm) -> float:
    """max of ||a(z)|^2 - phi(z)| on at least 512 circle points: a sample, whose
    floor keeps `wilson_report`'s fallback test against ENGINE_TOL steady."""
    n = max(512, pow2_at_least(4 * max(a.degree, phi.half_degree) + 1))
    av = circle_eval(a.coeffs, n)
    pv = circle_eval(phi.coeffs, n, low=-phi.half_degree)
    return float(np.abs(np.conj(av) * av - pv).max())


def outer_check(A: MatPoly | CPoly) -> float:
    """Outerness gap of det A through its roots (`_roots_gap`): the circle
    mean of log|z - r| is log max(|r|, 1), so Jensen's gap is
    -sum_{|r|<1} log|r| exactly.  The tests' independent oracle for
    `_outer_gap`; a determinant that vanishes identically, or at more than
    a tenth of its grid points, raises DegenerateDeterminant."""
    det = A if isinstance(A, CPoly) else A.det_poly()
    if det.is_zero:
        raise DegenerateDeterminant("determinant vanishes identically")
    n = pow2_at_least(max(4 * det.degree + 1, 512))
    vals = np.abs(circle_eval(det.coeffs, n))
    excluded = int((vals < 1e-13 * max(1.0, vals.max())).sum())
    if excluded > 0.10 * n:
        raise DegenerateDeterminant(f"{excluded}/{n} circle points have vanishing determinant")
    return _roots_gap(det)


def _roots_gap(det: CPoly) -> float:
    """-sum_{|r|<1} log|r| over the roots r of det, with multiplicity; inf
    when det(0) = 0."""
    with np.errstate(divide="ignore"):
        return float(-sum(m * np.log(abs(r)) for r, m in poly_roots(det) if abs(r) < 1))
