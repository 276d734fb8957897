import mpmath
import numpy as np
import pytest

from dbrov import (
    CPoly,
    MatPoly,
    RowSchur,
    Tolerances,
    caratheodory,
    clark,
    cyclicity,
    fixture,
    make_context,
)
from dbrov import boundary
from dbrov.errors import (
    BoundaryNotRegular,
    DegenerateSymbol,
    DomainError,
    HigherOrderBoundaryZero,
    NonpositiveMass,
    NotPositive,
    NumericsError,
    ValidationError,
)
from dbrov.space import SpaceContext
from dbrov.tolerances import UNIMODULAR_TOL
from dbrov.verify import clark_imbalance

from conftest import assert_close, circle_grid, trunc_limit_pairing, trunc_limit_slope
from test_random_rows import random_row, sup_angle


def _hand_context(B: RowSchur, Lambda) -> SpaceContext:
    """A context around B with the given spectrum and a trivial factor."""
    return SpaceContext(B, CPoly([1.0]), MatPoly.identity(1), Lambda,
                        Tolerances(), {"A0_cond": 1.0})


class TestCaratheodory:
    def test_sarason_at_one(self, ctx_sarason):
        rep = caratheodory(ctx_sarason, 1.0)
        assert rep.satisfies_caratheodory
        assert_close(rep.boundary_vector, [1.0], 1e-12)
        assert abs(rep.k_norm_sq_exact - 0.5) < 1e-12
        assert abs(rep.k_norm_sq_lhopital - 0.5) < 1e-12
        assert abs(rep.k_norm_sq_radial - 0.5) < 1e-4
        assert abs(rep.clark_mass - 2.0) < 1e-8

    def test_row2_at_one(self, ctx_row2):
        rep = caratheodory(ctx_row2, 1.0)
        assert rep.satisfies_caratheodory
        assert_close(rep.boundary_vector,
                     [1 / np.sqrt(2), 1 / np.sqrt(2)], 1e-10)
        assert abs(rep.k_norm_sq_exact - 1.25) < 1e-10
        assert abs(rep.k_norm_sq_lhopital - 1.25) < 1e-10
        assert abs(rep.k_norm_sq_radial - 1.25) < 1e-4
        assert abs(rep.clark_mass - 0.8) < 1e-8

    def test_row2_off_spectrum(self, ctx_row2):
        rep = caratheodory(ctx_row2, -1.0)
        assert not rep.satisfies_caratheodory
        # the mate does not vanish there
        assert abs(ctx_row2.a(-1.0)) > 0.5

    def test_interior_point_rejected(self, ctx_row2):
        with pytest.raises(ValidationError):
            caratheodory(ctx_row2, 0.5)

    def test_three_way_agreement(self, ctx_sarason, ctx_row2):
        for ctx in (ctx_sarason, ctx_row2):
            for lam, _ in ctx.Lambda:
                rep = caratheodory(ctx, lam)
                assert abs(rep.k_norm_sq_exact - rep.k_norm_sq_lhopital) <= 1e-8
                assert abs(rep.k_norm_sq_exact - rep.k_norm_sq_radial) <= 1e-4

    @pytest.mark.parametrize("seed,d,q,eps", [(1, 2, 4, 1e-11), (7, 1, 4, 1e-11),
                                              (7, 2, 8, 1e-11), (7, 1, 4, 1e-12)])
    def test_near_touch_points_report_their_mass(self, seed, d, q, eps):
        # the Clark measure of these rows fails its Herglotz check; the mass
        # comes from the derivative limit, with no measure built
        ctx = make_context(random_row(np.random.default_rng(seed), d, q, 1.0 - eps))
        assert ctx.Lambda
        for lam, _ in ctx.Lambda:
            rep = caratheodory(ctx, lam)
            assert rep.satisfies_caratheodory
            assert rep.clark_mass == 1.0 / rep.k_norm_sq_lhopital
            assert abs(rep.k_norm_sq_exact * rep.clark_mass - 1.0) <= 1e-8

    def test_unimodular_value_off_spectrum_refused(self):
        # |B(1)| = 1, but the context's spectrum is empty
        ctx = _hand_context(RowSchur([[0.5], [0.5]]), [])
        with pytest.raises(BoundaryNotRegular):
            caratheodory(ctx, 1.0)

    def test_complex_derivative_limit_refused(self):
        # b(z) = B(z) B(1)* = (1 + iz)(1 - i)/4 has slope (1 + i)/4 at z = 1
        ctx = _hand_context(RowSchur([[0.5], [0.5j]]), [(1.0 + 0j, 1)])
        with pytest.raises(NumericsError, match="not real"):
            caratheodory(ctx, 1.0)


SQ2, SQ3 = np.sqrt(2.0), np.sqrt(3.0)
# a = (1 - z)^2 / 8 has 1 - |a|^2 = (6 + z + 1/z)(10 - z - 1/z) / 64 on the
# circle, whose outer Fejer-Riesz factor is b below: its zeros -(SQ2 + 1)^2
# and (SQ3 + SQ2) / (SQ3 - SQ2) lie outside the disk, and b(1) = 1
DOUBLE_B = np.convolve([SQ2 + 1, SQ2 - 1], [SQ3 + SQ2, SQ2 - SQ3]) / 8


class TestDoubleMember:
    """A member of Lambda of multiplicity 2: the mate (1 - z)^2 / 8 has a
    double zero at 1, split off twice at one point."""

    @pytest.fixture(params=[1, 2], ids=["d1", "d2"])
    def ctx(self, request):
        # (b, b) / sqrt 2 has the same scalar defect as b
        rows = np.column_stack([DOUBLE_B] * request.param) / np.sqrt(request.param)
        return make_context(RowSchur(rows))

    def test_closed_form_pair(self):
        z = circle_grid(64)
        b = np.polyval(DOUBLE_B[::-1], z)
        assert np.abs(np.abs((1 - z) ** 2 / 8) ** 2 + np.abs(b) ** 2 - 1).max() <= 1e-15

    def test_spectrum_and_mate(self, ctx):
        assert ctx.Lambda == ((1, 2),)
        assert ctx.reports["boundary_deflations"] == 2
        assert ctx.reports["factor_fallback"] == ctx.reports["mate_fallback"] == 0.0
        assert_close(ctx.a.coeffs, [1 / 8, -1 / 4, 1 / 8], 1e-12, "mate")

    def test_kernel_norm_is_the_angular_derivative(self, ctx):
        # ||K_1||^2 = B'(1) B(1)* = b'(1) = (4 - sqrt 2 - sqrt 6) / 4
        want = (4 - SQ2 - np.sqrt(6.0)) / 4
        rep = caratheodory(ctx, 1)
        assert rep.satisfies_caratheodory
        assert abs(rep.k_norm_sq_exact - want) <= 1e-12
        assert abs(rep.k_norm_sq_lhopital - want) <= 1e-12

    def test_cyclicity(self, ctx):
        assert not cyclicity(ctx, CPoly([1.0, -1.0])).verdict
        assert cyclicity(ctx, CPoly([2.0, -1.0])).verdict


class TestClark:
    def test_sarason_unit_direction(self, ctx_sarason):
        mu = clark(ctx_sarason, [1.0])
        assert len(mu.point_masses) == 1
        lam, mass = mu.point_masses[0]
        assert abs(lam - 1.0) < 1e-10
        assert abs(mass - 2.0) < 1e-9
        # measured exactly 1, next to the atom too
        zeta = np.concatenate([circle_grid(64), np.exp(1j * np.array([1e-3, -1e-6]))])
        assert_close(mu.density(zeta), np.ones(66), 1e-15)
        assert abs(mu.total_mass - 3.0) < 1e-6
        assert mu.imag_const == 0.0

    def test_row2_boundary_direction(self, ctx_row2):
        mu = clark(ctx_row2, ctx_row2.B(1.0))
        assert abs(mu.mass_at(1.0) - 0.8) < 1e-9
        assert abs(mu.total_mass - 5.0 / 3.0) < 1e-6
        assert abs(mu.ac_mass - 13.0 / 15.0) < 1e-15  # measured 1.1e-16

    @pytest.mark.parametrize("xi", [[np.nan, 0.0], [0.5, np.inf]])
    def test_non_finite_direction_rejected(self, ctx_row2, xi):
        with pytest.raises(ValidationError):
            clark(ctx_row2, xi)

    def test_zero_direction_is_lebesgue(self, ctx_row2):
        mu = clark(ctx_row2, [0.0, 0.0])
        assert mu.point_masses == ()
        assert_close(mu.density(circle_grid(16)), np.ones(16), 1e-12)
        assert abs(mu.total_mass - 1.0) < 1e-12

    def test_long_direction_rejected(self, ctx_row2):
        with pytest.raises(ValidationError):
            clark(ctx_row2, [1.0, 1.0])

    def test_wrong_dimension_rejected(self, ctx_row2):
        with pytest.raises(ValidationError, match="dimension"):
            clark(ctx_row2, [1.0])

    def test_negative_slope_refused(self):
        # b = 2 - z equals 1 at z = 1 with slope -1, so the mass would be -1;
        # tol_psd = 2 admits the row although sup |B| = 3
        ctx = _hand_context(RowSchur([[2.0], [-1.0]], tol_psd=2.0), [(1.0 + 0j, 1)])
        with pytest.raises(NonpositiveMass):
            clark(ctx, [1.0])

    def test_negative_density_refused(self):
        # |b| = 3/2 on the whole circle, so (1 - |b|^2)/|1 - b|^2 < 0
        ctx = _hand_context(RowSchur([[1.5]], tol_psd=1.0), [])
        with pytest.raises(NotPositive):
            clark(ctx, [1.0])

    def test_degenerate_symbol(self):
        ctx = SpaceContext(RowSchur([[1.0]]), CPoly([1.0]),
                           MatPoly.identity(1), [], Tolerances(),
                           {"A0_cond": 1.0})
        with pytest.raises(DegenerateSymbol):
            clark(ctx, [1.0])

    def test_higher_order_boundary_zero(self):
        # 1 - b = c (1 - z)^2 has a double zero at z = 1; the row passes the
        # Schur check because the bump is below tolerance
        c = 1e-9
        B = RowSchur([[1.0 - c], [2 * c], [-c]])
        ctx = SpaceContext(B, CPoly([1.0]), MatPoly.identity(1), [],
                           Tolerances(), {"A0_cond": 1.0})
        with pytest.raises(HigherOrderBoundaryZero):
            clark(ctx, [1.0])


def _herglotz_transform(mu, z):
    """i Im h(0) plus the Herglotz integral of (zeta + z)/(zeta - z) against
    mu, at each z: an atom gives m (lam + z)/(lam - z), and the density,
    Re F on the circle for F = ac mass + sum_w (P_w - P_w(0)) analytic on
    the closed disk and real at 0, gives F(z)."""
    out = 1j * mu.imag_const + mu.ac_mass + np.zeros_like(z)
    for lam, m in mu.point_masses:
        out += m * (lam + z) / (lam - z)
    for w, c in mu.poles:
        for j, cj in enumerate(c, 1):
            out += cj * ((z - w) ** -j - (-w) ** -j)
    return out


def _herglotz_error(mu, z):
    """Largest error of the Herglotz transform against (1 + b)/(1 - b),
    relative to the latter."""
    b = mu.symbol(z)
    want = (1.0 + b) / (1.0 - b)
    return float(np.max(np.abs(_herglotz_transform(mu, z) - want) / np.abs(want)))


@pytest.mark.parametrize("name", ["ZERO", "SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)",
                                  "touching (3, 6)", "contractive (4, 8)"])
def test_herglotz_series_matches_grid_loop(name, all_contexts):
    # measured worst 1.1e-15
    if name in all_contexts:
        ctx = all_contexts[name]
    else:
        d, q, sup = (3, 6, 1.0) if name.startswith("touching") else (4, 8, 0.9)
        ctx = make_context(random_row(np.random.default_rng(5), d, q, sup))
    rng = np.random.default_rng(11)
    xis = [np.zeros(ctx.dim)] + [ctx.B(lam) for lam, _ in ctx.Lambda]
    for _ in range(3):
        v = rng.normal(size=ctx.dim) + 1j * rng.normal(size=ctx.dim)
        xis.append(rng.uniform(0.1, 0.97) * v / np.linalg.norm(v))
    for xi in xis:
        assert _herglotz_error(clark(ctx, xi), boundary._PROBE_POINTS) <= 1e-13, name


def _compose(B: RowSchur, k: int) -> RowSchur:
    """The row B(z^k): coefficient rows spread k apart."""
    c = np.zeros((k * B.degree + 1, B.dim), dtype=complex)
    c[::k] = B.coeffs
    return RowSchur(c)


def _atom_order(lam):
    return (round(lam.real, 9), lam.imag)


def _clark_atoms_50_digits(b: CPoly):
    """Unimodular roots r of 1 - b and the masses conj(r)/b'(r), in 50 digits."""
    with mpmath.workdps(50):
        one_minus = [mpmath.mpc(complex(c)) for c in (1.0 - b).coeffs[::-1]]
        db = [mpmath.mpc(complex(c)) for c in b.derivative().coeffs[::-1]]
        atoms = []
        for r in mpmath.polyroots(one_minus, maxsteps=200, extraprec=200):
            if abs(abs(r) - 1) <= UNIMODULAR_TOL:
                mass = mpmath.conj(r) / mpmath.polyval(db, r)
                atoms.append((complex(r), complex(mass)))
    return sorted(atoms, key=lambda t: _atom_order(t[0]))


def _sup_direction(B: RowSchur):
    """B/|B| at the angle where |B| attains its sup."""
    v = B(np.exp(1j * sup_angle(B.coeffs)))
    return v / np.linalg.norm(v)


def _density_50_digits(c, thetas):
    """(1 - |b|^2)/|1 - b|^2 and |1 - b|^2 at exp(i theta) in 50 digits, for
    b with the ascending mpmath coefficients c."""
    with mpmath.workdps(50):
        out = []
        for t in thetas:
            v = mpmath.polyval(c[::-1], mpmath.expjpi(mpmath.mpf(float(t)) / mpmath.pi))
            out.append((float((1 - abs(v) ** 2) / abs(1 - v) ** 2), float(abs(1 - v) ** 2)))
    return np.array(out).T


def _symbol_50_digits(B: RowSchur, xi):
    """The coefficients of B xi^*, summed in 50 digits."""
    with mpmath.workdps(50):
        return [mpmath.fsum(mpmath.mpc(complex(bi)) * mpmath.conj(mpmath.mpc(complex(x)))
                            for bi, x in zip(row, xi)) for row in B.coeffs]


# (seed, d, q, eps): rows touching within eps, with a density peak about eps
# wide at the sup angle
NEAR_TOUCH_ROWS = [(seed, d, q, eps) for eps in (1e-8, 1e-9, 1e-10) for d in (1, 2, 4)
                   for q in (4, 8, 16) for seed in (1, 2)]


class TestClarkOracles:
    @pytest.mark.parametrize("name,mass", [("SARASON", 2.0), ("ROW2", 0.8)])
    @pytest.mark.parametrize("k", [2, 3, 5, 6])
    def test_composed_fixtures(self, name, mass, k):
        # b(z^k) = 1 at every k-th root of unity lam, where the chain rule
        # gives lam (b(z^k))' = k b'(1): the mass at 1 divided by k
        B = _compose(fixture(name).B, k)
        mu = clark(make_context(B), B(1.0))
        want = sorted(np.exp(2j * np.pi * np.arange(k) / k), key=_atom_order)
        assert len(mu.point_masses) == k
        for (lam, m), w in zip(mu.point_masses, want):
            assert abs(lam - w) <= 1e-12
            assert abs(m - mass / k) <= 1e-12 * mass / k

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("d,q", [(1, 4), (1, 8), (2, 4), (2, 8), (3, 6),
                                     (3, 8)])
    def test_touching_rows_against_50_digit_roots(self, d, q, seed):
        ctx = make_context(random_row(np.random.default_rng(seed), d, q, 1.0))
        assert ctx.Lambda
        for lam, _ in ctx.Lambda:
            xi = ctx.B(lam)
            got = clark(ctx, xi).point_masses
            want = _clark_atoms_50_digits(ctx.B.pair(xi))
            assert len(got) == len(want)
            for (point, mass), (w_point, w_mass) in zip(got, want):
                assert abs(point - w_point) <= 1e-12
                assert abs(mass - w_mass) <= 1e-12 * abs(w_mass)

    @pytest.mark.parametrize("eps", [1e-8, 1e-9, 1e-10])
    @pytest.mark.parametrize("seed", range(1, 9))
    @pytest.mark.parametrize("d,q", [(1, 4), (2, 4), (2, 8), (3, 6)])
    def test_near_touch_atoms_lie_in_spectrum(self, d, q, seed, eps):
        # the true measure has no atom here, only a narrow peak near the
        # point where |B| comes within eps of 1
        B = random_row(np.random.default_rng(seed), d, q, 1.0 - eps)
        ctx = make_context(B)
        mu = clark(ctx, _sup_direction(B))
        for point, _ in mu.point_masses:
            gap = min((abs(point - lam) for lam, _ in ctx.Lambda), default=np.inf)
            assert gap <= UNIMODULAR_TOL


    @pytest.mark.parametrize("seed,d,q,eps", NEAR_TOUCH_ROWS)
    def test_near_touch_peaks_in_closed_form(self, seed, d, q, eps):
        # measured worst: transform 1.4e-13, total mass 1.3e-15
        B = random_row(np.random.default_rng(seed), d, q, 1.0 - eps)
        mu = clark(make_context(B), _sup_direction(B))
        peaks = np.array([w / abs(w) for w, _ in mu.poles if abs(w) < 1.0 + 1e-6])
        assert peaks.size
        z = np.concatenate([boundary._PROBE_POINTS, 0.999 * circle_grid(8),
                            0.99 * peaks, 0.999 * peaks])
        assert _herglotz_error(mu, z) <= 1e-12
        assert clark_imbalance(mu) <= 1e-12

    @pytest.mark.parametrize("seed,d,q,eps", [(1, 2, 4, 1e-11), (7, 1, 4, 1e-11),
                                              (7, 2, 8, 1e-11), (7, 1, 4, 1e-12)])
    def test_spectrum_directions_touching_within_1e_11(self, seed, d, q, eps):
        # b(lam) = 1 - delta with delta = 2 eps, inside UNIMODULAR_TOL, so the
        # atom at lam stands in for a peak about delta wide, and the total
        # mass misses Re h(0) by about delta (measured 1.2 delta)
        ctx = make_context(random_row(np.random.default_rng(seed), d, q, 1.0 - eps))
        (lam, _), = ctx.Lambda
        mu = clark(ctx, ctx.B(lam))
        assert [point for point, _ in mu.point_masses] == [lam]
        delta = abs(1.0 - mu.symbol(lam))
        assert delta <= 3 * eps
        assert clark_imbalance(mu) <= 1e-12 + 2 * delta

    @pytest.mark.parametrize("coeffs,xi", [([[0.7], [0.3], [-0.075]], [1.0]),
                                           ([[0.7, 0.0], [0.3, 0.1], [-0.075, 0.0]],
                                            [1.0, 0.0])])
    def test_double_exterior_pole(self, coeffs, xi):
        # 1 - b = 0.075 (z - 2)^2, so 2/(1 - b) = (80/3)/(z - 2)^2 and the
        # measure is absolutely continuous with mass Re h(0) = 17/3
        mu = clark(make_context(RowSchur(coeffs)), xi)
        assert mu.point_masses == ()
        (w, c), = mu.poles
        assert abs(w - 2.0) <= 1e-12
        assert_close(c, [0.0, 80.0 / 3.0], 1e-12)
        assert abs(mu.total_mass - 17.0 / 3.0) <= 1e-12
        assert _herglotz_error(mu, boundary._PROBE_POINTS) <= 1e-13

    @pytest.mark.parametrize("case", ["SARASON", "ROW2", (1, 1, 4, 1e-10),
                                      (2, 2, 8, 1e-10), (1, 4, 16, 1e-9)])
    def test_density_against_50_digits(self, case):
        # next to an atom the density is exact to rounding (measured 2.5e-16).
        # Near a peak the density Re 2/(1 - b) - 1 moves by |2 db/(1 - b)^2|
        # under a rounding db of b, so its error is measured in units of
        # 1/|1 - b|^2: at most 1.4e-15 of them, as for the ratio evaluated in
        # double (1.2e-15)
        if case == "SARASON":
            ctx, xi, c = make_context(fixture(case).B), [1.0], [mpmath.mpf(0.5)] * 2
        elif case == "ROW2":
            # B(1) B(1)^* = 1 exactly: b = (1 + z)/4 + z^2/2
            ctx = make_context(fixture(case).B)
            xi, c = ctx.B(1.0), [mpmath.mpf(1) / 4, mpmath.mpf(1) / 4, mpmath.mpf(1) / 2]
        else:
            seed, d, q, eps = case
            B = random_row(np.random.default_rng(seed), d, q, 1.0 - eps)
            ctx, xi = make_context(B), _sup_direction(B)
            c = _symbol_50_digits(B, xi)
        mu = clark(ctx, xi)
        step = 2 * np.pi / 16384
        near = step * np.array([-3, -2, -1, 1, 2, 3, -1e-2, 1e-2, -10, 10])
        centers = [(lam, 0.0) for lam, _ in mu.point_masses]
        centers += [(w, abs(w) - 1.0) for w, _ in mu.poles if abs(w) < 1.0 + 1e-6]
        assert centers
        for w, width in centers:
            offsets = near if not width else np.concatenate(
                [near, width * np.array([0.0, -10, -1, -0.1, 0.1, 1, 10])])
            theta = np.angle(w) + offsets
            zeta = np.exp(1j * theta)
            want, gap = _density_50_digits(c, theta)
            err = np.abs(mu.density(zeta) - want)
            if not width:
                assert np.max(err / want) <= 1e-15, case
            else:
                assert np.max(err * gap) <= 1e-14, case


class TestTruncLimit:
    def test_boundary_value(self):
        assert abs(trunc_limit_pairing(1.0) - 1.0) < 1e-15

    def test_origin_value(self):
        assert abs(trunc_limit_pairing(0.0) - 0.25) < 1e-15

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            trunc_limit_pairing(2.0)

    def test_slope_closed_form(self):
        assert abs(trunc_limit_slope() - 1.75) < 1e-10

    def test_slope_radial(self):
        assert abs(trunc_limit_slope(radial=True) - 1.75) < 1e-4

    def test_mass_reciprocal(self):
        assert abs(1.0 / trunc_limit_slope() - 4.0 / 7.0) < 1e-10

    def test_truncations_approach_limit(self):
        from dbrov.fixtures import fixture
        z = 0.7 * np.exp(0.9j)
        prev = np.inf
        for d in (4, 8, 12):
            B = fixture(f"TRUNC({d})").B
            b1 = B(1.0)
            pairing = B(z) @ np.conj(b1)
            err = abs(pairing - trunc_limit_pairing(z))
            assert err < prev
            prev = err
