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
    fixture,
    make_context,
    trunc_limit_pairing,
    trunc_limit_slope,
)
from dbrov import boundary
from dbrov.errors import (
    BoundaryNotRegular,
    DbrovError,
    DegenerateSymbol,
    DomainError,
    HigherOrderBoundaryZero,
    NonpositiveMass,
    NotPositive,
    NumericsError,
    ValidationError,
)
from dbrov.space import UNIMODULAR_TOL, SpaceContext

from conftest import assert_close, circle_grid
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
                assert abs(rep.k_norm_sq_exact * rep.clark_mass - 1.0) <= 1e-8

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


class TestClark:
    def test_sarason_unit_direction(self, ctx_sarason):
        mu = clark(ctx_sarason, [1.0])
        assert len(mu.point_masses) == 1
        lam, mass = mu.point_masses[0]
        assert abs(lam - 1.0) < 1e-10
        assert abs(mass - 2.0) < 1e-9
        assert_close(mu.density_values, np.ones_like(mu.density_values), 1e-6)
        assert abs(mu.total_mass - 3.0) < 1e-6
        assert mu.imag_const == 0.0

    def test_row2_boundary_direction(self, ctx_row2):
        mu = clark(ctx_row2, ctx_row2.B(1.0))
        assert abs(mu.mass_at(1.0) - 0.8) < 1e-9
        assert abs(mu.total_mass - 5.0 / 3.0) < 1e-6
        assert abs(mu.ac_mass - 13.0 / 15.0) < 1e-6

    @pytest.mark.parametrize("xi", [[np.nan, 0.0], [0.5, np.inf]])
    def test_non_finite_direction_rejected(self, ctx_row2, xi):
        with pytest.raises(ValidationError):
            clark(ctx_row2, xi)

    def test_zero_direction_is_lebesgue(self, ctx_row2):
        mu = clark(ctx_row2, [0.0, 0.0])
        assert mu.point_masses == ()
        assert_close(mu.density_values, np.ones_like(mu.density_values), 1e-12)
        assert abs(mu.total_mass - 1.0) < 1e-12

    def test_random_interior_directions_balance(self, ctx_trunc3):
        rng = np.random.default_rng(12)
        for _ in range(5):
            v = rng.normal(size=3) + 1j * rng.normal(size=3)
            xi = 0.9 * rng.uniform(0.1, 1.0) * v / np.linalg.norm(v)
            mu = clark(ctx_trunc3, xi)
            h0 = (1 + mu.symbol(0)) / (1 - mu.symbol(0))
            assert abs(mu.total_mass - h0.real) < 1e-6
            assert abs(mu.imag_const - h0.imag) < 1e-12

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


def _herglotz_rhs_by_loop(mu, h0):
    """The Herglotz right-hand side at each probe by a direct sum over the
    grid: the reference for the series of `boundary._herglotz_rhs`."""
    t = circle_grid(mu.density_values.shape[0])
    out = []
    for z in boundary._PROBE_POINTS:
        rhs = (1.0 - np.conj(h0)) / 2.0
        for lam, m in mu.point_masses:
            rhs += m / (1.0 - z * np.conj(lam))
        out.append(rhs + np.mean(mu.density_values / (1.0 - z * np.conj(t))))
    return np.array(out)


@pytest.mark.parametrize("name", ["ZERO", "SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)",
                                  "touching (3, 6)", "contractive (4, 8)"])
def test_herglotz_series_matches_grid_loop(name, all_contexts):
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
        mu = clark(ctx, xi)
        h0 = (1.0 + mu.symbol(0)) / (1.0 - mu.symbol(0))
        want = _herglotz_rhs_by_loop(mu, h0)
        got = boundary._herglotz_rhs(mu, h0)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), name


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
        v = B(np.exp(1j * sup_angle(B.coeffs)))
        try:
            ctx = make_context(B)
            mu = clark(ctx, v / np.linalg.norm(v))
        except DbrovError:
            return
        for point, _ in mu.point_masses:
            gap = min((abs(point - lam) for lam, _ in ctx.Lambda), default=np.inf)
            assert gap <= UNIMODULAR_TOL


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
