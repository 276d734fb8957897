import warnings

import numpy as np
import pytest

from dbrov import (
    CPoly,
    boundary_spectrum,
    caratheodory,
    cyclicity,
    is_outer,
    point_eval_residual,
    spectrum_crosscheck,
)
from dbrov.errors import InconclusiveGap, ValidationError, ZeroFunction


class TestIsOuter:
    def test_circle_zero_allowed(self):
        flag, interior = is_outer(CPoly([1, -1]))
        assert flag and interior == []

    def test_monomial_not_outer(self):
        flag, interior = is_outer(CPoly([0, 1]))
        assert not flag
        assert interior == [(0j, 1)]

    def test_exterior_zero(self):
        flag, _ = is_outer(CPoly([2, -1]))
        assert flag

    def test_zero_function(self):
        with pytest.raises(ZeroFunction):
            is_outer(CPoly([0]))


class TestBoundarySpectrum:
    def test_hardy_space(self, ctx_zero):
        assert boundary_spectrum(ctx_zero) == []

    def test_row2(self, ctx_row2):
        spec = boundary_spectrum(ctx_row2)
        assert len(spec) == 1
        lam, mult = spec[0]
        assert abs(lam - 1.0) < 1e-12 and mult == 1

    def test_trunc_has_empty_spectrum(self, ctx_trunc3, ctx_trunc8):
        assert boundary_spectrum(ctx_trunc3) == []
        assert boundary_spectrum(ctx_trunc8) == []

    def test_members_pass_caratheodory(self, ctx_sarason, ctx_row2):
        for ctx in (ctx_sarason, ctx_row2):
            for lam, _ in boundary_spectrum(ctx):
                rep = caratheodory(ctx, lam)
                assert rep.satisfies_caratheodory
                assert abs((np.abs(rep.boundary_vector) ** 2).sum() - 1) <= 1e-8


class TestCyclicity:
    def test_constant_is_cyclic(self, ctx_row2):
        assert cyclicity(ctx_row2, CPoly([1.0])).verdict

    def test_boundary_zero_blocks(self, ctx_row2):
        cert = cyclicity(ctx_row2, CPoly([1.0, -1.0]))
        assert cert.is_outer and not cert.verdict

    def test_inner_factor_blocks(self, ctx_row2):
        cert = cyclicity(ctx_row2, CPoly([0.0, 1.0]))
        assert not cert.is_outer and not cert.verdict

    def test_exterior_zero_cyclic(self, ctx_row2):
        assert cyclicity(ctx_row2, CPoly([2.0, -1.0])).verdict

    def test_scaling_invariance(self, ctx_row2):
        rng = np.random.default_rng(13)
        for _ in range(10):
            c = rng.uniform(-2, 2, 4) + 1j * rng.uniform(-2, 2, 4)
            f = CPoly(c)
            if f.is_zero:
                continue
            base = cyclicity(ctx_row2, f).verdict
            for s in (2.0, -0.5j, 1e-3):
                assert cyclicity(ctx_row2, s * f).verdict == base

    def test_multiplicative_obstruction(self, ctx_row2):
        f = CPoly([2.0, -1.0])  # cyclic
        lam = boundary_spectrum(ctx_row2)[0][0]
        blocked = CPoly([-lam, 1.0]) * f
        assert not cyclicity(ctx_row2, blocked).verdict
        still = CPoly([-1.7, 1.0]) * f  # zero outside the disk
        assert cyclicity(ctx_row2, still).verdict

    def test_deterministic(self, ctx_row2):
        f = CPoly([1.0, 0.3, -0.2])
        a = cyclicity(ctx_row2, f)
        b = cyclicity(ctx_row2, f)
        assert a == b

    def test_zero_function(self, ctx_row2):
        with pytest.raises(ZeroFunction):
            cyclicity(ctx_row2, CPoly([0.0]))

    def test_outer_random_on_trunc(self, ctx_trunc3):
        # empty boundary spectrum: outer polynomials are cyclic
        rng = np.random.default_rng(14)
        for _ in range(10):
            roots = rng.uniform(1.05, 3.0, 3) * np.exp(
                2j * np.pi * rng.uniform(size=3))
            f = CPoly.from_roots(roots)
            cert = cyclicity(ctx_trunc3, f)
            assert cert.is_outer and cert.verdict


class TestSpectrumCrosscheck:
    def test_row2_member_vs_controls(self, ctx_row2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", InconclusiveGap)
            sweep = spectrum_crosscheck(ctx_row2, 40)
        assert sweep.gap_ratio > 10
        members = [r for _, r, m in sweep.entries if m]
        controls = [r for _, r, m in sweep.entries if not m]
        assert abs(members[0] - 0.8) < 1e-3
        assert max(controls) < members[0]

    def test_sarason_member_value(self, ctx_sarason):
        # the constant 1 is proportional to the boundary kernel here, so the
        # residual equals 1/||K_1||^2 = 2 at every order
        val = point_eval_residual(ctx_sarason, 1.0, 30)
        assert abs(val - 2.0) < 1e-8

    def test_hardy_all_decay(self, ctx_zero):
        sweep = spectrum_crosscheck(ctx_zero, 120)
        assert all(not m for _, _, m in sweep.entries)
        assert all(r < 1e-2 for _, r, _ in sweep.entries)
        assert sweep.gap_ratio == np.inf

    def test_order_guard(self, ctx_row2):
        with pytest.raises(ValidationError):
            spectrum_crosscheck(ctx_row2, 2)
