import numpy as np
import pytest

from dbrov import fixture, make_context
from dbrov.boundary import radial_extrapolate
from dbrov.errors import DomainError


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


def circle_grid(n):
    """n equispaced points exp(2 pi i j / n) on the unit circle: the tests'
    own grid, evaluated by Horner as a reference independent of the FFT."""
    return np.exp(2j * np.pi * np.arange(n) / n)


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
