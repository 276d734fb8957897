import numpy as np
import pytest

from dbrov import fixture, make_context


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
