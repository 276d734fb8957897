"""Fixture library: small named row Schur functions with known expectations.

Hand-checked quantities travel with each fixture so tests and the CLI verify
suite can compare against them; every expected entry records how it was
obtained ("closed-form" for coefficient algebra, "hand" for short by-hand
computations).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rowschur import RowSchur

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class Fixture:
    name: str
    B: RowSchur
    expected: dict


def fixture(name: str) -> Fixture:
    """ZERO, SARASON, ROW2, FLAT or TRUNC(d) with 2 <= d <= 20."""
    key = name.strip().upper()
    if key == "ZERO":
        return Fixture("ZERO", RowSchur([[0.0]]), {
            "mate": ([1.0], "closed-form"),
            "lambda": ([], "closed-form"),
        })
    if key == "SARASON":
        return Fixture("SARASON", RowSchur([[0.5], [0.5]]), {
            "mate": ([0.5, -0.5], "closed-form"),
            "lambda": ([1.0], "closed-form"),
            "k_norm_sq@1": (0.5, "hand"),
            "clark_mass@1": (2.0, "hand"),
            "herglotz_total@1": (3.0, "hand"),
            "norm_sq_one": (2.0, "hand"),
            "norm_sq_z": (6.0, "hand"),
        })
    if key == "ROW2":
        u = 1.0 / (2.0 * SQRT2)
        return Fixture("ROW2", RowSchur([[u, 0.0], [u, 0.0], [0.0, 1.0 / SQRT2]]), {
            "mate": ([u, -u], "closed-form"),
            "lambda": ([1.0], "closed-form"),
            "k1": ([0.75, 0.5], "hand"),
            "k_norm_sq@1": (1.25, "hand"),
            "clark_mass@1": (0.8, "hand"),
            "herglotz_total@B(1)": (5.0 / 3.0, "hand"),
            "ac_mass@B(1)": (13.0 / 15.0, "hand"),
        })
    if key == "FLAT":
        s = 1.0 / SQRT2
        return Fixture("FLAT", RowSchur([[0.0, s], [s, 0.0]]), {
            "mate": (None, "closed-form"),  # defect vanishes identically
        })
    match = re.fullmatch(r"TRUNC\((\d+)\)", key)
    if match:
        d = int(match.group(1))
        if not 2 <= d <= 20:
            raise ValidationError(f"TRUNC rank must be 2..20, got {d}")
        coeffs = np.zeros((d + 1, d), dtype=complex)
        coeffs[0, 0] = 1.0 / (2.0 * SQRT2)
        coeffs[1, 0] = 1.0 / (2.0 * SQRT2)
        for i in range(2, d + 1):
            coeffs[i, i - 1] = 2.0 ** (-i / 2.0)
        return Fixture(f"TRUNC({d})", RowSchur(coeffs), {
            "defect@1": (2.0 ** (-d), "closed-form"),
            "lambda": ([], "closed-form"),
        })
    raise ValidationError(f"unknown fixture name: {name!r}")
