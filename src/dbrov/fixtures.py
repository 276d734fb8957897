"""Fixture library: small named row Schur functions.

Their closed-form data (mates, boundary spectra, kernel norms, Clark
masses) is checked by the test suite and the benchmark oracles, not kept
here.
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


def fixture(name: str) -> Fixture:
    """ZERO, SARASON, ROW2, FLAT or TRUNC(d) with 2 <= d <= 20."""
    key = name.strip().upper()
    if key == "ZERO":
        return Fixture("ZERO", RowSchur([[0.0]]))
    if key == "SARASON":
        return Fixture("SARASON", RowSchur([[0.5], [0.5]]))
    if key == "ROW2":
        u = 1.0 / (2.0 * SQRT2)
        return Fixture("ROW2", RowSchur([[u, 0.0], [u, 0.0], [0.0, 1.0 / SQRT2]]))
    if key == "FLAT":  # the defect vanishes identically: no mate
        s = 1.0 / SQRT2
        return Fixture("FLAT", RowSchur([[0.0, s], [s, 0.0]]))
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
        return Fixture(f"TRUNC({d})", RowSchur(coeffs))
    raise ValidationError(f"unknown fixture name: {name!r}")
