"""JSON problem schema: parsing, validation, serialization.

Complex numbers travel as [re, im] pairs; polynomial coefficients ascend in
powers of z.  The row function B is given as {"d": d, "coeffs": [...]} with
the outer index the power of z and the inner index the coordinate.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .rowschur import RowSchur
from .tolerances import Tolerances

SCHEMA_VERSION = "1"


@dataclass
class ProblemSpec:
    B: RowSchur
    tolerances: Tolerances = field(default_factory=Tolerances)
    f: np.ndarray | None = None
    w: complex | None = None
    xi: np.ndarray | None = None
    lam: complex | None = None
    N: int | None = None
    grid_log2: int | None = None
    max_iter: int | None = None
    seed: int = 0
    schema_version: str = SCHEMA_VERSION


def _is_int(x) -> bool:  # json's true and false are ints to isinstance
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:  # json reads NaN, Infinity and integers of any size
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _pair_to_complex(value, where: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_real(x) for x in value)):
        raise ValidationError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(value[0], value[1])


def _complex_to_pair(z: complex) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _parse_coeff_vector(value, where: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{where}: expected a nonempty coefficient list")
    return np.array([_pair_to_complex(v, f"{where}[{i}]")
                     for i, v in enumerate(value)])


def parse_problem(data: dict, B: RowSchur | None = None) -> ProblemSpec:
    """Validate a decoded JSON object into a ProblemSpec.

    A pre-built row B (e.g. from the fixture library) makes the 'B' field
    optional; a 'B' field present alongside it is rejected as ambiguous.
    """
    if not isinstance(data, dict):
        raise ValidationError("problem spec must be a JSON object")
    version = str(data.get("schema_version", SCHEMA_VERSION))
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    if not isinstance(data.get("tolerances", {}), dict):
        raise ValidationError("'tolerances' must be an object")
    tol_kwargs = {}
    for key in ("tol_psd", "tol_factor", "tol_outer", "tol_eval"):
        if key in data.get("tolerances", {}):
            value = data["tolerances"][key]
            if not _is_real(value) or not value > 0:
                raise ValidationError(f"tolerances.{key} must be positive and finite")
            tol_kwargs[key] = float(value)
    tol = Tolerances(**tol_kwargs)
    if B is not None:
        if "B" in data:
            raise ValidationError("'B' given both inline and as a fixture")
    else:
        if "B" not in data:
            raise ValidationError("missing required field 'B'")
        bspec = data["B"]
        if not isinstance(bspec, dict) or "d" not in bspec or "coeffs" not in bspec:
            raise ValidationError("'B' must be an object with 'd' and 'coeffs'")
        d = bspec["d"]
        if not _is_int(d) or d < 1:
            raise ValidationError(f"'B.d' must be a positive integer, got {d!r}")
        rows = bspec["coeffs"]
        if not isinstance(rows, list) or not rows:
            raise ValidationError("'B.coeffs' must be a nonempty list of rows")
        parsed = []
        for k, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != d:
                raise ValidationError(
                    f"'B.coeffs[{k}]' must list exactly d = {d} coordinate pairs"
                )
            parsed.append([_pair_to_complex(v, f"B.coeffs[{k}][{i}]")
                           for i, v in enumerate(row)])
        B = RowSchur(np.array(parsed), tol_psd=tol.tol_psd)

    spec = ProblemSpec(B=B, tolerances=tol, schema_version=version)
    if "f" in data:
        spec.f = _parse_coeff_vector(data["f"], "f")
    if "w" in data:
        spec.w = _pair_to_complex(data["w"], "w")
    if "lambda" in data:
        spec.lam = _pair_to_complex(data["lambda"], "lambda")
    if "xi" in data:
        if not isinstance(data["xi"], list) or len(data["xi"]) != B.dim:
            raise ValidationError(f"'xi' must list {B.dim} [re, im] pairs")
        spec.xi = np.array([_pair_to_complex(v, f"xi[{i}]")
                            for i, v in enumerate(data["xi"])])
    for key, low, high, what in (("N", 0, np.inf, "a nonnegative integer"),
                                 ("grid_log2", 4, 20, "an integer in 4..20"),
                                 ("max_iter", 1, np.inf, "a positive integer"),
                                 ("seed", -np.inf, np.inf, "an integer")):
        if key in data:
            if not (_is_int(data[key]) and low <= data[key] <= high):
                raise ValidationError(f"'{key}' must be {what}")
            setattr(spec, key, data[key])
    return spec


def serialize_problem(spec: ProblemSpec) -> dict:
    """Inverse of parse_problem; parse(serialize(s)) reproduces s."""
    out: dict = {
        "schema_version": spec.schema_version,
        "B": {
            "d": spec.B.dim,
            "coeffs": [
                [_complex_to_pair(c) for c in row] for row in spec.B.coeffs
            ],
        },
        "tolerances": {
            "tol_psd": spec.tolerances.tol_psd,
            "tol_factor": spec.tolerances.tol_factor,
            "tol_outer": spec.tolerances.tol_outer,
            "tol_eval": spec.tolerances.tol_eval,
        },
    }
    if spec.f is not None:
        out["f"] = [_complex_to_pair(c) for c in spec.f]
    if spec.w is not None:
        out["w"] = _complex_to_pair(spec.w)
    if spec.lam is not None:
        out["lambda"] = _complex_to_pair(spec.lam)
    if spec.xi is not None:
        out["xi"] = [_complex_to_pair(c) for c in spec.xi]
    if spec.N is not None:
        out["N"] = spec.N
    if spec.grid_log2 is not None:
        out["grid_log2"] = spec.grid_log2
    if spec.max_iter is not None:
        out["max_iter"] = spec.max_iter
    if spec.seed:
        out["seed"] = spec.seed
    return out
