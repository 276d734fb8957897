"""JSON problem schema: parsing, validation, serialization, and the one
encoder of everything dbrov writes as JSON.

Complex numbers travel as [re, im] pairs; polynomial coefficients ascend in
powers of z.  The row function B is given as {"d": d, "coeffs": [...]} with
the outer index the power of z and the inner index the coordinate.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .rowschur import RowSchur

SCHEMA_VERSION = "1"
# the JSON name of each optional ProblemSpec field
JSON_NAMES = {"f": "f", "w": "w", "lam": "lambda", "xi": "xi", "N": "N",
              "seed": "seed"}


@dataclass
class ProblemSpec:
    B: RowSchur
    f: np.ndarray | None = None
    w: complex | None = None
    xi: np.ndarray | None = None
    lam: complex | None = None
    N: int | None = None
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


def to_json(obj):
    """A complex number as an [re, im] pair, a numpy array or scalar as a
    list or number, lists converted entry by entry; the `default` hook of
    the CLI's `json.dumps` and the encoder of `serialize_problem`."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, list):
        return [to_json(x) for x in obj]
    return obj


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
        B = RowSchur(np.array(parsed))

    spec = ProblemSpec(B=B, schema_version=version)
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
    for key in ("N", "seed"):
        if key in data:
            if not (_is_int(data[key]) and data[key] >= 0):
                raise ValidationError(f"'{key}' must be a nonnegative integer")
            setattr(spec, key, data[key])
    return spec


def serialize_problem(spec: ProblemSpec) -> dict:
    """Inverse of parse_problem; parse(serialize(s)) reproduces s."""
    out = {"schema_version": spec.schema_version,
           "B": {"d": spec.B.dim, "coeffs": to_json(spec.B.coeffs)}}
    for attr, key in JSON_NAMES.items():
        value = getattr(spec, attr)
        if value is not None and attr in ("f", "w", "lam", "xi"):  # a real value too
            value = np.asarray(value, dtype=complex)
        if value is not None and (attr != "seed" or value):  # seed 0 is the default
            out[key] = to_json(value)
    return out
