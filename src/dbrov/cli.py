"""Command line interface: JSON in, JSON or CSV out.

Exit codes: 0 success, 2 validation errors (malformed JSON, bad schema,
unknown fixture), 3 numerical failures (the error payload is serialized to
standard output as JSON).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .boundary import caratheodory, clark
from .cyclic import cyclicity, spectrum_crosscheck
from .errors import DbrovError, ValidationError
from .factor import MAX_ITER
from .fixtures import fixture
from .poly import CPoly
from .schema import ProblemSpec, _complex_to_pair as _pair, parse_problem
from .space import _density_residuals, embed, kernel, make_context, on_circle
from .verify import run_checks

COMMANDS = ("analyze", "norm", "kernel", "clark", "caratheodory", "cyclic",
            "density", "crosscheck", "verify")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload = _dispatch(args, _load_spec(args))
        code = 3 if args.command == "verify" and not payload["passed"] else 0
    except json.JSONDecodeError as exc:
        code, payload = 2, {
            "error": "MalformedJSON",
            "message": f"{exc.msg} at line {exc.lineno} column {exc.colno} "
                       f"(char {exc.pos})"}
    except DbrovError as exc:
        code = 2 if isinstance(exc, ValidationError) else 3
        payload = {"error": type(exc).__name__, "message": str(exc)}
    try:
        _write(_render(payload, args), args.out)
    except OSError as exc:  # the error goes to standard output instead
        _write(_render({"error": "ValidationError",
                        "message": f"cannot write --out: {exc}"}, args), None)
        return 2
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbrov",
        description="Numerics for spaces generated by polynomial row Schur "
                    "functions with a mate",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--spec", metavar="PATH",
                        help="JSON problem file (default: standard input)")
    parser.add_argument("--fixture", metavar="NAME",
                        help="named fixture instead of a spec file "
                             "(ZERO, SARASON, ROW2, FLAT, TRUNC(d))")
    parser.add_argument("--payload", metavar="JSON",
                        help="inline JSON with command arguments "
                             "(f, w, xi, lambda, N), for --fixture runs")
    parser.add_argument("--out", metavar="PATH", help="write output here")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--tol-factor", type=float, default=None)
    parser.add_argument("--grid-log2", type=int, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    return parser


def _load_spec(args) -> ProblemSpec:
    """The decoded spec with the flags merged in, validated as one object."""
    B = None
    if args.fixture:
        B = fixture(args.fixture).B
        data = json.loads(args.payload) if args.payload else {}
    else:
        if args.payload:
            raise ValidationError("--payload requires --fixture")
        try:
            if args.spec:
                with open(args.spec, "r", encoding="utf-8") as fh:
                    data = json.load(fh)
            else:
                data = json.load(sys.stdin)
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read the spec: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("problem spec must be a JSON object")
    tolerances = data.get("tolerances", {})
    if args.tol_factor is not None and isinstance(tolerances, dict):
        data["tolerances"] = {**tolerances, "tol_factor": args.tol_factor}
    for key in ("grid_log2", "max_iter", "seed"):
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    spec = parse_problem(data, B=B)
    if args.format is None:
        args.format = "csv" if args.command in ("density", "crosscheck") else "json"
    elif args.format == "csv" and args.command not in ("density", "crosscheck"):
        raise ValidationError("csv output is only available for density/crosscheck")
    return spec


def _context(spec: ProblemSpec):
    return make_context(spec.B, spec.tolerances,
                        max_iter=spec.max_iter or MAX_ITER,
                        grid_log2=spec.grid_log2)


def _pairs(arr) -> list:
    return [_pair(c) for c in np.asarray(arr).ravel()]


def _vec_rows(coeffs) -> list:
    return [[_pair(c) for c in row] for row in np.atleast_2d(coeffs)]


def _require(spec, field, command):
    value = getattr(spec, field)
    if value is None:
        name = "lambda" if field == "lam" else field
        raise ValidationError(f"'{command}' needs the field {name!r}")
    return value


def _dispatch(args, spec: ProblemSpec):
    cmd = args.command
    ctx = _context(spec)
    if cmd == "verify":
        checks = run_checks(ctx, seed=spec.seed)
        return {
            "checks": [
                {"name": c.name, "pass": c.passed, "detail": c.detail}
                for c in checks
            ],
            "passed": all(c.passed for c in checks),
        }
    if cmd == "analyze":
        return {
            "d": ctx.dim,
            "mate": _pairs(ctx.a.coeffs),
            "A": [_vec_rows(mat) for mat in ctx.A.coeffs],
            "lambda": [{"point": _pair(l), "mult": m} for l, m in ctx.Lambda],
            "reports": {k: float(v) for k, v in ctx.reports.items()},
        }
    if cmd == "norm":
        f = CPoly(_require(spec, "f", cmd))
        el = embed(ctx, f)
        return {
            "norm_sq": el.norm_sq,
            "f_plus": _vec_rows(el.f_plus.coeffs) if not el.f_plus.is_zero else [],
        }
    if cmd == "kernel":
        w = _require(spec, "w", cmd)
        el = kernel(ctx, w, spec.N)
        return {
            "kind": "boundary" if on_circle(w) else "interior",
            "f": _pairs(el.f.coeffs),
            "f_plus": _vec_rows(el.f_plus.coeffs) if not el.f_plus.is_zero else [],
            "norm_sq": el.norm_sq,
            "tail_bound": el.tail_bound,
        }
    if cmd == "clark":
        xi = _require(spec, "xi", cmd)
        mu = clark(ctx, xi)
        h0 = (1.0 + mu.symbol(0)) / (1.0 - mu.symbol(0))
        return {
            "masses": [{"point": _pair(l), "mass": m} for l, m in mu.point_masses],
            "total_mass": mu.total_mass,
            "ac_mass": mu.ac_mass,
            "imag_const": mu.imag_const,
            "herglotz_re0": float(h0.real),
            "density_min": float(mu.density_values.min()),
            "grid_size": int(mu.density_values.shape[0]),
        }
    if cmd == "caratheodory":
        rep = caratheodory(ctx, _require(spec, "lam", cmd))
        out = {
            "lambda": _pair(rep.lam),
            "satisfies_caratheodory": rep.satisfies_caratheodory,
            "boundary_vector": _pairs(rep.boundary_vector),
        }
        if rep.satisfies_caratheodory:
            out.update({
                "k_norm_sq_exact": rep.k_norm_sq_exact,
                "k_norm_sq_lhopital": rep.k_norm_sq_lhopital,
                "k_norm_sq_radial": rep.k_norm_sq_radial,
                "clark_mass": rep.clark_mass,
            })
        return out
    if cmd == "cyclic":
        cert = cyclicity(ctx, CPoly(_require(spec, "f", cmd)))
        return {
            "verdict": cert.verdict,
            "is_outer": cert.is_outer,
            "interior_roots": [
                {"root": _pair(r), "mult": m} for r, m in cert.interior_roots
            ],
            "boundary_checks": [
                {"point": _pair(l), "value": _pair(v), "pass": ok}
                for l, v, ok in cert.boundary_checks
            ],
            "margins": {
                "min_boundary_abs": cert.min_boundary_abs,
                "max_interior_modulus": cert.max_interior_modulus,
            },
        }
    if cmd == "density":
        w = _require(spec, "w", cmd)
        n_max = spec.N if spec.N is not None else 12
        vals = _density_residuals(ctx, w, n_max).tolist()
        return [[n, v] for n, v in enumerate(vals)], ["N", "residual"]
    if cmd == "crosscheck":
        n = spec.N if spec.N is not None else 2 * max(ctx.a.degree, 0) + 4
        sweep = spectrum_crosscheck(ctx, n)
        rows = [
            [float(l.real), float(l.imag), r, int(member)]
            for l, r, member in sweep.entries
        ]
        return rows, ["lambda_re", "lambda_im", "residual", "member"]
    raise ValidationError(f"unknown command {cmd!r}")


def _render(payload, args) -> str:
    """A (rows, header) table as CSV or as JSON columns, a dict as JSON."""
    if isinstance(payload, tuple):
        rows, header = payload
        if args.format == "csv":
            lines = [",".join(header)]
            lines += [",".join(_csv_cell(x) for x in row) for row in rows]
            return "\n".join(lines) + "\n"
        payload = {"columns": header, "rows": rows}
    return json.dumps(payload, indent=2, default=_json_default) + "\n"


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
