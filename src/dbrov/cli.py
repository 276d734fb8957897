"""Command line interface: JSON in, JSON or CSV out.

Exit codes: 0 success, 2 validation errors (malformed JSON, bad schema,
unknown fixture), 3 numerical failures (the error payload is serialized to
standard output as JSON).  The JSON is strict: a result that holds a NaN or
an infinity ends in a NumericsError payload, exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from .boundary import caratheodory, clark
from .cyclic import cyclicity, spectrum_crosscheck
from .errors import DbrovError, ValidationError
from .fixtures import fixture
from .poly import CPoly
from .schema import JSON_NAMES, ProblemSpec, parse_problem, to_json
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
        text = _render(payload, args)
    except ValueError as exc:  # NaN or an infinity, which JSON cannot hold
        code, text = 3, _render({"error": "NumericsError",
                                 "message": f"non-finite result: {exc}"}, args)
    try:
        _write(text, args.out)
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
    parser.add_argument("--seed", type=int, default=None)
    return parser


def _load_spec(args) -> ProblemSpec:
    """The decoded spec with --seed merged in, validated as one object."""
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
    if args.seed is not None:
        data["seed"] = args.seed
    spec = parse_problem(data, B=B)
    if args.format is None:
        args.format = "csv" if args.command in ("density", "crosscheck") else "json"
    elif args.format == "csv" and args.command not in ("density", "crosscheck"):
        raise ValidationError("csv output is only available for density/crosscheck")
    return spec


def _require(spec, field, command):
    value = getattr(spec, field)
    if value is None:
        raise ValidationError(f"'{command}' needs the field {JSON_NAMES[field]!r}")
    return value


def _dispatch(args, spec: ProblemSpec):
    cmd = args.command
    ctx = make_context(spec.B)
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
            "mate": ctx.a.coeffs,
            "A": ctx.A.coeffs,
            "lambda": [{"point": l, "mult": m} for l, m in ctx.Lambda],
            "reports": {k: float(v) for k, v in ctx.reports.items()},
        }
    if cmd == "norm":
        f = CPoly(_require(spec, "f", cmd))
        el = embed(ctx, f)
        return {"norm_sq": el.norm_sq, "f_plus": el.f_plus.coeffs}
    if cmd == "kernel":
        w = _require(spec, "w", cmd)
        el = kernel(ctx, w, spec.N)
        return {
            "kind": "boundary" if on_circle(w) else "interior",
            "f": el.f.coeffs,
            "f_plus": el.f_plus.coeffs,
            "norm_sq": el.norm_sq,
            "tail_bound": el.tail_bound,
        }
    if cmd == "clark":
        xi = _require(spec, "xi", cmd)
        mu = clark(ctx, xi)
        h0 = (1.0 + mu.symbol(0)) / (1.0 - mu.symbol(0))
        return {
            "masses": [{"point": l, "mass": m} for l, m in mu.point_masses],
            "total_mass": mu.total_mass,
            "ac_mass": mu.ac_mass,
            "imag_const": mu.imag_const,
            "herglotz_re0": float(h0.real),
        }
    if cmd == "caratheodory":
        rep = caratheodory(ctx, _require(spec, "lam", cmd))
        out = {
            "lambda": rep.lam,
            "satisfies_caratheodory": rep.satisfies_caratheodory,
            "boundary_vector": rep.boundary_vector,
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
            "interior_roots": [{"root": r, "mult": m} for r, m in cert.interior_roots],
            "boundary_checks": [{"point": l, "value": v, "pass": ok}
                                for l, v, ok in cert.boundary_checks],
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
    # crosscheck
    n = spec.N if spec.N is not None else 2 * max(ctx.a.degree, 0) + 4
    sweep = spectrum_crosscheck(ctx, n)
    rows = [
        [float(l.real), float(l.imag), r, int(member)]
        for l, r, member in sweep.entries
    ]
    return rows, ["lambda_re", "lambda_im", "residual", "member"]


def _render(payload, args) -> str:
    """A (rows, header) table as CSV or as JSON columns, a dict as JSON."""
    if isinstance(payload, tuple):
        rows, header = payload
        if args.format == "csv":
            lines = [",".join(header)]
            lines += [",".join(map(str, row)) for row in rows]
            return "\n".join(lines) + "\n"
        payload = {"columns": header, "rows": rows}
    return json.dumps(payload, indent=2, default=to_json, allow_nan=False) + "\n"


def _write(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
