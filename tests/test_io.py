import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dbrov
from dbrov.cli import COMMANDS, main
from dbrov.errors import DbrovError, MateUndefined, ValidationError
from dbrov.fixtures import fixture
from dbrov.rowschur import RowSchur
from dbrov.schema import parse_problem, serialize_problem
from dbrov.space import density_residual

from conftest import assert_close

ROW2_SPEC = {
    "schema_version": "1",
    "B": {
        "d": 2,
        "coeffs": [
            [[0.35355339059327373, 0.0], [0.0, 0.0]],
            [[0.35355339059327373, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.7071067811865476, 0.0]],
        ],
    },
}


class TestFixtures:
    def test_names(self):
        for name in ("ZERO", "SARASON", "ROW2", "FLAT", "TRUNC(2)", "TRUNC(20)"):
            fx = fixture(name)
            assert fx.B.dim >= 1

    def test_unknown_name(self):
        with pytest.raises(ValidationError):
            fixture("NOPE")

    def test_trunc_out_of_range(self):
        with pytest.raises(ValidationError):
            fixture("TRUNC(25)")

    def test_trunc3_defect_at_one(self):
        from dbrov.rowschur import defect_laurent
        scalar, _ = defect_laurent(fixture("TRUNC(3)").B)
        assert abs(scalar(1.0) - 0.125) < 1e-12

    def test_row2_defect_vanishes_at_one(self):
        from dbrov.rowschur import defect_laurent
        scalar, _ = defect_laurent(fixture("ROW2").B)
        assert abs(scalar(1.0)) < 1e-12

    def test_flat_fails_downstream(self):
        from dbrov import mate_report
        with pytest.raises(MateUndefined):
            mate_report(fixture("FLAT").B)


class TestSchema:
    def test_round_trip_idempotent(self):
        spec = parse_problem(dict(ROW2_SPEC, w=[0.5, 0.0], N=8))
        once = serialize_problem(spec)
        twice = serialize_problem(parse_problem(json.loads(json.dumps(once))))
        assert once == twice

    def test_missing_b(self):
        with pytest.raises(ValidationError):
            parse_problem({"schema_version": "1"})

    def test_ragged_rows(self):
        bad = {"B": {"d": 2, "coeffs": [[[1.0, 0.0]]]}}
        with pytest.raises(ValidationError):
            parse_problem(bad)

    def test_bad_pair(self):
        bad = dict(ROW2_SPEC, w=[0.5])
        with pytest.raises(ValidationError):
            parse_problem(bad)

    def test_bad_tolerance(self):
        bad = dict(ROW2_SPEC, tolerances={"tol_factor": -1.0})
        with pytest.raises(ValidationError):
            parse_problem(bad)

    @pytest.mark.parametrize("field", [
        {"tolerances": {"tol_eval": True}}, {"tolerances": {"tol_psd": float("nan")}},
        {"seed": True}, {"max_iter": True}, {"grid_log2": True}, {"N": False},
        {"lambda": [1, float("inf")]}, {"xi": [[True, 0], [0, 0]]},
    ])
    def test_non_finite_and_boolean_fields(self, field):
        with pytest.raises(ValidationError):
            parse_problem({**ROW2_SPEC, **field})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, -np.inf)])
    def test_row_refuses_non_finite_coefficients(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            RowSchur([[0.5, 0.0], [bad, 0.0]])

    def test_fixture_override_conflict(self):
        with pytest.raises(ValidationError):
            parse_problem(ROW2_SPEC, B=fixture("ZERO").B)


class TestCli:
    def run(self, argv, capsys):
        code = main(argv)
        out = capsys.readouterr().out
        return code, out

    def test_analyze_row2_spec_file(self, tmp_path, capsys):
        path = tmp_path / "row2.json"
        path.write_text(json.dumps(ROW2_SPEC))
        code, out = self.run(["analyze", "--spec", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        mate = [c[0] for c in doc["mate"]]
        assert_close(mate, [0.35355339059327373, -0.35355339059327373], 1e-9)
        assert doc["lambda"][0]["point"][0] == pytest.approx(1.0, abs=1e-10)

    def test_cyclic_verdict(self, capsys):
        code, out = self.run(
            ["cyclic", "--fixture", "ROW2", "--payload", '{"f": [[1,0]]}'],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_norm_values(self, capsys):
        code, out = self.run(
            ["norm", "--fixture", "SARASON", "--payload", '{"f": [[0,0],[1,0]]}'],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["norm_sq"] == pytest.approx(6.0, abs=1e-12)

    def test_clark_lebesgue(self, capsys):
        code, out = self.run(
            ["clark", "--fixture", "ROW2", "--payload",
             '{"xi": [[0,0],[0,0]]}'],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["masses"] == []
        assert doc["total_mass"] == pytest.approx(1.0, abs=1e-12)
        assert doc["density_min"] == pytest.approx(1.0, abs=1e-12)

    def test_kernel_boundary(self, capsys):
        code, out = self.run(
            ["kernel", "--fixture", "ROW2", "--payload", '{"w": [1,0]}'],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "boundary"
        assert_close([c[0] for c in doc["f"]], [0.75, 0.5], 1e-10)

    def test_kernel_interior_with_order(self, capsys):
        code, out = self.run(
            ["kernel", "--fixture", "SARASON", "--payload",
             '{"w": [0.5,0], "N": 8}'],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "interior"
        assert len(doc["f"]) == 9
        assert doc["tail_bound"] > 0

    def test_caratheodory_report(self, capsys):
        code, out = self.run(
            ["caratheodory", "--fixture", "SARASON", "--payload",
             '{"lambda": [1,0]}'],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["satisfies_caratheodory"] is True
        assert doc["clark_mass"] == pytest.approx(2.0, abs=1e-8)

    def test_density_csv(self, tmp_path, capsys):
        out_path = tmp_path / "density.csv"
        code, _ = self.run(
            ["density", "--fixture", "SARASON", "--payload",
             '{"w": [0.5,0], "N": 5}', "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "N,residual"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_density_sweep_matches_library(self, capsys, ctx_trunc8):
        code, out = self.run(
            ["density", "--fixture", "TRUNC(8)", "--payload",
             '{"w": [0.5, 0], "N": 40}'],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "N,residual"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(n) for n, _ in rows] == list(range(41))
        for n, value in rows:
            want = density_residual(ctx_trunc8, 0.5, int(n))
            assert abs(float(value) - want) <= 1e-14

    def test_crosscheck_csv(self, capsys):
        code, out = self.run(
            ["crosscheck", "--fixture", "SARASON", "--payload", '{"N": 12}'],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda_re,lambda_im,residual,member"
        assert any(line.endswith(",1") for line in lines[1:])

    def test_verify_fixtures_pass(self, capsys):
        for name in ("ZERO", "SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)"):
            code, out = self.run(["verify", "--fixture", name], capsys)
            assert code == 0, f"verify failed on {name}: {out}"
            assert json.loads(out)["passed"] is True

    def test_verify_honours_flags(self, capsys):
        code, out = self.run(
            ["verify", "--fixture", "TRUNC(8)", "--max-iter", "1"], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "FactorizationDiverged"

    def test_oversized_grid_refused(self):
        # at d = 8 one (2^20, 8, 8) complex grid stack takes 1 GiB; the
        # address-space cap makes a run without the size guard fail fast
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from dbrov.cli import main\n"
            "sys.exit(main(['analyze', '--fixture', 'TRUNC(8)',"
            " '--grid-log2', '20']))\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(dbrov.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 3, proc.stderr
        assert json.loads(proc.stdout)["error"] == "DomainError"

    def test_verify_flat_fails_with_mate_error(self, capsys):
        code, out = self.run(["verify", "--fixture", "FLAT"], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "MateUndefined"

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"B": nope}')
        code, out = self.run(["analyze", "--spec", str(path)], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "MalformedJSON"
        assert "line" in doc["message"]

    def test_validation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"B": {"d": 1, "coeffs": [[[3.0, 0.0]]]}}))
        code, out = self.run(["analyze", "--spec", str(path)], capsys)
        assert code == 2

    def test_numerical_failure_exit_code(self, capsys):
        code, out = self.run(["analyze", "--fixture", "FLAT"], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "MateUndefined"

    @pytest.mark.parametrize("command,payload", [
        ("kernel", '{"w": [0.999999999, 0]}'),
        ("density", '{"w": [0.5, 0], "N": 100000}'),
        ("crosscheck", '{"N": 100000}'),
    ])
    def test_oversized_order_exit_code(self, capsys, command, payload):
        code, out = self.run(
            [command, "--fixture", "ROW2", "--payload", payload], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("extra", [
        ["--grid-log2", "-1"],
        ["--grid-log2", "3"],
        ["--max-iter", "0"],
        ["--tol-factor", "-1"],
        ["--tol-factor", "nan"],
        ["--tol-factor", "inf"],
        ["--payload", '{"tolerances": 5}', "--tol-factor", "1e-11"],
    ])
    def test_flags_are_validated(self, capsys, extra):
        code, out = self.run(["analyze", "--fixture", "ROW2", *extra], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"

    def test_flag_overrides_payload(self, capsys):
        payload = '{"grid_log2": 8}'
        grids = []
        for extra in ([], ["--grid-log2", "6"]):
            code, out = self.run(["analyze", "--fixture", "SARASON", "--payload",
                                  payload, *extra], capsys)
            assert code == 0
            grids.append(json.loads(out)["reports"]["factor_grid"])
        assert grids == [256, 64]

    def test_clark_grid_is_fixed(self, capsys):
        # --grid-log2 sets the factorization grid only; on 16 points the
        # Clark density could not pass the Herglotz check
        code, out = self.run(["clark", "--fixture", "ROW2", "--payload",
                              '{"xi": [[0.5, 0], [0, 0]]}', "--grid-log2", "4"],
                             capsys)
        assert code == 0
        assert json.loads(out)["grid_size"] == 16384

    def test_missing_spec_file(self, tmp_path, capsys):
        code, out = self.run(["analyze", "--spec", str(tmp_path / "missing.json")],
                             capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"

    def test_unreadable_spec(self, tmp_path, capsys):
        # a directory cannot be opened as a file on any platform
        code, out = self.run(["analyze", "--spec", str(tmp_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"

    def test_spec_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(ROW2_SPEC).encode() + b"\xff")
        code, out = self.run(["analyze", "--spec", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"

    def test_unwritable_out(self, tmp_path, capsys):
        out_path = tmp_path / "no" / "such" / "dir.json"
        code, out = self.run(["analyze", "--fixture", "ROW2", "--out",
                              str(out_path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"
        assert not out_path.exists()

    @pytest.mark.parametrize("cls", DbrovError.__subclasses__(),
                             ids=lambda cls: cls.__name__)
    def test_every_error_has_a_name_and_code(self, capsys, monkeypatch, cls):
        def failing(args, spec):
            raise cls("forced")

        monkeypatch.setattr(dbrov.cli, "_dispatch", failing)
        code, out = self.run(["analyze", "--fixture", "ROW2"], capsys)
        assert json.loads(out)["error"] == cls.__name__
        assert code == (2 if cls is ValidationError else 3)

    def test_missing_payload_field(self, capsys):
        code, out = self.run(["norm", "--fixture", "ROW2"], capsys)
        assert code == 2

    def test_csv_flag_rejected_elsewhere(self, capsys):
        code, out = self.run(
            ["analyze", "--fixture", "ZERO", "--format", "csv"], capsys)
        assert code == 2

    @pytest.mark.parametrize("command,payload", [
        ("norm", '{"f": [[NaN, 0], [1, 0]]}'),
        ("clark", '{"xi": [[NaN, 0]]}'),
        ("density", '{"w": [NaN, 0]}'),
        ("kernel", '{"w": [NaN, 0]}'),
        ("kernel", '{"w": [0.5, Infinity]}'),
        ("density", '{"w": [0.5, 0], "N": true}'),
        ("kernel", '{"w": [true, false]}'),
        ("norm", '{"f": [[1e999, 0]]}'),
    ])
    def test_non_finite_and_boolean_numbers_refused(self, capsys, command, payload):
        code, out = self.run([command, "--fixture", "SARASON", "--payload", payload],
                             capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"

    @pytest.mark.parametrize("B", [
        {"d": 1, "coeffs": [[[float("nan"), 0.0]], [[0.5, 0.0]]]},
        {"d": 1, "coeffs": [[[0.5, -float("inf")]]]},
        {"d": True, "coeffs": [[[0.5, 0.0]]]},
    ], ids=["nan", "infinity", "bool-d"])
    def test_row_with_invalid_numbers_refused(self, tmp_path, capsys, B):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"B": B}))
        code, out = self.run(["analyze", "--spec", str(path)], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"

    def test_seed_flag_accepted(self, capsys):
        code, out = self.run(
            ["verify", "--fixture", "ZERO", "--seed", "7"], capsys)
        assert code == 0


# ---------------------------------------------------------------------------
# raw spec JSON through the CLI: every run ends with exit 0, 2 or 3

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats(width=64)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_UNIT = st.floats(-1.0, 1.0)
_PAIR = st.lists(_UNIT, min_size=2, max_size=2)


@st.composite
def _row(draw):
    """A row {"d", "coeffs"} scaled to sum_k |B_k| = s, so sup |B| <= s."""
    d, q = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    c = np.array(draw(st.lists(st.lists(_PAIR, min_size=d, max_size=d),
                               min_size=q + 1, max_size=q + 1)))
    c = c[..., 0] + 1j * c[..., 1]
    total = np.linalg.norm(c, axis=1).sum()
    if total > 0:
        c *= draw(st.sampled_from([0.5, 0.99, 1.0])) / total
    return {"d": d, "coeffs": [[[z.real, z.imag] for z in row] for row in c]}


_MISSHAPEN = st.lists(st.lists(_UNIT, max_size=3), max_size=4)


@st.composite
def _raw_spec(draw):
    """Spec text for a row with optional well-formed fields, at most one of
    them (or B) replaced by a misshapen or junk value."""
    row = draw(_row())
    valid = {
        "f": st.lists(_PAIR, min_size=1, max_size=4), "w": _PAIR, "lambda": _PAIR,
        "xi": st.lists(_PAIR, min_size=row["d"], max_size=row["d"]),
        "N": st.integers(0, 16), "grid_log2": st.integers(4, 8),
        "max_iter": st.integers(1, 40), "seed": st.integers(0, 3),
        "tolerances": st.dictionaries(
            st.sampled_from(["tol_psd", "tol_factor", "tol_outer", "tol_eval"]),
            st.floats(1e-14, 1.0), max_size=2),
    }
    spec = {"B": row}
    for key, strategy in valid.items():
        if draw(st.booleans()):
            spec[key] = draw(strategy)
    bad = draw(st.sampled_from([None, None, None, "B", *valid]))
    if bad == "B":
        spec["B"] = draw(st.fixed_dictionaries(
            {"d": st.integers(0, 4), "coeffs": st.lists(_MISSHAPEN, max_size=3)})
            | _JUNK)
    elif bad is not None:
        spec[bad] = draw(_MISSHAPEN | _JUNK)
    text = json.dumps(spec)
    if draw(st.sampled_from(range(10))) == 9:  # cut off mid-document
        text = text[: draw(st.integers(0, len(text)))]
    return text


@settings(derandomize=True, max_examples=100, deadline=None)
@given(command=st.sampled_from(COMMANDS), text=_raw_spec())
def test_raw_spec_ends_typed(command, text):
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out):
        code = main([command])
    assert code in (0, 2, 3)
    if code == 2:
        assert json.loads(out.getvalue())["error"] in ("MalformedJSON",
                                                        "ValidationError")
