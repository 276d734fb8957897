import contextlib
import io
import json
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import dbrov
from dbrov.cli import COMMANDS, main
from dbrov.errors import DbrovError, MateUndefined, ValidationError
from dbrov.fixtures import fixture
from dbrov.rowschur import RowSchur
from dbrov.schema import ProblemSpec, parse_problem, serialize_problem
from dbrov.space import density_residual, make_context, spectrum_member

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
        scalar = defect_laurent(fixture("TRUNC(3)").B)
        assert abs(scalar(1.0) - 0.125) < 1e-12

    def test_row2_defect_vanishes_at_one(self):
        from dbrov.rowschur import defect_laurent
        scalar = defect_laurent(fixture("ROW2").B)
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

    def test_spec_not_an_object(self):
        with pytest.raises(ValidationError, match="JSON object"):
            parse_problem([])

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

    def test_max_iter_key_is_ignored(self):
        # the field went with the Newton loop; an old spec that carries it
        # parses, as one with any unknown key does, and does not keep it
        spec = parse_problem({**ROW2_SPEC, "max_iter": 5})
        assert not hasattr(spec, "max_iter")
        assert "max_iter" not in serialize_problem(spec)

    def test_stale_engine_keys_are_ignored(self):
        # grid_log2 and the tolerances went with the engine settings and the
        # caller's bounds: a spec that carries them, even malformed, parses as
        # one without, keeps neither, and builds the default context bit for
        # bit (a tol_outer of 1e300 switched both outer-gap checks off)
        plain = parse_problem(ROW2_SPEC)
        want = make_context(plain.B)
        for keys in ({"grid_log2": 4, "tolerances": {"tol_factor": 1e-3}},
                     {"tolerances": {"tol_outer": 1e300}}, {"tolerances": 3}):
            stale = parse_problem({**ROW2_SPEC, **keys})
            assert serialize_problem(stale) == serialize_problem(plain)
            got = make_context(stale.B)
            assert np.array_equal(got.a.coeffs, want.a.coeffs)
            assert np.array_equal(got.A.coeffs, want.A.coeffs)
            assert (got.Lambda, got.splits, got.reports) == (want.Lambda, want.splits,
                                                             want.reports)

    @pytest.mark.parametrize("field", [
        {"f": [[True, 0]]}, {"w": [float("nan"), 0]},
        {"seed": True}, {"w": [True, 0]}, {"N": False},
        {"lambda": [1, float("inf")]}, {"xi": [[True, 0], [0, 0]]},
        {"w": [10 ** 400, 0]},  # float() would overflow
    ])
    def test_non_finite_and_boolean_fields(self, field):
        with pytest.raises(ValidationError):
            parse_problem({**ROW2_SPEC, **field})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, -np.inf)])
    def test_row_refuses_non_finite_coefficients(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            RowSchur([[0.5, 0.0], [bad, 0.0]])

    @pytest.mark.parametrize("spec,message", [
        ({**ROW2_SPEC, "schema_version": "2"}, "unsupported schema_version"),
        ({"B": [1, 2]}, "'B' must be an object"),
        ({"B": {"d": 1, "coeffs": []}}, "'B.coeffs' must be a nonempty list"),
    ])
    def test_malformed_spec_refused(self, spec, message):
        with pytest.raises(ValidationError, match=message):
            parse_problem(spec)

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

    def test_norm_of_zero(self, capsys):
        # the empty plus part, a (0, d) stack, is written as []
        code, out = self.run(
            ["norm", "--fixture", "ROW2", "--payload", '{"f": [[0,0]]}'], capsys)
        assert code == 0
        assert json.loads(out) == {"norm_sq": 0.0, "f_plus": []}

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
        assert doc["ac_mass"] == pytest.approx(1.0, abs=1e-12)

    def test_kernel_boundary(self, capsys):
        code, out = self.run(
            ["kernel", "--fixture", "ROW2", "--payload", '{"w": [1,0]}'],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "boundary"
        assert_close(doc["f"], [[0.75, 0.0], [0.5, 0.0]], 1e-10)

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
        names = ["context_build", "factorization_identities", "embedding_residual",
                 "orthogonal_complement", "reproducing_property", "backward_shift",
                 "conjugate_toeplitz", "multiplier_containments",
                 "clark_mass_balance", "gram_and_density",
                 "rank_one_shift_identity", "boundary_mass_duality"]
        for name in ("ZERO", "SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)"):
            code, out = self.run(["verify", "--fixture", name], capsys)
            assert code == 0, f"verify failed on {name}: {out}"
            doc = json.loads(out)
            assert doc["passed"] is True
            assert [c["name"] for c in doc["checks"]] == names

    def test_verify_reproducing_detail_shows_the_error(self, capsys):
        # the kernel runs to order deg f, where the pairing is exact up to
        # rounding: the detail reports the measured error against 1e-10
        code, out = self.run(["verify", "--fixture", "ROW2"], capsys)
        assert code == 0
        check, = (c for c in json.loads(out)["checks"]
                  if c["name"] == "reproducing_property")
        assert check["detail"].endswith("(bound 1.0e-10)")
        err = float(check["detail"].split()[1])
        assert 0.0 < err < 1e-12

    def test_verify_gram_detail_shows_orthonormality(self, capsys):
        # the cached orthonormal rows against a fresh Gram at order 10
        code, out = self.run(["verify", "--fixture", "TRUNC(8)"], capsys)
        assert code == 0
        check, = (c for c in json.loads(out)["checks"]
                  if c["name"] == "gram_and_density")
        assert check["detail"].startswith("orthonormality ")
        assert "(bound 1e-12), density monotone: True" in check["detail"]
        assert float(check["detail"].split()[1]) < 1e-14

    def test_verify_honours_flags(self, capsys):
        # --seed reaches the randomized suite: its draws, and so the errors
        # the checks report, follow the seed
        docs = []
        for seed in ("0", "9", "9"):
            code, out = self.run(["verify", "--fixture", "TRUNC(8)", "--seed", seed],
                                 capsys)
            assert code == 0 and json.loads(out)["passed"]
            docs.append(json.loads(out))
        assert docs[0] != docs[1] == docs[2]

    def test_max_iter_flag_is_gone(self, capsys):
        # the Newton step budget went with the Newton loop: argparse refuses
        # the flag as any unknown one, exit 2
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--fixture", "ROW2", "--max-iter", "5"])
        assert info.value.code == 2

    @pytest.mark.parametrize("flag", [["--grid-log2", "8"], ["--tol-factor", "1e-11"]])
    def test_grid_and_tolerance_flags_are_gone(self, capsys, flag):
        # the first grid follows the degree and the residual targets are
        # fixed: argparse refuses each flag as any unknown one, exit 2
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--fixture", "ROW2", *flag])
        assert info.value.code == 2

    def test_non_finite_result_ends_typed(self, capsys):
        # a norm beyond float range is refused by the element, with no numpy
        # warning: a typed error, exit 3, in output that a parser refusing
        # NaN and Infinity reads
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code, out = self.run(["norm", "--fixture", "ROW2", "--payload",
                              '{"f": [[1e200, 0]]}'], capsys)
        assert code == 3
        assert json.loads(out, parse_constant=refuse)["error"] == "NumericsError"

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
        # refused by the Gram's size check before any array of N rows
        ("density", '{"w": [0.5, 0], "N": 1000000000000000000000}'),
        ("crosscheck", '{"N": 1000000000000000000000}'),
    ])
    def test_oversized_order_exit_code(self, capsys, command, payload):
        code, out = self.run(
            [command, "--fixture", "ROW2", "--payload", payload], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "DomainError"

    def test_density_near_the_circle_exit_code(self, capsys):
        # |w| = 1 - 1.1e-16: inside the disk, but in the circle's 1e-10 band
        code, out = self.run(["density", "--fixture", "ROW2", "--payload",
                              '{"w": [0.6215512170042193, 0.783373528171953]}'],
                             capsys)
        assert code == 3
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("extra", [
        ["--seed", "-1"],
        ["--format", "csv"],
        ["--payload", '{"B": {"d": 1, "coeffs": [[[0.5, 0]]]}}'],  # and --fixture
        ["--payload", '{"xi": [[1, 0]]}'],  # ROW2 has d = 2
        ["--payload", '{"schema_version": "2"}'],
        ["--payload", '{"seed": 1.5}'],
        ["--payload", '{"N": -1}'],
    ])
    def test_flags_are_validated(self, capsys, extra):
        code, out = self.run(["analyze", "--fixture", "ROW2", *extra], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"

    def test_payload_needs_a_fixture(self, capsys):
        code, out = self.run(["analyze", "--payload", '{"w": [0, 0]}'], capsys)
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "ValidationError"
        assert doc["message"] == "--payload requires --fixture"

    def test_flag_overrides_payload(self, capsys):
        # --seed replaces the payload's seed: the run with both matches the
        # run with the flag alone
        docs = []
        for extra in (["--payload", '{"seed": 3}', "--seed", "9"], ["--seed", "9"],
                      ["--payload", '{"seed": 3}']):
            code, out = self.run(["verify", "--fixture", "TRUNC(8)", *extra], capsys)
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0] == docs[1] != docs[2]

    def test_clark_ignores_grid_log2(self, capsys):
        # a stale grid_log2 key is ignored, as any unknown key is: the Clark
        # measure, the partial fractions of 2/(1 - b), is the same with it
        docs = []
        for payload in ('{"xi": [[0.5, 0], [0, 0]]}',
                        '{"xi": [[0.5, 0], [0, 0]], "grid_log2": 4}'):
            code, out = self.run(["clark", "--fixture", "ROW2", "--payload", payload],
                                 capsys)
            assert code == 0
            docs.append(json.loads(out))
        assert docs[0] == docs[1]
        assert docs[1]["masses"] == []
        assert abs(docs[1]["total_mass"] - docs[1]["herglotz_re0"]) <= 1e-12

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

    @pytest.mark.parametrize("extra", [["--seed", "-1"], ["--payload", '{"seed": -1}']])
    def test_negative_seed_refused(self, capsys, extra):
        code, out = self.run(["verify", "--fixture", "ZERO", *extra], capsys)
        assert code == 2
        assert json.loads(out) == {"error": "ValidationError",
                                   "message": "'seed' must be a nonnegative integer"}

    def test_spec_not_an_object(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("[1, 2]"))
        code, out = self.run(["analyze"], capsys)
        assert code == 2
        assert json.loads(out)["error"] == "ValidationError"

    def test_pair_check_failure_exit_code(self, capsys, monkeypatch):
        # no pair residual meets a bound of 1e-300
        monkeypatch.setattr(dbrov.space, "EVAL_TOL", 1e-300)
        code, out = self.run(
            ["norm", "--fixture", "ROW2", "--payload", '{"f": [[1,0],[1,0]]}'], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "IllConditionedConstant"

    def test_failed_gram_cholesky_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(dbrov.space, "gram", lambda ctx, N: -np.eye(N + 1))
        code, out = self.run(["density", "--fixture", "ROW2", "--payload",
                              '{"w": [0.5, 0], "N": 4}'], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "NumericsError"


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
        "N": st.integers(0, 16), "seed": st.integers(-3, 3),
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


# ---------------------------------------------------------------------------
# per command: a valid spec with one field corrupted ends typed


def _polar(radius, angle):
    return st.tuples(radius, angle).map(
        lambda p: [p[0] * np.cos(p[1]), p[0] * np.sin(p[1])])


_ANGLE = st.floats(0.0, 2.0 * np.pi)
_INTERIOR = _polar(st.floats(0.0, 0.95), _ANGLE)
# cos/sin of an angle can land just inside the circle: the sampled
# [cos, sin] of 0.900075 has modulus 1 - 1.1e-16
_NEAR_INSIDE = [0.6215512170042193, 0.783373528171953]
_ON_CIRCLE = _polar(st.just(1.0), _ANGLE) \
    | st.sampled_from([[1.0, 0.0], [0.0, -1.0], [-1.0, 0.0], _NEAR_INSIDE])
# within the 1e-10 band in which points count as on the circle
_BAND = _polar(st.floats(1.0 - 9e-11, 1.0 + 9e-11), _ANGLE) | st.just(_NEAR_INSIDE)
_OUTSIDE = _polar(st.floats(1.0, 1e3), _ANGLE)
_BEYOND_BAND = _polar(st.floats(0.0, 1.0 - 1e-9) | st.floats(1.0 + 1e-9, 1e3), _ANGLE)
_NON_FINITE = st.sampled_from([[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.5]])
_HUGE_N = st.sampled_from([10 ** 9, 10 ** 21])
# kind: (field, value), per command
_SWEEP_CORRUPT = {
    "negative N": ("N", st.integers(-50, -1)),
    "huge N": ("N", _HUGE_N),
    "w on the circle": ("w", _ON_CIRCLE),
    "w outside the circle": ("w", _OUTSIDE),
    "non-finite w": ("w", _NON_FINITE),
}
_KERNEL_CORRUPT = {
    "huge N": ("N", _HUGE_N),
    "w in the circle band": ("w", _BAND),
    "w outside the circle": ("w", _polar(st.floats(1.0 + 1e-9, 1e3), _ANGLE)),
    "non-finite w": ("w", _NON_FINITE),
}
_CARATHEODORY_CORRUPT = {
    "lambda off the circle": ("lambda", _BEYOND_BAND),
    "non-finite lambda": ("lambda", _NON_FINITE),
}
_ANALYZE_CORRUPT = {
    "negative N": _SWEEP_CORRUPT["negative N"],
    "row outside the disk": ("B", st.floats(1.01, 1e3).map(
        lambda s: {"d": 2, "coeffs": [[[s, 0.0], [0.0, 0.0]]]})),
}


@st.composite
def _corrupt_spec(draw, valid, corrupt):
    """(kind, spec): the kind drawn first, then a row and the valid fields,
    then one field replaced by a corrupt value of that kind.  The kind comes
    first because a draw after the row gets what the row's draws leave of
    the choice sequence, and under derandomize=True one kind then takes
    most of the examples.  A value may also be a function of the row's
    dimension d that returns the strategy."""
    kind = draw(st.sampled_from(sorted(corrupt)))
    spec = {"B": draw(_row())}
    d = spec["B"]["d"]
    pick = lambda value: draw(value(d) if callable(value) else value)
    spec.update({key: pick(value) for key, value in valid.items()})
    field, value = corrupt[kind]
    spec[field] = pick(value)
    return kind, spec


def _run_typed(command, spec):
    """The exit code of `dbrov command` on the spec; an error is typed, and
    ends in 2 exactly when it is a ValidationError."""
    out = io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(spec))), \
            contextlib.redirect_stdout(out):
        code = main([command])
    assert code in (0, 2, 3)
    if code:
        error = json.loads(out.getvalue())["error"]
        assert issubclass(getattr(dbrov.errors, error), DbrovError)
        assert (code == 2) == (error == "ValidationError")
    return code


@settings(derandomize=True, max_examples=120, deadline=None)
@given(command=st.sampled_from(["density", "crosscheck"]),
       case=_corrupt_spec({"w": _INTERIOR, "N": st.integers(0, 40)}, _SWEEP_CORRUPT))
@example(command="density",  # ROW2 read 4.3e14 at every order here
         case=("w on the circle", {"B": ROW2_SPEC["B"], "w": _NEAR_INSIDE, "N": 4}))
def test_corrupt_sweep_spec_ends_typed(command, case):
    code = _run_typed(command, case[1])
    # crosscheck reads no w; every corrupt density spec is refused
    assert code or command == "crosscheck"


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=_corrupt_spec({"w": _INTERIOR, "N": st.integers(0, 40)}, _KERNEL_CORRUPT))
def test_corrupt_kernel_spec_ends_typed(case):
    kind, spec = case
    if kind == "w in the circle band":  # off the boundary spectrum
        try:
            ctx = make_context(parse_problem(spec).B)
            assume(spectrum_member(ctx.Lambda, complex(*spec["w"])) is None)
        except DbrovError:
            pass
    assert _run_typed("kernel", spec) in (2, 3)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(case=_corrupt_spec({"lambda": _ON_CIRCLE}, _CARATHEODORY_CORRUPT))
def test_corrupt_caratheodory_spec_ends_typed(case):
    assert _run_typed("caratheodory", case[1]) in (2, 3)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=_corrupt_spec({}, _ANALYZE_CORRUPT))
def test_corrupt_analyze_spec_ends_typed(case):
    assert _run_typed("analyze", case[1]) in (2, 3)


_F = st.lists(_PAIR, min_size=1, max_size=6)
_F_CORRUPT = {
    "empty f": ("f", st.just([])),
    "non-finite f": ("f", st.lists(_NON_FINITE, min_size=1, max_size=3)),
    "f entries not pairs": ("f", st.lists(
        st.lists(_UNIT, min_size=3, max_size=3) | st.booleans() | st.text(max_size=2),
        min_size=1, max_size=3)),
    "row outside the disk": _ANALYZE_CORRUPT["row outside the disk"],
}
_VERIFY_CORRUPT = {
    "negative seed": ("seed", st.integers(-10 ** 6, -1)),
    "seed not an integer": ("seed", st.floats(-5.0, 5.0) | st.booleans()
                            | st.text(max_size=2)),
    "row outside the disk": _ANALYZE_CORRUPT["row outside the disk"],
}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_corrupt_spec({"f": _F}, _F_CORRUPT))
def test_corrupt_norm_spec_ends_typed(case):
    assert _run_typed("norm", case[1]) in (2, 3)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_corrupt_spec({"f": _F}, {
    **_F_CORRUPT, "zero f": ("f", st.lists(st.just([0.0, 0.0]), min_size=1, max_size=4))}))
def test_corrupt_cyclic_spec_ends_typed(case):
    assert _run_typed("cyclic", case[1]) in (2, 3)


def _xi_with(entry):
    """xi of length d: interior entries, one of them (at a drawn index)
    replaced by a value from entry."""
    return lambda d: st.tuples(st.lists(_INTERIOR, min_size=d, max_size=d), entry,
                               st.integers(0, d - 1)).map(
        lambda t: t[0][: t[2]] + [t[1]] + t[0][t[2] + 1:])


_CLARK_CORRUPT = {
    "xi of the wrong length": ("xi", lambda d: st.lists(_INTERIOR, max_size=5).filter(
        lambda xi: len(xi) != d)),
    "non-finite xi": ("xi", _xi_with(_NON_FINITE)),
    "xi outside the ball": ("xi", _xi_with(_polar(st.floats(1.001, 1e3), _ANGLE))),
}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_corrupt_spec({}, _CLARK_CORRUPT))
def test_corrupt_clark_spec_ends_typed(case):
    assert _run_typed("clark", case[1]) in (2, 3)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=_corrupt_spec({"seed": st.integers(0, 100)}, _VERIFY_CORRUPT))
@example(case=("negative seed", {"B": ROW2_SPEC["B"], "seed": -1}))
def test_corrupt_verify_spec_ends_typed(case):
    # a negative seed in an otherwise valid spec: the raw-spec property test
    # draws too few valid verify specs to reach it
    assert _run_typed("verify", case[1]) in (2, 3)


# ---------------------------------------------------------------------------
# a spec round-trips through the schema

_FLOAT = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# a real value, as a library caller may put in a complex field, is a pair too
_COMPLEX = st.builds(complex, _FLOAT, _FLOAT) | _FLOAT


@st.composite
def _spec(draw):
    """A ProblemSpec with every optional field drawn, None among the choices."""
    row = draw(_row())
    B = parse_problem({"B": row}).B
    vector = lambda n: st.lists(_COMPLEX, min_size=n, max_size=n).map(np.array)
    maybe = lambda strategy: st.none() | strategy
    return ProblemSpec(
        B=B,
        f=draw(maybe(st.integers(1, 4).flatmap(vector))),
        w=draw(maybe(_COMPLEX)),
        xi=draw(maybe(vector(B.dim))),
        lam=draw(maybe(_COMPLEX)),
        N=draw(maybe(st.integers(0, 10 ** 6))),
        seed=draw(st.integers(0, 2 ** 63)),
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(spec=_spec())
def test_spec_round_trips(spec):
    once = serialize_problem(spec)
    back = parse_problem(json.loads(json.dumps(once)))
    assert np.array_equal(back.B.coeffs, spec.B.coeffs)
    for name in ("f", "xi"):
        want = getattr(spec, name)
        got = getattr(back, name)
        assert got is None if want is None else np.array_equal(got, want)
    for name in ("w", "lam", "N", "seed", "schema_version"):
        assert getattr(back, name) == getattr(spec, name)
    assert serialize_problem(back) == once
