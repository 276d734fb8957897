"""The three seeded workloads: build, query and cli.

Each workload turns a seed into a fixed list of ops (one "pass").  An op is
one timed call into the program plus an untimed check of its output against
an independent oracle.  The structure of a pass (which rows, which
operations, how many) is the same for every seed; the seed draws only the
coefficients, points and test polynomials, so seeds differ in inputs but not
in the kind of work.

Why these workloads:

* build -- ``make_context`` over a (d, q) grid of random rows, strictly
  contractive (sup 0.9) and touching the circle (sup 1.0), plus fixtures.
  ``factor`` does almost all the work; no query module runs.  A few rows
  dominated by the Gauss-Newton polish (TRUNC(10), d=8/q=8 touching) set
  ``ops_per_s``; the many small rows set ``op_p50_ms``.  The q >= 40 rows
  fail today with RootFindingFailed and stay in so a fix shows.
* query -- a mix of space operations on contexts built in set-up, with the
  monomial cache warm (a long-lived library session).  ``space`` does nearly
  all the work and ``factor`` none in the timed phase.  Cheap ops (embed,
  kernel) set ``op_p50_ms``; the Gram-bound ops set ``op_p90_ms``.
* cli -- ``python -m dbrov.cli <cmd>`` subprocesses over all nine commands,
  on fixtures and seeded spec files.  Every command pays interpreter start,
  import and ``make_context`` with cold caches; the only workload that runs
  ``schema`` and ``cli``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import dbrov.boundary as boundary
import dbrov.cyclic as cyclic
import dbrov.space as space
from dbrov.errors import ConditioningWarning, InconclusiveGap
from dbrov.fixtures import fixture
from dbrov.poly import CPoly, VecPoly, toeplitz_conj
from dbrov.rowschur import RowSchur
from dbrov.space import embed as _embed, gram as _gram, hb_inner as _hb_inner, \
    make_context as _make_context

import oracles as orc
from oracles import WrongAnswer, bounded, require


@dataclass
class Op:
    """One timed call and the check of its output.

    ``check`` returns the errors it measured by kind (mate, factor, det,
    pair, oracle) and raises WrongAnswer on a failed check.  ``expect`` names
    a DbrovError class that counts as success when raised.  ``argv`` is set
    for cli ops: the same command run in process by the traced run.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], dict]
    expect: str | None = None
    argv: list | None = None


class CliFailure(Exception):
    """A cli command ended in a failure the check did not expect."""

    def __init__(self, name: str, typed: bool):
        super().__init__(name)
        self.name = name
        self.typed = typed


# ---------------------------------------------------------------------------
# seeded inputs


def random_row(rng, d: int, q: int, sup: float, dense: int = 1 << 14):
    """Random row scaled so that its sup over the circle is exactly ``sup``.

    Returns the coefficients and the point where the sup is attained (the
    spectrum point of a touching row).
    """
    c = rng.normal(size=(q + 1, d)) + 1j * rng.normal(size=(q + 1, d))

    def norm_sq(theta):
        return (np.abs(orc.horner(c, np.exp(1j * np.atleast_1d(theta)))) ** 2).sum(-1)

    thetas = 2 * np.pi * np.arange(dense) / dense
    j = int(np.argmax(norm_sq(thetas)))
    lo, hi = thetas[j] - 2 * np.pi / dense, thetas[j] + 2 * np.pi / dense
    for _ in range(80):  # ternary search on the smooth maximum
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if norm_sq(m1)[0] < norm_sq(m2)[0]:
            lo = m1
        else:
            hi = m2
    theta = 0.5 * (lo + hi)
    return c * (sup / np.sqrt(norm_sq(theta)[0])), complex(np.exp(1j * theta))


def random_poly(rng, deg: int) -> CPoly:
    """Random coefficients of a fixed degree: the seed draws values, not sizes."""
    return CPoly(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))


def _unit(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


# ---------------------------------------------------------------------------
# build


# (d, q, draws per sup level): mostly q <= 16, a few q in {24, 32}.  Many
# draws of the small classes keep the slowest rows (the polish-bound ones,
# which set ops_per_s) well under a tenth of the pass, so op_p90_ms falls in
# the dense run of mid-sized rows instead of jumping between the few slowest.
BUILD_GRID = [(1, 2, 10), (1, 3, 7), (1, 4, 10), (1, 8, 10), (2, 2, 10),
              (2, 4, 10), (2, 6, 7), (2, 8, 10), (3, 3, 10), (3, 4, 7),
              (3, 6, 10), (4, 2, 7), (4, 4, 10), (4, 6, 7), (4, 8, 10),
              (1, 16, 1), (2, 12, 1), (3, 12, 1), (4, 16, 2), (6, 2, 1),
              (6, 6, 2), (8, 2, 2), (8, 4, 2),
              (8, 8, 1), (1, 24, 1), (2, 32, 1)]
# the minority with q in {40, 60}: RootFindingFailed at the seed commit
BUILD_LARGE = [(1, 40, 0.9), (2, 60, 1.0)]
BUILD_FIXTURES = ("ZERO", "SARASON", "ROW2", "TRUNC(3)", "TRUNC(8)", "TRUNC(10)")


def _check_build(B, touch=None, sup=None, name=None):
    def check(ctx) -> dict:
        _, errs = orc.check_identities(B.coeffs, ctx.a.coeffs, ctx.A.coeffs)
        spectrum = [lam for lam, _ in ctx.Lambda]
        if name is not None:
            errs["oracle"] = orc.fixture_errors(name, ctx.a.coeffs, spectrum)
        elif sup < 1.0:
            require(not spectrum, f"contractive row has spectrum {spectrum}")
        else:
            gap = min((abs(lam - touch) for lam in spectrum), default=np.inf)
            require(gap <= 1e-6, f"touch point missing from spectrum ({gap:.2e})")
        return errs
    return check


def build_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for name in BUILD_FIXTURES:
        B = fixture(name).B
        ops.append(Op(f"make_context {name}", lambda B=B: space.make_context(B),
                      _check_build(B, name=name)))
    B = fixture("FLAT").B
    ops.append(Op("make_context FLAT", lambda B=B: space.make_context(B),
                  lambda out: {}, expect="MateUndefined"))
    rows = [(d, q, sup) for d, q, draws in BUILD_GRID for sup in (0.9, 1.0)
            for _ in range(draws)]
    for d, q, sup in rows + BUILD_LARGE:
        coeffs, touch = random_row(rng, d, q, sup)
        B = RowSchur(coeffs)
        ops.append(Op(f"make_context d={d} q={q} sup={sup}",
                      lambda B=B: space.make_context(B),
                      _check_build(B, touch=touch, sup=sup)))
    return ops


# ---------------------------------------------------------------------------
# query


@dataclass
class Ctx:
    name: str
    ctx: object
    spectrum: list = field(default_factory=list)


def query_contexts(seed: int) -> list[Ctx]:
    """ROW2, SARASON, TRUNC(8), a touching (3, 6) and a contractive (4, 8) row."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for name in ("ROW2", "SARASON", "TRUNC(8)"):
        out.append(Ctx(name, space.make_context(fixture(name).B)))
    for d, q, sup in ((3, 6, 1.0), (4, 8, 0.9)):
        coeffs, _ = random_row(rng, d, q, sup)
        out.append(Ctx(f"d={d} q={q} sup={sup}", space.make_context(RowSchur(coeffs))))
    for c in out:
        c.spectrum = [lam for lam, _ in c.ctx.Lambda]
    return out


def _pair_err(ctx, el) -> float:
    return bounded(orc.pair_residual(toeplitz_conj, ctx.B, ctx.A, el.f, el.f_plus),
                   orc.PAIR_BOUND, "pair residual")


def _norm_consistent(el) -> None:
    total = el.f.norm_sq() + el.f_plus.norm_sq()
    require(abs(el.norm_sq - total) <= 1e-12 * max(1.0, total),
            "norm_sq disagrees with its pair")


def _embed_op(c: Ctx, f: CPoly, want: float | None = None) -> Op:
    def check(el):
        require(np.array_equal(el.f.coeffs, f.coeffs), "embed changed f")
        _norm_consistent(el)
        errs = {"pair": _pair_err(c.ctx, el)}
        if want is not None:
            errs["oracle"] = bounded(abs(el.norm_sq - want), orc.ORACLE_BOUND,
                                     f"{c.name} norm^2")
        return errs
    return Op(f"embed {c.name} deg={f.degree}",
              lambda: space.embed(c.ctx, f), check)


def _interior_kernel_op(c: Ctx, w: complex, f: CPoly) -> Op:
    def check(k):
        # reproducing property: <f, K_w> = f(w) up to the reported tail
        err = abs(_hb_inner(c.ctx, _embed(c.ctx, f), k) - f(w))
        bounded(err - k.tail_bound, 1e-8, "reproducing property")
        kww = orc.kernel_diag(c.ctx.B.coeffs, w)
        slack = 2.0 * np.sqrt(kww) * k.tail_bound + k.tail_bound ** 2 + 1e-9
        require(abs(k.norm_sq - kww) <= slack, "kernel norm off K_w(w)")
        return {"oracle": max(0.0, err - k.tail_bound)}
    return Op(f"kernel {c.name} |w|={abs(w):.3f}",
              lambda: space.kernel(c.ctx, w), check)


def _boundary_kernel_op(c: Ctx, lam: complex) -> Op:
    def check(k):
        errs = {"pair": _pair_err(c.ctx, k)}
        want = orc.boundary_kernel_norm(c.ctx.B.coeffs, lam)
        oracle = abs(k.norm_sq - want)
        if c.name == "ROW2":  # k_1 = (3 + 2z)/4
            require(k.f.coeffs.shape == (2,), "ROW2 k1 has the wrong degree")
            oracle = max(oracle, float(np.abs(k.f.coeffs - [0.75, 0.5]).max()),
                         abs(k.norm_sq - 1.25))
        errs["oracle"] = bounded(oracle, orc.ORACLE_BOUND, "boundary kernel")
        return errs
    return Op(f"kernel {c.name} boundary", lambda: space.kernel(c.ctx, lam), check)


def _shift_op(c: Ctx, F) -> Op:
    def call():
        G = space.multiply_z(c.ctx, F)
        return G, space.backward_shift(c.ctx, G), space.backward_shift(c.ctx, F)

    def check(out):
        G, LG, LF = out
        require(np.array_equal(LG.f.coeffs, F.f.coeffs)
                and np.array_equal(LG.f_plus.coeffs, F.f_plus.coeffs),
                "backward shift is not a left inverse of multiplication by z")
        require(LF.norm_sq <= F.norm_sq * (1 + 1e-12), "backward shift expands")
        return {"pair": _pair_err(c.ctx, G)}
    return Op(f"shift {c.name}", call, check)


def _toeplitz_op(c: Ctx, phi: CPoly, F) -> Op:
    def check(el):
        ref = _embed(c.ctx, toeplitz_conj(phi, F.f))
        n = max(el.f_plus.coeffs.shape[0], ref.f_plus.coeffs.shape[0], 1)
        diff = np.zeros((n, c.ctx.dim), dtype=complex)
        diff[: el.f_plus.coeffs.shape[0]] += el.f_plus.coeffs
        diff[: ref.f_plus.coeffs.shape[0]] -= ref.f_plus.coeffs
        bounded(float(np.abs(diff).max()), 1e-10, "Toeplitz plus part")
        return {"pair": _pair_err(c.ctx, el)}
    return Op(f"toeplitz {c.name}",
              lambda: space.toeplitz_conj_hb(c.ctx, phi, F), check)


def _gram_op(c: Ctx, N: int) -> Op:
    def check(G):
        require(G.shape == (N + 1, N + 1), "Gram has the wrong shape")
        asym = float(np.abs(G - np.conj(G.T)).max())
        require(asym <= 1e-14 * float(np.abs(G).max()), "Gram is not Hermitian")
        try:
            np.linalg.cholesky(G)
        except np.linalg.LinAlgError:
            raise WrongAnswer(f"Gram of order {N} is not positive definite")
        errs = [0.0]
        for k in (0, N // 2, N):
            mono = CPoly(np.concatenate([np.zeros(k), [1.0]]))
            errs.append(abs(G[k, k].real - _embed(c.ctx, mono).norm_sq))
        if c.name == "SARASON":
            errs += [abs(G[0, 0] - 2.0), abs(G[1, 1] - 6.0)]
        return {"oracle": bounded(max(errs), orc.ORACLE_BOUND, "Gram diagonal")}
    return Op(f"gram {c.name} N={N}", lambda: space.gram(c.ctx, N), check)


def _density_op(c: Ctx, w: complex, n_max: int = 40) -> Op:
    def check(values):
        kww = orc.kernel_diag(c.ctx.B.coeffs, w)
        return {"oracle": orc.density_sweep(values, _gram(c.ctx, n_max), kww, w)}
    return Op(f"density {c.name} N=0..{n_max}",
              lambda: [space.density_residual(c.ctx, w, n) for n in range(n_max + 1)],
              check)


def _crosscheck_op(c: Ctx, N: int, controls=None) -> Op:
    def check(sweep):
        res = [r for _, r, _ in sweep.entries]
        require(min(res) >= -1e-9, "negative point-evaluation residual")
        if c.name != "ROW2":
            return {}
        err = max(abs(r - orc.row2_point_residual(lam, N))
                  for lam, r, _ in sweep.entries)
        return {"oracle": bounded(err, orc.ORACLE_BOUND, "ROW2 point residuals")}
    return Op(f"crosscheck {c.name} N={N}",
              lambda: cyclic.spectrum_crosscheck(c.ctx, N, controls), check)


def _clark_op(c: Ctx, xi, mass_at=None) -> Op:
    def check(mu):
        want = orc.herglotz_re0(c.ctx.B.coeffs, xi)
        bounded(abs(mu.total_mass - want) / max(1.0, abs(want)), 1e-6,
                "Clark total mass")
        if mass_at is None:
            return {}
        lam, mass = mass_at
        return {"oracle": bounded(abs(mu.mass_at(lam) - mass), orc.ORACLE_BOUND,
                                  "Clark point mass")}
    return Op(f"clark {c.name}", lambda: boundary.clark(c.ctx, xi), check)


def _caratheodory_op(c: Ctx, lam: complex) -> Op:
    member = any(abs(lam - l) <= 1e-8 for l in c.spectrum)

    def check(rep):
        require(rep.satisfies_caratheodory == member, "wrong Caratheodory verdict")
        if not member:
            return {}
        want = orc.boundary_kernel_norm(c.ctx.B.coeffs, lam)
        exact = rep.k_norm_sq_exact
        bounded(abs(rep.k_norm_sq_radial - exact) / exact, 1e-5, "radial estimate")
        err = max(abs(exact - want), abs(rep.k_norm_sq_lhopital - want),
                  abs(rep.clark_mass * exact - 1.0))
        return {"oracle": bounded(err, orc.ORACLE_BOUND, "Caratheodory")}
    return Op(f"caratheodory {c.name}",
              lambda: boundary.caratheodory(c.ctx, lam), check)


def _cyclic_op(c: Ctx, roots) -> Op:
    f = CPoly.from_roots(roots)
    want = orc.cyclic_verdict(roots, c.spectrum)

    def check(cert):
        require(cert.verdict == want, f"cyclicity verdict {cert.verdict} != {want}")
        return {}
    return Op(f"cyclic {c.name}", lambda: cyclic.cyclicity(c.ctx, f), check)


def _seeded_roots(rng, pattern: str, spectrum):
    """One root per letter: i inside the disk, o outside, s on the spectrum."""
    roots = []
    for kind in pattern:
        if kind == "s" and spectrum:
            roots.append(complex(spectrum[int(rng.integers(len(spectrum)))]))
        elif kind == "i":
            roots.append(rng.uniform(0.2, 0.85) * _unit(rng))
        else:
            roots.append(rng.uniform(1.15, 2.5) * _unit(rng))
    return roots


def query_ops(seed: int, ctxs: list[Ctx]) -> list[Op]:
    """One pass of the query mix: about 110 ops, 85% cheap and 15% Gram-bound.

    Contexts are assigned round-robin, so every seed runs the same kinds of
    op on the same contexts; the seed draws polynomials and points.
    """
    rng = np.random.default_rng([seed, 3])
    by = {c.name: c for c in ctxs}
    pick = itertools.cycle(ctxs).__next__
    ops = [_embed_op(by["SARASON"], CPoly([1.0]), 2.0),
           _embed_op(by["SARASON"], CPoly([0.0, 1.0]), 6.0)]
    ops += [_embed_op(pick(), random_poly(rng, 2 + (58 * i) // 33)) for i in range(34)]
    for r in np.linspace(0.1, 0.99, 20):
        ops.append(_interior_kernel_op(pick(), r * _unit(rng), random_poly(rng, 10)))
    for c in ctxs:
        for lam in c.spectrum:
            ops.append(_boundary_kernel_op(c, lam))
    ops.append(Op("kernel ROW2 off-spectrum",
                  lambda: space.kernel(by["ROW2"].ctx, -1.0), lambda out: {},
                  expect="BoundaryNotRegular"))
    for _ in range(8):
        c = pick()
        ops.append(_shift_op(c, _embed(c.ctx, random_poly(rng, 30))))
        c = pick()
        F = _embed(c.ctx, random_poly(rng, 30))
        ops.append(_toeplitz_op(c, random_poly(rng, 3), F))
    for N in (40, 80, 160, 40, 80, 160, 40, 80, 160):
        ops.append(_gram_op(pick(), N))
    for r, c in zip((0.5, 0.6, 0.7, 0.8), ctxs):
        ops.append(_density_op(c, r * _unit(rng)))
    ops.append(_crosscheck_op(by["ROW2"], 40, [1j, -1.0]))
    ops.append(_crosscheck_op(ctxs[3], 40))
    ops.append(_crosscheck_op(ctxs[4], 40))
    ops.append(_clark_op(by["ROW2"], by["ROW2"].ctx.B(1.0), (1.0, 0.8)))
    ops.append(_clark_op(by["SARASON"], [1.0], (1.0, 2.0)))
    for _ in range(4):
        c = pick()
        v = rng.normal(size=c.ctx.dim) + 1j * rng.normal(size=c.ctx.dim)
        ops.append(_clark_op(c, 0.5 * v / np.linalg.norm(v)))
    ops.append(_caratheodory_op(by["ROW2"], 1.0))
    ops.append(_caratheodory_op(by["SARASON"], 1.0))
    ops.append(_caratheodory_op(ctxs[3], ctxs[3].spectrum[0]))
    ops.append(_caratheodory_op(ctxs[4], _unit(rng)))
    for pattern in ("o", "i", "s", "oo", "oi", "os", "io", "so"):
        c = pick()
        ops.append(_cyclic_op(c, _seeded_roots(rng, pattern, c.spectrum)))
    return ops


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


WARNING_NAMES = {"ConditioningWarning": ConditioningWarning,
                 "InconclusiveGap": InconclusiveGap,
                 "RuntimeWarning": RuntimeWarning}


def _rewarn(stderr: str) -> None:
    """Re-issue a child's warnings here so they are counted like in-process ones."""
    for line in stderr.splitlines():
        for name, cls in WARNING_NAMES.items():
            if f": {name}: " in line:
                warnings.warn(line, cls)


def cli_env(root) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONWARNINGS"] = "always"
    return env


def _cli_call(argv, env, root):
    def call():
        proc = subprocess.run([sys.executable, "-m", "dbrov.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=root,
                              timeout=120)
        _rewarn(proc.stderr)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)
    return call


def _payload(res: CliResult, expect_error=None, expect_code=0):
    """Classify the exit and decode the JSON output."""
    if "Traceback (most recent call last)" in res.stderr:
        raise CliFailure("untyped", typed=False)
    if expect_error is None and res.code != 0:
        try:
            name = json.loads(res.stdout).get("error")
        except (json.JSONDecodeError, AttributeError):
            name = None
        if name:
            raise CliFailure(name, typed=True)
    if expect_error is not None:
        out = json.loads(res.stdout)
        require(res.code == expect_code and out.get("error") == expect_error,
                f"expected exit {expect_code} {expect_error}, got {res.code} "
                f"{out.get('error')}")
        return out
    require(res.code == 0, f"exit code {res.code}")
    return json.loads(res.stdout)


def _csv_rows(res: CliResult):
    if "Traceback (most recent call last)" in res.stderr:
        raise CliFailure("untyped", typed=False)
    if res.code != 0:
        raise CliFailure(json.loads(res.stdout).get("error", "unknown"), typed=True)
    return list(csv.DictReader(io.StringIO(res.stdout)))


def _pairs(v) -> np.ndarray:
    return np.array([complex(x, y) for x, y in v])


def _cx(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


class CliRow:
    """A row the cli workload runs on: fixture name or seeded spec file."""

    def __init__(self, label, coeffs, argv, spectrum):
        self.label = label
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.argv = argv        # ["--fixture", NAME] or ["--spec", PATH]
        self.spectrum = spectrum
        self._ctx = None

    def context(self):
        """The same row built in this process, for checks that need A or G."""
        if self._ctx is None:
            self._ctx = _make_context(RowSchur(self.coeffs))
        return self._ctx

    def cmd(self, name, payload=None):
        if payload is None:
            return [name, *self.argv]
        if self.argv[0] == "--fixture":
            return [name, *self.argv, "--payload", json.dumps(payload)]
        return [name, "--spec", self._spec_with(name, payload)]

    def _spec_with(self, name, payload):
        base = self.argv[1]
        with open(base, encoding="utf-8") as fh:
            data = json.load(fh)
        data.update(payload)
        path = base.replace(".json", f".{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path


def _cli_analyze(row: CliRow, expected_name=None):
    def check(res):
        out = _payload(res)
        a = _pairs(out["mate"])
        A = np.array([[_pairs(r) for r in mat] for mat in out["A"]])
        _, errs = orc.check_identities(row.coeffs, a, A)
        spectrum = [complex(*l["point"]) for l in out["lambda"]]
        if expected_name:
            errs["oracle"] = orc.fixture_errors(expected_name, a, spectrum)
        else:
            require(len(spectrum) == len(row.spectrum)
                    and all(min(abs(l - t) for l in spectrum) <= 1e-6
                            for t in row.spectrum),
                    f"spectrum {spectrum} != {row.spectrum}")
        return errs
    return check


def _cli_norm(row: CliRow, f: CPoly, want=None):
    def check(res):
        out = _payload(res)
        f_plus = np.array([_pairs(r) for r in out["f_plus"]]).reshape(-1, row.coeffs.shape[1])
        total = f.norm_sq() + float((np.abs(f_plus) ** 2).sum())
        require(abs(out["norm_sq"] - total) <= 1e-12 * max(1.0, total),
                "norm_sq disagrees with f_plus")
        ctx = row.context()
        errs = {"pair": bounded(orc.pair_residual(
            toeplitz_conj, ctx.B, ctx.A, f, VecPoly(f_plus, dim=ctx.dim)),
            orc.PAIR_BOUND, "pair residual")}
        if want is not None:
            errs["oracle"] = bounded(abs(out["norm_sq"] - want), orc.ORACLE_BOUND,
                                     "norm^2")
        return errs
    return check


def _cli_kernel(row: CliRow, w: complex):
    def check(res):
        out = _payload(res)
        if abs(abs(w) - 1.0) <= 1e-10:
            want = orc.boundary_kernel_norm(row.coeffs, w)
            err = abs(out["norm_sq"] - want)
            if row.label == "ROW2":
                err = max(err, float(np.abs(_pairs(out["f"]) - [0.75, 0.5]).max()))
            return {"oracle": bounded(err, orc.ORACLE_BOUND, "boundary kernel")}
        kww = orc.kernel_diag(row.coeffs, w)
        tail = out["tail_bound"]
        slack = 2.0 * np.sqrt(kww) * tail + tail ** 2 + 1e-9
        require(abs(out["norm_sq"] - kww) <= slack, "kernel norm off K_w(w)")
        return {}
    return check


def _cli_clark(row: CliRow, xi, mass_at=None):
    def check(res):
        out = _payload(res)
        want = orc.herglotz_re0(row.coeffs, xi)
        bounded(abs(out["total_mass"] - want) / max(1.0, abs(want)), 1e-6,
                "Clark total mass")
        if mass_at is None:
            return {}
        lam, mass = mass_at
        got = [m["mass"] for m in out["masses"]
               if abs(complex(*m["point"]) - lam) <= 1e-8]
        require(len(got) == 1, f"no point mass at {lam}")
        return {"oracle": bounded(abs(got[0] - mass), orc.ORACLE_BOUND, "Clark mass")}
    return check


def _cli_caratheodory(row: CliRow, lam, norm_sq, mass):
    def check(res):
        out = _payload(res)
        require(out["satisfies_caratheodory"], "Caratheodory condition missed")
        err = max(abs(out["k_norm_sq_exact"] - norm_sq),
                  abs(out["k_norm_sq_lhopital"] - norm_sq),
                  abs(out["clark_mass"] - mass))
        bounded(abs(out["k_norm_sq_radial"] - norm_sq) / norm_sq, 1e-5,
                "radial estimate")
        return {"oracle": bounded(err, orc.ORACLE_BOUND, "Caratheodory")}
    return check


def _cli_cyclic(row: CliRow, roots):
    want = orc.cyclic_verdict(roots, row.spectrum)

    def check(res):
        out = _payload(res)
        require(out["verdict"] == want, f"cyclicity verdict {out['verdict']} != {want}")
        return {}
    return check


def _cli_density(row: CliRow, w, n_max: int):
    def check(res):
        values = [float(r["residual"]) for r in _csv_rows(res)]
        require(len(values) == n_max + 1, "density sweep has the wrong length")
        kww = orc.kernel_diag(row.coeffs, w)
        return {"oracle": orc.density_sweep(values, _gram(row.context(), n_max),
                                            kww, w)}
    return check


def _cli_crosscheck(row: CliRow, N):
    def check(res):
        rows = _csv_rows(res)
        res_ = [float(r["residual"]) for r in rows]
        require(min(res_) >= -1e-9, "negative point-evaluation residual")
        if row.label != "ROW2":
            return {}
        member = [float(r["residual"]) for r in rows if r["member"] == "1"]
        require(len(member) == 1, "ROW2 spectrum is not {1}")
        return {"oracle": bounded(abs(member[0] - 0.8), orc.ORACLE_BOUND,
                                  "ROW2 member residual")}
    return check


def _cli_verify(res):
    out = _payload(res)
    failed = [c["name"] for c in out["checks"] if not c["pass"]]
    require(out["passed"] and not failed, f"verify failed: {failed}")
    return {}


def _cli_expect(error, code):
    def check(res):
        _payload(res, expect_error=error, expect_code=code)
        return {}
    return check


def _write_spec(path, coeffs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": "1", "B": {
            "d": coeffs.shape[1], "coeffs": [[_cx(x) for x in r] for r in coeffs]}}, fh)


def cli_ops(seed: int, spec_dir, root) -> list[Op]:
    """Fixture commands, expected failures, and seeded specs (d <= 4, q <= 12)."""
    rng = np.random.default_rng([seed, 4])
    env = cli_env(root)
    ops: list[Op] = []

    def add(row, cmd, check, payload=None):
        argv = row.cmd(cmd, payload)
        ops.append(Op(f"cli {cmd} {row.label}", _cli_call(argv, env, root),
                      check, argv=argv))

    row2 = CliRow("ROW2", fixture("ROW2").B.coeffs, ["--fixture", "ROW2"], [1.0])
    sar = CliRow("SARASON", fixture("SARASON").B.coeffs, ["--fixture", "SARASON"], [1.0])
    t3 = CliRow("TRUNC(3)", fixture("TRUNC(3)").B.coeffs, ["--fixture", "TRUNC(3)"], [])
    add(row2, "analyze", _cli_analyze(row2, "ROW2"))
    add(sar, "analyze", _cli_analyze(sar, "SARASON"))
    add(t3, "analyze", _cli_analyze(t3, "TRUNC(3)"))
    add(sar, "norm", _cli_norm(sar, CPoly([1.0]), 2.0), {"f": [[1, 0]]})
    add(sar, "norm", _cli_norm(sar, CPoly([0.0, 1.0]), 6.0), {"f": [[0, 0], [1, 0]]})
    f = random_poly(rng, 12)
    add(row2, "norm", _cli_norm(row2, f), {"f": [_cx(x) for x in f.coeffs]})
    add(row2, "kernel", _cli_kernel(row2, 1.0), {"w": [1, 0]})
    add(row2, "clark", _cli_clark(row2, row2.coeffs.sum(0), (1.0, 0.8)),
        {"xi": [_cx(x) for x in row2.coeffs.sum(0)]})
    add(sar, "clark", _cli_clark(sar, [1.0], (1.0, 2.0)), {"xi": [[1, 0]]})
    add(row2, "caratheodory", _cli_caratheodory(row2, 1.0, 1.25, 0.8),
        {"lambda": [1, 0]})
    add(row2, "cyclic", _cli_cyclic(row2, [1.0]), {"f": [[-1, 0], [1, 0]]})
    roots = _seeded_roots(rng, "os", sar.spectrum)
    add(sar, "cyclic", _cli_cyclic(sar, roots),
        {"f": [_cx(x) for x in CPoly.from_roots(roots).coeffs]})
    add(row2, "density", _cli_density(row2, 0.5, 12), {"w": [0.5, 0], "N": 12})
    add(row2, "crosscheck", _cli_crosscheck(row2, 40), {"N": 40})
    add(row2, "verify", _cli_verify)
    # expected failures, scored as successes when exit code and error match
    add(row2, "kernel", _cli_expect("BoundaryNotRegular", 3), {"w": [-1, 0]})
    add(CliRow("FLAT", [[0, 0]], ["--fixture", "FLAT"], []), "analyze",
        _cli_expect("MateUndefined", 3))
    add(CliRow("TRUNC(30)", [[0]], ["--fixture", "TRUNC(30)"], []), "analyze",
        _cli_expect("ValidationError", 2))

    # Three groups of seeded rows, so that one pass holds over 100 commands.
    # d = 1 touching rows land on either side of a det-gap split (~1e-15 or
    # ~5e-8, depending on the draw); nine of them per pass keep the worst
    # error of a run, and so accuracy_digits, steady across seeds.
    for g in range(3):
        for d, q in ((1, 8), (1, 4)):
            coeffs, touch = random_row(rng, d, q, 1.0)
            path = os.path.join(spec_dir, f"g{g}-d{d}-q{q}.json")
            _write_spec(path, coeffs)
            row = CliRow(f"d={d} q={q} sup=1.0", coeffs, ["--spec", path], [touch])
            add(row, "analyze", _cli_analyze(row))
        for i, (d, q, sup) in enumerate(((1, 12, 1.0), (2, 6, 0.9), (3, 4, 1.0),
                                         (4, 8, 0.9))):
            # A fresh draw for every command: the slowest commands, on the
            # (1, 12) rows, set op_p90_ms, and the cost of a row depends on
            # the draw; a shared row per class made op_p90_ms follow 3 draws.
            def row(cmd, d=d, q=q, sup=sup, tag=f"g{g}-row{i}"):
                coeffs, touch = random_row(rng, d, q, sup)
                path = os.path.join(spec_dir, f"{tag}-{cmd}.json")
                _write_spec(path, coeffs)
                return CliRow(f"d={d} q={q} sup={sup}", coeffs, ["--spec", path],
                              [touch] if sup == 1.0 else [])

            r = row("analyze")
            add(r, "analyze", _cli_analyze(r))
            f = random_poly(rng, 8)
            r = row("norm")
            add(r, "norm", _cli_norm(r, f), {"f": [_cx(x) for x in f.coeffs]})
            w = 0.5 * _unit(rng)
            r = row("kernel")
            add(r, "kernel", _cli_kernel(r, w), {"w": _cx(w)})
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            xi = 0.5 * v / np.linalg.norm(v)
            r = row("clark")
            add(r, "clark", _cli_clark(r, xi), {"xi": [_cx(x) for x in xi]})
            # no root on the spectrum: the touch point is only known to ~1e-8
            roots = _seeded_roots(rng, "oi" if i % 2 else "oo", [])
            r = row("cyclic")
            add(r, "cyclic", _cli_cyclic(r, roots),
                {"f": [_cx(x) for x in CPoly.from_roots(roots).coeffs]})
            if i in (0, 3):
                w = 0.6 * _unit(rng)
                r = row("density")
                add(r, "density", _cli_density(r, w, 12), {"w": _cx(w), "N": 12})
            if sup == 1.0:
                r = row("crosscheck")
                add(r, "crosscheck", _cli_crosscheck(r, 2 * q + 8),
                    {"N": 2 * q + 8})
            else:
                r = row("verify")
                add(r, "verify", _cli_verify)
    return ops
