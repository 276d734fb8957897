"""Run one workload: set up, time ops in whole passes, check, report.

Untraced runs (``--trace 0``) report the end-to-end metrics in reference
seconds: every timing is scaled by how fast a fixed reference task ran right
around it (see ``slowness``).  Traced runs
(``--trace 1``) run one pass twice per op, first untraced and then traced,
and report per-module self times, counts, the tracing overhead and the
failure accounting of that pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import dbrov.cli as dbrov_cli
from dbrov.errors import DbrovError

import oracles
import tracing
import workloads as wl

SETUP_REPEATS = 3
ERROR_KINDS = ("mate", "factor", "det", "pair", "oracle")
TYPED_ERRORS = sorted(c.__name__ for c in (
    DbrovError, *DbrovError.__subclasses__()) if c is not DbrovError)
WARNING_METRICS = {"ConditioningWarning": "space.conditioning_warnings",
                   "InconclusiveGap": "cyclic.inconclusive_gaps",
                   "RuntimeWarning": "poly.runtime_warnings"}


@dataclass
class Sample:
    """The outcome of one op execution."""

    op: int
    wall: float
    status: str                 # ok | typed | untyped | wrong
    error: str | None = None    # failure class, or the known defect's key
    errs: dict = field(default_factory=dict)
    slow: float = 1.0           # machine slowness around it (untraced runs)


@dataclass
class Tally:
    samples: list = field(default_factory=list)
    warnings: Counter = field(default_factory=Counter)


def _classify(op, out, exc, wall, index) -> Sample:
    if exc is not None:
        name = type(exc).__name__
        if isinstance(exc, DbrovError):
            if name == op.expect:
                return Sample(index, wall, "ok")
            print(f"[failed] {op.label}: {name}: {exc}", file=sys.stderr)
            return Sample(index, wall, "typed", name)
        _report_untyped(op, exc)
        return Sample(index, wall, "untyped", name)
    if op.expect is not None:
        print(f"[wrong] {op.label}: expected {op.expect}", file=sys.stderr)
        return Sample(index, wall, "wrong")
    try:
        errs = op.check(out)
    except oracles.WrongAnswer as bad:
        print(f"[wrong] {op.label}: {bad}", file=sys.stderr)
        return Sample(index, wall, "wrong", getattr(bad, "key", None))
    except wl.CliFailure as fail:
        print(f"[failed] {op.label}: {fail.name}", file=sys.stderr)
        return Sample(index, wall, "typed" if fail.typed else "untyped", fail.name)
    except Exception as bad:  # malformed output: count it, show where
        _report_untyped(op, bad)
        return Sample(index, wall, "wrong")
    return Sample(index, wall, "ok", errs=errs)


def _report_untyped(op, exc) -> None:
    print(f"[untyped] {op.label}:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def execute(op, index: int, tally: Tally | None, call=None):
    """Time one call; warnings raised by it are counted, not printed."""
    call = call or op.call
    out = exc = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as err:  # classified below: typed, expected or untyped
            exc = err
        wall = time.perf_counter() - t0
    if tally is None:
        return wall
    for w in caught:
        tally.warnings[w.category.__name__] += 1
    tally.samples.append(_classify(op, out, exc, wall, index))
    return wall


# ---------------------------------------------------------------------------
# reference tasks

# The shared host this benchmark was tuned on changes speed by up to 2x from
# one minute to the next, so wall times of the same op drift by more than any
# bound.  Each timing is therefore divided by the machine's slowness measured
# right around it: a fixed reference task's time over its nominal time, about
# what it takes on a quiet 2-core x86_64 VM.  The result reads as seconds on
# that quiet machine.  No reference task calls dbrov, so a faster dbrov still
# reads faster.
#
# In-process ops are scaled by the reference loop, which mixes the two kinds
# of work dbrov spends its time on: Python-level calls on short numpy arrays
# (hb_inner, gram) and FFTs over a circle grid (factor).  cli ops are
# subprocesses, dominated by interpreter start and imports, whose cost the
# host's slow spells move more than they move the loop; they are scaled by a
# fresh interpreter importing numpy.
REFERENCE_S = 6e-4
SPAWN_S = 0.12
REFERENCE_BLOCK = 9
_REF_A = np.arange(24, dtype=complex) * (1 + 0.5j)
_REF_B = _REF_A[::-1].copy()
_REF_M = np.zeros((16, 16), dtype=complex)
_REF_X = np.exp(1j * np.arange(2048) * 0.37)


def reference() -> float:
    """Wall time of one run of the fixed reference loop."""
    t0 = time.perf_counter()
    for j in range(200):
        k = j & 15
        v = complex(np.vdot(_REF_B[:k + 8], _REF_A[:k + 8]))
        _REF_M[k, j & 7] = v
        _REF_M[j & 7, k] = np.conj(v)
    for _ in range(4):
        np.fft.ifft(np.fft.fft(_REF_X) * _REF_X)
    return time.perf_counter() - t0


def slowness() -> float:
    return reference() / REFERENCE_S


def spawn_slowness(root):
    """Slowness measured by starting an interpreter that imports numpy."""
    argv, env = [sys.executable, "-c", "import numpy"], wl.cli_env(root)

    def slowness() -> float:
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=root, check=True, timeout=120)
        return (time.perf_counter() - t0) / SPAWN_S
    return slowness


def reference_block() -> float:
    """Median reference time over a short block, for timings of seconds."""
    return statistics.median(reference() for _ in range(REFERENCE_BLOCK))


def scaled(work) -> float:
    """Time ``work()`` in reference seconds, with reference blocks around it."""
    before = reference_block()
    t0 = time.perf_counter()
    work()
    wall = time.perf_counter() - t0
    return wall * REFERENCE_S / (0.5 * (before + reference_block()))


# ---------------------------------------------------------------------------
# set-up


def _import_seconds(root, env) -> float:
    """Median time of a fresh interpreter importing the package."""
    return statistics.median(scaled(lambda: subprocess.run(
        [sys.executable, "-c", "import dbrov"], env=env, cwd=root,
        check=True, timeout=120)) for _ in range(SETUP_REPEATS))


def _prepare(workload: str, seed: int, spec_dir, root):
    """Generate the seeded inputs (and, for query, contexts plus warm-up).

    The pass runs in a seeded random order, so that every kind of op is
    spread over the whole run and a slow spell of the machine does not fall
    on one kind only.
    """
    if workload == "build":
        ops = wl.build_ops(seed)
    elif workload == "cli":
        ops = wl.cli_ops(seed, spec_dir, root)
    else:
        ops = wl.query_ops(seed, wl.query_contexts(seed))
        for i, op in enumerate(ops):  # warm-up pass: fills the monomial caches
            execute(op, i, None)
    order = np.random.default_rng([seed, 5]).permutation(len(ops))
    return [ops[i] for i in order]


def setup(workload: str, seed: int, spec_dir, root):
    """Set up SETUP_REPEATS times; return the last ops and the median time.

    Times are in reference seconds.
    """
    imports = _import_seconds(root, wl.cli_env(root))
    made, times = [], []
    for _ in range(SETUP_REPEATS):
        times.append(scaled(lambda: made.append(
            _prepare(workload, seed, spec_dir, root))))
    return made[-1], imports + statistics.median(times)


# ---------------------------------------------------------------------------
# measurement


def measure(ops, seconds: float, slowness, every: int = 1) -> Tally:
    """Closed loop, one client: whole passes until about ``seconds`` are spent.

    Another pass starts only while it is expected to end within half a pass
    of the target, so every op runs equally often.  On a slow machine a pass
    is cut at twice the target; the order is shuffled, so the part that ran
    is a fair sample of the pass.  ``slowness()`` runs after every
    ``every`` ops; each sample keeps the mean of the slowness just before and
    after its block of ops.
    """
    tally = Tally()
    start = time.perf_counter()
    passes = 0
    before, block = slowness(), 0

    def close_block():
        nonlocal before, block
        after = slowness()
        for s in tally.samples[len(tally.samples) - block:]:
            s.slow = 0.5 * (before + after)
        before, block = after, 0

    while True:
        for i, op in enumerate(ops):
            if time.perf_counter() - start >= 2 * seconds:
                break
            execute(op, i, tally)
            block += 1
            if block == every:
                close_block()
        else:
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / passes < seconds:
                continue
        if block:
            close_block()
        return tally


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: a value that was actually measured."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def _worst_error(samples) -> float:
    return max((max(s.errs.values(), default=0.0) for s in samples
                if s.status == "ok"), default=0.0)


def end_to_end(tally: Tally, setup_s: float, workload: str) -> dict:
    """Per-op latency is the median of the op's executions in the run.

    Each execution is timed in reference seconds.  An op runs once per run
    in build and cli, and about 24 times in query.  For the percentiles a
    failed execution counts as +inf.  Throughput is verified executions per
    op divided by the sum of every op's median time; failed ops count in the
    time but not in the numerator.
    """
    times, graded, ok = {}, {}, Counter()
    for s in tally.samples:
        t = s.wall / s.slow
        times.setdefault(s.op, []).append(t)
        graded.setdefault(s.op, []).append(t if s.status == "ok" else math.inf)
        ok[s.op] += s.status == "ok"
    latency = [statistics.median(v) for v in graded.values()]
    verified = sum(ok[op] / len(v) for op, v in times.items())
    worst = max(_worst_error(tally.samples), 1e-17)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (verified / sum(statistics.median(v) for v in times.values()),
                      "1/s"),
        "op_p50_ms": (1e3 * percentile(latency, 0.50), "ms"),
        "op_p90_ms": (1e3 * percentile(latency, 0.90), "ms"),
        "accuracy_digits": (-math.log10(worst), "digits"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


def failure_counts(tally: Tally) -> dict:
    counts = Counter()
    for s in tally.samples:
        if s.status == "typed":
            counts[f"errors.{s.error}"] += 1
        elif s.status == "untyped":
            counts["errors.untyped"] += 1
        elif s.status == "wrong":
            counts["errors.wrong_answer"] += 1
            if s.error is not None:
                counts["errors.known_defect"] += 1
    return counts


# ---------------------------------------------------------------------------
# traced run


def _in_process(argv):
    """Run the cli's main in this process with its output captured."""
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = dbrov_cli.main(argv)
        return wl.CliResult(code, buf.getvalue(), "")
    return call


def traced_pass(ops, workload: str):
    """One pass: each op untraced, then traced (cli: in process, both ways).

    Returns the untraced tally, the recorder, the untraced and traced walls
    and, for cli, the subprocess walls.
    """
    rec = tracing.Recorder()
    tally = Tally()
    plain, traced, sub = [], [], []
    for i, op in enumerate(ops):
        execute(op, i, tally)
        call = op.call
        if op.argv is not None:
            sub.append(tally.samples[-1].wall)
            call = _in_process(op.argv)
            plain.append(execute(op, i, None, call=call))
        else:
            plain.append(tally.samples[-1].wall)
        with rec.installed(), rec.op(op.label):
            traced.append(execute(op, i, None, call=call))
    return tally, rec, plain, traced, sub


def per_layer(tally: Tally, rec: tracing.Recorder, plain, traced, sub) -> dict:
    metrics = {}
    per_op = rec.per_op()
    self_ms, calls = Counter(), Counter()
    for s, t in zip(rec.spans, rec.self_times()):
        if s[tracing.NAME] != tracing.ROOT:
            self_ms[s[tracing.NAME]] += 1e3 * t
            calls[s[tracing.NAME]] += 1
    for layer, names in tracing.TRACED.items():
        for fn in names:
            key = f"{layer}.{fn}"
            metrics[f"{key}_ms"] = (self_ms[key], "ms")
            metrics[f"{key}_calls"] = (calls[key], "count")
    for key in ("poly.poly_roots_degree", "space.embed_coeffs",
                "factor.wilson_iterations"):
        metrics[key] = (rec.counts[key], "count")
    metrics["factor.best_factor_fallbacks"] = (rec.fallbacks(), "count")
    maxima = {kind: max((s.errs.get(kind, 0.0) for s in tally.samples), default=0.0)
              for kind in ERROR_KINDS}
    metrics["factor.mate_residual_max"] = (maxima["mate"], "abs")
    metrics["factor.factor_residual_max"] = (maxima["factor"], "abs")
    metrics["space.det_gap_max"] = (maxima["det"], "abs")
    metrics["space.pair_residual_max"] = (maxima["pair"], "rel")
    metrics["space.oracle_error_max"] = (maxima["oracle"], "abs")
    for name, key in WARNING_METRICS.items():
        metrics[key] = (tally.warnings[name], "count")
    failures = failure_counts(tally)
    for name in TYPED_ERRORS + ["untyped", "wrong_answer", "known_defect"]:
        metrics[f"errors.{name}"] = (failures[f"errors.{name}"], "count")
    metrics["errors.failed_share"] = (
        sum(s.status != "ok" for s in tally.samples) / len(tally.samples), "share")
    metrics["cli.startup_ms"] = (1e3 * (sum(sub) - sum(plain)) if sub else 0.0, "ms")
    metrics["trace.op_wall_ms"] = (1e3 * sum(traced), "ms")
    metrics["trace.other_ms"] = (1e3 * sum(o["other"] for o in per_op), "ms")
    metrics["trace.overhead_ms"] = (1e3 * (sum(traced) - sum(plain)), "ms")
    metrics["trace.overhead_share"] = ((sum(traced) - sum(plain)) / sum(plain), "share")
    metrics["trace.closure_max_ms"] = (
        1e3 * max(abs(o["closure"]) for o in per_op), "ms")
    return metrics


# ---------------------------------------------------------------------------
# reporting


def machine_record(root) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")


def _print_breakdown(ops, rec, plain, sub, workload):
    """Where the time went: module shares, and cli analyze in detail."""
    per_op = rec.per_op()
    total = sum(o["wall"] for o in per_op)
    by_layer = Counter()
    for o in per_op:
        for name, t in o["self"].items():
            by_layer[name.split(".")[0]] += t
        by_layer["other"] += o["other"]
    print(f"self time by module over {len(per_op)} traced ops "
          f"({1e3 * total:.1f} ms):")
    for layer, t in by_layer.most_common():
        print(f"  {layer:10s} {1e3 * t:12.2f} ms  {100 * t / total:5.1f}%")
    for o in sorted(per_op, key=lambda o: -o["wall"])[:3]:
        parts = " + ".join(f"{k} {1e3 * v:.2f}" for k, v in
                           sorted(o["self"].items(), key=lambda kv: -kv[1]))
        print(f"  {o['op']}: wall {1e3 * o['wall']:.2f} ms = {parts} "
              f"+ other {1e3 * o['other']:.2f} ms")
    if workload == "cli":
        for i, op in enumerate(ops):
            if op.label.startswith("cli analyze ROW2"):
                startup = sub[i] - plain[i]
                print(f"cli analyze ROW2: subprocess {1e3 * sub[i]:.1f} ms, "
                      f"in-process main {1e3 * plain[i]:.1f} ms, startup "
                      f"{1e3 * startup:.1f} ms ({100 * startup / sub[i]:.0f}%)")


def write_trace(path, rec, machine, metrics):
    per_op = rec.per_op()
    doc = {
        "machine": machine,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "ops": per_op,
        "spans": rec.spans,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")


def run(args, root, out_dir) -> int:
    machine = machine_record(root)
    spec_dir = out_dir / f"cli-specs-{os.getpid()}"
    spec_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops, setup_s = setup(args.workload, args.seed, str(spec_dir), root)
        if args.trace:
            tally, rec, plain, traced, sub = traced_pass(ops, args.workload)
            metrics = per_layer(tally, rec, plain, traced, sub)
            _print_breakdown(ops, rec, plain, sub, args.workload)
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            write_trace(trace_path, rec, machine, metrics)
            print(f"spans written to {trace_path.relative_to(root)}")
        else:
            if args.workload == "cli":  # the spawn costs about 0.15 s
                tally = measure(ops, args.seconds, spawn_slowness(root), every=2)
            else:
                tally = measure(ops, args.seconds, slowness)
            metrics = end_to_end(tally, setup_s, args.workload)
            slow = statistics.median(s.slow for s in tally.samples)
            print(f"machine slowness: median {slow:.3f} around "
                  f"{len(tally.samples)} ops (1 = the reference task's nominal time)")
    finally:
        shutil.rmtree(spec_dir, ignore_errors=True)
    failures = failure_counts(tally)
    attempted = len(tally.samples)
    failed = sum(s.status != "ok" for s in tally.samples)
    print("machine " + json.dumps(machine))
    worst = max((s for s in tally.samples if s.status == "ok"),
                key=lambda s: max(s.errs.values(), default=0.0))
    print(f"worst error {max(worst.errs.values(), default=0.0):.3e} "
          f"{worst.errs} at {ops[worst.op].label}")
    print(f"{args.workload}: {attempted} ops ({len(ops)} per pass, "
          f"{attempted // len(ops)} passes), {failed} failed "
          f"{dict(failures)}, warnings {dict(tally.warnings)}")
    _print_table(f"{args.workload} metrics (seed {args.seed}, "
                 f"{'traced' if args.trace else 'untraced'}):", metrics)
    result = {
        # a wrong answer matching a documented defect is a failed op, but
        # only an undocumented one (or a traceback) makes the run incorrect
        "correct": failures["errors.wrong_answer"] == failures["errors.known_defect"]
        and failures["errors.untyped"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
