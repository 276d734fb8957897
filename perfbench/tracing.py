"""Span recording around the public functions of each ``dbrov`` module.

While a ``Recorder`` is installed, every binding of a traced function in any
``dbrov.*`` namespace (including names imported into other modules, such as
``dbrov.space.mate_report``) is replaced by a wrapper that records a span:
name, parent, start, end and the error it raised.  Uninstalling restores
the original objects, so untraced runs call the library unchanged.  Spans
stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# layer -> public functions timed in that layer
TRACED = {
    "poly": ("poly_roots", "toeplitz_conj"),
    "rowschur": ("defect_laurent",),
    "factor": ("mate_report", "wilson_report", "factor_residual", "outer_check"),
    "space": ("make_context", "embed", "hb_inner", "gram", "kernel",
              "backward_shift", "multiply_z", "toeplitz_conj_hb",
              "density_residual", "point_eval_residual"),
    "boundary": ("clark", "caratheodory"),
    "cyclic": ("cyclicity", "spectrum_crosscheck"),
    "verify": ("run_checks",),
    "schema": ("parse_problem",),
    "cli": ("main",),
}

ROOT = "op"

# Span fields: name, parent index, start, end, error class name or None.
NAME, PARENT, START, END, ERROR = range(5)


def _count_poly_degree(counts, args, result):
    counts["poly.poly_roots_degree"] += max(args[0].degree, 0)


def _count_embed_coeffs(counts, args, result):
    f = args[1]
    counts["space.embed_coeffs"] += np.size(getattr(f, "coeffs", f))


def _count_wilson_iterations(counts, args, result):
    counts["factor.wilson_iterations"] += int(result.reports["factor_iterations"])


HOOKS = {
    "poly.poly_roots": _count_poly_degree,
    "space.embed": _count_embed_coeffs,
    "space.make_context": _count_wilson_iterations,
}


class Recorder:
    """In-memory spans of one traced run, grouped under one root per op."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[str, int]] = []  # (op label, root span index)
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, label: str):
        """Root span of one benchmark op; its self time is the 'other' part."""
        self.ops.append((label, len(self.spans)))
        span = self._enter(ROOT)
        try:
            yield span
        finally:
            self._exit(span)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                self._exit(span)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced public name in the loaded dbrov modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dbrov" or n.startswith("dbrov."))]
        wrappers = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"dbrov.{layer}"]
            for fn_name in names:
                fn = vars(mod)[fn_name]
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fn_name}", fn))
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    # ------------------------------------------------------------------
    # analysis

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def per_op(self) -> list[dict]:
        """For each op: wall time and self time per span name, in seconds.

        The root's self time is reported as 'other'; by construction the
        self times plus 'other' add up to the op's wall time, and the
        returned 'closure' is the rounding residue of that sum.
        """
        selfs = self.self_times()
        bounds = [idx for _, idx in self.ops] + [len(self.spans)]
        out = []
        for (label, root), end in zip(self.ops, bounds[1:]):
            wall = self.spans[root][END] - self.spans[root][START]
            by_name: Counter = Counter()
            for i in range(root + 1, end):
                by_name[self.spans[i][NAME]] += selfs[i]
            other = selfs[root]
            out.append({
                "op": label, "wall": wall, "other": other,
                "self": dict(by_name),
                "closure": wall - other - sum(by_name.values()),
            })
        return out

    def fallbacks(self) -> int:
        """make_context calls that returned after wilson_report diverged."""
        count = 0
        for s in self.spans:
            if s[NAME] != "factor.wilson_report" \
                    or s[ERROR] != "FactorizationDiverged":
                continue
            p = s[PARENT]
            while p >= 0 and self.spans[p][NAME] != "space.make_context":
                p = self.spans[p][PARENT]
            if p >= 0 and self.spans[p][ERROR] is None:
                count += 1
        return count
