"""Shared tolerances: every value that several modules test against has its
one name here, next to the caller-settable `Tolerances` of a context."""

from __future__ import annotations

from dataclasses import dataclass

# positivity slack: a row passes with sup |B| <= 1 + PSD_SLACK, and a defect
# may dip to -PSD_SLACK on the circle before it is NotPositive
PSD_SLACK = 1e-8
# residual target of the engine run, the one per context (on the mate)
ENGINE_TOL = 1e-12
# a density residual, or 1 - |b|^2 of a Clark symbol (the sign of its
# density), below this is negative
DENSITY_FLOOR = -1e-9
# a point within this of a unimodular point (spectrum members, Clark atoms,
# |B| = 1, outer roots) is taken to be that point
UNIMODULAR_TOL = 1e-8
# a factor that misses tol_factor is accepted from this residual down:
# regularizing a boundary-degenerate density would move its boundary zeros
BEST_FACTOR_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The tolerances a caller sets for a context.  tol_factor only tightens:
    the engine run uses min(tol_factor, ENGINE_TOL), so every value at or
    above 1e-12, the default 1e-10 included, builds the same context."""

    tol_psd: float = PSD_SLACK
    tol_factor: float = 1e-10
    tol_outer: float = 1e-6
    tol_eval: float = 1e-8
