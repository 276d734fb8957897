"""Shared tolerances: every value that several modules test against has its
one name here, next to the caller-settable `Tolerances` of a context."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

# positivity slack: a row passes with sup |B| <= 1 + PSD_SLACK, and a defect
# may dip to -PSD_SLACK on the circle before it is NotPositive
PSD_SLACK = 1e-8
# residual target of the engine run, the one per context (on the mate): a
# factor above it is returned with fallback set
ENGINE_TOL = 1e-12
# a density residual, or 1 - |b|^2 of a Clark symbol (the sign of its
# density), below this is negative
DENSITY_FLOOR = -1e-9
# a point within this of a unimodular point (spectrum members, Clark atoms,
# |B| = 1, outer roots) is taken to be that point
UNIMODULAR_TOL = 1e-8
# a factor that misses ENGINE_TOL is accepted from this residual down, and
# a pass is certified only within it: regularizing a boundary-degenerate
# density would move its boundary zeros
BEST_FACTOR_TOL = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The tolerances a caller sets for a context, each positive and finite
    (else ValidationError).  Of them the engine run reads only tol_psd, as
    its dip; its residual bounds are ENGINE_TOL and BEST_FACTOR_TOL."""

    tol_psd: float = PSD_SLACK
    tol_outer: float = 1e-6
    tol_eval: float = 1e-8

    def __post_init__(self):
        for name, value in vars(self).items():
            if not 0 < value < float("inf"):  # NaN too
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
