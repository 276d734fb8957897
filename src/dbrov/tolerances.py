"""Shared tolerances: every value that several modules test against has its
one name here, next to the caller-settable `Tolerances` of a context."""

from __future__ import annotations

from dataclasses import dataclass

# positivity slack: a row passes with sup |B| <= 1 + PSD_SLACK, and a defect
# may dip to -PSD_SLACK on the circle before it is NotPositive
PSD_SLACK = 1e-8
# residual target of the mate run, and the tightest one of the matrix run
ENGINE_TOL = 1e-12
# a tabulated density (Clark density, density residual) below this is negative
DENSITY_FLOOR = -1e-9


@dataclass(frozen=True)
class Tolerances:
    tol_psd: float = PSD_SLACK
    tol_factor: float = 1e-10
    tol_outer: float = 1e-6
    tol_eval: float = 1e-8
