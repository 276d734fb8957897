"""Shared tolerances: every value that several modules test against has its
one name here.  They are fixed: no caller, spec or flag sets a bound."""

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
# an outer gap of the mate or of det A above this fails the context check
OUTER_TOL = 1e-6

