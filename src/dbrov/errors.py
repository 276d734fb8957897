"""Exception and warning types shared across the package."""


class DbrovError(Exception):
    """Base class for every failure raised by this package."""


class ValidationError(DbrovError):
    """Malformed input: schema violations, out-of-range arguments."""


class DomainError(DbrovError):
    """Evaluation requested outside an operation's domain."""


class RootFindingFailed(DbrovError):
    """A computed root fails the residual test against its polynomial."""

    def __init__(self, message, best_residuals=None):
        super().__init__(message)
        self.best_residuals = best_residuals


class MateUndefined(DbrovError):
    """The scalar boundary defect vanishes identically; no outer mate exists."""


class NotPositive(DbrovError):
    """A density that must be nonnegative on the circle dips below tolerance."""


class OddBoundaryMultiplicity(DbrovError):
    """A unimodular root cluster of a nonnegative density has odd multiplicity."""


class FactorizationDiverged(DbrovError):
    """No factorization pass came within max(tol_factor, BEST_FACTOR_TOL).

    best is the report of the pass of least residual (residual, outer gap,
    grid, splits), or None when no factor was finished.
    """

    def __init__(self, message, residual_trace=None, best=None):
        super().__init__(message)
        self.residual_trace = residual_trace
        self.best = best


class SingularIterate(DbrovError):
    """The factorization met a zero it cannot divide by: a density that
    vanishes identically, a grid iterate that vanishes, or a zero constant
    coefficient."""


class DegenerateDeterminant(DbrovError):
    """The determinant is (numerically) zero on too much of the circle."""


class IllConditionedConstant(DbrovError):
    """The constant coefficient solve lost too many digits."""


class BoundaryNotRegular(DbrovError):
    """No bounded point evaluation at the requested unimodular point."""


class DegenerateSymbol(DbrovError):
    """The scalar symbol is identically one."""


class HigherOrderBoundaryZero(DbrovError):
    """A unimodular zero of the symbol has multiplicity two or more."""


class NonpositiveMass(DbrovError):
    """A point mass came out non-real or non-positive."""


class ZeroFunction(DbrovError):
    """The zero function was passed where a nonzero one is required."""


class NumericsError(DbrovError):
    """An internal consistency check failed beyond tolerance."""


class ConditioningWarning(UserWarning):
    """A density residual came out negative beyond `DENSITY_FLOOR`."""


class InconclusiveGap(UserWarning):
    """Spectrum sweep could not separate members from controls by 10x."""
