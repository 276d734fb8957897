"""Numerics for de Branges-Rovnyak spaces of polynomial row Schur functions.

Build a space context from a row Schur function B (mate, matrix outer
factor, boundary spectrum), then embed polynomials, take kernels and shifts,
analyze Clark measures and boundary behavior, and decide cyclicity.
"""

from . import errors
from .boundary import (
    BoundaryReport,
    ClarkMeasure,
    caratheodory,
    clark,
    trunc_limit_pairing,
    trunc_limit_slope,
)
from .cyclic import (
    CyclicityCertificate,
    SpectrumSweep,
    cyclicity,
    is_outer,
    spectrum_crosscheck,
)
from .factor import FactorReport, mate_report, outer_check, wilson_report
from .fixtures import Fixture, fixture
from .poly import CPoly, LaurentHerm, MatPoly, VecPoly, poly_roots, toeplitz_conj
from .rowschur import RowSchur, defect_laurent
from .space import (
    HBElement,
    SpaceContext,
    backward_shift,
    density_residual,
    embed,
    gram,
    hb_inner,
    kernel,
    make_context,
    multiply_z,
    point_eval_residual,
    rank_one_identity_defect,
    toeplitz_conj_hb,
)
from .tolerances import Tolerances

__all__ = [
    "BoundaryReport", "ClarkMeasure", "CPoly", "CyclicityCertificate",
    "FactorReport", "Fixture", "HBElement", "LaurentHerm", "MatPoly",
    "RowSchur", "SpaceContext", "SpectrumSweep", "Tolerances", "VecPoly",
    "backward_shift", "caratheodory", "clark",
    "cyclicity", "defect_laurent", "density_residual", "embed", "errors",
    "fixture", "gram", "hb_inner", "is_outer", "kernel",
    "make_context", "mate_report", "multiply_z", "outer_check",
    "point_eval_residual", "poly_roots", "rank_one_identity_defect",
    "spectrum_crosscheck", "toeplitz_conj", "toeplitz_conj_hb",
    "trunc_limit_pairing", "trunc_limit_slope", "wilson_report",
]

__version__ = "0.1.0"
