"""Closed-form evaluation and verification of central-binomial harmonic series.

Three independent layers compute the same numbers:

    closedform   dilogarithm/Clausen closed forms built from the roots of
                 x(1-x)^2 = z
    series       direct compensated summation with proven tail bounds
    quadrature   tanh-sinh integration of the log-singular integral
                 representations

The harness cross-checks the layers against each other and against a
registry of published constants; the cli exposes everything from the
shell.
"""

from .closedform import (
    REGISTRY,
    C_mirror,
    C_of,
    ClosedFormBreakdown,
    ConstantEntry,
    closed_sum,
    coeff_a,
    coeff_b,
    reference_constant,
)
from .errors import (
    DomainError,
    NoConvergence,
    NonConvergent,
    RepeatedRoots,
    TermOverflow,
    TooManyTerms,
    TrisumError,
    UnknownConstant,
    UnknownSuite,
)
from .harness import SUITES, VerificationRecord, emit_report, run_suite
from .quadrature import (
    IntegrandSpec,
    Kernel,
    Variant,
    beta_term_integral,
    integrate,
    series_via_quadrature,
    tanh_sinh,
)
from .roots import CubicRoots, solve_cubic
from .series import SeriesFamily, TermValue, base_term, sum_series
from .specfun import HarmonicCache, catalan, clausen2, dilog, harmonic, odd_harmonic

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # special functions
    "HarmonicCache", "harmonic", "odd_harmonic", "dilog", "clausen2", "catalan",
    # cubic roots
    "CubicRoots", "solve_cubic",
    # partial fractions
    "coeff_a", "coeff_b",
    # series summation
    "SeriesFamily", "TermValue", "base_term", "sum_series",
    # quadrature
    "Kernel", "Variant", "IntegrandSpec", "tanh_sinh", "integrate",
    "series_via_quadrature", "beta_term_integral",
    # closed forms
    "C_of", "C_mirror", "ClosedFormBreakdown", "closed_sum",
    "ConstantEntry", "REGISTRY", "reference_constant",
    # verification
    "VerificationRecord", "SUITES", "run_suite", "emit_report",
    # errors
    "TrisumError", "DomainError", "RepeatedRoots", "NonConvergent",
    "TooManyTerms", "TermOverflow", "NoConvergence", "UnknownConstant",
    "UnknownSuite",
]
