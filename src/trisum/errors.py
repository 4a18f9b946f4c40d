"""Exception types shared across the package."""

__all__ = [
    "TrisumError",
    "DomainError",
    "RepeatedRoots",
    "NonConvergent",
    "TooManyTerms",
    "TermOverflow",
    "NoConvergence",
    "UnknownConstant",
    "UnknownSuite",
]


class TrisumError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TrisumError, ValueError):
    """Input lies outside the domain an operation is defined on."""


class RepeatedRoots(TrisumError, ArithmeticError):
    """The resolvent cubic is too close to a repeated root to separate."""


class NonConvergent(TrisumError, ValueError):
    """Series parameters outside the region where the sum converges."""


class TooManyTerms(TrisumError, RuntimeError):
    """Series summation hit the term cap before meeting the tolerance."""


class TermOverflow(TrisumError, OverflowError):
    """A series term the sum needs has a coefficient outside the double range."""


class NoConvergence(TrisumError, RuntimeError):
    """Quadrature level refinement exhausted without meeting the tolerance."""


class UnknownConstant(TrisumError, KeyError):
    """Requested reference constant id is not in the registry."""


class UnknownSuite(TrisumError, KeyError):
    """Requested verification suite name is not defined."""
