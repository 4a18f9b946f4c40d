"""Exception types shared across the package; check_index, the one check
of a nonnegative integer index that every layer applies to its m, term
index, pole order or harmonic index; and check_tol, the one check of a
tolerance."""

import math

__all__ = [
    "check_index",
    "check_tol",
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


def check_index(value, noun: str) -> None:
    """Raise DomainError unless value is a nonnegative int; a bool is not
    one.  noun names the index in the message."""
    # the exact class int first: the common case skips both isinstance calls
    if not (value.__class__ is int or isinstance(value, int) and not isinstance(value, bool)) \
            or value < 0:
        raise DomainError(f"{noun} must be a nonnegative integer, got {value!r}")


def check_tol(tol, floor: float, noun: str) -> None:
    """Raise DomainError unless tol is a finite float >= floor; an int is
    not one.  noun names the tolerance in the message."""
    if not ((tol.__class__ is float or isinstance(tol, float)) and floor <= tol < math.inf):
        raise DomainError(f"{noun} must be a float >= {floor}, got {tol!r}")
