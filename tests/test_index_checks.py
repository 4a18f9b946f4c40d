"""Every entry point that takes a nonnegative integer index refuses a bool,
a negative int and a float with the same DomainError text, naming the
index as that entry point does; and check_index and check_tol accept and
refuse what their predicates always have."""

import enum
import math

import numpy as np
import pytest

from trisum.closedform import C_of, coeff_a, coeff_b
from trisum.errors import DomainError, check_index, check_tol
from trisum.quadrature import beta_term_integral
from trisum.roots import solve_cubic
from trisum.series import base_term, sum_series
from trisum.specfun import harmonic, odd_harmonic

_ROOTS = solve_cubic(2.0)

# (label, the noun the message names, a call with the index as its argument)
_ENTRY_POINTS = [
    ("base_term", "term index", lambda v: base_term("A", v)),
    ("sum_series", "m", lambda v: sum_series("A1", 2.0, v)),
    ("C_of", "pole order", lambda v: C_of(v, 2.0)),
    ("coeff_a", "coefficient order m", lambda v: coeff_a(v, _ROOTS, 1)),
    ("coeff_b", "coefficient order m", lambda v: coeff_b(v, _ROOTS, 1)),
    ("beta_term_integral", "index", lambda v: beta_term_integral(v)),
    ("harmonic", "harmonic index", lambda v: harmonic(v)),
    ("harmonic-exact", "harmonic index", lambda v: harmonic(v, exact=True)),
    ("odd_harmonic", "harmonic index", lambda v: odd_harmonic(v)),
    ("odd_harmonic-exact", "harmonic index", lambda v: odd_harmonic(v, exact=True)),
]


@pytest.mark.parametrize("value", [True, False, -1, 2.0], ids=repr)
@pytest.mark.parametrize("noun,call", [e[1:] for e in _ENTRY_POINTS],
                         ids=[e[0] for e in _ENTRY_POINTS])
def test_index_must_be_a_nonnegative_int(noun, call, value):
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{noun} must be a nonnegative integer, got {value!r}"


class _Order(enum.IntEnum):
    THIRD = 3
    BELOW = -2


class _Tol(float):
    pass


# each value both checks meet: bools, ints in and out of the index range, a
# huge int, IntEnum members, numpy scalars, floats in and out of a tolerance's
# range, a float subclass, a str and None
_VALUES = [True, False, 0, -1, 2 ** 70, _Order.THIRD, _Order.BELOW, np.int64(3), 1.0,
           np.float64(1e-12), _Tol(1e-12), _Tol(1e-16), 1e-12, 1e-16, math.nan, math.inf,
           -math.inf, "1e-12", None]


def _outcome(call):
    try:
        call()
    except DomainError as exc:
        return str(exc)
    return "accepted"


def _index_as_written_before(value, noun):
    # the predicate check_index has always applied, with its message
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DomainError(f"{noun} must be a nonnegative integer, got {value!r}")


def _tol_as_written_before(tol, floor, noun):
    # the predicate check_tol has always applied, with its message
    if not (isinstance(tol, float) and floor <= tol < math.inf):
        raise DomainError(f"{noun} must be a float >= {floor}, got {tol!r}")


@pytest.mark.parametrize("value", _VALUES, ids=repr)
def test_validators_accept_and_reject_as_before(value):
    assert _outcome(lambda: check_index(value, "m")) == \
        _outcome(lambda: _index_as_written_before(value, "m"))
    assert _outcome(lambda: check_tol(value, 1e-15, "tol")) == \
        _outcome(lambda: _tol_as_written_before(value, 1e-15, "tol"))


def test_validator_outcomes():
    # the accepted values, spelled out, so the predicates above cannot
    # drift together
    index_ok = [v for v in _VALUES if _outcome(lambda: check_index(v, "m")) == "accepted"]
    tol_ok = [v for v in _VALUES if _outcome(lambda: check_tol(v, 1e-15, "tol")) == "accepted"]
    assert index_ok == [0, 2 ** 70, _Order.THIRD]
    assert tol_ok == [1.0, np.float64(1e-12), _Tol(1e-12), 1e-12]
