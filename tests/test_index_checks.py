"""Every entry point that takes a nonnegative integer index refuses a bool,
a negative int and a float with the same DomainError text, naming the
index as that entry point does."""

import pytest

from trisum.closedform import C_of, coeff_a, coeff_b
from trisum.errors import DomainError
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
