"""The package's named tuples: the records VerificationRecord and
ClosedFormBreakdown, and CubicRoots, FamilySpec, TermValue,
IntegrandSpec and ConstantEntry.

All were frozen dataclasses.  They keep the fields, field order,
attribute access, repr, immutability and hashability they had, and can
be built with keywords or positionally.

_record's deviation is the spread of its values, max - min, which is
their largest pairwise |a - b|.  It is checked bit for bit against the
nested-loop formula over a grid of values, non-finite ones included,
and against the pair chain over random doubles in every order.  Where
the values hold the same infinity twice and another value, the spread
is inf in every order; the nested loop gives nan where its first pair is
the two infinities, and inf otherwise.
"""

import itertools
import math
import struct
from itertools import combinations, starmap
from operator import sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisum.closedform import (REGISTRY, ClosedFormBreakdown, ConstantEntry, _denominator,
                               closed_sum)
from trisum.harness import VerificationRecord, _identity_record, _record
from trisum.quadrature import IntegrandSpec
from trisum.roots import CubicRoots, solve_cubic
from trisum.series import FAMILIES, FamilySpec, SeriesFamily, TermValue, base_term

RECORD_FIELDS = ("id", "family", "z", "m", "closed", "series_oracle", "quad_oracle",
                 "abs_diff", "rel_diff", "tol", "passed", "runtime_ms")
BREAKDOWN_FIELDS = ("family", "z", "m", "total", "roots", "contributions", "imag_residual")


def dataclass_repr(obj, fields):
    # the repr a frozen dataclass gives
    return f"{type(obj).__name__}(" + ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields) + ")"


@pytest.fixture
def rec():
    return VerificationRecord(
        id="A1-z2-m1", family="A1", z=2.0, m=1, closed=0.5, series_oracle=0.5 + 1e-12,
        quad_oracle=None, abs_diff=1e-12, rel_diff=1e-12, tol=1e-9, passed=True,
        runtime_ms=0.25,
    )


@pytest.fixture
def breakdown():
    return closed_sum("B2", -4.0, 2)


def test_field_order():
    assert VerificationRecord._fields == RECORD_FIELDS
    assert ClosedFormBreakdown._fields == BREAKDOWN_FIELDS


def test_keyword_and_positional_build_agree(rec):
    assert VerificationRecord(*(getattr(rec, f) for f in RECORD_FIELDS)) == rec
    assert rec.series_oracle == 0.5 + 1e-12 and rec.quad_oracle is None


def test_repr(rec, breakdown):
    assert repr(rec) == dataclass_repr(rec, RECORD_FIELDS)
    assert repr(rec).startswith("VerificationRecord(id='A1-z2-m1', family='A1', z=2.0, m=1, ")
    assert repr(breakdown) == dataclass_repr(breakdown, BREAKDOWN_FIELDS)
    assert repr(breakdown).startswith(
        "ClosedFormBreakdown(family=<SeriesFamily.B2: 'B2'>, z=-4.0, m=2, total=")


@pytest.mark.parametrize("field", RECORD_FIELDS)
def test_record_fields_are_read_only(rec, field):
    with pytest.raises(AttributeError):
        setattr(rec, field, None)


@pytest.mark.parametrize("field", BREAKDOWN_FIELDS)
def test_breakdown_fields_are_read_only(breakdown, field):
    with pytest.raises(AttributeError):
        setattr(breakdown, field, None)


def test_hashable(rec, breakdown):
    assert len({rec, rec._replace(), VerificationRecord(**rec._asdict())}) == 1
    assert rec._replace(passed=False) not in {rec}
    assert len({breakdown, closed_sum("B2", -4.0, 2)}) == 1


def test_asdict_and_replace(rec, breakdown):
    assert list(rec._asdict()) == list(RECORD_FIELDS)
    failed = rec._replace(passed=False)
    assert failed.passed is False and failed.id == rec.id and rec.passed is True
    assert breakdown._asdict()["roots"] == solve_cubic(-4.0)
    assert breakdown.family is SeriesFamily.B2
    assert len(breakdown.contributions) == 3


# class, its fields in order, an instance, and how its repr begins
_TUPLES = {
    "CubicRoots": (CubicRoots, ("z", "roots", "discriminant"),
                   lambda: solve_cubic(3.0), "CubicRoots(z=3.0, roots=((2.17455941029298+0j), "),
    "FamilySpec": (FamilySpec, ("kind", "outer", "shifted"),
                   lambda: FAMILIES[SeriesFamily.B2],
                   "FamilySpec(kind='B', outer=True, shifted=True)"),
    "TermValue": (TermValue, ("k", "value", "exact"), lambda: base_term("A", 0),
                  "TermValue(k=0, value=1.0, exact=Fraction(1, 1))"),
    "IntegrandSpec": (IntegrandSpec, ("kernel", "z", "m", "variant"),
                      lambda: IntegrandSpec("lnx", 2, 1),
                      "IntegrandSpec(kernel=<Kernel.LNX: 'lnx'>, z=2.0, m=1, "
                      "variant=<Variant.THM1: 'thm1'>)"),
    "ConstantEntry": (ConstantEntry, ("id", "family", "z", "m", "scale", "terms"),
                      lambda: REGISTRY["a1-z2-m0"],
                      "ConstantEntry(id='a1-z2-m0', family=<SeriesFamily.A1: 'A1'>, "
                      "z=2.0, m=0, scale=Fraction(1, 1), terms=((Fraction(1, 48), "),
}


@pytest.mark.parametrize("name", _TUPLES)
def test_converted_class_fields_and_repr(name):
    cls, fields, make, head = _TUPLES[name]
    obj = make()
    assert cls._fields == fields
    assert repr(obj) == dataclass_repr(obj, fields)
    assert repr(obj).startswith(head)


@pytest.mark.parametrize("name", _TUPLES)
def test_converted_class_builds_by_keyword(name):
    cls, fields, make, _ = _TUPLES[name]
    obj = make()
    values = {f: getattr(obj, f) for f in fields}
    assert cls(**values) == obj
    assert cls(*values.values()) == obj
    assert type(cls(**values)) is cls


@pytest.mark.parametrize("name", _TUPLES)
def test_converted_class_hash(name):
    cls, fields, make, _ = _TUPLES[name]
    obj = make()
    # the hash a frozen dataclass gives: that of the tuple of its fields
    assert hash(obj) == hash(tuple(getattr(obj, f) for f in fields))
    assert len({obj, cls(**obj._asdict())}) == 1


@pytest.mark.parametrize("name", _TUPLES)
def test_converted_class_is_read_only(name):
    cls, fields, make, _ = _TUPLES[name]
    obj = make()
    for field in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(obj, field, None)


def test_cubic_roots_key_the_expansion_cache_by_value():
    first, second = solve_cubic(5.0), solve_cubic(5.0)
    assert first is not second and first == second
    _denominator(3, first, 1)
    hits = _denominator.cache_info().hits
    assert _denominator(3, second, 1) is _denominator(3, first, 1)
    assert _denominator.cache_info().hits == hits + 2


def pairwise_reference(closed, series, quad, extra, tol):
    # the nested-loop rule, with nan as the deviation wherever a value is
    # nan: (abs_diff, rel_diff, passed)
    values = [v for v in (closed, series, quad, *extra) if v is not None]
    if any(math.isnan(v) for v in values):
        abs_diff = math.nan
    elif len(values) >= 2:
        abs_diff = max(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:])
    else:
        abs_diff = 0.0
    ref = closed if closed is not None else (series if series is not None else None)
    scale = max(1.0, abs(ref)) if ref is not None else 1.0
    rel_diff = abs_diff / scale
    return abs_diff, rel_diff, rel_diff <= tol


def bits(x):
    return struct.pack("<d", x)


_VALUES = (None, 0.0, -0.0, 0.75, 0.75 + 2e-10, -3.0, 5e-324, 1e308, -1e308,
           math.inf, -math.inf, math.nan)


def record_of(values, closed=None, series=None, quad=None):
    return _record("x", "A1", 2.0, 0, closed, series, quad, tuple(values), 1e-9, 0.0)


def twice_infinite(values):
    # the same infinity twice and another value, no nan
    return not any(map(math.isnan, values)) and any(
        1 < values.count(inf) < len(values) for inf in (math.inf, -math.inf))


def test_pairwise_deviation_bit_for_bit():
    changed = 0
    for closed, series, quad in itertools.product(_VALUES, repeat=3):
        for extra in ((), (0.75,), (math.nan,), (-math.inf,)):
            values = [v for v in (closed, series, quad, *extra) if v is not None]
            want_abs, want_rel, want_pass = pairwise_reference(closed, series, quad, extra, 1e-9)
            got = record_of(values, closed, series, quad)
            case = (closed, series, quad, extra)
            if twice_infinite(values):
                # inf in every order, where the nested loop gives nan when
                # its first pair is the two infinities
                changed += math.isnan(want_abs)
                for order in itertools.permutations(values):
                    assert record_of(order, closed, series, quad).abs_diff == math.inf, case
                assert got.passed is want_pass is False, case
                continue
            assert bits(got.abs_diff) == bits(want_abs), case
            assert bits(got.rel_diff) == bits(want_rel), case
            assert got.passed is want_pass, case
    assert changed == 66


# doubles at the edges: signed zeros, subnormals, the smallest normal and
# values whose differences overflow
_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
          1.7976931348623157e308)


@given(st.lists(st.one_of(st.sampled_from(_EDGES),
                          st.floats(allow_nan=False, allow_infinity=False)),
                min_size=2, max_size=4),
       st.sampled_from((None, math.inf, -math.inf)))
def test_spread_matches_the_pair_chain(values, infinity):
    # 2-4 doubles, at most one of them infinite, in every order
    if infinity is not None:
        values[0] = infinity
    for order in itertools.permutations(values):
        want = max(map(abs, starmap(sub, combinations(order, 2))), default=0.0)
        assert bits(record_of(order).abs_diff) == bits(want), order


def test_nan_value_fails_record():
    # max() and min() would pass over a nan after the first value; the
    # deviation is nan instead, so the report shows why
    got = record_of((0.75, 0.75, math.nan), 0.75, 0.75, math.nan)
    assert math.isnan(got.abs_diff) and math.isnan(got.rel_diff)
    assert got.passed is False


def test_deviation_records():
    # an identity record takes the spread of (0.0, deviation): deviation, bitwise
    for dev, passed in ((0.0, True), (1e-10, True), (math.inf, False), (math.nan, False)):
        got = _identity_record("x", 1e-9, dev, 0.0)
        assert bits(got.abs_diff) == bits(dev) and got.passed is passed
