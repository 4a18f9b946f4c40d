"""The record types: VerificationRecord and ClosedFormBreakdown.

Both are named tuples.  They keep the fields, field order, attribute
access, repr, immutability and hashability they had as frozen
dataclasses, and can be built with keywords or positionally.  _record's
pairwise deviation is checked against the nested-loop formula bit for
bit, non-finite values included.
"""

import itertools
import math
import struct

import pytest

from trisum.closedform import ClosedFormBreakdown, closed_sum
from trisum.harness import VerificationRecord, _record
from trisum.roots import solve_cubic
from trisum.series import SeriesFamily

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


def pairwise_reference(closed, series, quad, extra, tol):
    # the nested-loop rule _record used before: (abs_diff, rel_diff, passed)
    values = [v for v in (closed, series, quad, *extra) if v is not None]
    if len(values) >= 2:
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


def test_pairwise_deviation_bit_for_bit():
    nan_could_pass = 0
    for closed, series, quad in itertools.product(_VALUES, repeat=3):
        for extra in ((), (0.75,), (math.nan,), (-math.inf,)):
            want_abs, want_rel, want_pass = pairwise_reference(closed, series, quad, extra, 1e-9)
            got = _record("x", "A1", 2.0, 0, closed, series, quad, 1e-9, 0.0, extra=extra)
            case = (closed, series, quad, extra)
            assert bits(got.abs_diff) == bits(want_abs), case
            assert bits(got.rel_diff) == bits(want_rel), case
            has_nan = any(v is not None and math.isnan(v) for v in (closed, series, quad, *extra))
            # a nan value never passes, though max() can drop it from abs_diff
            assert got.passed is (want_pass and not has_nan), case
            nan_could_pass += want_pass and has_nan
    assert nan_could_pass > 0


def test_nan_value_fails_record():
    # max() keeps its first pair's 0.0 over the later nan pairs
    got = _record("x", "A1", 2.0, 0, 0.75, 0.75, math.nan, 1e-9, 0.0)
    assert got.abs_diff == 0.0
    assert got.passed is False


def test_deviation_records():
    for dev, passed in ((0.0, True), (1e-10, True), (math.inf, False), (math.nan, False)):
        got = _record("x", None, None, None, None, None, None, 1e-9, 0.0, deviation=dev)
        assert bits(got.abs_diff) == bits(dev) and got.passed is passed
