"""Report bytes: emit_report against a per-cell reference renderer.

The json writer renders a record through one row function generated from
the harness's column table.  The reference below renders it the way the
writer did before, one cell at a time, through an isinstance chain on each
value, and json, csv and table output must match it byte for byte, on
every suite and on synthetic records that reach the edges of each cell
format, and on one report that reaches the edges of the writer's per-report
float memo.  The one intended difference from the old writer: json writes a
float that is not finite as Infinity, -Infinity or NaN, so the report
stays parseable.
"""

import csv
import io
import json
import math
import re
from fractions import Fraction

import pytest

import trisum.harness as harness
from trisum.cli import main
from trisum.harness import SUITES, VerificationRecord, emit_report, run_suite

# (column, record attribute, number format)
REF_COLUMNS = (
    ("id", "id", ".17g"),
    ("family", "family", ".17g"),
    ("z", "z", ".17g"),
    ("m", "m", ".17g"),
    ("closed", "closed", ".17g"),
    ("series_oracle", "series_oracle", ".17g"),
    ("quad_oracle", "quad_oracle", ".17g"),
    ("abs_diff", "abs_diff", ".17g"),
    ("rel_diff", "rel_diff", ".17g"),
    ("tol", "tol", ".17g"),
    ("pass", "passed", ".17g"),
    ("runtime_ms", "runtime_ms", ".3f"),
)


def ref_fmt(x, spec=".17g"):
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(x, spec)


def ref_json_cell(x, spec=".17g"):
    if isinstance(x, float) and not math.isfinite(x):
        return json.dumps(x)
    return ref_fmt(x, spec)


def ref_json(records, suite, tol, stamp):
    lines = ["{"]
    lines.append(f'  "suite": {json.dumps(suite) if suite else "null"},')
    lines.append(f'  "tol": {ref_json_cell(tol)},')
    lines.append(f'  "generated_at": "{stamp}",')
    lines.append('  "records": [')
    lines.append(",\n".join(
        "    {" + ", ".join([f'"{name}": {ref_json_cell(getattr(r, attr), spec)}'
                            for name, attr, spec in REF_COLUMNS]) + "}"
        for r in records
    ))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ref_csv_cell(value, spec):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    return value if isinstance(value, str) else ref_fmt(value, spec)


def ref_csv(records):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(name for name, _, _ in REF_COLUMNS)
    for r in records:
        writer.writerow([ref_csv_cell(getattr(r, attr), spec) for _, attr, spec in REF_COLUMNS])
    return buf.getvalue()


def ref_table(records):
    headers = ["id", "family", "z", "m", "closed", "series", "quadrature",
               "abs_diff", "status"]
    rows = [[
        r.id,
        r.family or "-",
        "-" if r.z is None else f"{r.z:g}",
        "-" if r.m is None else str(r.m),
        "-" if r.closed is None else f"{r.closed:+.12e}",
        "-" if r.series_oracle is None else f"{r.series_oracle:+.12e}",
        "-" if r.quad_oracle is None else f"{r.quad_oracle:+.12e}",
        f"{r.abs_diff:.2e}",
        "pass" if r.passed else "FAIL",
    ] for r in records]
    widths = [max(map(len, col)) for col in zip(headers, *rows)]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    lines = [line(headers), "  ".join("-" * w for w in widths), *map(line, rows)]
    n_pass = sum(1 for r in records if r.passed)
    footer = f"{len(records)} records, {n_pass} passed, {len(records) - n_pass} failed"
    return "\n".join([*lines, lines[1], footer]) + "\n"


_STAMP = re.compile(r'^  "generated_at": "([^"]*)",$', re.M)


def assert_same_bytes(records, suite=None, tol=None):
    got = emit_report(records, "json", suite=suite, tol=tol)
    stamp = _STAMP.search(got).group(1)
    assert got == ref_json(records, suite, tol, stamp)
    assert emit_report(records, "csv") == ref_csv(records)
    assert emit_report(records, "table") == ref_table(records)


def record(**changes):
    base = dict(id="synthetic", family="A1", z=2.0, m=1, closed=0.25,
                series_oracle=0.25, quad_oracle=0.25, abs_diff=0.0, rel_diff=0.0,
                tol=1e-9, passed=True, runtime_ms=0.5)
    base.update(changes)
    return VerificationRecord(**base)


SYNTHETIC = [
    # every nullable column empty
    record(id="all-null", family=None, z=None, m=None, closed=None,
           series_oracle=None, quad_oracle=None),
    record(id="one-null", closed=None),
    record(id="fails", passed=False, abs_diff=3e-3, rel_diff=3e-3),
    record(id="signed-zeros", z=-0.0, closed=-0.0, series_oracle=0.0,
           quad_oracle=-0.0, abs_diff=0.0, rel_diff=-0.0, runtime_ms=-0.0),
    record(id="subnormal", closed=5e-324, series_oracle=-5e-324, quad_oracle=2.2250738585072014e-308,
           abs_diff=5e-324, rel_diff=5e-324, tol=5e-324, runtime_ms=5e-324),
    record(id="huge", z=-1e308, closed=1e308, series_oracle=-1.7976931348623157e308,
           quad_oracle=1.5e300, abs_diff=1e308, rel_diff=1e308, runtime_ms=1e308),
    record(id="large-m", m=10 ** 40, z=1e150, closed=0.1, series_oracle=0.2,
           quad_oracle=1 / 3, abs_diff=0.1, rel_diff=0.1),
    record(id="zero-m", m=0, z=1.0),
    record(id='quoted "id" with \\ and é and \t', family="B2"),
    record(id="non-finite", closed=math.inf, series_oracle=-math.inf,
           quad_oracle=math.nan, abs_diff=math.inf, rel_diff=math.nan, passed=False),
]


# One report for the json writer's float memo, which keys each report's
# float texts by value: 0.0 and -0.0 (equal, and equal in hash, yet written
# apart) in one column and across columns, a z that repeats, a value that
# recurs in another column, rel_diff equal to abs_diff and apart from it,
# tol inf and nan, and nan and inf values, one nan object in two cells.
_NAN = math.nan
MEMO_REPORT = [
    record(id="z-pos-zero", z=0.0, closed=-0.0, abs_diff=0.0, rel_diff=0.0),
    record(id="z-neg-zero", z=-0.0, closed=0.0, series_oracle=-0.0, rel_diff=-0.0),
    record(id="z-pos-zero-again", z=0.0, quad_oracle=-0.0),
    record(id="z-repeats-1", z=3.5, closed=3.5, abs_diff=1e-12, rel_diff=1e-12),
    record(id="z-repeats-2", z=3.5, closed=2.5, abs_diff=1e-12, rel_diff=2.857142857142857e-13),
    record(id="z-repeats-3", z=3.5, series_oracle=3.5, abs_diff=2e-12, rel_diff=1e-12),
    record(id="tol-inf", tol=math.inf, abs_diff=math.inf, rel_diff=math.inf, passed=False),
    record(id="tol-nan", tol=_NAN, abs_diff=_NAN, rel_diff=_NAN, passed=False),
    record(id="non-finite-values", closed=-math.inf, series_oracle=math.inf,
           quad_oracle=math.nan, abs_diff=math.inf, rel_diff=math.nan, tol=-math.inf),
    record(id="after-non-finite", z=math.inf, closed=0.25, tol=1e-9),
]


def test_float_memo_report_bytes():
    assert_same_bytes(MEMO_REPORT, suite="memo", tol=1e-9)
    assert_same_bytes(MEMO_REPORT, suite="memo", tol=math.nan)
    # the same records in the other order, so each value is met first
    # in another row
    assert_same_bytes(MEMO_REPORT[::-1], suite="memo", tol=math.inf)
    lines = emit_report(MEMO_REPORT, "json").splitlines()
    rows = [line for line in lines if line.startswith('    {"id": "z-')][:3]
    assert '"z": 0, ' in rows[0] and '"z": -0, ' in rows[1] and '"z": 0, ' in rows[2]
    assert '"closed": -0, ' in rows[0] and '"closed": 0, ' in rows[1]


@pytest.fixture(scope="module")
def all_suites():
    return {name: run_suite(name) for name in SUITES}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_report_bytes(all_suites, suite):
    records = all_suites[suite]
    assert_same_bytes(records, suite=suite, tol=records[0].tol)
    assert_same_bytes(records)


@pytest.mark.parametrize("rec", SYNTHETIC, ids=lambda r: r.id)
def test_synthetic_record_bytes(rec):
    assert_same_bytes([rec], suite="synthetic", tol=1e-9)


def test_synthetic_records_together():
    assert_same_bytes(SYNTHETIC, suite="synthetic", tol=math.inf)
    assert_same_bytes([])


def test_values_of_other_types_render_as_before():
    # the row writer takes a fast path per column type and passes any
    # other value to the per-cell rule: ints in float columns, a bool m,
    # a float family, an int pass
    odd = record(id="odd-types", z=2, m=True, closed=10 ** 20, series_oracle=-(10 ** 17) - 1,
                 quad_oracle=1, passed=1, runtime_ms=1, family=3.5)
    got = emit_report([odd], "json")
    assert got == ref_json([odd], None, None, _STAMP.search(got).group(1))
    assert emit_report([record(id=7, m=2.0)], "csv") == ref_csv([record(id=7, m=2.0)])


def test_strings_outside_str_columns_render_as_before():
    # a str in a float column, a str subclass as id, and a str tol each
    # take the per-cell rule, which writes a str as json.dumps does
    class Tag(str):
        pass

    odd = record(id=Tag("tagged"), z="2", closed="x\"y")
    got = emit_report([odd], "json", tol="1e-9")
    assert got == ref_json([odd], None, "1e-9", _STAMP.search(got).group(1))
    assert '"z": "2"' in got and '"tol": "1e-9"' in got


def test_non_finite_json_parses():
    text = emit_report([SYNTHETIC[-1]], "json", tol=math.nan)
    assert '"abs_diff": Infinity' in text
    assert '"series_oracle": -Infinity' in text
    assert '"quad_oracle": NaN' in text
    doc = json.loads(text)
    row = doc["records"][0]
    assert row["closed"] == math.inf and row["series_oracle"] == -math.inf
    assert math.isnan(row["quad_oracle"]) and math.isnan(doc["tol"])
    assert row["pass"] is False
    # csv and table keep Python's spelling
    assert ",inf,-inf,nan,inf,nan," in emit_report([SYNTHETIC[-1]], "csv")
    assert "+inf" in emit_report([SYNTHETIC[-1]], "table")


def test_failed_identity_report_parses(capsys, monkeypatch):
    # harmonic-even-odd-split sets its deviation to inf when the exact
    # identity fails; the json report must still load
    real = harness.odd_harmonic

    def off_by_a_little(n, exact=False):
        value = real(n, exact=exact)
        return value + Fraction(1, 10 ** 40) if exact else value

    monkeypatch.setattr(harness, "odd_harmonic", off_by_a_little)
    code = main(["verify", "--suite", "specfun-identities", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    doc = json.loads(out)
    rows = {r["id"]: r for r in doc["records"]}
    split = rows.pop("harmonic-even-odd-split")
    assert split["pass"] is False
    assert split["abs_diff"] == math.inf and split["rel_diff"] == math.inf
    assert all(r["pass"] for r in rows.values())
