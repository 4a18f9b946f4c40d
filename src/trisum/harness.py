"""Verification harness: every value the package computes is checked
against at least one independently computed partner, and the outcome is
recorded per case.

Five suites:

    paper-constants    published closed-form constants against all three
                       computation layers (closed form, series, quadrature)
    theorem-grid       the 120-case (family, z, m) grid, three layers
                       against each other
    concluding         the alternating families against their integral
                       representations (no closed forms exist)
    specfun-identities seeded property grids for the dilogarithm and
                       Clausen identities
    beta-terms         the generating integral identity in exact rationals
                       against quadrature, k = 0..30

A record passes when the largest pairwise deviation among its available
values is at most tol * max(1, |reference|), the reference being the
closed-form value when present.  A nan value makes the deviation nan,
so the record fails and its report says why.  Records are produced in a
fixed order so reports are deterministic apart from timings.

The four suites that compare layers compute layer by layer: each layer
(closed form, series, quadrature, and the published constant or exact
rational) runs as one pass over all of the suite's points before the
next.  The closed-form, series and published passes visit the points by
one rule: the points at one z together, in the order each z first
appears in the report, m ascending, ties in report order.  So the closed
forms at one z share closed_sum's pole basis.  The quadrature pass
groups the points by (family, m), the points without a family making
one group, in the order each group first appears in the report, and
makes one call per group, with the group's points in report order:
series_via_quadrature's sequence form, whose z share each stage visit
(a group of any size visits stage 0 once) and, from 4 z on, compute
their z-factors together, and for beta-terms' 31 k one call of
beta_term_integral's sequence form, which does the same for u^k.  The
exact beta term is the correctly rounded quotient of its integer ratio,
from the series helper base_term takes its Fraction from.  Records still
come in report order.  A record's runtime_ms is the sum of its own layer
calls, a quadrature call's time shared equally among its group; a
specfun-identities record's is the time its identity grid took.

A json report writes each record by one row function generated from the
column table.  Within one report each distinct nonzero float of a
17-digit column is formatted once and its text reused: z repeats across
a suite's families and m, tol on every record, and rel_diff equals
abs_diff wherever |reference| <= 1.  Zeros are formatted each time, as
0.0 and -0.0 compare and hash equal but are written apart.  The memo
lives for one emit_report call.
"""

from __future__ import annotations

import cmath
import io
import json
import math
import random
import time
from itertools import combinations, starmap
from json.encoder import encode_basestring_ascii
from math import isnan
from operator import sub
from typing import NamedTuple

from .closedform import REGISTRY, closed_sum
from .errors import DomainError, UnknownSuite, check_tol
from .quadrature import beta_term_integral, series_via_quadrature, tanh_sinh
from .series import FAMILIES, _exact_ratio, sum_series
from .specfun import catalan, clausen2, dilog, harmonic, odd_harmonic

__all__ = ["VerificationRecord", "SUITES", "run_suite", "emit_report"]

_DEFAULT_TOL = {
    "paper-constants": 1e-10,
    "theorem-grid": 1e-9,
    "concluding": 1e-9,
    "specfun-identities": 1e-13,
    "beta-terms": 1e-11,
}

_GRID_Z = (2.0, 3.0, -4.0, -8.0, 5.0, -2.0)
_GRID_M = (0, 1, 2, 3, 4)
_GRID_FAMILIES = tuple(f.value for f, spec in FAMILIES.items() if spec.outer)
_CONCLUDING_Z = (0.25, 0.5, 0.9)
_CONCLUDING_FAMILIES = tuple(f.value for f, spec in FAMILIES.items() if not spec.outer)
_SERIES_TOL = 1e-13
_QUAD_TOL = 1e-12


class VerificationRecord(NamedTuple):
    """One verified case: the values compared, their largest pairwise
    deviation, and whether it is within tol.  A named tuple, so records
    are immutable and hashable, _asdict() and _replace() give a dict and
    a changed copy, and equality is tuple equality."""

    id: str
    family: str | None
    z: float | None
    m: int | None
    closed: float | None
    series_oracle: float | None
    quad_oracle: float | None
    abs_diff: float
    rel_diff: float
    tol: float
    passed: bool
    runtime_ms: float


def _z_tag(z: float) -> str:
    mag = f"{abs(z):g}".replace(".", "p")
    return f"zneg{mag}" if z < 0 else f"z{mag}"


def _record(rid, family, z, m, closed, series, quad, tol, runtime_ms,
            extra=(), deviation=None) -> VerificationRecord:
    # A nan value makes the deviation nan: max() would keep an earlier
    # finite pair over a later nan one.  Otherwise it is the largest
    # |a - b| over the pairs of values in order (a before b), as max() over
    # them one at a time takes it, and 0.0 for fewer than two values.
    if (closed is not None and series is not None and quad is not None
            and not extra and deviation is None):
        # the three layers alone, the theorem-grid case: the chain's three
        # pairs written out, in its order
        if isnan(closed) or isnan(series) or isnan(quad):
            abs_diff = math.nan
        else:
            abs_diff = max(abs(closed - series), abs(closed - quad), abs(series - quad))
    else:
        values = [v for v in (closed, series, quad, *extra) if v is not None]
        if any(map(isnan, values)):
            abs_diff = math.nan
        elif deviation is not None:
            abs_diff = float(deviation)
        else:
            abs_diff = max(map(abs, starmap(sub, combinations(values, 2))), default=0.0)
    ref = closed if closed is not None else series
    scale = max(1.0, abs(ref)) if ref is not None else 1.0
    rel_diff = abs_diff / scale
    passed = rel_diff <= tol     # false for a nan deviation
    return VerificationRecord(
        rid, family, z, m, closed, series, quad, abs_diff, rel_diff, tol, passed,
        runtime_ms,
    )


# The layers of the suites that compare them.  Each looks its layer up
# in this module's globals at call time, where perfbench/spans.py's
# wrappers sit.  The closed-form, series and extra layers take one point
# (rid, family, z, m, scale); the quadrature layers take a group of
# points that share (family, m) and return a value for each.  scale is
# the registry entry's for paper-constants and 1.0 elsewhere, and a
# double times 1.0 is that double.

def _closed(point):
    _, family, z, m, scale = point
    return scale * closed_sum(family, z, m).total


def _series(point):
    _, family, z, m, scale = point
    return scale * sum_series(family, z, m, tol=_SERIES_TOL)


def _quad(group):
    # one call for the group's z: series_via_quadrature's sequence form
    _, family, _, m, _ = group[0]
    values = series_via_quadrature(family, [point[2] for point in group], m, tol=_QUAD_TOL)
    return [point[4] * value for point, value in zip(group, values)]


def _published(point):
    return REGISTRY[point[0]].value()


def _beta_exact(point):
    # the integral of x^k (1-x)^{2k} log x, -base_term("A", k).exact, as the
    # correctly rounded quotient of its integer ratio: no gcd normalisation
    num, den = _exact_ratio("A", point[3])
    return -num / den


def _beta_quad(group):
    # one call for the group's k: beta_term_integral's sequence form
    return beta_term_integral([point[3] for point in group], tol=_QUAD_TOL)


def _layer_records(points, tol, closed=None, series=None, quad=None,
                   extra=None) -> list[VerificationRecord]:
    """The records of points, each given layer run as one pass over all of
    them before the next.

    points are (rid, family, z, m, scale) in report order, and records
    come in that order; every layer visits them by the rules in the
    module docstring.  A layer that is None leaves its column None.  A
    record's runtime_ms is the sum of its own layer calls, where a
    quadrature call counts its group's time over the group's size.
    """
    first_at: dict = {}
    groups: dict = {}
    for i, point in enumerate(points):
        first_at.setdefault(point[2], len(first_at))
        # points without a family (beta-terms' k) make one group
        groups.setdefault(None if point[1] is None else (point[1], point[3]), []).append(i)
    visit = sorted(enumerate(points), key=lambda item: (first_at[item[1][2]], item[1][3]))
    clock = time.perf_counter
    spent = [0.0] * len(points)
    columns = []
    for layer, grouped in ((closed, False), (series, False), (quad, True), (extra, False)):
        column = [None] * len(points)
        columns.append(column)
        if layer is None:
            continue
        if grouped:
            for members in groups.values():
                group = [points[i] for i in members]
                t0 = clock()
                values = layer(group)
                share = (clock() - t0) / len(members)
                for i, value in zip(members, values):
                    column[i] = value
                    spent[i] += share
        else:
            for i, point in visit:
                t0 = clock()
                column[i] = layer(point)
                spent[i] += clock() - t0
    return [
        _record(rid, family, z, m, c, s, q, tol, 1000.0 * dt,
                extra=() if x is None else (x,))
        for (rid, family, z, m, _), c, s, q, x, dt in zip(points, *columns, spent)
    ]


def _suite_constants(tol: float) -> list[VerificationRecord]:
    points = [(e.id, e.family.value, e.z, e.m, float(e.scale)) for e in REGISTRY.values()]
    return _layer_records(points, tol, _closed, _series, _quad, _published)


def _suite_grid(tol: float) -> list[VerificationRecord]:
    points = [(f"{f}-{_z_tag(z)}-m{m}", f, z, m, 1.0)
              for f in _GRID_FAMILIES for z in _GRID_Z for m in _GRID_M]
    return _layer_records(points, tol, _closed, _series, _quad)


def _suite_concluding(tol: float) -> list[VerificationRecord]:
    points = [(f"{f}-{_z_tag(z)}", f, z, 0, 1.0)
              for f in _CONCLUDING_FAMILIES for z in _CONCLUDING_Z]
    return _layer_records(points, tol, series=_series, quad=_quad)


def _identity_record(rid: str, tol: float, deviation: float, started: float):
    return _record(rid, None, None, None, None, None, None, tol,
                   (time.perf_counter() - started) * 1000.0, deviation=deviation)


def _suite_identities(tol: float) -> list[VerificationRecord]:
    out = []
    pi = math.pi

    t0 = time.perf_counter()
    dev = 0.0
    for j in range(64):
        t = -2 * pi + 4 * pi * j / 63
        v = dilog(cmath.exp(1j * t))
        dev = max(dev,
                  abs(v.real - (pi * pi / 6 + (t * t - 2 * pi * abs(t)) / 4)),
                  abs(v.imag - clausen2(t)))
    out.append(_identity_record("dilog-circle-decomposition", tol, dev, t0))

    t0 = time.perf_counter()
    rng = random.Random(20260818)
    dev = 0.0
    for _ in range(50):
        x = rng.uniform(-4.0, 0.95)
        lhs = dilog(x) + dilog(x / (x - 1.0))
        rhs = -0.5 * math.log(1.0 - x) ** 2
        dev = max(dev, abs(lhs.real - rhs) / max(1.0, abs(rhs)), abs(lhs.imag))
    out.append(_identity_record("dilog-landen-real", tol, dev, t0))

    t0 = time.perf_counter()
    rng = random.Random(411)
    dev = 0.0
    done = 0
    while done < 50:
        zz = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(zz) >= 1.0:
            continue
        done += 1
        gap = dilog(zz) + dilog(-zz) - 0.5 * dilog(zz * zz)
        dev = max(dev, abs(gap))
    out.append(_identity_record("dilog-duplication", tol, dev, t0))

    rng = random.Random(907)
    thetas = [rng.uniform(-2 * pi, 2 * pi) for _ in range(50)]

    t0 = time.perf_counter()
    dev = max(abs(clausen2(pi + t) + clausen2(pi - t)) for t in thetas)
    out.append(_identity_record("clausen-reflection", tol, dev, t0))

    t0 = time.perf_counter()
    dev = max(abs(clausen2(t) + clausen2(2 * pi - t)) for t in thetas)
    out.append(_identity_record("clausen-antiperiodicity", tol, dev, t0))

    t0 = time.perf_counter()
    dev = max(abs(0.5 * clausen2(2 * t) - clausen2(t) + clausen2(pi - t))
              for t in thetas)
    out.append(_identity_record("clausen-duplication", tol, dev, t0))

    t0 = time.perf_counter()
    dev = 0.0
    for n in range(1, 201):
        even = abs(harmonic(2 * n) - (harmonic(n) / 2 + odd_harmonic(n)))
        odd = abs(harmonic(2 * n - 1) - (harmonic(n - 1) / 2 + odd_harmonic(n)))
        # H_2n - H_n/2 - O_n = p/q - r/2s - u/v, zero exactly when the
        # cross-multiplied numerator is: no gcd reduction of the big ints
        p, q = harmonic(2 * n, exact=True).as_integer_ratio()
        r, s = harmonic(n, exact=True).as_integer_ratio()
        u, v = odd_harmonic(n, exact=True).as_integer_ratio()
        exact_gap = 2 * p * s * v - q * (r * v + 2 * u * s)
        dev = max(dev, even, odd, math.inf if exact_gap != 0 else 0.0)
    out.append(_identity_record("harmonic-even-odd-split", tol, dev, t0))

    t0 = time.perf_counter()
    dev = max(
        abs(dilog(1.0).real - pi * pi / 6),
        abs(dilog(-1.0).real + pi * pi / 12),
        abs(dilog(0.5).real - (pi * pi / 12 - math.log(2.0) ** 2 / 2)),
        abs(dilog(1j) - complex(-pi * pi / 48, catalan())),
        abs(dilog(-1j) - complex(-pi * pi / 48, -catalan())),
    )
    out.append(_identity_record("dilog-special-values", tol, dev, t0))

    import numpy as np     # only this record needs it, for its integrand

    t0 = time.perf_counter()
    via_integral = -tanh_sinh(lambda x, xc: np.log(x) / (1.0 + x * x), tol=_QUAD_TOL)
    out.append(_identity_record(
        "catalan-integral", tol, abs(catalan() - via_integral), t0))

    return out


def _suite_beta(tol: float) -> list[VerificationRecord]:
    points = [(f"beta-k{k}", None, None, k, None) for k in range(31)]
    return _layer_records(points, tol, closed=_beta_exact, quad=_beta_quad)


_RUNNERS = {
    "paper-constants": _suite_constants,
    "theorem-grid": _suite_grid,
    "concluding": _suite_concluding,
    "specfun-identities": _suite_identities,
    "beta-terms": _suite_beta,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, tol: float | None = None) -> list[VerificationRecord]:
    """Run one verification suite; tol = None uses the suite default."""
    runner = _RUNNERS.get(name)
    if runner is None:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(SUITES)}"
        )
    if tol is None:
        tol = _DEFAULT_TOL[name]
    check_tol(tol, 1e-13, "suite tolerance")
    return runner(tol)


# -- report rendering -------------------------------------------------------

def _fmt(x, spec: str = ".17g") -> str:
    """One value as a JSON literal; numbers that are not int use spec, so
    a float that is not finite comes out as Python writes it (inf, nan)."""
    if x is None:
        return "null"
    if isinstance(x, str):
        return json.dumps(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return format(x, spec)


def _json_value(x, spec: str = ".17g") -> str:
    """_fmt for json reports: a float that is not finite is written as
    json.dumps writes it (Infinity, -Infinity, NaN), so json.loads reads it."""
    if isinstance(x, float) and not math.isfinite(x):
        return json.dumps(x)
    return _fmt(x, spec)


# json and csv report columns, one per VerificationRecord field in field
# order: (name, the type the field holds when it is not None, number format)
_COLUMNS = (
    ("id", str, ".17g"),
    ("family", str, ".17g"),
    ("z", float, ".17g"),
    ("m", int, ".17g"),
    ("closed", float, ".17g"),
    ("series_oracle", float, ".17g"),
    ("quad_oracle", float, ".17g"),
    ("abs_diff", float, ".17g"),
    ("rel_diff", float, ".17g"),
    ("tol", float, ".17g"),
    ("pass", bool, ".17g"),
    ("runtime_ms", float, ".3f"),
)

# A json cell of a column of each type: for a value of exactly that type the
# text _json_value(v, spec) gives, without its isinstance chain; any other
# value, None included, is passed to _json_value itself.  A float is
# formatted by a %-directive, '%.17g' % v, which writes what
# format(v, '.17g') writes.  In a ".17g" column a float that is not 0 takes
# its text from texts, the report's memo keyed by value, so each distinct
# value is formatted once a report; 0.0 and -0.0 compare and hash equal but
# are written apart, so a zero skips the memo.
_JSON_CELL = {
    str: "_encode({v}) if {v}.__class__ is str else _json_value({v}, {spec!r})",
    float: "'%{spec}' % {v} if {v}.__class__ is float and _isfinite({v}) "
           "else _json_value({v}, {spec!r})",
    int: "str({v}) if {v}.__class__ is int else _json_value({v}, {spec!r})",
    bool: "'true' if {v} is True else 'false' if {v} is False else _json_value({v}, {spec!r})",
}
_MEMO_SPEC = ".17g"
_MEMO_CELL = ("(texts[{v}] if {v} in texts else texts.setdefault({v}, {fresh})) "
              "if {v}.__class__ is float and {v} else _json_value({v}, {spec!r})")


def _compile_json_row():
    """_json_row(record, texts): one record as its json report line, texts
    being the report's float memo (an empty dict for a new report).

    The function is generated from _COLUMNS as one %-template and one
    expression per cell, so a row costs one Python call instead of one per
    cell; its text is the per-cell "name": _json_value(value, spec) join.
    """
    names = [f"v{i}" for i in range(len(_COLUMNS))]
    template = "    {" + ", ".join(f'"{name}": %s' for name, _, _ in _COLUMNS) + "}"
    cells = []
    for v, (_, kind, spec) in zip(names, _COLUMNS):
        cell = _JSON_CELL[kind].format(v=v, spec=spec)
        if kind is float and spec == _MEMO_SPEC:
            cell = _MEMO_CELL.format(v=v, spec=spec, fresh=cell)
        cells.append(f"({cell})")
    source = (f"def _json_row(record, texts):\n"
              f"    {', '.join(names)} = record\n"
              f"    return {template!r} % ({', '.join(cells)})\n")
    namespace = {"_encode": encode_basestring_ascii, "_isfinite": math.isfinite,
                 "_json_value": _json_value}
    exec(source, namespace)
    return namespace["_json_row"]


_json_row = _compile_json_row()


def _csv_cell(value, spec: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    return value if isinstance(value, str) else _fmt(value, spec)


def _json_report(records, suite, tol) -> str:
    lines = ["{"]
    lines.append(f'  "suite": {json.dumps(suite) if suite else "null"},')
    lines.append(f'  "tol": {_json_value(tol)},')
    stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    lines.append(f'  "generated_at": "{stamp}",')
    lines.append('  "records": [')
    texts = {}
    lines.append(",\n".join([_json_row(record, texts) for record in records]))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def csv_text(header, rows) -> str:
    """A header and rows of str cells as csv text, quoted only where a
    cell needs it."""
    import csv      # here alone, so json and table output never load it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _csv_report(records) -> str:
    return csv_text((name for name, _, _ in _COLUMNS),
                    ([_csv_cell(v, spec) for v, (_, _, spec) in zip(r, _COLUMNS)]
                     for r in records))


def columns(headers, rows) -> list[str]:
    """Fixed-width text table as lines: headers, a dash rule, then rows."""
    widths = [max(map(len, col)) for col in zip(headers, *rows)]

    def line(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    return [line(headers), "  ".join("-" * w for w in widths), *map(line, rows)]


def _table_report(records) -> str:
    headers = ["id", "family", "z", "m", "closed", "series", "quadrature",
               "abs_diff", "status"]
    rows = []
    for r in records:
        rows.append([
            r.id,
            r.family or "-",
            "-" if r.z is None else f"{r.z:g}",
            "-" if r.m is None else str(r.m),
            "-" if r.closed is None else f"{r.closed:+.12e}",
            "-" if r.series_oracle is None else f"{r.series_oracle:+.12e}",
            "-" if r.quad_oracle is None else f"{r.quad_oracle:+.12e}",
            f"{r.abs_diff:.2e}",
            "pass" if r.passed else "FAIL",
        ])
    lines = columns(headers, rows)
    n_pass = sum(1 for r in records if r.passed)
    footer = f"{len(records)} records, {n_pass} passed, {len(records) - n_pass} failed"
    return "\n".join([*lines, lines[1], footer]) + "\n"


def emit_report(records, fmt: str = "table", suite: str | None = None,
                tol: float | None = None) -> str:
    """Render records as json, csv, or a fixed-width table, and return
    the text."""
    if fmt == "json":
        return _json_report(records, suite, tol)
    if fmt == "csv":
        return _csv_report(records)
    if fmt == "table":
        return _table_report(records)
    raise DomainError(f"unknown report format {fmt!r}; use json, csv, or table")
