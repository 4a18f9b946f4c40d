"""Suite runner and report emitter checks.

The numeric layers are already covered module by module, so here the
focus is record bookkeeping: counts, ordering, the pass rule, and the
three output formats.
"""

import csv
import io
import json
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from test_closedform import _libm_digest
from test_quadrature import _numerics_digest

from trisum import closedform, harness
from trisum.closedform import REGISTRY, closed_sum
from trisum.errors import DomainError, UnknownSuite
from trisum.harness import SUITES, VerificationRecord, _record, emit_report, run_suite
from trisum.quadrature import beta_term_integral, series_via_quadrature
from trisum.series import base_term, sum_series

EXPECTED_COUNTS = {
    "paper-constants": 17,
    "theorem-grid": 120,
    "concluding": 12,
    "specfun-identities": 9,
    "beta-terms": 31,
}


@pytest.fixture(scope="module")
def all_suites():
    return {name: run_suite(name) for name in SUITES}


def test_suite_names_and_counts(all_suites):
    assert set(EXPECTED_COUNTS) == set(SUITES)
    for name, records in all_suites.items():
        assert len(records) == EXPECTED_COUNTS[name]


def test_defaults_all_pass(all_suites):
    for records in all_suites.values():
        assert all(r.passed for r in records)


def test_pass_rule_consistency(all_suites):
    # passed must equal: abs_diff <= tol * max(1, |reference|), with the
    # closed value as reference when present, else the series value.
    for records in all_suites.values():
        for r in records:
            ref = r.closed if r.closed is not None else r.series_oracle
            scale = max(1.0, abs(ref)) if ref is not None else 1.0
            assert r.rel_diff == pytest.approx(r.abs_diff / scale, rel=0, abs=0)
            assert r.passed == (r.rel_diff <= r.tol)


def test_grid_order_deterministic(all_suites):
    records = all_suites["theorem-grid"]
    assert records[0].id == "A1-z2-m0"
    assert records[1].id == "A1-z2-m1"
    assert records[5].id == "A1-z3-m0"
    assert records[-1].id == "B2-zneg2-m4"
    again = run_suite("theorem-grid")
    assert [(r.id, r.closed, r.series_oracle, r.quad_oracle) for r in records] \
        == [(r.id, r.closed, r.series_oracle, r.quad_oracle) for r in again]


def test_constants_cover_registry(all_suites):
    records = all_suites["paper-constants"]
    assert [r.id for r in records] == list(REGISTRY)


def test_identity_suite_ids(all_suites):
    ids = [r.id for r in all_suites["specfun-identities"]]
    assert ids == [
        "dilog-circle-decomposition",
        "dilog-landen-real",
        "dilog-duplication",
        "clausen-reflection",
        "clausen-antiperiodicity",
        "clausen-duplication",
        "harmonic-even-odd-split",
        "dilog-special-values",
        "catalan-integral",
    ]
    for r in all_suites["specfun-identities"]:
        assert r.closed is None and r.series_oracle is None and r.quad_oracle is None


def test_beta_records_match_exact_terms(all_suites):
    for r in all_suites["beta-terms"]:
        k = r.m
        assert r.id == f"beta-k{k}"
        assert r.closed == float(-base_term("A", k).exact)
        assert r.closed < 0
        assert r.series_oracle is None


def test_beta_exact_oracle_is_the_rounded_exact_term():
    # the suite's exact value is the quotient of the unnormalised integer
    # ratio; it must round as the normalised Fraction does, at every k the
    # exact branch serves, and the Fraction must be that ratio's
    from trisum.series import _EXACT_TERM_LIMIT, _exact_ratio
    assert _EXACT_TERM_LIMIT == 170
    for k in range(_EXACT_TERM_LIMIT + 1):
        got = harness._beta_exact((f"beta-k{k}", None, None, k, None))
        assert got.hex() == float(-base_term("A", k).exact).hex(), k
        for kind in "AB":
            assert base_term(kind, k).exact == Fraction(*_exact_ratio(kind, k)), (kind, k)


def test_concluding_has_no_closed_column(all_suites):
    for r in all_suites["concluding"]:
        assert r.closed is None
        assert r.series_oracle is not None and r.quad_oracle is not None


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("everything")


def test_bad_tol_rejected():
    with pytest.raises(DomainError):
        run_suite("concluding", tol=1e-14)
    with pytest.raises(DomainError):
        run_suite("concluding", tol=float("nan"))


def test_custom_tol_applied():
    records = run_suite("concluding", tol=1e-10)
    assert all(r.tol == 1e-10 for r in records)


FAILING = VerificationRecord(
    id="made-up", family="A1", z=2.0, m=0,
    closed=0.5, series_oracle=0.5 + 1e-3, quad_oracle=None,
    abs_diff=1e-3, rel_diff=1e-3, tol=1e-9, passed=False, runtime_ms=1.25,
)


def test_json_report_roundtrip(all_suites):
    records = all_suites["concluding"]
    text = emit_report(records, "json", suite="concluding", tol=1e-9)
    doc = json.loads(text)
    assert doc["suite"] == "concluding"
    assert doc["tol"] == 1e-9
    assert len(doc["records"]) == len(records)
    first = doc["records"][0]
    assert set(first) == {
        "id", "family", "z", "m", "closed", "series_oracle", "quad_oracle",
        "abs_diff", "rel_diff", "tol", "pass", "runtime_ms",
    }
    # 17 significant digits means floats survive the round trip exactly
    assert first["series_oracle"] == records[0].series_oracle
    assert first["quad_oracle"] == records[0].quad_oracle
    assert first["closed"] is None
    assert first["pass"] is True
    # the timestamp is UTC with a trailing Z
    assert doc["generated_at"].endswith("Z")


def test_json_report_renders_fail():
    doc = json.loads(emit_report([FAILING], "json"))
    assert doc["records"][0]["pass"] is False
    assert doc["suite"] is None


def test_csv_report(all_suites):
    records = all_suites["beta-terms"]
    rows = list(csv.reader(io.StringIO(emit_report(records, "csv"))))
    assert rows[0] == ["id", "family", "z", "m", "closed", "series_oracle",
                       "quad_oracle", "abs_diff", "rel_diff", "tol", "pass",
                       "runtime_ms"]
    assert len(rows) == len(records) + 1
    assert rows[1][0] == "beta-k0"
    assert rows[1][1] == ""  # no family for identity-style records
    assert float(rows[1][4]) == records[0].closed
    assert rows[1][10] == "pass"


def test_table_report(all_suites):
    records = all_suites["concluding"]
    text = emit_report(records, "table")
    assert "12 records, 12 passed, 0 failed" in text
    assert "C1-z0p25" in text
    fail_text = emit_report([FAILING], "table")
    assert "FAIL" in fail_text
    assert "1 records, 0 passed, 1 failed" in fail_text


def test_unknown_format():
    with pytest.raises(DomainError):
        emit_report([], "yaml")


def test_identity_deviations_are_small(all_suites):
    for r in all_suites["specfun-identities"]:
        assert math.isfinite(r.abs_diff)
        assert r.abs_diff < 1e-13


# -- layer passes against one loop over the records --------------------------
#
# The suites that compare layers run each layer over all of their points
# before the next.  The loops below compute every record by all of its
# layers in turn, record by record, as the suites once did; the values,
# ids, flags and order must not depend on which way round it is done.

def _record_major(name):
    tol = harness._SUITES[name][1]
    series_tol, quad_tol = harness._SERIES_TOL, harness._QUAD_TOL
    out = []
    if name == "paper-constants":
        for entry in REGISTRY.values():
            s = float(entry.scale)
            closed = s * closed_sum(entry.family, entry.z, entry.m).total
            series = s * sum_series(entry.family, entry.z, entry.m, tol=series_tol)
            quad = s * series_via_quadrature(entry.family, entry.z, entry.m, tol=quad_tol)
            out.append(_record(entry.id, entry.family.value, entry.z, entry.m, closed,
                               series, quad, (closed, series, quad, entry.value()), tol, 0.0))
    elif name == "theorem-grid":
        for family in harness._GRID_FAMILIES:
            for z in harness._GRID_Z:
                for m in harness._GRID_M:
                    closed = closed_sum(family, z, m).total
                    series = sum_series(family, z, m, tol=series_tol)
                    quad = series_via_quadrature(family, z, m, tol=quad_tol)
                    rid = f"{family}-{harness._z_tag(z)}-m{m}"
                    out.append(_record(rid, family, z, m, closed, series, quad,
                                       (closed, series, quad), tol, 0.0))
    elif name == "concluding":
        for family in harness._CONCLUDING_FAMILIES:
            for z in harness._CONCLUDING_Z:
                series = sum_series(family, z, tol=series_tol)
                quad = series_via_quadrature(family, z, tol=quad_tol)
                rid = f"{family}-{harness._z_tag(z)}"
                out.append(_record(rid, family, z, 0, None, series, quad, (series, quad),
                                   tol, 0.0))
    else:
        for k in range(31):
            closed = float(-base_term("A", k).exact)
            quad = beta_term_integral(k, tol=quad_tol)
            out.append(_record(f"beta-k{k}", None, None, k, closed, None, quad, (closed, quad),
                               tol, 0.0))
    return out


def _fields(record):
    # every field but runtime_ms, floats by their exact hex digits
    return tuple(v.hex() if isinstance(v, float) else v for v in record[:-1])


def _suite_rows(records):
    # what tests/data/suite_records.json holds for one suite
    return [list(_fields(r)) for r in records]


# every record of all five suites, as recorded before the suites' records
# took their written-out shapes; "about" in the file says what it holds
_FROZEN = json.loads((Path(__file__).parent / "data" / "suite_records.json").read_text())


@pytest.mark.parametrize("name", SUITES)
def test_suite_records_frozen(all_suites, name):
    # every value, deviation and pass flag bitwise, as recorded.  Bitwise
    # only on the numerics they were recorded with, those the closed and
    # the oracle parity grids digest
    if _libm_digest() != _FROZEN["libm"] or _numerics_digest() != _FROZEN["numerics"]:
        pytest.skip("this libm or numpy differs in the last bit from those the records "
                    "were recorded with")
    assert _suite_rows(all_suites[name]) == _FROZEN["suites"][name]


LAYERED = ("paper-constants", "theorem-grid", "concluding", "beta-terms")


@pytest.mark.parametrize("name", LAYERED)
def test_layer_passes_match_record_major_loop(all_suites, name):
    got = all_suites[name]
    want = _record_major(name)
    assert [r.id for r in got] == [r.id for r in want]
    assert list(map(_fields, got)) == list(map(_fields, want))


@pytest.mark.parametrize("name", LAYERED)
def test_runtime_is_finite_and_positive(all_suites, name):
    for r in all_suites[name]:
        assert math.isfinite(r.runtime_ms) and r.runtime_ms > 0.0, r.id


def _cubics_solved(monkeypatch, suite):
    # the z of every cubic solved by one run of suite from a cold pole basis
    calls = []
    solve = closedform.solve_cubic

    def counted(z):
        calls.append(z)
        return solve(z)

    monkeypatch.setattr(closedform, "solve_cubic", counted)
    closedform._pole_basis.cache_clear()
    run_suite(suite)
    return calls


def test_grid_solves_one_cubic_per_z(monkeypatch):
    # the closed pass visits the points at one z together, so one pole
    # basis serves every closed form at that z
    assert _cubics_solved(monkeypatch, "theorem-grid") == list(harness._GRID_Z)


def test_constants_solve_one_cubic_per_z(monkeypatch):
    # the registry interleaves z = 2 and z = -4; each is solved once
    assert _cubics_solved(monkeypatch, "paper-constants") == [2.0, -4.0]


def test_layers_visit_by_z_then_m(monkeypatch):
    # the point passes visit the points at one z together, in the order
    # each z first appears, m ascending, ties in report order; the
    # quadrature pass makes one call per (family, m) group, the points
    # without a family making one group, in the order each group first
    # appears, its points in report order, and shares the call's time
    # equally among them; records stay in report order
    points = [(rid, family, z, m, 1.0) for rid, family, z, m in (
        ("a", "A1", 2.0, 3), ("b", "A1", -4.0, 0), ("c", "A1", 2.0, 1), ("d", None, None, 5),
        ("e", "B1", 2.0, 1), ("f", "A1", -4.0, 0), ("g", None, None, 2))]
    now = [0.0]
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    visits, calls = [], []

    def layer(point):
        now[0] += 1.0
        visits.append(point[0])
        return float(len(visits))

    def quad(group):
        now[0] += 6.0
        calls.append("".join(point[0] for point in group))
        return [10.0 * len(calls) + k for k in range(len(group))]

    records = harness._layer_records(points, 1e-9, closed=layer, series=layer, quad=quad)
    assert visits == list("ceabfgd") * 2
    assert calls == ["a", "bf", "c", "dg", "e"]
    assert [r.id for r in records] == list("abcdefg")
    assert [r.closed for r in records] == [3.0, 4.0, 1.0, 7.0, 2.0, 5.0, 6.0]
    assert [r.series_oracle for r in records] == [10.0, 11.0, 8.0, 14.0, 9.0, 12.0, 13.0]
    assert [r.quad_oracle for r in records] == [10.0, 20.0, 30.0, 40.0, 50.0, 21.0, 41.0]
    assert [r.runtime_ms for r in records] == [8000.0, 5000.0, 8000.0, 5000.0, 8000.0,
                                               5000.0, 5000.0]