"""The names the benchmark's tracer wraps must exist.

perfbench/spans.py swaps module attributes of trisum for counting and
timing wrappers.  A rename in src/ breaks only traced benchmark runs, so
this checks every (module, attribute) pair it names against the package.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import trisum
import trisum.cli  # noqa: F401  (the tracer also wraps names in the CLI module)

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
_SITES = [
    (table, name, mod_name, attr)
    for table, sites in (("SPANS", _spans.SPANS), ("COUNTED", _spans.COUNTED))
    for name, pairs in sites.items()
    for mod_name, attr in pairs
]


def test_tracer_names_some_sites():
    assert {mod for _, _, mod, _ in _SITES} >= {
        "harness", "cli", "closedform", "specfun", "series", "quadrature"}


@pytest.mark.parametrize("table,name,mod_name,attr", _SITES)
def test_wrapped_name_resolves(table, name, mod_name, attr):
    module = sys.modules.get(f"{trisum.__name__}.{mod_name}")
    assert module is not None, f"{table}[{name!r}]: trisum.{mod_name} is not loaded"
    assert callable(getattr(module, attr, None)), f"{table}[{name!r}]: trisum.{mod_name}.{attr}"


def test_tracer_measures_one_quadrature_call():
    # series_via_quadrature must enter _level_nodes through the module
    # global the tracer replaces; A1 at z = 2 stops inside stage 0, which
    # holds the 193 nodes of levels 0-4.  A catalog call goes straight to
    # the driver, not through the public tanh_sinh
    tracer = _spans.Tracer(trisum)
    tracer.install()
    try:
        trisum.quadrature.series_via_quadrature("A1", 2.0)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("quadrature.sqv") == 1
    assert names.count("quadrature.tanh_sinh") == 0
    assert tracer.counts["quadrature.levels"] == 1
    assert tracer.counts["quadrature.nodes"] == 193


def _trace_closed_sums(calls):
    trisum.closedform._pole_basis.cache_clear()
    tracer = _spans.Tracer(trisum)
    tracer.install()
    try:
        for family, z, m in calls:
            trisum.closedform.closed_sum(family, z, m)
    finally:
        tracer.uninstall()
    return [span[0] for span in tracer.spans]


def test_tracer_measures_closed_forms_sharing_one_basis():
    # closed_sum must reach solve_cubic, coeff_a/coeff_b and C_of through
    # closedform's module globals.  A1 and B2 at one z share a PoleBasis:
    # one cubic, coeff_a and coeff_b at the real root and one pair root,
    # and C_r(lam), C_r(1 - lam) for r <= 2 at those two roots
    names = _trace_closed_sums([("A1", 3.0, 2), ("B2", 3.0, 2)])
    assert names.count("closedform.closed_sum") == 2
    assert names.count("roots.solve_cubic") == 1
    assert names.count("jets.coeff") == 4
    assert names.count("closedform.C_of") == 12


def test_tracer_sees_one_basis_across_m():
    # the basis values C_r(lam) do not depend on m: m = 0..4 at one z
    # solve the cubic once and compute C_0..C_4 once at each of the two
    # evaluated roots, while coeff_a runs at every m
    names = _trace_closed_sums([("A1", 3.0, m) for m in range(5)])
    assert names.count("closedform.closed_sum") == 5
    assert names.count("roots.solve_cubic") == 1
    assert names.count("closedform.C_of") == 10
    assert names.count("jets.coeff") == 10


def test_tracer_sees_one_quadrature_call_per_group():
    # the theorem-grid's quadrature pass makes one series_via_quadrature
    # call per (family, m) group, through harness's module globals: four
    # families times m = 0..4, each group's six z settled in stage 0
    tracer = _spans.Tracer(trisum)
    tracer.install()
    try:
        trisum.harness.run_suite("theorem-grid")
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names.count("quadrature.sqv") == 20
    assert tracer.counts["quadrature.levels"] == 20
    assert tracer.counts["quadrature.nodes"] == 20 * 193


def test_tracer_sees_one_beta_terms_stage_visit():
    # beta-terms' 31 k make one quadrature group and one beta_term_integral
    # call, whose k share stage 0 and all settle there
    tracer = _spans.Tracer(trisum)
    tracer.install()
    try:
        trisum.harness.run_suite("beta-terms")
    finally:
        tracer.uninstall()
    assert tracer.counts["quadrature.levels"] == 1
    assert tracer.counts["quadrature.nodes"] == 193
