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
