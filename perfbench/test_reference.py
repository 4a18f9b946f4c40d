"""Tests of the benchmark's own reference and checker.

    python3 -m pytest -q perfbench/test_reference.py

They need mpmath and finish in well under a minute.  The reference must
reproduce the paper's constants from their printed atoms and the exact
beta-term integrals, and the checker must reject a perturbed value.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refvalues  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

REF = refvalues.Reference()


@pytest.mark.parametrize("cid", sorted(refvalues.PAPER_CONSTANTS))
def test_direct_sum_reproduces_paper_constant(cid):
    family, z, m, scale, _ = refvalues.PAPER_CONSTANTS[cid]
    summed = REF.series_mpf(family, z, m) * scale
    printed = REF.constant(cid)
    assert abs(summed - printed) <= mpmath.mpf(10) ** -32 * abs(printed)


def test_a1_z2_m0_from_its_atoms():
    mp = mpmath.mp.clone()
    mp.dps = 40
    want = mp.pi ** 2 / 48 - mp.log(2) ** 2 / 10 + 2 * mp.catalan / 5
    assert abs(REF.series_mpf("A1", 2.0, 0) - want) <= mpmath.mpf(10) ** -35


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_beta_integral_exact_matches_mpmath_quadrature(k):
    mp = mpmath.mp.clone()
    mp.dps = 35
    got = mp.quad(lambda x: x ** k * (1 - x) ** (2 * k) * mp.log(x), [0, mp.mpf(1) / 2, 1])
    exact = refvalues.beta_integral_exact(k)
    assert abs(got - mp.mpf(exact.numerator) / exact.denominator) <= mp.mpf(10) ** -30 * abs(got)


def test_base_term_is_minus_beta_integral():
    mp = mpmath.mp.clone()
    mp.dps = 50
    for k in range(31):
        exact = refvalues.beta_integral_exact(k)
        assert abs(REF.base("A", k) + mp.mpf(exact.numerator) / exact.denominator) \
            <= mp.mpf(10) ** -40 * abs(REF.base("A", k))
    assert refvalues.beta_integral_exact(0) == Fraction(-1)


def test_special_values():
    assert REF.value(("special", "Li2(1)", "real")) == pytest.approx(math.pi ** 2 / 6, rel=1e-16)
    assert REF.value(("special", "Li2(i)", "imag")) == pytest.approx(REF.value(
        ("special", "G", "real")), rel=1e-16)
    assert REF.value(("special", "Cl2(pi/2)", "real")) == REF.value(("special", "G", "real"))


def test_integral_key_carries_the_sign_of_m():
    series = REF.value(("series", "B1", 3.0, 1, None))
    assert REF.value(("integral", "B1", 3.0, 1, None)) == -series


def _sweep_digests(ops):
    return [REF.value(("series", family, z, m, None)) for _, family, z, m in ops]


def test_checker_accepts_reference_and_rejects_perturbed_value():
    ops = workloads.make_ops("sweep", 7, tiny=True)
    first = _sweep_digests(ops)
    bad, worst = run.check_outputs("sweep", ops, first, None)
    assert bad == [] and worst["series"] == 0.0
    first[3] *= 1 + 1e-5
    bad, worst = run.check_outputs("sweep", ops, first, None)
    assert len(bad) == 1 and worst[ops[3][0]] == pytest.approx(1e-5, rel=1e-3)


def test_checker_rejects_failed_record_gate():
    rows = [["beta-k2", None, None, 2, float(refvalues.beta_integral_exact(2)),
             None, float(refvalues.beta_integral_exact(2)), False]]
    bad, _ = run.check_outputs("verify", ["beta-terms"], [rows], None)
    assert bad and "gate" in bad[0]


def test_checker_reports_a_constant_it_has_no_reference_for():
    doc = {"registry": [{"id": "a1-z9-m0", "family": "A1", "z": 9.0, "m": 0, "value": 0.01}],
           "special_values": []}
    bad, _ = run.check_outputs("cli-cold", [["constants", "--format", "json"]], [doc], None)
    assert bad and "no reference" in bad[0]


def test_ops_are_a_function_of_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_ops(w, 11) == workloads.make_ops(w, 11)
    assert workloads.make_ops("sweep", 11) != workloads.make_ops("sweep", 12)
    assert len(workloads.make_ops("sweep", 11)) == len(workloads.make_ops("sweep", 12))


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct(workload):
    proc = _run(["--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "0",
                 "--tiny"], os.path.dirname(HERE))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    assert set(doc["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms",
                                   "peak_rss_mb"}


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    run_doc = {"layers": {}, "counts": {}, "traced_rounds": 1, "import_probes": [
        {"import_total_ms": 1.0, "import_numpy_ms": 1.0, "import_self_ms": 1.0}],
        "child_main_s": [], "raw_s": [1.0], "factor": [1.0], "traced": [False]}
    layer, _ = run.per_layer(run_doc, {"closed": 0.0, "series": 0.0, "quadrature": 0.0})
    assert [(n, u) for n, (_, u) in layer.items()] == \
        [(m["name"], m["unit"]) for m in spec["per_layer"]]
    run_doc.update(rounds=1, peak_rss_kb=1024, cal_s=[1.0])
    e2e, _ = run.end_to_end("verify", run_doc, 1.0)
    assert sorted((n, u) for n, (_, u) in e2e.items()) == \
        sorted((m["name"], m["unit"]) for m in spec["end_to_end"])


def test_refuses_to_run_without_sources():
    # a copy of the benchmark alone, without src/, inside the ignored out/
    bare = os.path.join(HERE, "out", "no-sources")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _run(["--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
