"""The trisum benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload verify|sweep|cli-cold --seed N \
        --seconds S --trace 0|1 [--tiny]

Run it from the root of a source checkout; it imports trisum from src/.
It times a fresh interpreter's set-up several times, then runs the
workload's ops in a separate worker process for S seconds, checks every
distinct output against a reference computed here with mpmath or exact
rationals, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(README.md maps each to the workload and end-to-end metric it moves).
--tiny shrinks the inputs and the set-up repeats, for the self-tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import CAL_REF_S, OUT, START_REF_S, child_env, start_probe  # noqa: E402

# fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 7


def _median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def percentile(values, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    s = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(s)))
    return s[rank - 1], len(s) - rank


def _worker(mode: str, job: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), mode],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
        env=child_env(), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def time_setup(job: dict, repeats: int) -> tuple[float, float]:
    """Median raw and host-corrected set-up seconds over fresh workers.
    Each set-up is rescaled by the mean of the start probes on either side."""
    starts = [start_probe()]
    raw = []
    for _ in range(repeats):
        raw.append(_worker("--setup", job, 120)["setup_raw_s"])
        starts.append(start_probe())
    fixed = [r * START_REF_S * 2 / (a + b) for r, a, b in zip(raw, starts, starts[1:])]
    return _median(raw), _median(fixed)


# -- checks -------------------------------------------------------------------

def check_outputs(workload: str, ops: list, first: list, closed: list | None):
    """Compare every op's first output with the reference.  Returns the
    list of mismatches and the worst relative error of each layer."""
    from refvalues import Reference, rel_err

    ref = Reference()
    tol = workloads.TOL[workload]
    worst = {"closed": 0.0, "series": 0.0, "quadrature": 0.0}
    bad = []
    for op, digest in zip(ops, first):
        if digest is None:      # the op failed every time; counted in failed
            continue
        for layer, got, key in workloads.checks(workload, op, digest):
            if layer == "gate":
                if got is not True:
                    bad.append(f"{op}: gate failed")
                continue
            if isinstance(got, int) and not isinstance(got, bool):
                got = float(got)    # JSON writes integral floats without a point
            try:
                want = ref.value(key)
            except KeyError:
                bad.append(f"{op}: {layer} has no reference for {key}")
                continue
            if layer == "beta-quadrature":
                # the suite's own scale, tol * max(1, |ref|); README.md says why
                scale = max(1.0, abs(want))
                ok = isinstance(got, float) and abs(got - want) <= workloads.BETA_QUAD_TOL * scale
            else:
                err = rel_err(got, want) if isinstance(got, float) else math.inf
                ok = err <= tol[layer]
                if layer in worst:
                    worst[layer] = max(worst[layer], err)
            if not ok:
                bad.append(f"{op}: {layer} {key} got {got!r} want {want!r}")
    if closed is not None:
        for (_, family, z, m), got in zip(ops, closed):
            if got is None:
                continue
            err = rel_err(got, ref.value(("series", family, z, m, None)))
            worst["closed"] = max(worst["closed"], err)
            if err > tol["closed"]:
                bad.append(f"closed_sum({family}, {z!r}, {m}) got {got!r}")
    return bad, worst


# -- metrics --------------------------------------------------------------------

def end_to_end(workload: str, run: dict, setup_s: float) -> tuple[dict, dict]:
    times = [r * f for r, f, t in zip(run["raw_s"], run["factor"], run["traced"]) if not t]
    tail, beyond = percentile(times, workloads.TAIL_PCT[workload])
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (_median(times) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (run["peak_rss_kb"] / 1024.0, "MB"),
    }
    raw = [r for r, t in zip(run["raw_s"], run["traced"]) if not t]
    info = {
        "samples": len(times), "tail_pct": workloads.TAIL_PCT[workload],
        "samples_beyond_tail": beyond, "rounds": run["rounds"],
        "raw_op_p50_ms": _median(raw) * 1e3,
        "raw_ops_per_s": len(raw) / sum(raw),
        "cal_median_ms": _median(run["cal_s"]) * 1e3,
        "cal_ref_ms": (START_REF_S if workload == "cli-cold" else CAL_REF_S) * 1e3,
    }
    return metrics, info


def per_layer(run: dict, worst: dict) -> tuple[dict, dict]:
    layers, counts = run["layers"], run["counts"]
    rounds = max(1, run["traced_rounds"])

    def mean(name, scale, self_time=False):
        calls, incl, own = layers.get(name, (0, 0.0, 0.0))
        return (own if self_time else incl) / calls * scale if calls else 0.0

    def calls(name):
        return layers.get(name, (0,))[0] / rounds

    m = {
        "closedform.closed_sum_us": (mean("closedform.closed_sum", 1e6), "us"),
        "closedform.closed_sum_self_us": (mean("closedform.closed_sum", 1e6, True), "us"),
        "closedform.C_of_us": (mean("closedform.C_of", 1e6), "us"),
        "closedform.C_of_calls": (calls("closedform.C_of"), "count"),
        "jets.coeff_us": (mean("jets.coeff", 1e6), "us"),
        "jets.coeff_calls": (calls("jets.coeff"), "count"),
        "roots.solve_cubic_us": (mean("roots.solve_cubic", 1e6), "us"),
        "specfun.dilog_us": (mean("specfun.dilog", 1e6), "us"),
        "specfun.dilog_calls": (calls("specfun.dilog"), "count"),
        "specfun.harmonic_calls": (counts.get("specfun.harmonic", 0) / rounds, "count"),
        "series.sum_series_us": (mean("series.sum_series", 1e6), "us"),
        "series.terms": (counts.get("series.terms", 0) / rounds, "count"),
        "quadrature.sqv_us": (mean("quadrature.sqv", 1e6), "us"),
        "quadrature.tanh_sinh_self_us": (mean("quadrature.tanh_sinh", 1e6, True), "us"),
        "quadrature.levels": (counts.get("quadrature.levels", 0) / rounds, "count"),
        "quadrature.nodes": (counts.get("quadrature.nodes", 0) / rounds, "count"),
    }
    for suite in workloads.SUITES:
        m[f"harness.run_suite_ms.{suite}"] = (mean(f"harness.run_suite.{suite}", 1e3), "ms")
    m["harness.emit_report_ms"] = (mean("harness.emit_report", 1e3), "ms")
    ops = layers.get("bench.op", (0,))[0]
    harness_self = sum(layers.get(n, (0, 0.0, 0.0))[2]
                       for n in ("harness.run_suite", "harness.emit_report"))
    m["harness.self_ms"] = (harness_self / ops * 1e3 if ops else 0.0, "ms")
    for key in ("import_total_ms", "import_numpy_ms", "import_self_ms"):
        m[f"cli.{key}"] = (_median([p[key] for p in run["import_probes"]]), "ms")
    m["cli.main_ms"] = (_median(run["child_main_s"]) * 1e3, "ms")
    m["closedform.max_rel_err"] = (worst["closed"], "ratio")
    m["series.max_rel_err"] = (worst["series"], "ratio")
    m["quadrature.max_rel_err"] = (worst["quadrature"], "ratio")

    plain = [r * f for r, f, t in zip(run["raw_s"], run["factor"], run["traced"]) if not t]
    traced = [r * f for r, f, t in zip(run["raw_s"], run["factor"], run["traced"]) if t]
    overhead = (_median(traced) / _median(plain) - 1.0) * 100.0 if plain and traced else 0.0
    m["bench.trace_overhead_pct"] = (overhead, "%")
    info = {"traced_rounds": run["traced_rounds"], "untraced_ops": len(plain),
            "traced_ops": len(traced)}
    return m, info


# -- main -------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--tiny", action="store_true",
                   help="one point per sweep stratum and one set-up repeat")
    args = p.parse_args(argv)
    if not (0 < args.seconds <= 120):
        p.error("--seconds must be in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trisum", "__init__.py")):
        print(f"error: no trisum sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a trisum checkout", file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401  (the reference needs it; fail before timing)
    except ImportError:
        print("error: the reference values need mpmath", file=sys.stderr)
        return 2

    workload = args.workload
    ops = workloads.make_ops(workload, args.seed, args.tiny)
    job = {"workload": workload, "seed": args.seed, "ops": ops, "seconds": args.seconds,
           "trace": args.trace, "cal_every": workloads.CAL_EVERY[workload],
           "cal_window": workloads.CAL_WINDOW[workload]}

    setup_raw, setup_s = time_setup(job, 1 if args.tiny else SETUP_REPEATS)
    run = _worker("--run", job, args.seconds + 150)

    bad, worst = check_outputs(workload, ops, run["first"], run.get("closed"))
    for i, digest in run["extra"]:
        bad.append(f"op {i}: output changed between rounds: {digest!r:.200}")
    failed = len(run["failures"])

    if args.trace:
        metrics, info = per_layer(run, worst)
    else:
        metrics, info = end_to_end(workload, run, setup_s)
    info.update({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "ops_per_round": len(ops),
                 "setup_raw_s": setup_raw,
                 "failures": run["failures"][:20], "mismatches": bad[:20]})
    os.makedirs(OUT, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(OUT, f"run-{workload}-s{args.seed}-t{args.trace}-{stamp}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics}, fh, indent=1)
    for line in bad[:20]:
        print("MISMATCH " + line, file=sys.stderr)
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(run["raw_s"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
