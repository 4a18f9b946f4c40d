"""Runs one workload's ops in a fresh interpreter and reports its timings.

run.py starts this script with a job as JSON on stdin and reads one JSON
document from the last line of its stdout.  Two modes:

    --setup   time `import trisum` plus the workload's warm-up, once
    --run     warm up, then run whole rounds of the workload's ops for the
              job's seconds, timing each op and interleaving a fixed
              calibration loop; with trace on, every other round runs with
              the span wrappers of spans.py installed

Only sys, os and time are imported before trisum, so that the set-up time
sees trisum's imports as a fresh interpreter does.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Median time of calibrate() on the reference host (2-core x86-64 VM,
# Python 3.11.7, numpy 2.4.6).  Every timing is rescaled by
# CAL_REF_S / (calibration time measured beside it), so the reported
# figures read as if taken on that host at its usual speed.  Changing
# calibrate() or this constant changes every reported time.
CAL_REF_S = 0.8e-3

# Median of start_probe() on the same host.  A CLI call and the set-up are
# mostly interpreter start and imports, which the host slows and speeds
# apart from in-process arithmetic, so cli-cold ops, set-up and import
# figures are rescaled by START_REF_S / (start probe beside them) instead.
START_REF_S = 130e-3

# `-X importtime` probes of `import trisum.cli` in a traced run
IMPORT_PROBES = 5


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("TRISUM_MAX_TERMS", None)
    # numpy's BLAS would start a spinning thread per core at import; trisum
    # never calls BLAS, and on a 2-core host those threads contend with the
    # process being timed
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def _import_trisum():
    sys.path.insert(0, SRC)
    import trisum
    if not os.path.abspath(trisum.__file__).startswith(SRC + os.sep):
        raise ImportError(f"trisum imported from {trisum.__file__}, not from {SRC}")
    return trisum


class ChildFailed(Exception):
    """A CLI child exited with a non-zero code."""


# -- calibration ------------------------------------------------------------

class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def calibrate() -> float:
    """CPU seconds of a fixed mix of the work trisum does: complex and
    float arithmetic, small-object calls, Fraction sums and numpy on a few
    hundred nodes.  Its time tracks the host's speed; its work never
    changes."""
    import math
    from fractions import Fraction

    import numpy as np

    x = np.linspace(1 / 1024, 1 - 1 / 1024, 512)
    t0 = time.process_time()
    z = 0.5 + 0.25j
    acc = 0.0
    for i in range(800):
        z = z * z * 0.25 + (0.3 + 0.1j)
        acc += math.sqrt(i + 1.0)
    p, q = _Pair(0.6, 0.3), _Pair(0.9, 0.1)
    for _ in range(800):
        p = _Pair(p.a * q.a - p.b * q.b, p.a * q.b + p.b * q.a)
    s = Fraction(0)
    for k in range(1, 80):
        s += Fraction(1, k)
    for _ in range(16):
        xc = 1.0 - x
        acc += float(np.sum(np.log(x) * xc * xc / (x * xc * xc + 2.0)))
    if not math.isfinite(acc + p.a + float(s) + z.real):
        raise ArithmeticError("calibration loop diverged")
    return time.process_time() - t0


def run_child(cmd: list[str], stdout=None, stderr=None) -> tuple[int, float, int]:
    """Run one child to its end, at most 60 s; reap it with wait4.  Returns
    its exit code, its CPU seconds (user plus system) and its peak RSS in
    KiB, each its own, apart from every other child."""
    import select
    import subprocess
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], 60)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def start_probe() -> float:
    """CPU seconds of `python -c "import numpy"` in a child, with the
    children's environment: interpreter start and the import trisum spends
    most of its own import in, without trisum.  A bare `python -c pass`
    tracks CLI calls less well: in the host's slow state it slowed by 1.77
    times where CLI calls slowed by 1.26."""
    import subprocess
    code, cpu_s, _ = run_child([sys.executable, "-c", "import numpy"],
                               stdout=subprocess.DEVNULL)
    if code != 0:
        raise ChildFailed(f"start probe exited {code}")
    return cpu_s


def calibrate_warm() -> float:
    """The faster of two calibrate() calls back to back: the first may
    run on caches an op or a CLI child has just evicted."""
    return min(calibrate(), calibrate())


def _median(values):
    s = sorted(values)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def corrections(cal_after, cals: list[float], ref: float, window: int) -> list[float]:
    """Per-op factor ref / (median of the window calibration samples
    around the op).  cal_after[i] is how many calibration samples ran
    before op i."""
    out = []
    for j in cal_after:
        lo = max(0, min(j - (window + 1) // 2, len(cals) - window))
        out.append(ref / _median(cals[lo:lo + window]))
    return out


# -- ops ----------------------------------------------------------------------

class Ops:
    """The ops of one workload, run against the imported package."""

    def __init__(self, job: dict, trisum):
        self.workload = job["workload"]
        self.ops = job["ops"]
        self.trisum = trisum
        self.peak_child_rss_kb = 0
        self.last_cpu_s = 0.0

    def run(self, i: int, traced: bool):
        """Run op i; return its raw result (digested later, untimed)."""
        op = self.ops[i]
        t = self.trisum
        if self.workload == "verify":
            records = t.harness.run_suite(op)
            return t.harness.emit_report(records, "json", suite=op, tol=records[0].tol)
        if self.workload == "sweep":
            method, family, z, m = op
            if method == "series":
                return t.series.sum_series(family, z, m)
            return t.quadrature.series_via_quadrature(family, z, m)
        return self._cli(op, traced)

    def _cli(self, argv, traced):
        """Run one CLI call.  Its time is the child's own CPU time, kept in
        last_cpu_s: on the 2-core reference host steal time reached 42%, and
        a call's wall time then ranged over 3.5 times where its CPU time
        ranged over 1.5."""
        import tempfile
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "clichild.py"), *argv]
        else:
            cmd = [sys.executable, "-m", "trisum.cli", *argv]
        os.makedirs(OUT, exist_ok=True)
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            code, self.last_cpu_s, rss_kb = run_child(cmd, stdout=out, stderr=err)
            self.peak_child_rss_kb = max(self.peak_child_rss_kb, rss_kb)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        if code != 0:
            raise ChildFailed(f"exit {code}: {stderr.strip()[-300:]}")
        return stdout, stderr

    def digest(self, result):
        """The checked part of an op's output, comparable across rounds."""
        import json
        if self.workload == "verify":
            doc = json.loads(result)
            return [[r["id"], r["family"], r["z"], r["m"], r["closed"],
                     r["series_oracle"], r["quad_oracle"], r["pass"]] for r in doc["records"]]
        if self.workload == "sweep":
            return result
        doc = json.loads(result[0])
        doc.pop("generated_at", None)
        for r in doc.get("records", ()):
            r.pop("runtime_ms", None)
        return doc

    def warm_up(self):
        if self.workload != "cli-cold":
            for i in range(len(self.ops)):
                self.run(i, False)


# -- modes --------------------------------------------------------------------

def setup_mode(job: dict) -> dict:
    """CPU seconds of the import and the warm-up, for the reason Ops._cli
    gives; the interpreter runs one thread."""
    t0 = time.process_time()
    trisum = _import_trisum()
    if job["workload"] == "cli-cold":
        import trisum.cli  # noqa: F401  (what every CLI call imports)
    Ops(job, trisum).warm_up()
    return {"setup_raw_s": time.process_time() - t0}


def run_mode(job: dict) -> dict:
    import resource
    from array import array

    trisum = _import_trisum()
    ops = Ops(job, trisum)
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer(trisum)
    ops.warm_up()
    cli = job["workload"] == "cli-cold"
    sample, ref = (start_probe, START_REF_S) if cli else (calibrate_warm, CAL_REF_S)
    sample()

    n = len(ops.ops)
    cal_every = job["cal_every"]
    cals, cal_after, raw, traced_flags = [], array("l"), array("d"), array("b")
    first, extra, failures, child_main_s = {}, [], [], []
    rounds = 0
    peak_rss_kb = 0
    # ops are timed in CPU seconds (see Ops._cli); the run's length is wall time
    cpu, clock = time.process_time, time.perf_counter
    deadline = clock() + job["seconds"]
    min_rounds = 2 if tracer is not None else 1     # a traced run needs a traced round
    while rounds < min_rounds or clock() < deadline:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for i in range(n):
            if len(raw) % cal_every == 0:
                cals.append(sample())
            k = len(raw)
            if traced:
                tracer.begin_op(k, i)
            t0 = cpu()
            try:
                result = ops.run(i, traced)
            except Exception as exc:  # noqa: BLE001  (an op that raises counts as failed)
                result = exc
            dt = ops.last_cpu_s if cli and not isinstance(result, Exception) else cpu() - t0
            if traced:
                tracer.end_op()
            raw.append(dt)
            cal_after.append(len(cals))
            traced_flags.append(traced)
            if isinstance(result, Exception):
                failures.append(f"op {i}: {type(result).__name__}: {result}")
                continue
            if cli and traced:
                child_main_s.append((k, tracer.adopt_child(result[1])))
            d = ops.digest(result)
            if i not in first:
                first[i] = d
            elif d != first[i]:
                extra.append([i, d])
        if traced:
            tracer.uninstall()
        if rounds == 0:
            # every op has now run twice: the high-water mark of the ops,
            # before the per-op records below grow with the run's length
            peak_rss_kb = (ops.peak_child_rss_kb if cli
                           else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        rounds += 1
    cals.append(sample())

    factors = corrections(cal_after, cals, ref, job["cal_window"])
    out = {
        "rounds": rounds,
        "raw_s": raw.tolist(),
        "factor": factors,
        "traced": [bool(t) for t in traced_flags],
        "cal_s": cals,
        "first": [first.get(i) for i in range(n)],
        "extra": extra,
        "failures": failures,
        "peak_rss_kb": peak_rss_kb,
    }
    if tracer is not None:
        out["layers"] = tracer.summary(factors)
        out["counts"] = dict(tracer.counts)
        out["traced_rounds"] = rounds // 2
        out["child_main_s"] = [m * factors[k] for k, m in child_main_s]
        out["import_probes"] = import_probes()
        tracer.write(os.path.join(OUT, f"trace-{job['workload']}-s{job['seed']}.csv"))
        if job["workload"] == "sweep":
            # accuracy of the closed form over the same region, untimed
            out["closed"] = [
                trisum.closedform.closed_sum(f, z, m).total if f[0] in "AB" else None
                for _, f, z, m in ops.ops]
    return out


def import_probes() -> list[dict]:
    """`python -X importtime -c "import trisum.cli"`, IMPORT_PROBES times,
    each rescaled by a start probe taken just before it."""
    import subprocess

    import spans
    out = []
    for _ in range(IMPORT_PROBES):
        factor = START_REF_S / start_probe()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import trisum.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        out.append({k: v * factor for k, v in spans.parse_importtime(proc.stderr).items()})
    return out


def main(argv: list[str]) -> int:
    import json
    job = json.loads(sys.stdin.read())
    if argv[1:] == ["--setup"]:
        out = setup_mode(job)
    elif argv[1:] == ["--run"]:
        out = run_mode(job)
    else:
        print("usage: worker.py --setup|--run < job.json", file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
