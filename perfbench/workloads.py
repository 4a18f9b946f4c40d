"""The three workloads: their ops, made from the seed alone, and the checks
each op's output must pass.

    verify    one op = run_suite(s) + emit_report(..., "json") for one of
              the five suites, in a fixed cycle
    sweep     one op = one scalar sum_series or series_via_quadrature call
              at a seeded (family, z, m); the two methods alternate
    cli-cold  one op = `python -m trisum.cli ... --format json` in a fresh
              interpreter, over a fixed mix of subcommands at seeded points

Where the inputs stop, and why, is in README.md.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("verify", "sweep", "cli-cold")
SUITES = ("paper-constants", "theorem-grid", "concluding", "specfun-identities", "beta-terms")

AB_FAMILIES = ("A1", "A2", "B1", "B2")
C_FAMILIES = ("C1", "C2", "C3", "C4")
AB_Z_MAX = 30.0        # A/B: |z| log-spread over [1, AB_Z_MAX]
AB_M = (0, 1, 2)
C_Z_MIN = 1.0 / 16.0   # C: |z| spread over [C_Z_MIN, 1]
PER_STRATUM = 16       # sweep points per (family, m, sign) stratum

# family -> (kernel, variant) of its integral representation
INTEGRAL_OF = {"A1": ("lnx", "thm1"), "A2": ("lnx", "thm2"),
               "B1": ("lnratio", "thm1"), "B2": ("lnratio", "thm2")}

# Relative tolerance of each check, per workload and layer.  The figures
# they rest on are in README.md.
_POINT_TOL = {"closed": 1e-9, "series": 2e-6, "quadrature": 1e-9, "specfun": 1e-14}
TOL = {
    "verify": {"closed": 1e-7, "series": 2e-5, "quadrature": 1e-9, "exact": 1e-15},
    "sweep": _POINT_TOL,
    "cli-cold": _POINT_TOL,
}
# beta-terms quadrature is held to the suite's own scale, tol * max(1, |ref|):
# its stop test is absolute, so the relative error of the tiny integrals at
# large k is large; README.md gives the figures
BETA_QUAD_TOL = 1e-11

# the share of samples at or below op_tail_ms; each leaves well over ten
# samples beyond it at the op counts README.md gives
TAIL_PCT = {"verify": 95.0, "sweep": 99.0, "cli-cold": 75.0}


def _stratified(rng: random.Random, lo: float, hi: float, n: int, log: bool) -> list[float]:
    """n values, one in each of n equal slices of [lo, hi] (of log |z| when log)."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (i + rng.random()) / n for i in range(n)]
    return [math.exp(v) for v in vals] if log else vals


def sweep_points(seed: int, per_stratum: int = PER_STRATUM) -> list[tuple[str, float, int]]:
    """Every (family, m, sign) stratum gets the same number of points, so
    the seed moves only where in the region they fall."""
    rng = random.Random(seed)
    pts = []
    for sign in (1.0, -1.0):
        for family in AB_FAMILIES:
            for m in AB_M:
                for z in _stratified(rng, 1.0, AB_Z_MAX, per_stratum, log=True):
                    pts.append((family, sign * z, m))
        for family in C_FAMILIES:
            for z in _stratified(rng, C_Z_MIN, 1.0, per_stratum, log=False):
                pts.append((family, sign * z, 0))
    return pts


def sweep_ops(seed: int, per_stratum: int = PER_STRATUM) -> list[list]:
    """Series and quadrature ops alternate, each method walking the points
    in its own shuffled order, so one point's two ops are never adjacent."""
    pts = sweep_points(seed, per_stratum)
    rng = random.Random(seed ^ 0x5EED)
    a, b = pts[:], pts[:]
    rng.shuffle(a)
    rng.shuffle(b)
    ops = []
    for p, q in zip(a, b):
        ops.append(["series", *p])
        ops.append(["quadrature", *q])
    return ops


def cli_ops(seed: int) -> list[list[str]]:
    rng = random.Random(seed)

    def point():
        family = rng.choice(AB_FAMILIES)
        z = rng.choice((1.0, -1.0)) * math.exp(rng.uniform(0.0, math.log(AB_Z_MAX)))
        return family, repr(z), str(rng.choice(AB_M))

    argvs = []
    for method in ("closed", "series", "quadrature", "all"):
        family, z, m = point()
        argvs.append(["eval", "--family", family, "--z", z, "--m", m, "--method", method,
                      "--format", "json"])
    family, z, m = point()
    kernel, variant = INTEGRAL_OF[family]
    argvs.append(["integral", "--kernel", kernel, "--variant", variant, "--z", z, "--m", m,
                  "--format", "json"])
    argvs.append(["constants", "--format", "json"])
    argvs.append(["verify", "--suite", "concluding", "--format", "json"])
    return argvs


def make_ops(workload: str, seed: int, tiny: bool = False) -> list:
    if workload == "verify":
        return list(SUITES)
    if workload == "sweep":
        return sweep_ops(seed, 1 if tiny else PER_STRATUM)
    return cli_ops(seed)


# A calibration sample is taken once per CAL_EVERY ops: every 10-70 ms of
# ops on verify, every 2-3 ms on sweep, every third CLI call.  Each op is
# rescaled by the median of the CAL_WINDOW samples around it.  On the 2-core
# reference host interpreter start flips between a fast and a slow state
# every few CLI calls, so a CLI call uses only the start probes just before
# and after its group of three calls.
CAL_EVERY = {"verify": 1, "sweep": 32, "cli-cold": 3}
CAL_WINDOW = {"verify": 5, "sweep": 5, "cli-cold": 2}


# -- checks -------------------------------------------------------------------
#
# checks() turns one op's digested output into (layer, got, key) triples.
# key names the reference in refvalues.Reference.value(); layer "gate" means
# got must be True.

def _argv_get(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _record_checks(rows, suite):
    for rid, family, z, m, closed, series, quad, passed in rows:
        yield "gate", passed, None
        if suite == "beta-terms":
            yield "exact", closed, ("beta", m)
            yield "beta-quadrature", quad, ("beta", m)
            continue
        if family is None:
            continue
        key = ("series", family, z, m, rid if suite == "paper-constants" else None)
        for layer, got in (("closed", closed), ("series", series), ("quadrature", quad)):
            if got is not None:
                yield layer, got, key


def checks(workload: str, op, digest):
    if workload == "verify":
        yield from _record_checks(digest, op)
        return
    if workload == "sweep":
        method, family, z, m = op
        yield method, digest, ("series", family, z, m, None)
        return
    doc = digest
    command = op[0]
    if command == "eval":
        key = ("series", _argv_get(op, "--family"), float(_argv_get(op, "--z")),
               int(_argv_get(op, "--m")), None)
        yield "gate", set(doc["values"]) == ({"closed", "series", "quadrature"}
                                             if _argv_get(op, "--method") == "all"
                                             else {_argv_get(op, "--method")}), None
        for layer, got in doc["values"].items():
            yield layer, got, key
    elif command == "integral":
        family = {v: k for k, v in INTEGRAL_OF.items()}[
            (_argv_get(op, "--kernel"), _argv_get(op, "--variant"))]
        m = int(_argv_get(op, "--m"))
        yield "quadrature", doc["value"], ("integral", family, float(_argv_get(op, "--z")), m, None)
    elif command == "constants":
        for e in doc["registry"]:
            yield "closed", e["value"], ("series", e["family"], e["z"], e["m"], e["id"])
        for s in doc["special_values"]:
            yield "specfun", s["real"], ("special", s["name"], "real")
            yield "specfun", s["imag"], ("special", s["name"], "imag")
    elif command == "verify":
        rows = [[r["id"], r["family"], r["z"], r["m"], r["closed"], r["series_oracle"],
                 r["quad_oracle"], r["pass"]] for r in doc["records"]]
        yield from _record_checks(rows, _argv_get(op, "--suite"))
