"""Acceptance gate: ten criteria, each printing one pass/fail line.

The lines go to the real stdout so they stay visible under pytest's
capture.  Every criterion re-derives its target independently of the
module under test wherever an anchor exists in closed form.
"""

import math
import random

from trisum import (
    IntegrandSpec,
    REGISTRY,
    base_term,
    beta_term_integral,
    closed_sum,
    coeff_a,
    coeff_b,
    integrate,
    reference_constant,
    run_suite,
    solve_cubic,
    sum_series,
)

CATALAN = 0.91596559417721901505
LN2 = math.log(2.0)
PI = math.pi
GRID_Z = (2.0, 3.0, -4.0, -8.0, 5.0, -2.0)


def _report(capfd, num: int, label: str, ok: bool) -> None:
    # pytest captures at the descriptor level, so the one-line verdict has
    # to be written with capture suspended to stay visible
    status = "pass" if ok else "FAIL"
    with capfd.disabled():
        print(f"[acceptance] {num:2d}. {label:<58s} {status}", flush=True)


def _spread(values) -> float:
    return max(values) - min(values)


def test_criterion_01_first_closed_constant(capfd):
    anchor = PI * PI / 48 - LN2 * LN2 / 10 + 2 * CATALAN / 5
    layers = (
        closed_sum("A1", 2.0, 0).total,
        sum_series("A1", 2.0, 0, tol=1e-13),
        integrate(IntegrandSpec("lnx", 2.0, 0, "thm1"), tol=1e-12),
    )
    ok = all(abs(v - anchor) <= 1e-12 for v in layers) and _spread(layers) <= 1e-12
    _report(capfd, 1, "three layers match pi^2/48 - ln^2(2)/10 + 2G/5", ok)
    assert ok, (anchor, layers)


def test_criterion_02_lnratio_constant(capfd):
    anchor = PI * LN2 / 20 - 3 * LN2 * LN2 / 40 - PI * PI / 160
    layers = (
        closed_sum("B1", 2.0, 0).total,
        sum_series("B1", 2.0, 0, tol=1e-13),
        integrate(IntegrandSpec("lnratio", 2.0, 0, "thm1"), tol=1e-12),
    )
    ok = all(abs(v - anchor) <= 1e-12 for v in layers) and _spread(layers) <= 1e-12
    _report(capfd, 2, "three layers match pi ln2/20 - 3 ln^2(2)/40 - pi^2/160", ok)
    assert ok, (anchor, layers)


def test_criterion_03_arctan_constant(capfd):
    a75 = math.atan(math.sqrt(7.0) / 5.0)
    anchor = (3.0 / 64) * LN2 * LN2 + a75 * a75 / 16 \
        - (5 * math.sqrt(7.0) / 112) * LN2 * a75
    # the alternating-sign printed form is minus the z = -4 sum
    layers = (
        -closed_sum("B1", -4.0, 0).total,
        -sum_series("B1", -4.0, 0, tol=1e-13),
        -integrate(IntegrandSpec("lnratio", -4.0, 0, "thm1"), tol=1e-12),
    )
    ok = all(abs(v - anchor) <= 1e-12 for v in layers) and _spread(layers) <= 1e-12
    _report(capfd, 3, "three layers match the ln2 / arctan(sqrt7/5) combination", ok)
    assert ok, (anchor, layers)


def test_criterion_04_cross_form_equality(capfd):
    closed = -closed_sum("A1", -4.0, 0).total
    dilog_form = reference_constant("a1-zneg4-m0-dilog")
    quotient_form = reference_constant("a1-zneg4-m0-quot")
    ok = abs(closed - dilog_form) <= 1e-12 \
        and abs(closed - quotient_form) <= 1e-12 \
        and abs(dilog_form - quotient_form) <= 1e-12
    _report(capfd, 4, "both printed forms of the z=-4 sum agree numerically", ok)
    assert ok, (closed, dilog_form, quotient_form)


def test_criterion_05_registry_reproduces(capfd):
    ok = True
    worst = 0.0
    for entry in REGISTRY.values():
        want = entry.value()
        s = float(entry.scale)
        closed = s * closed_sum(entry.family, entry.z, entry.m).total
        series = s * sum_series(entry.family, entry.z, entry.m, tol=1e-13)
        scale = max(1.0, abs(want))
        ok = ok and abs(closed - want) <= 1e-11 * scale \
            and abs(series - want) <= 1e-10 * scale
        worst = max(worst, abs(closed - want), abs(series - want))
    _report(capfd, 5, "all 17 registry constants reproduce (1e-11 / 1e-10)", ok)
    assert ok, worst


def test_criterion_06_theorem_grid(capfd):
    records = run_suite("theorem-grid", 1e-9)
    ok = len(records) == 120 and all(r.passed for r in records)
    _report(capfd, 6, "120-case grid: three layers mutually agree at 1e-9", ok)
    assert ok, [r.id for r in records if not r.passed]


def test_criterion_07_beta_term_identity(capfd):
    ok = True
    worst = 0.0
    for k in range(31):
        exact = float(-base_term("A", k).exact)
        quad = beta_term_integral(k, tol=1e-12)
        worst = max(worst, abs(quad - exact))
        ok = ok and abs(quad - exact) <= 1e-11
    _report(capfd, 7, "generating integrals match exact rationals, k = 0..30", ok)
    assert ok, worst


def test_criterion_08_alternating_families(capfd):
    records = run_suite("concluding", 1e-9)
    ok = len(records) == 12 and all(r.passed for r in records)
    _report(capfd, 8, "alternating families match their integrals at 1e-9", ok)
    assert ok, [r.id for r in records if not r.passed]


def test_criterion_09_identity_suite(capfd):
    records = run_suite("specfun-identities", 1e-13)
    by_id = {r.id: r for r in records}
    required = (
        "dilog-circle-decomposition",
        "dilog-landen-real",
        "dilog-duplication",
        "clausen-reflection",
        "clausen-antiperiodicity",
        "clausen-duplication",
    )
    ok = all(name in by_id and by_id[name].passed for name in required) \
        and all(r.passed for r in records)
    _report(capfd, 9, "dilog and Clausen identity grids pass at 1e-13", ok)
    assert ok, [r.id for r in records if not r.passed]


def test_criterion_10_coefficient_layer(capfd):
    rng = random.Random(20260818)
    ok = True
    worst = 0.0
    for z in GRID_Z:
        roots = solve_cubic(z)
        for m in range(5):
            coeffs = {
                "a": [coeff_a(m, roots, which) for which in (1, 2, 3)],
                "b": [coeff_b(m, roots, which) for which in (1, 2, 3)],
            }
            for kind, per_root in coeffs.items():
                for _ in range(12):
                    x = rng.uniform(0.05, 0.95)
                    num = x ** m * (1 - x) ** (2 * m) if kind == "a" else 1.0
                    lhs = num / (x * (1 - x) ** 2 - z) ** (m + 1)
                    rhs = sum(
                        c[r] / (x - lam) ** (r + 1)
                        for c, lam in zip(per_root, roots.roots)
                        for r in range(m + 1)
                    )
                    resid = abs(lhs - rhs) / max(1.0, abs(lhs))
                    worst = max(worst, resid)
                    ok = ok and resid <= 1e-10

    s7 = math.sqrt(7.0)
    r2 = solve_cubic(2.0)
    r4 = solve_cubic(-4.0)
    residues = (
        (coeff_a(0, r2, 1)[0], 0.2),
        (coeff_a(0, r4, 1)[0], -(7 - 5j * s7) / 112),
        (coeff_a(0, r4, 2)[0], -(7 + 5j * s7) / 112),
        (coeff_a(0, r4, 3)[0], 0.125),
    )
    for got, want in residues:
        ok = ok and abs(got - want) <= 1e-13
    _report(capfd, 10, "partial fractions reconstruct; residues hit 1e-13", ok)
    assert ok, worst
