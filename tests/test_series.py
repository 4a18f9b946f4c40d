import json
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

from trisum.closedform import closed_sum
from trisum.errors import DomainError, NonConvergent, TermOverflow, TooManyTerms, TrisumError
from trisum.quadrature import IntegrandSpec, Kernel, Variant, series_via_quadrature
from trisum import series
from trisum.series import FAMILIES, SeriesFamily, base_term, sum_series

# reference sums computed independently with multiprecision arithmetic
A1_Z2_M0_REF = 0.52395769463509576811
A1_Z2_M1_REF = 0.025439294973341518365
B1_Z2_M0_REF = 0.011160300964506508307
A1_ZN4_M0_REF = -0.24451533246720645487
B1_ZN4_M0_REF = 0.0025201356719520862809
C1_HALF_REF = 0.99740856347169283769
C2_HALF_REF = 0.044976558377800362658
C3_HALF_REF = -0.0013827548667399981728
C4_HALF_REF = 0.020741985373847050503


def _exact_base(kind: str, k: int) -> Fraction:
    h = lambda n: sum(Fraction(1, j) for j in range(1, n + 1))
    num = h(3 * k + 1) - h(k) if kind == "A" else h(2 * k) - h(k)
    return num / ((3 * k + 1) * math.comb(3 * k, k))


class TestBaseTerm:
    def test_first_values_exact(self):
        assert base_term("A", 0).exact == Fraction(1)
        assert base_term("B", 0).exact == Fraction(0)
        assert base_term("A", 1).exact == Fraction(13, 144)
        assert base_term("B", 1).exact == Fraction(1, 24)
        assert base_term("A", 2).exact == _exact_base("A", 2)

    def test_exact_matches_brute_force(self):
        for kind in ("A", "B"):
            for k in (0, 1, 2, 3, 7, 20):
                assert base_term(kind, k).exact == _exact_base(kind, k)

    def test_double_tracks_exact(self):
        for kind in ("A", "B"):
            for k in range(61):
                tv = base_term(kind, k)
                want = float(tv.exact)
                if want == 0.0:
                    assert tv.value == 0.0
                else:
                    assert abs(tv.value - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("kind", ["A", "B"])
    def test_matches_the_fraction_formula(self, kind):
        # the value from one int / int division and the exact term from one
        # Fraction are those of three normalised Fractions, past k = 370 too,
        # where the denominator leaves the double range
        from trisum.specfun import harmonic
        for k in range(601):
            den = (3 * k + 1) * math.comb(3 * k, k)
            top = 3 * k + 1 if kind == "A" else 2 * k
            tv = base_term(kind, k)
            want = float(Fraction(harmonic(top) - harmonic(k)) / den)
            assert tv.value.hex() == want.hex(), k
            if k <= 170:
                exact = (harmonic(top, exact=True) - harmonic(k, exact=True)) / den
                assert tv.exact == exact, k
            else:
                assert tv.exact is None

    def test_exact_cutoff(self):
        assert base_term("A", 170).exact is not None
        assert base_term("A", 171).exact is None

    def test_huge_index_underflows_cleanly(self):
        tv = base_term("A", 5000)
        assert tv.exact is None
        assert tv.value == 0.0

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            base_term("X", 1)
        with pytest.raises(DomainError):
            base_term("A", -1)


def _brute_sum(family: str, z: Fraction, m: int, terms: int) -> float:
    # exact rational partial sum, z rational; tail is negligible at the
    # term counts used below
    kind = "A" if family in ("A1", "A2", "C1", "C2") else "B"
    acc = Fraction(0)
    for k in range(terms):
        if family in ("A1", "B1"):
            acc += _exact_base(kind, k) * math.comb(k, m) / z ** (k + 1)
        elif family in ("A2", "B2"):
            acc += _exact_base(kind, k) * math.comb(k + m, k) / z ** (k + m + 1)
        elif family in ("C1", "C3"):
            acc += (-1) ** k * _exact_base(kind, 2 * k) * z ** (2 * k)
        else:
            acc += (-1) ** k * _exact_base(kind, 2 * k + 1) * z ** (2 * k + 1)
    return float(acc)


class TestSumSeries:
    def test_reference_values(self):
        # abs=0: pytest's default abs=1e-12 would pass any of these at
        # their size.  A1 at m = 0 is off by 8.4e-14 (z = 2) and 3.2e-14
        # (z = -4) at the default tol of 1e-13, within what that tol
        # promises but not within 2e-14, so those two run at tol=1e-15
        assert sum_series("A1", 2.0, tol=1e-15) == pytest.approx(A1_Z2_M0_REF, rel=2e-14, abs=0)
        assert sum_series("A1", 2.0, 1) == pytest.approx(A1_Z2_M1_REF, rel=2e-14, abs=0)
        assert sum_series("B1", 2.0) == pytest.approx(B1_Z2_M0_REF, rel=2e-13, abs=0)
        assert sum_series("A1", -4.0, tol=1e-15) == pytest.approx(A1_ZN4_M0_REF, rel=2e-14, abs=0)
        assert sum_series("B1", -4.0) == pytest.approx(B1_ZN4_M0_REF, rel=2e-13, abs=0)

    def test_concluding_reference_values(self):
        assert sum_series("C1", 0.5) == pytest.approx(C1_HALF_REF, rel=2e-14, abs=0)
        assert sum_series("C2", 0.5) == pytest.approx(C2_HALF_REF, rel=2e-14, abs=0)
        assert sum_series("C3", 0.5) == pytest.approx(C3_HALF_REF, rel=2e-13, abs=0)
        assert sum_series("C4", 0.5) == pytest.approx(C4_HALF_REF, rel=2e-14, abs=0)

    @pytest.mark.parametrize("family,z,m", [
        ("A1", 3, 2), ("A1", -8, 4), ("A2", 2, 3), ("A2", -2, 1),
        ("B1", 5, 0), ("B1", -4, 2), ("B2", 2, 2), ("B2", -8, 0),
        ("A1", 1, 0), ("B1", -1, 1),
    ])
    def test_against_exact_partial_sums_ab(self, family, z, m):
        # tol is taken relative to max(1, |sum|), so it is absolute here
        got = sum_series(family, float(z), m, tol=1e-13)
        want = _brute_sum(family, Fraction(z), m, 130)
        assert abs(got - want) <= 2e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("family,z", [
        ("C1", Fraction(1, 4)), ("C2", Fraction(1, 2)), ("C3", Fraction(9, 10)),
        ("C4", Fraction(1, 4)), ("C1", Fraction(1)), ("C3", Fraction(-1, 2)),
    ])
    def test_against_exact_partial_sums_c(self, family, z):
        got = sum_series(family, float(z), tol=1e-13)
        want = _brute_sum(family, z, 0, 80)
        assert abs(got - want) <= 2e-13 * max(1.0, abs(want))

    def test_family_enum_and_string_agree(self):
        assert sum_series(SeriesFamily.A1, 2.0) == sum_series("A1", 2.0)

    def test_tol_is_respected(self):
        loose = sum_series("A1", 2.0, 0, tol=1e-6)
        tight = sum_series("A1", 2.0, 0, tol=1e-13)
        assert loose == pytest.approx(tight, rel=1e-6, abs=0)
        assert abs(tight - A1_Z2_M0_REF) <= 1e-13

    def test_c_families_at_zero(self):
        assert sum_series("C1", 0.0) == 1.0
        assert sum_series("C2", 0.0) == 0.0

    def test_nonconvergent_inside_unit_disc(self):
        with pytest.raises(NonConvergent):
            sum_series("A1", 0.5)
        with pytest.raises(NonConvergent):
            sum_series("B2", -0.99)

    def test_nonconvergent_outside_for_alternating(self):
        with pytest.raises(NonConvergent):
            sum_series("C1", 1.5)

    def test_c_families_reject_binomial_order(self):
        with pytest.raises(DomainError):
            sum_series("C1", 0.5, 1)

    def test_bad_family(self):
        with pytest.raises(ValueError):
            sum_series("Z9", 2.0)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            sum_series("A1", 2.0, 0, tol=1e-18)

    def test_term_cap_env(self, monkeypatch):
        monkeypatch.setattr(series, "DEFAULT_MAX_TERMS", 4)
        with pytest.raises(TooManyTerms, match="within 4 terms"):
            sum_series("A1", 2.0, 0, tol=1e-13)
        monkeypatch.setattr(series, "DEFAULT_MAX_TERMS", 500)
        assert sum_series("A1", 2.0) == pytest.approx(A1_Z2_M0_REF, rel=1e-13, abs=0)


def _base_entry(kind: str, n: int) -> float:
    # the base term of index n as the tables compute it: entry n of the
    # A1/B1 m = 0 table, the base term times C(n, 0) = 1
    family = SeriesFamily.A1 if kind == "A" else SeriesFamily.B1
    return series._grow_coef(family, 0, n)[n]


def _sum_with_comb(family: str, z: float, m: int, tol: float) -> float:
    # sum_series as it was written before the binomial weights were carried
    # by recurrence and then by coefficient table: math.comb on every term,
    # the alternating sign applied on odd k; the stop test is relative
    spec = FAMILIES[SeriesFamily(family)]
    cap = series.DEFAULT_MAX_TERMS
    step = 1 if spec.outer else 2
    total = comp = prev_mag = 0.0
    seen_nonzero = False
    zero_run = n = 0
    if spec.outer:
        z_pow = (1.0 / z) * (z ** -m if spec.shifted else 1.0)
        z_step = 1.0 / z
    else:
        z_pow = z if spec.shifted else 1.0
        z_step = z * z
        n = 1 if spec.shifted else 0
    for k in range(cap):
        base = _base_entry(spec.kind, n)
        if spec.outer:
            binom = math.comb(k + m, k) if spec.shifted else math.comb(k, m)
            term = base * binom * z_pow
        else:
            term = base * z_pow if k % 2 == 0 else -base * z_pow
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        mag = abs(term)
        if mag > 0.0:
            if seen_nonzero and prev_mag > 0.0:
                rho = 1.1 * (mag / prev_mag)
                if rho < 1.0 and k >= m + 1:
                    if mag * rho / (1.0 - rho) <= tol * abs(total):
                        return total
            seen_nonzero = True
            zero_run = 0
            prev_mag = mag
        else:
            zero_run += 1
            if zero_run >= 3 and k > m + 3:
                return total
        n += step
        z_pow *= z_step
    raise TooManyTerms(f"family {family} at z = {z}, m = {m} did not meet tol = {tol} "
                       f"within {cap} terms")


_RECURRENCE_GRID = [
    (family, sign * z, m)
    for family in ("A1", "A2", "B1", "B2")
    for z in (1.0, 2.0, 3.7, 30.0, 1e3)
    for sign in (1.0, -1.0)
    for m in range(9)
] + [
    (family, z, 0)
    for family in ("C1", "C2", "C3", "C4")
    for z in (0.0, 1e-3, -1e-3, 0.25, -0.25, 0.9, -0.9, 1.0, -1.0)
]


@pytest.mark.parametrize("tol", [1e-13, 1e-8])
def test_recurrence_weights_sum_bitwise_as_comb(tol):
    # the weights by integer recurrence and the sign carried by -z^2 leave
    # every float operation and its order as they were
    for family, z, m in _RECURRENCE_GRID:
        got = sum_series(family, z, m, tol=tol)
        assert got.hex() == _sum_with_comb(family, z, m, tol).hex(), (family, z, m)


def test_recurrence_weights_hit_the_same_cap(monkeypatch):
    monkeypatch.setattr(series, "DEFAULT_MAX_TERMS", 4)
    for family, z, m in [("A1", 2.0, 0), ("A1", -3.7, 8), ("B2", 1.0, 3),
                         ("C1", 0.9, 0), ("C4", -1.0, 0)]:
        with pytest.raises(TooManyTerms) as got:
            sum_series(family, z, m, tol=1e-13)
        with pytest.raises(TooManyTerms) as want:
            _sum_with_comb(family, z, m, 1e-13)
        assert str(got.value) == str(want.value)


def _cold_tables(monkeypatch):
    monkeypatch.setattr(series, "_coef", {})


@pytest.fixture
def cold_table(monkeypatch):
    """Empty coefficient tables for the test, the module's own restored
    after."""
    _cold_tables(monkeypatch)


# one point per family with a short prefix, then one needing a longer one
_SHORT_LONG = [
    ("A1", 30.0, 1.0, 2), ("A2", -30.0, -1.0, 1), ("B1", 30.0, -1.0, 0),
    ("B2", -30.0, 1.0, 4), ("C1", 0.1, 1.0, 0), ("C2", -0.1, 1.0, 0),
    ("C3", 0.1, -1.0, 0), ("C4", -0.1, -1.0, 0),
]


class TestBaseTable:
    def test_entries_match_base_term(self, cold_table):
        # the A1/B1 m = 0 tables hold the base terms themselves
        for family in (SeriesFamily.A1, SeriesFamily.B1):
            kind = FAMILIES[family].kind
            table = series._grow_coef(family, 0, 2000)
            assert len(table) > 2000
            for k in range(2001):
                if table[k] != 0.0:
                    want = base_term(kind, k).value
                    assert abs(table[k] - want) <= 1e-14 * abs(want), (kind, k)

    @pytest.mark.parametrize("family,z_short,z_long,m", _SHORT_LONG)
    def test_sums_do_not_depend_on_call_order(self, monkeypatch, family, z_short, z_long, m):
        _cold_tables(monkeypatch)
        short_first = [sum_series(family, z_short, m)]
        grown_to = len(series._coef[family, m])
        short_first.append(sum_series(family, z_long, m))
        # the second call grew the family's table, and no other was built
        assert len(series._coef[family, m]) > grown_to
        assert list(series._coef) == [(family, m)]
        _cold_tables(monkeypatch)
        long_first = [sum_series(family, z_long, m)]
        long_first.insert(0, sum_series(family, z_short, m))
        assert [v.hex() for v in short_first] == [v.hex() for v in long_first]

    def test_threads_from_cold_table_match_serial(self, cold_table):
        # a thread that read a table another was still filling would sum
        # different terms
        points = [(f, z, m) for f, zs, zl, m in _SHORT_LONG for z in (zs, zl)]
        points += [("A1", 1.0, 8), ("B2", -1.0, 8)]
        serial = [sum_series(*p).hex() for p in points]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                series._coef.clear()
                start = threading.Barrier(4)
                results = [None] * 4

                def work(i):
                    start.wait()
                    order = points[i:] + points[:i]
                    got = {p: sum_series(*p).hex() for p in order}
                    results[i] = [got[p] for p in points]

                threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert results == [serial] * 4
        finally:
            sys.setswitchinterval(old)

    def test_alternating_tables_hold_the_outer_base_terms(self, cold_table):
        # each table computes its own base terms, by one recurrence from
        # n = 0: entry k of C1/C3 is bitwise entry 2k of A1/B1 at m = 0,
        # and entry k of C2/C4 is entry 2k + 1
        for outer, even, odd in (("A1", "C1", "C2"), ("B1", "C3", "C4")):
            base = series._grow_coef(SeriesFamily(outer), 0, 2001)[:2002]
            for family, first in ((even, 0), (odd, 1)):
                table = series._grow_coef(SeriesFamily(family), 0, 1000)[:1001]
                assert [c.hex() for c in table] == [b.hex() for b in base[first::2]]

    @pytest.mark.parametrize("family,z", [("A1", 2.0), ("B1", -1.0)])
    def test_real_term_cap(self, cold_table, family, z):
        # m = 9996 is the least m whose sum reaches DEFAULT_MAX_TERMS: every
        # term from k = 389 on is 0.0, and the zero-tail stop waits for
        # k > m + 3
        with pytest.raises(TooManyTerms) as got:
            sum_series(family, z, 9996)
        assert str(got.value) == (f"family {family} at z = {z}, m = 9996 did not meet "
                                  f"tol = 1e-13 within 10000 terms")
        assert len(series._coef[family, 9996]) == series.DEFAULT_MAX_TERMS == 10000

    def test_table_count_is_bounded(self, cold_table):
        # one table per (family, m), but never more than _MAX_TABLES of
        # them, however many m a caller walks through
        for m in range(1001):
            assert math.isfinite(sum_series("A1", 2.0, m))
            assert len(series._coef) <= series._MAX_TABLES
        assert len(series._coef) == series._MAX_TABLES
        assert ("A1", 1000) in series._coef


class TestWeightOverflow:
    # C(k+m, k) leaves the double range at k = 356 for m = 800, where the
    # A2/B2 base term is still nonzero

    @pytest.mark.parametrize("family", ["A2", "B2"])
    def test_sum_that_needs_the_term_raises_typed(self, cold_table, family):
        for _ in range(2):
            with pytest.raises(TermOverflow, match=rf"^family {family}, m = 800: .* k = 356 "):
                sum_series(family, 1.0, 800)
        assert issubclass(TermOverflow, TrisumError)
        # the table ends before that term: its prefix is published, finite
        table = series._coef[family, 800]
        assert len(table) == 356
        assert all(map(math.isfinite, table)) and table[-1] != 0.0

    def test_prefix_serves_lower_indices(self, cold_table):
        series._grow_coef(SeriesFamily.A2, 800, 300)
        # this growth would double to 602 entries; it stops at 356
        assert len(series._grow_coef(SeriesFamily.A2, 800, 301)) == 356
        with pytest.raises(TermOverflow):
            series._grow_coef(SeriesFamily.A2, 800, 356)

    def test_values_in_range_unchanged(self):
        assert sum_series("A2", 1.0, 520).hex() == "0x1.cfb61b76bfb65p+116"


def _mp_base_terms(kind: str, count: int) -> list:
    with mp.workdps(40):
        h = [mp.mpf(0)]
        for j in range(1, 3 * count + 2):
            h.append(h[-1] + mp.mpf(1) / j)
        return [((h[3 * k + 1] if kind == "A" else h[2 * k]) - h[k])
                / ((3 * k + 1) * mp.binomial(3 * k, k)) for k in range(count)]


_MP_BASE = {}


def _mp_series(family: str, z: float, m: int):
    # the defining series at 40 digits, summed until a term past the
    # weight's peak is below 1e-36 of the sum; mpf exponents do not
    # underflow, so huge |z| keeps its value
    kind = FAMILIES[SeriesFamily(family)].kind
    if kind not in _MP_BASE:
        _MP_BASE[kind] = _mp_base_terms(kind, 200)
    base = _MP_BASE[kind]
    with mp.workdps(40):
        zz = mp.mpf(z)
        total = mp.mpf(0)
        for k in range(len(base) // 2):
            if family in ("A1", "B1"):
                term = base[k] * mp.binomial(k, m) / zz ** (k + 1)
            elif family in ("A2", "B2"):
                term = base[k] * mp.binomial(k + m, k) / zz ** (k + m + 1)
            else:
                n = 2 * k + (1 if family in ("C2", "C4") else 0)
                term = (-1) ** k * base[n] * zz ** n
            total += term
            if k > 2 * m + 4 and abs(term) < mp.mpf(10) ** -36 * abs(total):
                return total
            if zz == 0 and k > 0:
                return total
    raise AssertionError(f"reference sum for {family} z={z} m={m} needs more terms")


_RELATIVE_GRID = {
    **{family: [(z, m) for z in (1.0, -1.0, 2.0, -8.0, 1e3, -1e6, 1e8, 1e150)
                for m in range(21)]
       for family in ("A1", "A2", "B1", "B2")},
    **{family: [(s * z, 0) for z in (1e-3, 1e-2, 0.25, 0.9, 1.0) for s in (1.0, -1.0)]
       + [(0.0, 0)]
       for family in ("C1", "C2", "C3", "C4")},
}


@pytest.mark.parametrize("family", list(_RELATIVE_GRID))
def test_relative_error_against_multiprecision(family):
    # relative to the value's own size, where the suites' gate
    # tol * max(1, |ref|) is absolute below 1; a value below the double
    # range must come back as the double nearest it
    for z, m in _RELATIVE_GRID[family]:
        want = _mp_series(family, z, m)
        got = sum_series(family, z, m)
        if abs(float(want)) < sys.float_info.min:
            assert got == float(want), (z, m)
        else:
            assert abs(mp.mpf(got) - want) <= 1e-12 * abs(want), (z, m, got)


# every bad (family, z, m): one z outside the domain plus the non-finite
# ones, crossed with each kind of bad m (the alternating families take m = 0)
_BAD_INPUTS = [
    (family.value, z, m)
    for family, spec in FAMILIES.items()
    for z in (0.5 if spec.outer else 2.0, math.nan, math.inf)
    for m in (-1, 2.0, True, *(() if spec.outer else (1,)))
]


@pytest.mark.parametrize("family,z,m", _BAD_INPUTS)
def test_layers_reject_bad_input_alike(family, z, m):
    layers = [sum_series, series_via_quadrature]
    spec = FAMILIES[SeriesFamily(family)]
    if spec.outer:
        layers.append(closed_sum)
        # the family's own integrand, as IntegrandSpec names it
        kernel = Kernel.LNX if spec.kind == "A" else Kernel.LNRATIO
        variant = Variant.THM2 if spec.shifted else Variant.THM1
        layers.append(lambda _, z, m: IntegrandSpec(kernel, z, m, variant))
    raised = set()
    for layer in layers:
        with pytest.raises(TrisumError) as info:
            layer(family, z, m)
        raised.add((type(info.value), str(info.value)))
    assert len(raised) == 1, raised


# sum_series's values and errors on the oracle parity grid, as recorded
# before the per-family entry; "about" in the file says what the grid
# holds.  The sums are Python float arithmetic alone, so they are bitwise
# on every host
_PARITY = json.loads((Path(__file__).parent / "data" / "oracle_parity.json").read_text())


def _outcome(f, *args, **kwargs) -> str:
    try:
        return f(*args, **kwargs).hex()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("family", [f.value for f in SeriesFamily])
def test_sum_series_parity_grid(family):
    rows = [r for r in _PARITY["rows"] if r[0] == family]
    assert len(rows) > 20
    got = [_outcome(sum_series, f, float.fromhex(z), m) for f, z, m, _, _ in rows]
    assert got == [r[4] for r in rows]


@pytest.mark.parametrize("family", [
    "X9", "a1", "", " A1", 3, None, ("A1",), ["A1"],
], ids=repr)
def test_unknown_family_raises_the_enum_error(family):
    try:
        SeriesFamily(family)
    except ValueError as exc:
        want = f"ValueError: {exc}"
    assert _outcome(sum_series, family, 2.0, 1) == want
    # the family is checked before z, tol and m
    assert _outcome(sum_series, family, "abc", -1, tol=0.0) == want


# (family, z, m, keyword arguments) -> what sum_series raised before the
# per-family entry; checks run family, z's float(), tol, m, z finite, then
# the family's domain
_BAD_CALLS = [
    (("A1", 0.5, 0), {}, "NonConvergent: family A1 requires |z| >= 1, got z = 0.5"),
    (("B1", -0.999, 2), {}, "NonConvergent: family B1 requires |z| >= 1, got z = -0.999"),
    (("A2", 0.0, 1), {}, "NonConvergent: family A2 requires |z| >= 1, got z = 0.0"),
    (("C1", 1.5, 0), {}, "NonConvergent: family C1 requires |z| <= 1, got z = 1.5"),
    (("C4", -2.0, 0), {}, "NonConvergent: family C4 requires |z| <= 1, got z = -2.0"),
    (("C1", 0.5, 1), {}, "DomainError: family C1 takes no binomial order, got m = 1"),
    (("C4", -0.5, 3), {}, "DomainError: family C4 takes no binomial order, got m = 3"),
    (("C2", 2.0, 1), {}, "DomainError: family C2 takes no binomial order, got m = 1"),
    (("A1", 2.0, True), {}, "DomainError: m must be a nonnegative integer, got True"),
    (("B2", 2.0, False), {}, "DomainError: m must be a nonnegative integer, got False"),
    (("A1", 2.0, -1), {}, "DomainError: m must be a nonnegative integer, got -1"),
    (("A2", 2.0, 2.0), {}, "DomainError: m must be a nonnegative integer, got 2.0"),
    (("C3", 0.5, True), {}, "DomainError: m must be a nonnegative integer, got True"),
    (("A1", math.nan, 0), {}, "DomainError: z must be finite, got nan"),
    (("B2", -math.inf, 1), {}, "DomainError: z must be finite, got -inf"),
    (("C2", math.inf, 0), {}, "DomainError: z must be finite, got inf"),
    (("C3", math.nan, 0), {}, "DomainError: z must be finite, got nan"),
    (("A1", math.nan, -1), {}, "DomainError: m must be a nonnegative integer, got -1"),
    (("C1", math.inf, 1), {}, "DomainError: z must be finite, got inf"),
    (("A1", 2.0, 0), {"tol": 1e-16}, "DomainError: tol must be a float >= 1e-15, got 1e-16"),
    (("C1", 0.5, 0), {"tol": math.nan}, "DomainError: tol must be a float >= 1e-15, got nan"),
    (("B1", 2.0, 1), {"tol": math.inf}, "DomainError: tol must be a float >= 1e-15, got inf"),
    (("A2", 2.0, 1), {"tol": 1}, "DomainError: tol must be a float >= 1e-15, got 1"),
    (("A1", 0.5, 0), {"tol": 1e-16}, "DomainError: tol must be a float >= 1e-15, got 1e-16"),
    (("A1", 2.0, -1), {"tol": 1e-16}, "DomainError: tol must be a float >= 1e-15, got 1e-16"),
    (("A1", "abc", 0), {}, "ValueError: could not convert string to float: 'abc'"),
    (("A1", None, 0), {},
     "TypeError: float() argument must be a string or a real number, not 'NoneType'"),
    # at the floor: a value
    (("A1", 2.0, 0), {"tol": 1e-15}, "0x1.0c442ed5e3fd1p-1"),
]


@pytest.mark.parametrize("args,kwargs,want", _BAD_CALLS)
def test_bad_input_raises_as_recorded(args, kwargs, want):
    assert _outcome(sum_series, *args, **kwargs) == want
    family, z, m = args
    # a member finds the same entry as its name
    assert _outcome(sum_series, SeriesFamily(family), z, m, **kwargs) == want
