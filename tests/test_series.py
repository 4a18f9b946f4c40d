import math
import sys
import threading
from fractions import Fraction

import pytest

from trisum.closedform import closed_sum
from trisum.errors import DomainError, NonConvergent, TooManyTerms, TrisumError
from trisum.quadrature import series_via_quadrature
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
        assert sum_series("A1", 2.0) == pytest.approx(A1_Z2_M0_REF, rel=2e-14)
        assert sum_series("A1", 2.0, 1) == pytest.approx(A1_Z2_M1_REF, rel=2e-14)
        assert sum_series("B1", 2.0) == pytest.approx(B1_Z2_M0_REF, rel=2e-13)
        assert sum_series("A1", -4.0) == pytest.approx(A1_ZN4_M0_REF, rel=2e-14)
        assert sum_series("B1", -4.0) == pytest.approx(B1_ZN4_M0_REF, rel=2e-13)

    def test_concluding_reference_values(self):
        assert sum_series("C1", 0.5) == pytest.approx(C1_HALF_REF, rel=2e-14)
        assert sum_series("C2", 0.5) == pytest.approx(C2_HALF_REF, rel=2e-14)
        assert sum_series("C3", 0.5) == pytest.approx(C3_HALF_REF, rel=2e-13)
        assert sum_series("C4", 0.5) == pytest.approx(C4_HALF_REF, rel=2e-14)

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
        assert loose == pytest.approx(tight, rel=1e-6)
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
        monkeypatch.setenv("TRISUM_MAX_TERMS", "4")
        with pytest.raises(TooManyTerms):
            sum_series("A1", 2.0, 0, tol=1e-13)
        monkeypatch.setenv("TRISUM_MAX_TERMS", "500")
        assert sum_series("A1", 2.0) == pytest.approx(A1_Z2_M0_REF, rel=1e-13)

    def test_term_cap_env_invalid(self, monkeypatch):
        monkeypatch.setenv("TRISUM_MAX_TERMS", "soon")
        with pytest.raises(DomainError):
            sum_series("A1", 2.0)
        monkeypatch.setenv("TRISUM_MAX_TERMS", "0")
        with pytest.raises(DomainError):
            sum_series("A1", 2.0)


@pytest.fixture
def cold_table(monkeypatch):
    """An empty base-term table for the test, the module's own restored after."""
    monkeypatch.setattr(series, "_base", {"A": [], "B": []})


# one point per family with a short prefix, then one needing a longer one
_SHORT_LONG = [
    ("A1", 30.0, 1.0, 2), ("A2", -30.0, -1.0, 1), ("B1", 30.0, -1.0, 0),
    ("B2", -30.0, 1.0, 4), ("C1", 0.1, 1.0, 0), ("C2", -0.1, 1.0, 0),
    ("C3", 0.1, -1.0, 0), ("C4", -0.1, -1.0, 0),
]


class TestBaseTable:
    def test_entries_match_base_term(self, cold_table):
        for kind in ("A", "B"):
            table = series._grow_base(kind, 2000)
            assert len(table) > 2000
            for k in range(2001):
                if table[k] != 0.0:
                    want = base_term(kind, k).value
                    assert abs(table[k] - want) <= 1e-14 * abs(want), (kind, k)

    @pytest.mark.parametrize("family,z_short,z_long,m", _SHORT_LONG)
    def test_sums_do_not_depend_on_call_order(self, monkeypatch, family, z_short, z_long, m):
        kind = FAMILIES[SeriesFamily(family)].kind
        monkeypatch.setattr(series, "_base", {"A": [], "B": []})
        short_first = [sum_series(family, z_short, m)]
        grown_to = len(series._base[kind])
        short_first.append(sum_series(family, z_long, m))
        assert len(series._base[kind]) > grown_to   # the second call grew the table
        monkeypatch.setattr(series, "_base", {"A": [], "B": []})
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
                series._base.update(A=[], B=[])
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
    if FAMILIES[SeriesFamily(family)].outer:
        layers.append(closed_sum)
    raised = set()
    for layer in layers:
        with pytest.raises(TrisumError) as info:
            layer(family, z, m)
        raised.add((type(info.value), str(info.value)))
    assert len(raised) == 1, raised
