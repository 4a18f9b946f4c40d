import cmath
import math
import random
import sys
import threading
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trisum import specfun
from trisum.errors import DomainError
from trisum.specfun import (
    _LOG_SERIES,
    HarmonicCache,
    catalan,
    clausen2,
    dilog,
    harmonic,
    odd_harmonic,
)

# reference digits computed with an independent multiprecision library
CATALAN_REF = 0.91596559417721901505
LI2_HALF_REF = 0.5822405264650125059
CL2_PI3_REF = 1.014941606409653625
CL2_ONE_REF = 1.0139591323607685043
LI2_2_RE_REF = 2.4674011002723396547
PI_LN2_REF = 2.1775860903036021305
H_5000_REF = 9.0945088529844369673
H_30000_REF = 10.886184992119899362
LI2_M3_2I_REF = complex(-2.07130716523151432116, 0.892273167900703485768)

PI2_6 = math.pi ** 2 / 6


def _bernoulli_numbers(count: int) -> list[Fraction]:
    # B_0 .. B_{count-1} by the defining recurrence sum_{j<=n} C(n+1,j) B_j = 0
    values = [Fraction(1)]
    for n in range(1, count):
        acc = sum(Fraction(math.comb(n + 1, j)) * values[j] for j in range(n))
        values.append(-acc / (n + 1))
    return values


class TestHarmonic:
    def test_exact_matches_brute_force(self):
        acc = Fraction(0)
        for n in range(1, 60):
            acc += Fraction(1, n)
            assert harmonic(n, exact=True) == acc

    def test_odd_exact_matches_brute_force(self):
        acc = Fraction(0)
        for n in range(1, 60):
            acc += Fraction(1, 2 * n - 1)
            assert odd_harmonic(n, exact=True) == acc

    def test_zero(self):
        assert harmonic(0) == 0.0
        assert harmonic(0, exact=True) == Fraction(0)
        assert odd_harmonic(0) == 0.0

    def test_small_values(self):
        assert harmonic(1, exact=True) == 1
        assert harmonic(4, exact=True) == Fraction(25, 12)
        assert odd_harmonic(2, exact=True) == Fraction(4, 3)

    def test_float_is_rounded_exact_below_limit(self):
        for n in (1, 17, 100, 512):
            assert harmonic(n) == float(harmonic(n, exact=True))

    def test_float_beyond_exact_limit(self):
        assert harmonic(5000) == pytest.approx(H_5000_REF, rel=1e-15, abs=0)
        assert harmonic(30000) == pytest.approx(H_30000_REF, rel=1e-15, abs=0)

    # recorded float.hex of (H_n, O_n) around and past the exact limit,
    # where the compensated sum starts from the rounding residue of the
    # exact value at n = 512
    PINNED_BITS = {
        512: ("0x1.b441ce9122323p+2", "0x1.06756e4685850p+2"),
        513: ("0x1.b461be991e343p+2", "0x1.06856a4785451p+2"),
        1000: ("0x1.df11f45f4e61ap+2", "0x1.1be167dd42c64p+2"),
        5000: ("0x1.2306376e18052p+3", "0x1.4f61ebb7a4520p+2"),
    }

    @pytest.mark.parametrize("n", sorted(PINNED_BITS))
    def test_float_table_bits_are_pinned(self, n):
        fresh = HarmonicCache()
        assert (fresh.value(n).hex(), fresh.value_odd(n).hex()) == self.PINNED_BITS[n]
        assert (harmonic(n).hex(), odd_harmonic(n).hex()) == self.PINNED_BITS[n]

    def test_even_odd_split_exact(self):
        # H_{2n} = H_n/2 + O_n and H_{2n-1} = H_{n-1}/2 + O_n
        for n in range(1, 201):
            assert harmonic(2 * n, exact=True) == \
                harmonic(n, exact=True) / 2 + odd_harmonic(n, exact=True)
            assert harmonic(2 * n - 1, exact=True) == \
                harmonic(n - 1, exact=True) / 2 + odd_harmonic(n, exact=True)

    def test_even_odd_split_float(self):
        for n in (3, 50, 211, 1000, 4000):
            lhs = harmonic(2 * n)
            rhs = harmonic(n) / 2 + odd_harmonic(n)
            assert lhs == pytest.approx(rhs, rel=5e-15, abs=0)

    def test_domain_errors(self):
        # with the tables grown, True, -1 and 2.0 would each index one, and
        # must not read it
        harmonic(1000), odd_harmonic(1000)
        harmonic(512, exact=True), odd_harmonic(512, exact=True)
        for fn in (harmonic, odd_harmonic):
            for n, exact in ((True, False), (True, True), (-1, False), (-1, True),
                             (-3, False), (2.0, False), (2.0, True), (513, True)):
                with pytest.raises(DomainError):
                    fn(n, exact=exact)

    @given(st.integers(min_value=0, max_value=400))
    def test_monotone(self, n):
        assert harmonic(n + 1) > harmonic(n)

    def test_table_reads_match_a_fresh_cache(self):
        # an int inside the grown tables is read from them; a fresh cache
        # takes the checked, growing path for every n
        harmonic(1000), odd_harmonic(1000)
        harmonic(512, exact=True), odd_harmonic(512, exact=True)
        fresh = HarmonicCache()
        for n in range(1001):
            assert harmonic(n).hex() == fresh.value(n).hex()
            assert odd_harmonic(n).hex() == fresh.value_odd(n).hex()
        for n in range(513):
            assert harmonic(n, exact=True) == fresh.exact(n)
            assert odd_harmonic(n, exact=True) == fresh.exact_odd(n)

    def test_threads_grow_the_tables_one_thread_would(self):
        # four threads extend a fresh cache's four tables at once, and the
        # float tables grow through the exact ones up to n = 512; a thread
        # switch every microsecond lands inside the appends.  Every trial's
        # tables must be the ones a serial cache builds
        top = 1000
        serial = HarmonicCache()
        want = ([serial.value(n).hex() for n in range(top + 1)],
                [serial.value_odd(n).hex() for n in range(top + 1)],
                [serial.exact(n) for n in range(513)],
                [serial.exact_odd(n) for n in range(513)])

        def trial():
            cache = HarmonicCache()
            start = threading.Barrier(4)

            def grow(fn, last):
                start.wait(timeout=60)
                for n in range(last + 1):
                    fn(n)

            threads = [threading.Thread(target=grow, args=args)
                       for args in ((cache.value, top), (cache.value_odd, top),
                                    (cache.exact, 512), (cache.exact_odd, 512))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            return ([v.hex() for v in cache._vals], [v.hex() for v in cache._vals_odd],
                    cache._exact, cache._exact_odd)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [trial() for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        assert all(tables == want for tables in got)


class TestDilog:
    def test_special_values(self):
        assert dilog(0) == 0
        assert dilog(1).real == pytest.approx(PI2_6, rel=1e-16, abs=0)
        assert dilog(1).imag == 0.0
        assert dilog(-1).real == pytest.approx(-math.pi ** 2 / 12, rel=1e-15, abs=0)
        assert dilog(0.5).real == pytest.approx(LI2_HALF_REF, rel=1e-15, abs=0)
        assert dilog(0.5).imag == 0.0

    def test_imaginary_unit(self):
        v = dilog(1j)
        assert v.real == pytest.approx(-math.pi ** 2 / 48, rel=1e-15, abs=0)
        assert v.imag == pytest.approx(CATALAN_REF, rel=1e-15, abs=0)
        w = dilog(-1j)
        assert w == v.conjugate()

    def test_cut_limit_from_below(self):
        # for real x > 1 the value is the limit from Im z < 0
        v = dilog(2.0)
        assert v.real == pytest.approx(LI2_2_RE_REF, rel=1e-15, abs=0)
        assert v.imag == pytest.approx(-PI_LN2_REF, rel=1e-15, abs=0)
        for x in (1.5, 3.0, 10.0, 1e6):
            assert dilog(x).imag == pytest.approx(-math.pi * math.log(x), rel=1e-15, abs=0)

    def test_cut_continuity_from_below(self):
        for x in (1.5, 2.0, 7.0):
            below = dilog(complex(x, -1e-12))
            assert dilog(x).real == pytest.approx(below.real, rel=1e-10, abs=0)
            assert dilog(x).imag == pytest.approx(below.imag, rel=1e-10, abs=0)

    def test_reference_point(self):
        got = dilog(complex(-3, 2))
        assert abs(got - LI2_M3_2I_REF) <= 1e-15 * abs(LI2_M3_2I_REF)

    def test_real_input_real_output(self):
        for x in (-5.0, -1.0, -0.6, -0.3, 0.2, 0.7, 0.999):
            assert dilog(x).imag == 0.0

    def test_unit_circle_decomposition(self):
        # Re Li2(e^{i t}) = pi^2/6 + (t^2 - 2 pi |t|)/4 and Im Li2 = Cl2(t)
        for j in range(64):
            t = -2 * math.pi + 4 * math.pi * j / 63
            v = dilog(cmath.exp(1j * t))
            re_want = PI2_6 + (t * t - 2 * math.pi * abs(t)) / 4
            assert abs(v.real - re_want) <= 1e-13
            assert abs(v.imag - clausen2(t)) <= 1e-13

    def test_landen_real(self):
        rng = random.Random(20260818)
        for _ in range(50):
            x = rng.uniform(-4.0, 0.95)
            lhs = dilog(x) + dilog(x / (x - 1))
            rhs = -0.5 * math.log(1 - x) ** 2
            assert abs(lhs.real - rhs) <= 1e-13 * max(1.0, abs(rhs))
            assert lhs.imag == 0.0

    def test_duplication_disc(self):
        rng = random.Random(411)
        n = 0
        while n < 50:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) >= 1:
                continue
            n += 1
            lhs = dilog(z) + dilog(-z)
            rhs = 0.5 * dilog(z * z)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_inversion_identity_lower_half(self):
        rng = random.Random(99)
        for _ in range(40):
            z = complex(rng.uniform(-3, 3), -abs(rng.uniform(0.01, 3)))
            lhs = dilog(z) + dilog(1 / z)
            rhs = -PI2_6 - 0.5 * cmath.log(-z) ** 2
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_conjugate_symmetry(self):
        rng = random.Random(5)
        for _ in range(40):
            z = complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(0.05, 3))
            assert dilog(z.conjugate()) == pytest.approx(dilog(z).conjugate(), rel=2e-15, abs=0)

    def test_hexagonal_points(self):
        # sixth roots of unity sit where the functional maps cannot shrink |z|
        z = cmath.exp(1j * math.pi / 3)
        v = dilog(z)
        t = math.pi / 3
        assert v.real == pytest.approx(PI2_6 + (t * t - 2 * math.pi * t) / 4, rel=1e-14, abs=0)
        assert v.imag == pytest.approx(clausen2(t), rel=1e-14, abs=0)

    def test_nonfinite_rejected(self):
        for bad in (math.inf, math.nan, complex(math.inf, 1), complex(0, math.nan)):
            with pytest.raises(DomainError):
                dilog(bad)

    def test_log_series_table_matches_bernoulli_recurrence(self):
        bern = _bernoulli_numbers(19)
        assert bern[1] == Fraction(-1, 2) and bern[12] == Fraction(-691, 2730)
        want = tuple(
            (n, float(b) / math.factorial(n + 1)) for n, b in enumerate(bern) if b != 0
        )
        assert len(want) == 11
        assert _LOG_SERIES == want

    def test_matches_mpmath_on_seeded_grid(self):
        # relative error against a 40-digit polylog at 5,000 seeded points
        rng = random.Random(20261018)

        def polar(r, t):
            return complex(r * math.cos(t), r * math.sin(t))

        def mag(lo, hi):
            return 10.0 ** rng.uniform(lo, hi)

        def angle():
            return rng.uniform(-math.pi, math.pi)

        sign = (-1.0, 1.0)
        pts = [polar(mag(-12, 6), angle()) for _ in range(2400)]
        pts += [cmath.exp(1j * angle()) for _ in range(800)]
        # near exp(+-i pi/3), where |log(1-z)| reaches pi/3 in the kernel
        pts += [cmath.exp(1j * rng.choice(sign) * math.pi / 3) + polar(mag(-12, -1), angle())
                for _ in range(800)]
        # both sides of 1 on the real axis, and just off the cut beyond 1
        for _ in range(400):
            x = 1.0 + rng.choice(sign) * mag(-15, 0.5)
            pts.append(complex(x, rng.choice((0.0, 1e-300, -1e-300)) if x > 1.0 else 0.0))
        pts += [polar(mag(-300, -17), angle()) for _ in range(400)]
        pts += [complex(rng.choice(sign) * mag(-12, 6)) for _ in range(200)]
        assert len(pts) == 5000
        worst = 0.0
        with mp.workdps(40):
            for z in pts:
                ref = mp.polylog(2, mp.mpc(z.real, z.imag))
                err = abs(mp.mpc(dilog(z)) - ref) / abs(ref)
                worst = max(worst, float(err))
        assert worst <= 1e-15

    @settings(max_examples=60)
    @given(
        st.complex_numbers(
            min_magnitude=0.0, max_magnitude=4.0,
            allow_nan=False, allow_infinity=False,
        )
    )
    def test_landen_complex(self, z):
        # Li2(z) + Li2(z/(z-1)) = -log(1-z)^2/2 away from the cuts, for
        # both arguments: at z = 3 - 5e-324j the imaginary part of
        # z/(z-1), about 1.2e-324, rounds to 0 and puts it on the cut
        if abs(z - 1) < 1e-3:
            return
        w = z / (z - 1)
        if any(a.imag == 0.0 and a.real > 0.999 for a in (z, w)):
            return
        lhs = dilog(z) + dilog(w)
        rhs = -0.5 * cmath.log(1 - z) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def _clausen_series(theta, terms=200000):
    # direct defining series, used only as a slow independent oracle
    return sum(math.sin(k * theta) / (k * k) for k in range(terms, 0, -1))


class TestClausen:
    def test_against_direct_series(self):
        for t in (0.5, 1.0, 2.2, -1.7, 3.0):
            assert clausen2(t) == pytest.approx(_clausen_series(t), abs=5e-11)

    def test_reference_values(self):
        assert clausen2(math.pi / 2) == pytest.approx(CATALAN_REF, rel=1e-15, abs=0)
        assert clausen2(math.pi / 3) == pytest.approx(CL2_PI3_REF, rel=1e-15, abs=0)
        assert clausen2(1.0) == pytest.approx(CL2_ONE_REF, rel=1e-15, abs=0)
        assert clausen2(-math.pi / 2) == pytest.approx(-CATALAN_REF, rel=1e-15, abs=0)

    @pytest.mark.parametrize("theta", [
        math.pi + 1e-6, -math.pi - 1e-6, 3 * math.pi - 1e-7, 5 * math.pi + 1e-9,
        3 * math.pi, math.pi, -math.pi, 7 * math.pi - 1e-12, math.pi - 0.5,
    ])
    def test_relative_accuracy_near_odd_multiples_of_pi(self, theta):
        # Cl2 vanishes at pi*(2k+1) too: the distance from +-pi of the
        # reduced argument must be carried past the double nearest pi
        with mp.workdps(40):
            want = float(mp.clsin(2, mp.mpf(theta)))
        assert clausen2(theta) == pytest.approx(want, rel=1e-14, abs=0)

    def test_zeros(self):
        assert clausen2(0.0) == 0.0
        assert clausen2(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert clausen2(-math.pi) == pytest.approx(0.0, abs=1e-15)
        # the double nearest 2*pi is 2.4e-16 short of the zero, where Cl2
        # is -9.05e-15, not 0
        with mp.workdps(40):
            for t in (2 * math.pi, -2 * math.pi, 4 * math.pi):
                want = float(mp.clsin(2, mp.mpf(t)))
                assert want != 0.0
                assert clausen2(t) == pytest.approx(want, rel=1e-15, abs=0)

    def test_periodicity(self):
        rng = random.Random(31)
        for _ in range(30):
            t = rng.uniform(-6, 6)
            assert clausen2(t + 2 * math.pi) == pytest.approx(clausen2(t), abs=2e-14)
            assert clausen2(t + 20 * math.pi) == pytest.approx(clausen2(t), abs=2e-13)

    def test_reflection_identities(self):
        rng = random.Random(20260818)
        for _ in range(50):
            t = rng.uniform(-2 * math.pi, 2 * math.pi)
            assert abs(clausen2(math.pi + t) + clausen2(math.pi - t)) <= 1e-13
            assert abs(clausen2(t) + clausen2(2 * math.pi - t)) <= 1e-13
            dup = 0.5 * clausen2(2 * t) - clausen2(t) + clausen2(math.pi - t)
            assert abs(dup) <= 1e-13

    def test_oddness(self):
        rng = random.Random(8)
        for _ in range(30):
            t = rng.uniform(0, 2 * math.pi)
            assert clausen2(-t) == pytest.approx(-clausen2(t), abs=1e-15)

    def test_tiny_argument(self):
        t = 1e-9
        # Cl2(t) ~ t(1 - log t) for small t
        want = t * (1.0 - math.log(t))
        assert clausen2(t) == pytest.approx(want, rel=1e-14, abs=0)
        # near the zeros at 0 and 2*pi, against a 40-digit reference at the
        # double argument itself
        with mp.workdps(40):
            for t in (-1e-8, 2 * math.pi - 1e-6):
                want = float(mp.clsin(2, mp.mpf(t)))
                assert clausen2(t) == pytest.approx(want, rel=1e-14, abs=0)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            clausen2(math.inf)

    @pytest.mark.parametrize("theta", [1e18, -1e18, 1e25, 1e300, math.nextafter(1e15, 2e15)])
    def test_past_the_bound_rejected(self, theta):
        # past 1e15 the reduction by 2*pi in two doubles runs out (by 1e16
        # the value is wrong by more than its size, by 1e300 it is nan)
        with pytest.raises(DomainError, match=r"\|theta\| <= 1e\+15"):
            clausen2(theta)

    def test_seeded_grid_up_to_the_bound(self):
        # 10 log-uniform points per decade up to 1e15 and both zeros' doubles
        # at large k, against 60-digit mpmath; the reduction's 5e-18 times
        # the slope |log|2 sin(theta/2)|| is the error allowed near a zero
        rng = random.Random(20261019)
        thetas = [1e15, -1e15]
        for decade in range(15):
            thetas += [rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(decade, decade + 1)
                       for _ in range(10)]
        # exact multiples of the double nearest 2*pi, k * 2.4e-16 from a zero
        thetas += [k * (2 * math.pi) for k in (1, 2, 3, 7, 1000, 10 ** 9, 12345678901,
                                                10 ** 14, 150000000000000)]
        with mp.workdps(60):
            for _ in range(20):
                k = rng.randrange(10 ** 12, 10 ** 14)
                thetas += [float(2 * k * mp.pi), float((2 * k + 1) * mp.pi)]
            for t in thetas:
                x = mp.mpf(t)
                want = mp.clsin(2, x)
                slope = abs(mp.log(abs(2 * mp.sin(x / 2))))
                err = abs(clausen2(t) - want)
                assert err <= 1e-15 * abs(want) + 5e-18 * slope, t


def _horner_loop(coefs, v):
    p = 0.0
    for c in coefs:
        p = p * v + c
    return p


def _dilog_reduced_loop(z):
    # specfun._dilog_reduced with its Horner steps as a loop
    w = 1.0 - z
    u = z if w == 1.0 else cmath.log(w) * (z / (w - 1.0))
    v = u * u
    return u + v * (-0.25 + u * _horner_loop(specfun._HORNER, v))


def _clausen2_loop(t):
    # specfun.clausen2 with its two series' Horner steps as loops
    r = math.remainder(t, specfun._TWO_PI)
    k = round((t - r) / specfun._TWO_PI)
    d = (math.pi - abs(r)) + (2 * (k if r > 0.0 else -k) + 1) * specfun._PI_LO
    if d <= 0.5:
        cl = d * specfun._LN2 + d * (d * d) * _horner_loop(specfun._CL2_PI_HORNER, d * d)
        return cl if r > 0.0 else -cl
    r -= k * specfun._TWO_PI_LO
    if abs(r) > 1.0:
        return dilog(cmath.exp(1j * r)).imag
    if r == 0.0:
        return 0.0
    v = r * r
    return r - r * math.log(abs(r)) + r * v * _horner_loop(specfun._CL2_HORNER, v)


def _hex(z):
    return (z.real.hex(), z.imag.hex())


def test_written_out_kernels_match_horner_loops(monkeypatch):
    # every value by float.hex, at seeded points in and on the unit circle,
    # on the real line and across both Clausen series
    rng = random.Random(20261020)
    points = [cmath.rect(math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
              for _ in range(2000)]
    points += [cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(1000)]
    points += [rng.uniform(-30.0, 30.0) for _ in range(2000)]
    points += [complex(0.0, 0.5), complex(0.5, -0.0), -0.0, 0.0, 0.5]
    thetas = [rng.uniform(-50.0, 50.0) for _ in range(3000)]
    thetas += [rng.uniform(-0.6, 0.6) for _ in range(500)]
    thetas += [math.copysign(math.pi, rng.uniform(-1, 1)) + rng.uniform(-0.6, 0.6)
               for _ in range(500)]
    thetas += [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, 3 * math.pi, -4 * math.pi]
    got_dilog = [_hex(dilog(z)) for z in points]
    got_cl2 = [clausen2(t).hex() for t in thetas]
    monkeypatch.setattr(specfun, "_dilog_reduced", _dilog_reduced_loop)
    assert got_dilog == [_hex(dilog(z)) for z in points]
    assert got_cl2 == [_clausen2_loop(t).hex() for t in thetas]


def test_catalan_value():
    assert catalan() == pytest.approx(CATALAN_REF, rel=5e-16, abs=0)
    assert catalan() is catalan()  # memoized
