import cmath
import hashlib
import json
import math
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from trisum.closedform import (
    REGISTRY,
    C_mirror,
    C_of,
    PoleBasis,
    _pole_basis,
    closed_sum,
    coeff_a,
    coeff_b,
    reference_constant,
)
from trisum.errors import DomainError, NonConvergent, UnknownConstant
from trisum.harness import _GRID_FAMILIES, _GRID_M, _GRID_Z
from trisum.quadrature import tanh_sinh
from trisum.roots import solve_cubic
from trisum.series import FAMILIES, SeriesFamily, sum_series
from trisum.specfun import dilog

S7 = math.sqrt(7.0)

# printed values of every registry constant, frozen from an independent
# multiprecision evaluation of the same expressions
PRINTED = {
    "a1-z2-m0": 0.52395769463509576811,
    "a1-zneg4-m0-dilog": 0.24451533246720645487,
    "a1-zneg4-m0-quot": 0.24451533246720645487,
    "a1-z2-m1": 0.025439294973341518365,
    "a1-z2-m2": 0.0015815120242416486072,
    "a1-z2-m3": 0.00010694677094500705135,
    "a2-z2-m1": 0.27469849480421864324,
    "a2-z2-m2": 0.14410444915150511336,
    "a2-z2-m3": 0.07564088279984878451,
    "b1-z2-m0": 0.011160300964506508307,
    "b1-zneg4-m0": -0.0025201356719520862809,
    "b1-z2-m1": 0.011956674253145060752,
    "b1-z2-m2": 0.00085292160104632310038,
    "b1-zneg4-m1": -0.0024387891811687766523,
    "b1-zneg4-m2": 0.00015749816001318015982,
    "b2-z2-m1": 0.01155848760882578453,
    "b2-z2-m2": 0.008981642767960738228,
}

LAM_GRID = [2.0, -1.0, 1j, -1j, complex(1.5, S7 / 2), complex(1.5, -S7 / 2),
            3.0, complex(-2, 1)]


class TestBasisIntegral:
    def test_order_zero_is_dilog(self):
        assert C_of(0, 2.0) == dilog(0.5)
        v = C_of(0, -1j)
        assert v.real == pytest.approx(-math.pi ** 2 / 48, rel=1e-14, abs=0)
        assert v.imag == pytest.approx(0.91596559417721901505, rel=1e-14, abs=0)

    def test_order_one_at_two(self):
        assert C_of(1, 2.0) == pytest.approx(-math.log(2) / 2, rel=1e-15, abs=0)

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
    def test_against_quadrature(self, r, lam):
        want = tanh_sinh(lambda x, xc: np.log(x) / (x - lam) ** (r + 1), tol=1e-13)
        got = C_of(r, lam)
        assert abs(got - complex(want)) <= 1e-12 * max(1.0, abs(complex(want)))

    def test_derivative_ladder(self):
        # (r+1) C_{r+1}(lam) is the lam-derivative of C_r(lam)
        lam = complex(1.7, 0.9)
        h = 1e-6
        for r in range(3):
            num = (C_of(r, lam + h) - C_of(r, lam - h)) / (2 * h)
            assert abs(num - (r + 1) * C_of(r + 1, lam)) <= 1e-7

    def test_pole_in_unit_interval_rejected(self):
        for lam in (0.0, 0.5, 1.0):
            with pytest.raises(DomainError):
                C_of(0, lam)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            C_of(-1, 2.0)

    @pytest.mark.parametrize("lam", [complex(math.inf, 0.0), complex(2.0, math.nan)])
    def test_non_finite_pole_rejected(self, lam):
        with pytest.raises(DomainError, match=re.escape(
                f"pole location must be finite, got {lam!r}")):
            C_of(1, lam)

    @pytest.mark.parametrize("r,lam", [(1000, -0.4655712318767681), (600, 0.2 + 0.1j),
                                       (600, 1.0 + 0.1j)])
    def test_underflowed_power_is_a_domain_error(self, r, lam):
        # lam ** k or (lam - 1) ** k underflows to 0 where C_r divides by it
        with pytest.raises(DomainError, match=re.escape(
                f"C_r(lam) at r = {r}, lam = {complex(lam)!r} underflows")):
            C_of(r, lam)


class TestMirror:
    def test_minus_one(self):
        assert C_mirror(0, -1.0).real == pytest.approx(-0.5 * math.log(2) ** 2, rel=1e-14, abs=0)
        assert C_mirror(0, -1.0).imag == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("lam", LAM_GRID)
    def test_order_zero_closed_identity(self, lam):
        # C_0(lam) + C_0(1-lam) = -log((lam-1)/lam)^2 / 2 on the cut plane
        want = -0.5 * cmath.log((lam - 1.0) / lam) ** 2
        assert abs(C_mirror(0, lam) - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("lam", [2.0, -1j, complex(1.5, S7 / 2)])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_higher_orders_against_quadrature(self, r, lam):
        f = lambda x, xc: (np.log(x) - np.log(xc)) / (x - lam) ** (r + 1)
        want = tanh_sinh(f, tol=1e-13)
        assert abs(C_mirror(r, lam) - complex(want)) <= 1e-12 * max(1.0, abs(complex(want)))


class TestClosedSum:
    def test_reference_total(self):
        got = closed_sum("A1", 2.0, 0)
        assert got.total == pytest.approx(PRINTED["a1-z2-m0"], rel=1e-13, abs=0)
        assert got.imag_residual <= 1e-15

    def test_orientation_at_negative_z(self):
        # the alternating printed form at z = -4 flips the sign
        got = closed_sum("A1", -4.0, 0)
        assert got.total == pytest.approx(-PRINTED["a1-zneg4-m0-dilog"], rel=1e-13, abs=0)

    def test_against_series_sample(self):
        for family, z, m in [("A1", 3.0, 1), ("A2", -2.0, 2), ("B1", 5.0, 3),
                             ("B2", -8.0, 4), ("B1", -4.0, 2)]:
            got = closed_sum(family, z, m).total
            want = sum_series(family, z, m, tol=1e-13)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_conjugate_contributions(self):
        # closed_sum evaluates one root of the conjugate pair and takes the
        # other's contribution as its conjugate; evaluated directly as
        # sum coeff * basis, that root must give the same bits
        for family in ("A1", "A2", "B1", "B2"):
            spec = FAMILIES[SeriesFamily(family)]
            coeff = coeff_b if spec.shifted else coeff_a
            basis = C_mirror if spec.kind == "B" else C_of
            for z in (1.0, -1.0, 2.0, -2.0, -4.0, -8.0, 30.0, -30.0, 1e3, -1e6, 1e8):
                for m in range(9):
                    bd = closed_sum(family, z, m)
                    pair = [i for i, r in enumerate(bd.roots.roots) if r.imag != 0.0]
                    assert len(pair) == 2
                    which = max(pair, key=lambda i: bd.roots.roots[i].imag)
                    coeffs = coeff(m, bd.roots, which + 1)
                    direct = 0j
                    for r in range(m + 1):
                        direct += coeffs[r] * basis(r, bd.roots.roots[which])
                    got = bd.contributions[which]
                    assert (got.real.hex(), got.imag.hex()) == \
                        (direct.real.hex(), direct.imag.hex()), (family, z, m)
                    assert bd.imag_residual <= 1e-11 * max(1.0, abs(bd.total))

    def test_breakdown_recombines(self):
        bd = closed_sum("A2", 2.0, 3)
        grand = sum(bd.contributions, start=0j)
        sign = -1.0 if bd.m % 2 else 1.0
        assert (sign * grand).real == pytest.approx(bd.total, rel=1e-15, abs=0)

    def test_no_closed_form_for_alternating(self):
        with pytest.raises(DomainError):
            closed_sum("C1", 0.5, 0)

    def test_domain(self):
        with pytest.raises(NonConvergent):
            closed_sum("A1", 0.5, 0)
        with pytest.raises(DomainError):
            closed_sum("A1", 2.0, -1)
        with pytest.raises(DomainError):
            closed_sum("A1", math.inf, 0)

    @pytest.mark.parametrize("family,z,m", [
        ("A1", 1e100, 5), ("A1", -1e100, 5), ("A1", 1e58, 8), ("B1", 1e100, 5),
    ])
    def test_overflow_is_a_domain_error(self, family, z, m):
        # complex ** raises OverflowError at the roots' powers for huge |z|
        with pytest.raises(DomainError, match=re.escape(f"family {family} at z = {z!r}, m = {m}")):
            closed_sum(family, z, m)

    @pytest.mark.parametrize("family,z,m", [("A1", 1.0, 16000), ("B1", -1.0, 100000),
                                            ("A2", 1.0, 2000), ("B2", -1.0, 3000),
                                            ("A1", -1.0, 1000), ("B1", -1.0, 1300),
                                            ("B1", -1.1, 1300)])
    def test_huge_m_refuses_before_any_cauchy_product(self, monkeypatch, family, z, m):
        # a root's m-th power, or for A1/B1 its (lam - 1) ** 2m, overflows
        # at this m; closed_sum must find that before the denominator's
        # Cauchy products, whose cost grows as m^2, and before the
        # numerator's own.  At z = -1 only the pair roots' lam ** m
        # overflows: the real root's power underflows.  At z = -1, m = 1000
        # and 1300 no lam ** m overflows, but the real root's (lam - 1) ** 2m
        # does.  At z = -1.1, m = 1300 the pair root, checked first, passes
        # every check, and the real root's (lam - 1) ** 2m overflows before
        # the pass reaches its powers that underflow
        import trisum.closedform as cf
        products = []
        mul = cf._mul

        def counting(a, b):
            products.append(len(a))
            return mul(a, b)

        monkeypatch.setattr(cf, "_mul", counting)
        with pytest.raises(DomainError) as info:
            closed_sum(family, z, m)
        assert str(info.value) == (f"closed form of family {family} at z = {z!r}, m = {m} "
                                   f"leaves the double range")
        assert products == []

    @pytest.mark.parametrize("family,z,m", [("A2", -1.0, 1000), ("B2", -1.1, 1300),
                                            ("B2", -1.0, 1000)])
    def test_underflowed_power_is_a_domain_error(self, monkeypatch, family, z, m):
        # the real root's powers underflow to 0 in C_r, which divides by
        # them: a DomainError naming the point, not a ZeroDivisionError,
        # and found before any C_r or Cauchy product
        import trisum.closedform as cf

        def never(*args):
            raise AssertionError("called")

        monkeypatch.setattr(cf, "C_of", never)
        monkeypatch.setattr(cf, "_mul", never)
        cf._pole_basis.cache_clear()
        cf._denominator.cache_clear()
        with pytest.raises(DomainError) as info:
            closed_sum(family, z, m)
        assert str(info.value) == (f"closed form of family {family} at z = {z!r}, m = {m} "
                                   f"leaves the double range")

    def test_non_finite_coefficients_refuse_before_basis_values(self, monkeypatch):
        # at these points no power raises, but most coeff_a entries at each
        # evaluated root leave the double range: closed_sum refuses from the
        # coefficients at any m, without building any C_r
        import trisum.closedform as cf

        def never(*args):
            raise AssertionError("called")

        monkeypatch.setattr(cf, "C_of", never)
        for family, z, m in [("B1", 2.0, 600), ("B1", 2.0, 899), ("B1", 2.0, 900),
                             ("A1", 1.0, 899)]:
            cf._pole_basis.cache_clear()
            with pytest.raises(DomainError) as info:
                closed_sum(family, z, m)
            assert str(info.value) == (f"closed form of family {family} at z = {z!r}, "
                                       f"m = {m} leaves the double range")

    def test_overflow_still_comes_first(self):
        # A1 at the same point overflows at (lam - 1) ** 2m before any power
        # underflows, and refuses with the same text
        with pytest.raises(DomainError) as info:
            closed_sum("A1", -1.0, 1000)
        assert str(info.value) == ("closed form of family A1 at z = -1.0, m = 1000 "
                                   "leaves the double range")

    def test_one_power_test_matches_the_scan(self):
        # closed_sum tests only the largest powers C_of divides by at r = m;
        # the reference is the O(m) scan it replaced, which tries every
        # r <= m and stops at the first power that is 0 or overflows.  One
        # scan per root gives its verdict at every m: refuse from r on
        import trisum.closedform as cf

        def first_failure(c, top):
            for r in range(1, top + 1):
                try:
                    if (r > 1 and (c - 1.0) ** (r - 1) == 0) or c ** r == 0:
                        return r
                except OverflowError:
                    return r
            return top + 1

        def refuses(c, m):
            try:
                return cf._divides_by_zero(c, m)
            except OverflowError:
                return True

        top = 3000
        for z in (1.0, -1.0, 1.1, -1.1, -1.37, 1.5, -1.5, 2.0, -2.0, -4.0, 5.0):
            for lam in solve_cubic(z).roots:
                if lam.imag > 0.0:
                    continue
                for c in (lam, 1.0 - lam):
                    first = first_failure(c, top)
                    assert [refuses(c, m) for m in range(top + 1)] == \
                        [m >= first for m in range(top + 1)], (z, c)

    def test_power_screen_is_exact(self):
        # below PoleBasis.safe_m closed_sum skips its power tests, so at
        # m = floor(safe_m) none of them may fire.  Each power's modulus is
        # monotone in m, so this covers every smaller m too
        import trisum.closedform as cf

        mags = np.logspace(0.0, math.log10(1.3e154), 2000)
        zs = [s * float(v) for v in mags for s in (1.0, -1.0)]
        zs += [1.0 + 2.0 ** -52, -(1.0 + 2.0 ** -52), -1.37]
        lowest = math.inf
        for z in zs:
            basis = PoleBasis(z)
            lowest = min(lowest, basis.safe_m)
            m = math.floor(basis.safe_m)
            for _, lam in basis.plan:
                (lam - 1.0) ** (2 * m)
                assert not cf._divides_by_zero(lam, m), (z, lam, m)
                assert not cf._divides_by_zero(1.0 - lam, m), (z, lam, m)
        # m = 0 takes (lam - 1) ** -1, covered while safe_m >= 1/2
        assert lowest >= 2.9

    def test_small_m_skips_the_power_tests(self, monkeypatch):
        # the suites' points are all below safe_m: they never reach the
        # exact power tests, and give the bits of a sum from scratch
        import trisum.closedform as cf

        def never(*args):
            raise AssertionError("called")

        monkeypatch.setattr(cf, "_divides_by_zero", never)
        points = [(f, z, m) for f in _GRID_FAMILIES for z in _GRID_Z for m in _GRID_M]
        points += [(e.family.value, e.z, e.m) for e in REGISTRY.values()]
        assert len(points) == 137
        for p in points:
            want = _direct(*p)
            assert want != "overflows"
            assert _closed_bits(*p) == want, p


def _direct(family, z, m):
    # closed_sum's sum with nothing shared: every coefficient list and basis
    # value computed afresh for this one call.  The pair root with positive
    # imaginary part takes its partner's conjugate, as in closed_sum (a
    # direct evaluation can differ from it in the sign of a zero, at huge z)
    spec = FAMILIES[SeriesFamily(family)]
    coeff = coeff_b if spec.shifted else coeff_a
    basis = C_mirror if spec.kind == "B" else C_of
    roots = solve_cubic(z)
    contribs = []
    try:
        for which, lam in enumerate(roots.roots, start=1):
            if lam.imag > 0.0:
                contribs.append(contribs[roots.roots.index(lam.conjugate())].conjugate())
                continue
            coeffs = coeff(m, roots, which)
            inner = 0j
            for r in range(m + 1):
                inner += coeffs[r] * basis(r, lam)
            contribs.append(inner)
    except OverflowError:
        return "overflows"
    grand = sum(contribs, start=0j)
    if not all(map(cmath.isfinite, (grand, *contribs))):
        return "overflows"
    if m % 2:
        grand = -grand
    return _bits(grand.real, contribs, abs(grand.imag))


def _bits(total, contribs, imag_residual):
    return (total.hex(), imag_residual.hex(),
            tuple((c.real.hex(), c.imag.hex()) for c in contribs))


def _closed_bits(family, z, m):
    try:
        bd = closed_sum(family, z, m)
    except DomainError as exc:
        assert str(exc) == (f"closed form of family {family} at z = {z!r}, m = {m} "
                            f"leaves the double range")
        return "overflows"
    return _bits(bd.total, bd.contributions, bd.imag_residual)


_SHARED_Z = (1.0, -1.0, 2.0, -2.0, -4.0, -8.0, 5.0, 30.0, -30.0, 1e3, -1e6, 1e8, 1e150)


class TestSharedBasis:
    # closed_sum keeps the last z's PoleBasis, with its basis values grown
    # to the largest m seen and its coefficients for the last m; whatever
    # ran before, each call must give the bits of a sum computed from
    # scratch

    def test_interleaved_calls(self):
        _pole_basis.cache_clear()
        for family, z, m in [("A1", 2.0, 3), ("B2", -8.0, 5), ("A2", 2.0, 3),
                             ("B1", 2.0, 3), ("B2", 2.0, 3), ("A1", -8.0, 5),
                             ("A1", 2.0, 3), ("B1", -8.0, 5), ("B1", 2.0, 7),
                             ("A2", 2.0, 1), ("B2", 2.0, 7), ("A1", 2.0, 0)]:
            assert _closed_bits(family, z, m) == _direct(family, z, m), (family, z, m)

    def test_any_call_order(self):
        families = ("A1", "A2", "B1", "B2")
        points = [(f, z, m) for f in families for z in _SHARED_Z for m in range(21)]
        want = {p: _direct(*p) for p in points}
        assert sum(v == "overflows" for v in want.values()) > 0
        rng = random.Random(3)
        orders = {
            "family-major": points,
            "z-major, m ascending": [(f, z, m) for z in _SHARED_Z for m in range(21)
                                     for f in families],
            "z-major, m descending": [(f, z, m) for z in _SHARED_Z for m in range(20, -1, -1)
                                      for f in families],
            # at each z, the m of one family run up while another's run down
            "z-major, m interleaved": [(f, z, k if f in ("A1", "B1") else 20 - k)
                                       for z in _SHARED_Z for k in range(21)
                                       for f in families],
            "z-major, m shuffled": [(f, z, m) for z in _SHARED_Z
                                    for m in rng.sample(range(21), 21) for f in families],
            "shuffled 1": random.Random(1).sample(points, len(points)),
            "shuffled 2": random.Random(2).sample(points, len(points)),
        }
        for name, order in orders.items():
            _pole_basis.cache_clear()
            for p in order:
                assert _closed_bits(*p) == want[p], (name, p)

    def test_non_finite_sum_raises(self):
        # at z = 1e150 the coefficients of m = 6 leave the double range as
        # nan, without an OverflowError: no value to return
        assert _direct("A2", 1e150, 6) == "overflows"
        with pytest.raises(DomainError, match=re.escape(
                "closed form of family A2 at z = 1e+150, m = 6 leaves the double range")) as err:
            closed_sum("A2", 1e150, 6)
        assert "nan" not in str(err.value)

    def test_one_m_of_coefficients_kept(self):
        _pole_basis.cache_clear()
        for m in range(31):
            for family in ("A1", "A2", "B1", "B2"):
                closed_sum(family, 2.0, m)
        basis = _pole_basis(2.0)
        held_m, lists = basis._coeffs
        assert held_m == 30
        assert {len(v) for v in lists.values()} == {31}
        assert sorted(lists) == [("a", 1), ("a", 2), ("b", 1), ("b", 2)]
        # the basis values at the two evaluated roots, grown to r = 30
        assert {k: len(v) for k, v in basis._values.items()} == {
            (name, which): 31 for name in ("C", "mirror") for which in (1, 2)}

    def test_overflow_leaves_the_basis_usable(self):
        # at z = 1e100, m = 5 coeff_a overflows while coeff_b does not: the
        # A families fail, the B2 and A2 calls sharing their basis do not
        _pole_basis.cache_clear()
        for family in ("A1", "A2", "B1", "A1", "B2"):
            assert _closed_bits(family, 1e100, 5) == _direct(family, 1e100, 5), family
        assert _direct("A1", 1e100, 5) == "overflows"
        assert _direct("A2", 1e100, 5) != "overflows"
        with pytest.raises(DomainError, match="roots of the cubic"):
            closed_sum("B1", 1e300, 2)
        for family, z, m in [("A1", 2.0, 3), ("B2", 1e100, 5), ("B1", -4.0, 1)]:
            assert _closed_bits(family, z, m) == _direct(family, z, m), (family, z, m)

    def test_build_interrupted_by_another_m(self, monkeypatch):
        # what a thread switch inside a build does: while the last
        # coefficient list and a basis value of m = 3 are built, a call at
        # m = 5 on the same z replaces the coefficients and grows the basis
        # values.  Neither call may see the other's lists afterwards
        import trisum.closedform as cf
        coeff_a_, c_of_ = cf.coeff_a, cf.C_of
        seen = {"a": 0, "C": 0}

        def coeff_a_interrupted(m, roots, which):
            seen["a"] += m == 3
            if m == 3 and seen["a"] == 2:
                assert _closed_bits("A2", 2.0, 5) == _direct("A2", 2.0, 5)
            return coeff_a_(m, roots, which)

        def c_of_interrupted(r, lam):
            seen["C"] += r == 2
            if r == 2 and seen["C"] == 1:
                assert _closed_bits("B1", 2.0, 5) == _direct("B1", 2.0, 5)
            return c_of_(r, lam)

        monkeypatch.setattr(cf, "coeff_a", coeff_a_interrupted)
        monkeypatch.setattr(cf, "C_of", c_of_interrupted)
        _pole_basis.cache_clear()
        assert _closed_bits("A1", 2.0, 3) == _direct("A1", 2.0, 3)
        assert seen["a"] >= 2 and seen["C"] >= 1
        for family, m in [("A1", 5), ("A2", 5), ("A1", 3), ("B1", 3), ("B2", 5)]:
            assert _closed_bits(family, 2.0, m) == _direct(family, 2.0, m), (family, m)

    def test_repeated_refusal_answers_at_once(self, monkeypatch):
        # a refused coefficient list is remembered for its m: the repeat
        # raises without building it again, and another m at the same z
        # still builds its own lists
        import trisum.closedform as cf
        coeff_a_, coeff_b_ = cf.coeff_a, cf.coeff_b
        for family, z, m in [("B1", 2.0, 899), ("A1", 1.0, 899)]:
            _pole_basis.cache_clear()
            monkeypatch.setattr(cf, "coeff_a", coeff_a_)
            monkeypatch.setattr(cf, "coeff_b", coeff_b_)
            assert _closed_bits(family, z, m) == "overflows"

            def only_other_m(build):
                def stub(m_, roots, which):
                    assert m_ != m, "a refused list was built again"
                    return build(m_, roots, which)
                return stub

            monkeypatch.setattr(cf, "coeff_a", only_other_m(coeff_a_))
            monkeypatch.setattr(cf, "coeff_b", only_other_m(coeff_b_))
            assert _closed_bits(family, z, m) == "overflows"
            assert _closed_bits(family, z, 3) == _direct(family, z, 3)

    def test_threads_share_one_cache(self):
        # every thread walks the z values in the same order, so the threads
        # mostly share one basis while each asks for its own m
        zs = (2.0, -8.0, 30.0, 1e3)
        ms = (0, 2, 5, 9, 1, 12, 3)
        families = ("A1", "A2", "B1", "B2")
        points = [(f, z, m) for z in zs for m in ms for f in families]
        want = {p: _direct(*p) for p in points}
        got = [None] * 4

        def work(i):
            rng = random.Random(i)
            order = [(f, z, m) for _ in range(3) for z in zs
                     for m in rng.sample(ms, len(ms))
                     for f in rng.sample(families, len(families))]
            got[i] = {p: _closed_bits(*p) for p in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4


# closed_sum's totals, residuals and refusals on the closed parity grid, as
# recorded before the evaluation plan in PoleBasis; "about" in the file
# says what the grid holds and how it was written
_CLOSED_PARITY = json.loads(
    (Path(__file__).parent / "data" / "closed_parity.json").read_text())

_PARITY_Z = (1.0, -1.0, 1.1, -1.1, -1.37, 1.5, -1.5, 2.0, -2.0, -4.0, 5.0, -8.0,
             30.0, -30.0, 1e3, -1e6, 1e8, 1e58, 1e100, 1e150)
_PARITY_M = (*range(21), 60)


def _libm_digest() -> str:
    """A digest of the libm results the closed forms rest on besides
    Python's own float and complex arithmetic: cmath.log in C_r and the
    dilogarithm, math.log, and math.cbrt, acos, cos and sqrt in
    solve_cubic, each at fixed arguments."""
    h = hashlib.sha256()
    for w in (2.0, -0.5, complex(0.3, -0.7), complex(-1.5, 1.3228756555322954),
              complex(1e-8, 2.5), complex(-3e100, -1e99)):
        v = cmath.log(w)
        h.update(f"{v.real.hex()} {v.imag.hex()}".encode())
    for f, args in ((math.log, (2.0, 0.37, 1e150, 3.5e-200)),
                    (math.cbrt, (0.5, -7.3, 1e150, 2.5e-20)),
                    (math.acos, (-0.999, -0.25, 0.5, 0.875)),
                    (math.cos, (0.3, 2.1, -4.0, 1e3)),
                    (math.sqrt, (2.0, 3.0, 0.1, 1e300))):
        for x in args:
            h.update(f(x).hex().encode())
    return h.hexdigest()


def _closed_parity_rows():
    """Rows [family, z.hex(), m, total.hex(), imag_residual.hex()], or
    [family, z.hex(), m, "ErrorType: message"] for a refusal, over A1,
    A2, B1, B2 x _PARITY_Z x _PARITY_M in that order, and one SHA-256 over
    the float.hex() of every contribution in row order: what
    tests/data/closed_parity.json holds under "rows" and "contributions"."""
    rows, h = [], hashlib.sha256()
    for family in ("A1", "A2", "B1", "B2"):
        for z in _PARITY_Z:
            for m in _PARITY_M:
                try:
                    bd = closed_sum(family, z, m)
                except Exception as exc:
                    rows.append([family, z.hex(), m, f"{type(exc).__name__}: {exc}"])
                    continue
                rows.append([family, z.hex(), m, bd.total.hex(), bd.imag_residual.hex()])
                for c in bd.contributions:
                    h.update(f"{c.real.hex()} {c.imag.hex()} ".encode())
    return rows, h.hexdigest()


def test_closed_parity_grid():
    # every total and residual bitwise, every contribution through the
    # digest, and every refusal word for word, as recorded.  Bitwise only
    # on the libm they were recorded with: a cmath.log or cbrt that differs
    # in the last bit moves them by rounding, which the tests above bound
    if _libm_digest() != _CLOSED_PARITY["libm"]:
        pytest.skip("this libm's log, cbrt, acos, cos or sqrt differ in the last bit "
                    "from those the grid was recorded with")
    _pole_basis.cache_clear()
    rows, digest = _closed_parity_rows()
    assert len(rows) == 1760
    assert rows == _CLOSED_PARITY["rows"]
    assert digest == _CLOSED_PARITY["contributions"]


def _mp_base_terms(kind, count):
    # base terms (H_{3k+1} - H_k) or (H_{2k} - H_k) over (3k+1) C(3k,k),
    # k < count, at 50 working digits
    with mp.workdps(50):
        h = [mp.mpf(0)]
        for j in range(1, 3 * count + 2):
            h.append(h[-1] + mp.mpf(1) / j)
        return [
            ((h[3 * k + 1] if kind == "A" else h[2 * k]) - h[k])
            / ((3 * k + 1) * mp.binomial(3 * k, k))
            for k in range(count)
        ]


def _mp_direct_sum(base, family, z, m):
    # the defining series: weight C(k,m)/z^{k+1} (A1, B1) or
    # C(k+m,k)/z^{k+m+1} (A2, B2), summed until a term is below 1e-42
    # of the sum
    with mp.workdps(50):
        zz = mp.mpf(z)
        total = mp.mpf(0)
        for k, b in enumerate(base):
            if family[1] == "1":
                term = b * mp.binomial(k, m) / zz ** (k + 1)
            else:
                term = b * mp.binomial(k + m, k) / zz ** (k + m + 1)
            total += term
            if k > m and abs(term) < mp.mpf(10) ** -42 * abs(total):
                return total
    raise AssertionError(f"reference sum for {family} z={z} m={m} needs more terms")


def test_theorem_grid_matches_multiprecision_relative():
    # tier-1 layer comparisons use tol * max(1, |ref|), which is absolute
    # for the small values at larger m; this checks the closed form
    # relative to its own size on every point of the theorem-grid suite
    base = {kind: _mp_base_terms(kind, 120) for kind in "AB"}
    points = [(f, z, m) for f in _GRID_FAMILIES for z in _GRID_Z for m in _GRID_M]
    assert len(points) == 120
    worst = (0.0, None)
    for family, z, m in points:
        want = _mp_direct_sum(base[family[0]], family, z, m)
        got = closed_sum(family, z, m).total
        worst = max(worst, (float(abs((mp.mpf(got) - want) / want)), (family, z, m)))
    assert worst[0] <= 1e-7, worst


class TestRegistry:
    def test_size(self):
        assert len(REGISTRY) == 17

    def test_printed_values(self):
        # expressions with cancelling terms round at the size of the
        # largest term, not of the result
        for cid, want in PRINTED.items():
            got = reference_constant(cid)
            assert abs(got - want) <= 1e-15, cid

    def test_scale_orientation(self):
        # every registry value equals scale times the family normal form
        for entry in REGISTRY.values():
            total = closed_sum(entry.family, entry.z, entry.m).total
            got = float(entry.scale) * total
            want = entry.value()
            assert abs(got - want) <= 1e-11 * max(1.0, abs(want)), entry.id

    def test_series_reproduces_constants(self):
        for entry in REGISTRY.values():
            got = float(entry.scale) * sum_series(entry.family, entry.z, entry.m, tol=1e-13)
            assert abs(got - entry.value()) <= 1e-10 * max(1.0, abs(entry.value())), entry.id

    def test_cross_form_equality(self):
        assert reference_constant("a1-zneg4-m0-dilog") == pytest.approx(
            reference_constant("a1-zneg4-m0-quot"), rel=1e-14, abs=0)

    def test_unknown_constant(self):
        with pytest.raises(UnknownConstant):
            reference_constant("nope")

    def test_unknown_atom(self):
        entry = REGISTRY["a1-z2-m0"]._replace(terms=((Fraction(1), ("pi", "nope")),))
        with pytest.raises(UnknownConstant, match="unknown atom 'nope'"):
            entry.value()

    def test_integer_coefficients_render(self):
        # a unit coefficient shows only its atoms, or 1 when it has none
        entry = REGISTRY["a1-z2-m0"]._replace(terms=(
            (Fraction(3), ("pi",)), (Fraction(-1), ("G",)), (Fraction(2), ()),
            (Fraction(-1), ())))
        assert entry.expression() == "3*pi - G + 2 - 1"

    def test_expressions_render(self):
        expr = REGISTRY["a1-z2-m0"].expression()
        assert "pi*pi" in expr and "G" in expr
        assert REGISTRY["a1-z2-m2"].expression().startswith("(3/100)")
        for entry in REGISTRY.values():
            assert entry.expression()
