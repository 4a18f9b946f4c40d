import math
import sys

import mpmath as mp
import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisum.errors import DomainError, RepeatedRoots
from trisum.roots import CubicRoots, solve_cubic


def _residual(res: CubicRoots) -> float:
    return max(
        abs(((r - 2.0) * r + 1.0) * r - res.z) for r in res.roots
    )


class TestKnownFactorizations:
    def test_z_two(self):
        # x^3 - 2x^2 + x - 2 = (x - 2)(x^2 + 1)
        res = solve_cubic(2.0)
        assert res.roots[0] == pytest.approx(2.0 + 0j, abs=1e-15)
        assert res.roots[1] == pytest.approx(-1j, abs=1e-15)
        assert res.roots[2] == pytest.approx(1j, abs=1e-15)
        assert sum(r.imag == 0.0 for r in res.roots) == 1

    def test_z_minus_four(self):
        # x = -1 is a root; the pair is (3 +- i sqrt(7))/2
        res = solve_cubic(-4.0)
        s7 = math.sqrt(7.0)
        assert res.roots[0] == pytest.approx(complex(1.5, -s7 / 2), abs=1e-15)
        assert res.roots[1] == pytest.approx(complex(1.5, s7 / 2), abs=1e-15)
        assert res.roots[2] == pytest.approx(-1.0 + 0j, abs=1e-15)

    def test_three_real_branch(self):
        res = solve_cubic(0.1)
        assert sum(r.imag == 0.0 for r in res.roots) == 3
        assert res.discriminant > 0
        assert _residual(res) <= 1e-15

    def test_sorted_descending_real(self):
        res = solve_cubic(0.1)
        reals = [r.real for r in res.roots]
        assert reals == sorted(reals, reverse=True)


class TestAgainstMultiprecision:
    @pytest.mark.parametrize("z", [2.0, 3.0, -4.0, -8.0, 5.0, -2.0, 1.0, -1.0,
                                   0.05, 0.12, -100.0, 1e6])
    def test_roots_match(self, z):
        got = sorted(solve_cubic(z).roots, key=lambda r: (r.real, r.imag))
        want = sorted(
            (complex(r) for r in mp.polyroots([1, -2, 1, -z], maxsteps=80)),
            key=lambda r: (r.real, r.imag),
        )
        scale = max(1.0, max(abs(w) for w in want))
        for g, w in zip(got, want):
            assert abs(g - w) <= 5e-15 * scale


class TestDegenerate:
    def test_zero_rejected(self):
        with pytest.raises(RepeatedRoots):
            solve_cubic(0.0)

    def test_four_27_rejected(self):
        with pytest.raises(RepeatedRoots):
            solve_cubic(4.0 / 27.0)

    def test_guard_band(self):
        with pytest.raises(RepeatedRoots):
            solve_cubic(1e-12)
        with pytest.raises(RepeatedRoots):
            solve_cubic(4.0 / 27.0 + 1e-13)
        # just outside the band both succeed
        assert _residual(solve_cubic(1e-9)) <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            solve_cubic(math.inf)
        with pytest.raises(DomainError):
            solve_cubic(math.nan)


class TestHugeZ:
    @pytest.mark.parametrize("z", [1e154, -1e154, 1.34e154, -1.34e154])
    def test_largest_z_still_solved(self, z):
        res = solve_cubic(z)
        assert all(math.isfinite(r.real) and math.isfinite(r.imag) for r in res.roots)
        r1, r2, r3 = res.roots
        assert abs(r1 * r2 * r3 - z) <= 1e-14 * abs(z)

    @pytest.mark.parametrize("z", [1.35e154, -1.35e154, 1e160, -1e160, 1e300, -1e300,
                                   sys.float_info.max, -sys.float_info.max])
    def test_overflow_is_a_domain_error(self, z):
        # Cardano's q * q passes the double range; the roots would be nan
        with pytest.raises(DomainError) as info:
            solve_cubic(z)
        msg = str(info.value)
        assert f"z = {z!r}" in msg and "overflow" in msg
        assert "nan" not in msg


def test_roots_well_apart_on_the_closed_form_domain():
    # for |z| >= 1 the roots are at least 1.4897 apart, the minimum at
    # z = 1: so closed_sum needs no check of the denominator's powers
    # |lam - w| ** -(m + 1), which are at most 1
    for k in range(2000):
        mag = 10.0 ** (154 * k / 1999)
        for z in (mag, -mag):
            a, b, c = solve_cubic(z).roots
            assert min(abs(a - b), abs(a - c), abs(b - c)) >= 1.48, z


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_properties_random_z(z):
    disc = z * (4.0 - 27.0 * z)
    if abs(disc) < 1e-8:
        return
    res = solve_cubic(z)
    scale = max(1.0, abs(z))
    # residuals small, Vieta sums reproduce the coefficients
    assert _residual(res) <= 1e-11 * scale
    r1, r2, r3 = res.roots
    assert abs((r1 + r2 + r3) - 2.0) <= 1e-12 * scale
    assert abs((r1 * r2 + r1 * r3 + r2 * r3) - 1.0) <= 1e-11 * scale
    assert abs(r1 * r2 * r3 - z) <= 1e-11 * scale
    # multiset exactly closed under conjugation
    conj = sorted((r.conjugate() for r in res.roots), key=lambda r: (-r.real, r.imag))
    assert tuple(conj) == res.roots
