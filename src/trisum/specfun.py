"""Scalar special functions: harmonic numbers, the complex dilogarithm,
the Clausen function of order two, and Catalan's constant.

The dilogarithm is the principal branch, analytic on the plane cut along
[1, inf).  On the cut itself values are the limit from below, so the
imaginary part of ``dilog(x)`` for real x > 1 is ``-pi*log(x)``.  The
reflection z -> 1-z and the inversion z -> 1/z map every argument into
|z| <= 1, Re z <= 1/2, where u = -log(1-z) has |u| <= pi/3 and Li2 is
the Bernoulli series sum_n B_n u^(n+1)/(n+1)! ('t Hooft & Veltman,
Nucl. Phys. B153 (1979) 365), cut after B_18 and summed by Horner's rule
in u^2.  Cl2 uses the same Bernoulli numbers in its own series near its
zeros at 2*pi*k, where exp(i*theta) rounds its value away.

Double precision throughout; harmonic numbers also carry an exact
rational mode used to anchor the floating-point table and to feed the
exact series oracles.  One HarmonicCache holds the H_n and O_n tables of
both modes and grows them on demand under its lock; harmonic() and
odd_harmonic() read an entry already in a table without it.
"""

from __future__ import annotations

import cmath
import math
import threading
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, check_index

__all__ = [
    "HarmonicCache",
    "harmonic",
    "odd_harmonic",
    "dilog",
    "clausen2",
    "catalan",
]

_PI = math.pi
_PI2_6 = _PI * _PI / 6.0
_EXACT_LIMIT = 512

_TWO_PI = 2.0 * _PI


# Coefficients float(B_n) / (n+1)! of the expansion of Li2 in powers of
# u = -log(1-z), for the Bernoulli numbers B_0 .. B_18; odd entries beyond
# n = 1 vanish and are dropped.  tests/test_specfun.py rebuilds the table
# from the exact Bernoulli recurrence.
_LOG_SERIES = (
    (0, 1.0),
    (1, -0.25),
    (2, 0.027777777777777776),
    (4, -0.0002777777777777778),
    (6, 4.72411186696901e-06),
    (8, -9.185773074661964e-08),
    (10, 1.8978869988971e-09),
    (12, -4.0647616451442256e-11),
    (14, 8.921691020456453e-13),
    (16, -1.9939295860721074e-14),
    (18, 4.518980029619918e-16),
)

# B_18 .. B_2 entries, highest first, for Horner's rule in u^2; each
# kernel below writes its nine steps out as one expression, reading the
# coefficients from these names
_HORNER = tuple(c for n, c in reversed(_LOG_SERIES) if n >= 2)
_B18, _B16, _B14, _B12, _B10, _B8, _B6, _B4, _B2 = _HORNER

# |B_2k| / (2k (2k+1)!), highest first: the power-series part of Cl2
# about 0, Cl2(t) = t - t log|t| + sum_k |B_2k| t^(2k+1) / (2k (2k+1)!)
_CL2_HORNER = tuple(abs(c) / n for n, c in reversed(_LOG_SERIES) if n >= 2)
_C18, _C16, _C14, _C12, _C10, _C8, _C6, _C4, _C2 = _CL2_HORNER

# The same about pi, from the duplication formula Cl2(pi - d) =
# Cl2(d) - Cl2(2d)/2, in which the d log|d| terms of the two series
# cancel exactly: Cl2(pi - d) = d log 2 - sum_k (2^(2k) - 1) |B_2k|
# d^(2k+1) / (2k (2k+1)!).
_CL2_PI_HORNER = tuple(abs(c) / n * (1.0 - 2.0 ** n)
                       for n, c in reversed(_LOG_SERIES) if n >= 2)
_P18, _P16, _P14, _P12, _P10, _P8, _P6, _P4, _P2 = _CL2_PI_HORNER
_LN2 = math.log(2.0)

# 2*pi minus its double _TWO_PI, so that a reduction by k periods is good
# to about 1e-32 * k instead of 2.4e-16 * k; pi's residual is half of it
_TWO_PI_LO = 2.4492935982947064e-16
_PI_LO = 0.5 * _TWO_PI_LO
# the largest |theta| clausen2 reduces by that residual: k = 1.6e14
# periods round k * _TWO_PI_LO by at most 3.5e-18
_CL2_MAX_ARG = 1e15


class _Sum:
    """One partial sum s_n = sum_{j=1}^{n} 1/den(j): its exact and float
    tables, which only ever grow in place, and the float table's carry.
    The caller holds the owning HarmonicCache's lock."""

    __slots__ = ("den", "exact", "vals", "carry")

    def __init__(self, den):
        self.den = den
        self.exact = [Fraction(0)]
        self.vals = [0.0]
        self.carry = 0.0

    def grow_exact(self, n: int) -> None:
        exact, den = self.exact, self.den
        while len(exact) <= n:
            exact.append(exact[-1] + Fraction(1, den(len(exact))))

    def grow_float(self, n: int) -> None:
        vals = self.vals
        while len(vals) <= n:
            k = len(vals)
            if k <= _EXACT_LIMIT:
                self.grow_exact(k)
                exact = self.exact[k]
                v = float(exact)
                if k == _EXACT_LIMIT:
                    # the rounding residue that seeds the compensated sum
                    self.carry = float(Fraction(v) - exact)
            else:
                prev = vals[-1]
                y = 1.0 / self.den(k) - self.carry
                v = prev + y
                self.carry = (v - prev) - y
            vals.append(v)


class HarmonicCache:
    """Harmonic and odd-harmonic partial sums, extended on demand.

    Exact values are Fractions and are available for n <= _EXACT_LIMIT
    (512).  Float values up to it are the correctly rounded exact values;
    past it the table continues with compensated summation seeded with
    the rounding residue of the last exact entry, so the accumulated
    error stays near one ulp for any reachable n.

    H_n and O_n grow by the same two paths, one exact and one float, which
    differ only in the term's denominator, j or 2j - 1.  Growth runs under
    one lock per cache, so threads that extend a table at once build the
    table one thread alone would.  Entries are appended in place and never
    change, so an entry already in a table is final and may be read
    without the lock.
    """

    def __init__(self):
        self._h = _Sum(lambda j: j)           # H_n
        self._o = _Sum(lambda j: 2 * j - 1)   # O_n
        self._exact, self._vals = self._h.exact, self._h.vals
        self._exact_odd, self._vals_odd = self._o.exact, self._o.vals
        self._lock = threading.Lock()

    def _exact_of(self, s: _Sum, n: int, what: str) -> Fraction:
        check_index(n, "harmonic index")
        if n > _EXACT_LIMIT:
            raise DomainError(
                f"exact {what} values are limited to n <= {_EXACT_LIMIT}, got {n}"
            )
        with self._lock:
            s.grow_exact(n)
        return s.exact[n]

    def _value_of(self, s: _Sum, n: int) -> float:
        check_index(n, "harmonic index")
        with self._lock:
            s.grow_float(n)
        return s.vals[n]

    def exact(self, n: int) -> Fraction:
        return self._exact_of(self._h, n, "harmonic")

    def exact_odd(self, n: int) -> Fraction:
        return self._exact_of(self._o, n, "odd-harmonic")

    def value(self, n: int) -> float:
        return self._value_of(self._h, n)

    def value_odd(self, n: int) -> float:
        return self._value_of(self._o, n)


_CACHE = HarmonicCache()
# the cache's tables, which only ever grow in place: an int n inside one
# is read from it, and anything else takes the checked, growing path
_VALS, _VALS_ODD = _CACHE._vals, _CACHE._vals_odd
_EXACT, _EXACT_ODD = _CACHE._exact, _CACHE._exact_odd


def harmonic(n: int, exact: bool = False) -> float | Fraction:
    """H_n = sum_{j=1}^{n} 1/j, with H_0 = 0."""
    table = _EXACT if exact else _VALS
    if n.__class__ is int and 0 <= n < len(table):
        return table[n]
    return _CACHE.exact(n) if exact else _CACHE.value(n)


def odd_harmonic(n: int, exact: bool = False) -> float | Fraction:
    """O_n = sum_{j=1}^{n} 1/(2j-1), with O_0 = 0."""
    table = _EXACT_ODD if exact else _VALS_ODD
    if n.__class__ is int and 0 <= n < len(table):
        return table[n]
    return _CACHE.exact_odd(n) if exact else _CACHE.value_odd(n)


def _dilog_reduced(z: complex) -> complex:
    # |z| <= 1 and Re z <= 1/2, so |u| <= pi/3 for u = -log(1-z) and the
    # B_20 term of sum_n B_n u^(n+1)/(n+1)! is below 3e-17 |u|.  Kahan's
    # log1p: log(w) * z/(w-1) cancels the rounding of w = 1 - z.
    w = 1.0 - z
    u = z if w == 1.0 else cmath.log(w) * (z / (w - 1.0))
    v = u * u
    # Horner's rule from p = 0.0: the leading 0.0 * v makes p complex from
    # the first step, so no step rests on how the interpreter mixes a
    # float and a complex operand
    p = ((((((((0.0 * v + _B18) * v + _B16) * v + _B14) * v + _B12) * v + _B10)
           * v + _B8) * v + _B6) * v + _B4) * v + _B2
    return u + v * (-0.25 + u * p)


def _dilog_cut_plane(z: complex) -> complex:
    # assumes z is not a real number greater than 1
    # reflect first wherever that lands in the disc: near 1, inverting
    # first would carry the rounding of 1/z through Li2's log singularity
    if z.real > 0.5 and abs(1.0 - z) <= 1.0:
        return _PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - _dilog_cut_plane(1.0 - z)
    if abs(z) > 1.0:
        log_neg = cmath.log(-z)
        return -_PI2_6 - 0.5 * log_neg * log_neg - _dilog_cut_plane(1.0 / z)
    return _dilog_reduced(z)


def dilog(z: complex | float) -> complex:
    """Principal-branch dilogarithm Li2(z).

    Accepts any finite real or complex argument and always returns a
    complex value.  Real arguments up to 1 give a real result; real
    arguments beyond 1 give the limit from below the branch cut.
    """
    w = complex(z)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise DomainError(f"dilog requires a finite argument, got {z!r}")
    if w.imag == 0.0:
        x = w.real
        if x == 1.0:
            return complex(_PI2_6, 0.0)
        if x > 1.0:
            # inversion plus reflection collapsed to a real formula
            real = _PI * _PI / 3.0 - 0.5 * math.log(x) ** 2 \
                - _dilog_cut_plane(complex(1.0 / x)).real
            return complex(real, -_PI * math.log(x))
        return complex(_dilog_cut_plane(complex(x)).real, 0.0)
    return _dilog_cut_plane(w)


def clausen2(theta: float) -> float:
    """Clausen function Cl2(theta) = sum_{k>=1} sin(k*theta)/k^2, for
    |theta| <= 1e15.

    theta is reduced by 2*pi carried to about 32 digits, so values near a
    zero pi*k keep their relative accuracy.  That holds at an exact
    multiple of the double nearest 2*pi too, which is not a zero: only
    theta = 0 gives 0.0.  Up to |theta| = 1e15 the reduced argument is
    within 5e-18 of the exact one, so the value is within 1e-15 relative
    plus 5e-18 times the slope |log|2 sin(theta/2)||, an absolute term
    that shows only near a zero.
    The reduction's error grows with |theta|, and by 1e16 the value can
    be wrong by more than its size, so a larger |theta|, where doubles
    are already 1/8 or more apart, raises DomainError.
    """
    t = float(theta)
    if not abs(t) <= _CL2_MAX_ARG:
        raise DomainError(
            f"clausen2 requires a finite |theta| <= {_CL2_MAX_ARG:g}, got {theta!r}")
    r = math.remainder(t, _TWO_PI)
    # remainder is exact against the double _TWO_PI; the k periods' share
    # of its residual must come off too, or Cl2 loses 2.4e-16*k over the
    # distance to its nearest zero, 2*pi*k or (2k+1)*pi
    k = round((t - r) / _TWO_PI)
    # near +-pi that distance is d = pi - |reduced r|: _PI - |r| is exact
    # (Sterbenz), and pi's residual and the periods' are added after it
    d = (_PI - abs(r)) + (2 * (k if r > 0.0 else -k) + 1) * _PI_LO
    if d <= 0.5:
        # Horner's rule; for a real v, its first step from p = 0.0 is _P18
        v = d * d
        p = (((((((_P18 * v + _P16) * v + _P14) * v + _P12) * v + _P10) * v + _P8)
              * v + _P6) * v + _P4) * v + _P2
        cl = d * _LN2 + d * v * p
        return cl if r > 0.0 else -cl
    r -= k * _TWO_PI_LO
    if abs(r) > 1.0:
        return dilog(cmath.exp(1j * r)).imag
    if r == 0.0:
        # k = 0 and theta = 0: any other multiple of the double 2*pi is
        # k * _TWO_PI_LO away from Cl2's zero
        return 0.0
    # near 0, exp(1j*r) rounds away the r^2/2 that sets Cl2's size
    v = r * r
    p = (((((((_C18 * v + _C16) * v + _C14) * v + _C12) * v + _C10) * v + _C8)
          * v + _C6) * v + _C4) * v + _C2
    return r - r * math.log(abs(r)) + r * v * p


@lru_cache(maxsize=1)
def catalan() -> float:
    """Catalan's constant G = Cl2(pi/2)."""
    return clausen2(0.5 * _PI)
