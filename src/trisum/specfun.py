"""Scalar special functions: harmonic numbers, the complex dilogarithm,
the Clausen function of order two, and Catalan's constant.

The dilogarithm is the principal branch, analytic on the plane cut along
[1, inf).  On the cut itself values are the limit from below, so the
imaginary part of ``dilog(x)`` for real x > 1 is ``-pi*log(x)``.

Double precision throughout; harmonic numbers also carry an exact
rational mode used to anchor the floating-point table and to feed the
exact series oracles.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

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
# -log(1-z), for the Bernoulli numbers B_0 .. B_51; odd entries beyond
# n = 1 vanish and are dropped.  tests/test_specfun.py rebuilds
# the table from the exact Bernoulli recurrence.
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
    (20, -1.0356517612181247e-17),
    (22, 2.3952186210261865e-19),
    (24, -5.58178587432501e-21),
    (26, 1.3091507554183215e-22),
    (28, -3.0874198024267407e-24),
    (30, 7.315975652702204e-26),
    (32, -1.740845657234001e-27),
    (34, 4.1576356446139e-29),
    (36, -9.962148488284622e-31),
    (38, 2.3940344248961652e-32),
    (40, -5.76834735536739e-34),
    (42, 1.393179479647008e-35),
    (44, -3.3721219654850894e-37),
    (46, 8.178208777562102e-39),
    (48, -1.987010831152386e-40),
    (50, 4.835778518040551e-42),
)


class HarmonicCache:
    """Harmonic and odd-harmonic partial sums, extended on demand.

    Exact values are Fractions and are available for n <= exact_limit.
    Float values up to the limit are the correctly rounded exact values;
    past it the table continues with compensated summation seeded with
    the rounding residue of the last exact entry, so the accumulated
    error stays near one ulp for any reachable n.
    """

    def __init__(self, exact_limit: int = _EXACT_LIMIT):
        self.exact_limit = exact_limit
        self._exact = [Fraction(0)]        # H_n
        self._exact_odd = [Fraction(0)]    # sum of 1/(2j-1), j <= n
        self._vals = [0.0]
        self._vals_odd = [0.0]
        self._carry = 0.0
        self._carry_odd = 0.0

    def _check(self, n: int) -> None:
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise DomainError(f"harmonic index must be a nonnegative integer, got {n!r}")

    def exact(self, n: int) -> Fraction:
        self._check(n)
        if n > self.exact_limit:
            raise DomainError(
                f"exact harmonic values are limited to n <= {self.exact_limit}, got {n}"
            )
        while len(self._exact) <= n:
            k = len(self._exact)
            self._exact.append(self._exact[-1] + Fraction(1, k))
        return self._exact[n]

    def exact_odd(self, n: int) -> Fraction:
        self._check(n)
        if n > self.exact_limit:
            raise DomainError(
                f"exact odd-harmonic values are limited to n <= {self.exact_limit}, got {n}"
            )
        while len(self._exact_odd) <= n:
            k = len(self._exact_odd)
            self._exact_odd.append(self._exact_odd[-1] + Fraction(1, 2 * k - 1))
        return self._exact_odd[n]

    def _extend_float(self, vals: list[float], n: int, odd: bool) -> None:
        while len(vals) <= n:
            k = len(vals)
            if k <= self.exact_limit:
                exact = self.exact_odd(k) if odd else self.exact(k)
                v = float(exact)
                vals.append(v)
                carry = float(Fraction(v) - exact)
                if odd:
                    self._carry_odd = carry
                else:
                    self._carry = carry
            else:
                term = 1.0 / (2 * k - 1) if odd else 1.0 / k
                carry = self._carry_odd if odd else self._carry
                prev = vals[-1]
                y = term - carry
                t = prev + y
                carry = (t - prev) - y
                vals.append(t)
                if odd:
                    self._carry_odd = carry
                else:
                    self._carry = carry

    def value(self, n: int) -> float:
        self._check(n)
        self._extend_float(self._vals, n, odd=False)
        return self._vals[n]

    def value_odd(self, n: int) -> float:
        self._check(n)
        self._extend_float(self._vals_odd, n, odd=True)
        return self._vals_odd[n]


_CACHE = HarmonicCache()


def harmonic(n: int, exact: bool = False) -> float | Fraction:
    """H_n = sum_{j=1}^{n} 1/j, with H_0 = 0."""
    return _CACHE.exact(n) if exact else _CACHE.value(n)


def odd_harmonic(n: int, exact: bool = False) -> float | Fraction:
    """O_n = sum_{j=1}^{n} 1/(2j-1), with O_0 = 0."""
    return _CACHE.exact_odd(n) if exact else _CACHE.value_odd(n)


def _dilog_power_series(z: complex) -> complex:
    # sum z^k / k^2 on |z| <= 1/2; at most ~55 terms for double precision
    total = 0.0 + 0.0j
    power = 1.0 + 0.0j
    for k in range(1, 200):
        power *= z
        term = power / (k * k)
        total += term
        if abs(term) <= 1e-17 * max(1.0, abs(total)):
            break
    return total


def _dilog_log_series(z: complex) -> complex:
    # expansion in u = -log(1-z); converges for |u| < 2*pi, used only
    # where the functional maps leave |u| <= ~1.26
    u = -cmath.log(1.0 - z)
    total = 0.0 + 0.0j
    for n, c in _LOG_SERIES:
        term = c * u ** (n + 1)
        total += term
        if n > 2 and abs(term) <= 1e-17 * max(1.0, abs(total)):
            break
    return total


def _dilog_cut_plane(z: complex) -> complex:
    # assumes z is not a real number greater than 1
    if abs(z) > 1.0:
        log_neg = cmath.log(-z)
        return -_PI2_6 - 0.5 * log_neg * log_neg - _dilog_cut_plane(1.0 / z)
    if z.real > 0.5:
        return _PI2_6 - cmath.log(z) * cmath.log(1.0 - z) - _dilog_cut_plane(1.0 - z)
    if abs(z) <= 0.5:
        return _dilog_power_series(z)
    return _dilog_log_series(z)


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
    """Clausen function Cl2(theta) = sum_{k>=1} sin(k*theta)/k^2."""
    t = float(theta)
    if not math.isfinite(t):
        raise DomainError(f"clausen2 requires a finite argument, got {theta!r}")
    r = math.remainder(t, _TWO_PI)
    if r == 0.0:
        return 0.0
    return dilog(cmath.exp(1j * r)).imag


@lru_cache(maxsize=1)
def catalan() -> float:
    """Catalan's constant G = Cl2(pi/2)."""
    return clausen2(0.5 * _PI)
