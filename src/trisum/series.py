"""Direct summation of the harmonic-number series over reciprocal
central binomial coefficients C(3k,k).

Two base term kinds share the denominator (3k+1)*C(3k,k):

    kind A:  H_{3k+1} - H_k
    kind B:  H_{2k}   - H_k

Eight series families are built from them.  A1/B1 attach a binomial
C(k,m) and powers 1/z^{k+1}; A2/B2 attach C(k+m,k) and 1/z^{k+m+1};
both need real |z| >= 1.  C1..C4 are the alternating even/odd-index
resummations in powers of z^{2k} (C1, C3) and z^{2k+1} (C2, C4) for
real |z| <= 1, with kind A feeding C1/C2 and kind B feeding C3/C4.

Summation is compensated, with a geometric tail bound: term ratios for
every family decrease monotonically toward their limit, so the last
observed ratio (inflated by 10%) bounds the remainder.  The sum stops
once that bound is at most tol * |sum|, relative to the value's own
size however small it is.  The term cap is DEFAULT_MAX_TERMS (10,000),
read at call time.  Only A1/B1 at m >= 9996 reach it: the base terms
are exactly 0.0 from k = 389 on, so every other sum stops by about
k = max(392, m + 5), or raises TermOverflow first (A2/B2 from m = 711).

The coefficient that term k multiplies by its power of z depends on the
family and m but not on z, so sum_series reads it from one table per
(family, m): the base term times the binomial weight C(k,m) or C(k+m,k)
for A1..B2, the weight carried as an exact integer by its ratio
recurrence while the table is built, and the even- or odd-index base
term for C1..C4.  Each table computes the base terms of the entries it
adds.  Every table starts empty and grows by doubling to the longest
prefix a call has needed, and at most _MAX_TABLES tables are kept.  A call
multiplies each coefficient by a power of z, whose step for C1..C4 is
-z^2 so that it carries the alternating sign: each term is the same
double that math.comb and an explicit sign give.
"""

from __future__ import annotations

import enum
import math
import threading
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .errors import (DomainError, NonConvergent, TermOverflow, TooManyTerms, check_index,
                     check_tol)
from .specfun import _EXACT_LIMIT, harmonic

__all__ = [
    "SeriesFamily",
    "FamilySpec",
    "FAMILIES",
    "from_integral",
    "family_entry",
    "check_point",
    "TermValue",
    "base_term",
    "sum_series",
    "DEFAULT_MAX_TERMS",
]

DEFAULT_MAX_TERMS = 10000
# largest k with 3k+1 inside the exact harmonic range
_EXACT_TERM_LIMIT = (_EXACT_LIMIT - 1) // 3


class SeriesFamily(str, enum.Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2 = "B2"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"


class FamilySpec(NamedTuple):
    """What defines one family, for every layer that computes it.

    kind     "A": numerator H_{3k+1} - H_k, log x kernel;
             "B": numerator H_{2k} - H_k, log(x/(1-x)) kernel, mirrored basis
    outer    True: powers of 1/z, real |z| >= 1, has a closed form;
             False: alternating powers of z, real |z| <= 1, m = 0
    shifted  outer: weight C(k+m,k)/z^{k+m+1} instead of C(k,m)/z^{k+1};
             alternating: odd index z^{2k+1} instead of even z^{2k}

    A named tuple, so kind, outer, shifted = spec unpacks it.
    """

    kind: str
    outer: bool
    shifted: bool


FAMILIES = MappingProxyType({
    SeriesFamily.A1: FamilySpec("A", outer=True, shifted=False),
    SeriesFamily.A2: FamilySpec("A", outer=True, shifted=True),
    SeriesFamily.B1: FamilySpec("B", outer=True, shifted=False),
    SeriesFamily.B2: FamilySpec("B", outer=True, shifted=True),
    SeriesFamily.C1: FamilySpec("A", outer=False, shifted=False),
    SeriesFamily.C2: FamilySpec("A", outer=False, shifted=True),
    SeriesFamily.C3: FamilySpec("B", outer=False, shifted=False),
    SeriesFamily.C4: FamilySpec("B", outer=False, shifted=True),
})


def from_integral(spec: FamilySpec, raw: float, z: float, m: int) -> float:
    """The value at (z, m) of the family with spec, from raw, the value of
    its integral representation there (or of its closed form's sum over
    the roots): (-1)^m raw for A1-B2, -raw for C1/C3 and -z raw for C2/C4.
    """
    if spec.outer:
        return -raw if m % 2 else raw
    return -z * raw if spec.shifted else -raw


class TermValue(NamedTuple):
    """One base term: double value, exact rational when in range."""

    k: int
    value: float
    exact: Fraction | None


def _numerator_float(kind: str, k: int) -> float:
    if kind == "A":
        return harmonic(3 * k + 1) - harmonic(k)
    return harmonic(2 * k) - harmonic(k)


def _denominator(k: int) -> int:
    # (3k+1) C(3k,k), the denominator both base term kinds share
    return (3 * k + 1) * math.comb(3 * k, k)


def _exact_ratio(kind: str, k: int) -> tuple[int, int]:
    """The exact base term of kind "A" or "B" at k <= _EXACT_TERM_LIMIT as
    an integer ratio (num, den), not normalised: (p/q - r/s) / ((3k+1)
    C(3k,k)), where p/q is H_{3k+1} or H_{2k} and r/s is H_k.  base_term's
    exact value is Fraction(num, den); int / int division is correctly
    rounded at any size, so num / den is the double nearest it."""
    top = 3 * k + 1 if kind == "A" else 2 * k
    p, q = harmonic(top, exact=True).as_integer_ratio()
    r, s = harmonic(k, exact=True).as_integer_ratio()
    return p * s - r * q, q * s * _denominator(k)


def base_term(kind: str, k: int) -> TermValue:
    """Base term (H_{3k+1} - H_k) or (H_{2k} - H_k) over (3k+1) C(3k,k).

    kind is "A" or "B".  The float value comes from the compensated
    harmonic table, independently of the exact branch.
    """
    if kind not in ("A", "B"):
        raise DomainError(f"base term kind must be 'A' or 'B', got {kind!r}")
    check_index(k, "term index")
    # int / int division is correctly rounded at any size, so this is the
    # double nearest num / den even when den is past the double range
    n, d = _numerator_float(kind, k).as_integer_ratio()
    value = n / (d * _denominator(k))
    exact = Fraction(*_exact_ratio(kind, k)) if k <= _EXACT_TERM_LIMIT else None
    return TermValue(k=k, value=value, exact=exact)


# name -> (member, spec), read by family_entry alone; a SeriesFamily is a
# str equal to its name, so a member finds its entry here too, at the cost
# of one dict lookup instead of a call of the enum
_BY_NAME = {f.value: (f, spec) for f, spec in FAMILIES.items()}


def family_entry(family: SeriesFamily | str) -> tuple[SeriesFamily, FamilySpec]:
    """The member and spec of the family named by family, a SeriesFamily
    or its name: the one family lookup of every layer.  An unknown name
    raises the enum's ValueError."""
    try:
        return _BY_NAME[family]
    except (KeyError, TypeError):
        return _BY_NAME[SeriesFamily(family)]


def check_m_z(m: int, z: float) -> None:
    """The input checks every family and every integrand shares: m a
    nonnegative integer, then z finite.  Raises DomainError."""
    check_index(m, "m")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")


def check_point(family: SeriesFamily, spec: FamilySpec, z: float, m: int) -> None:
    """Check (z, m) for the family that family_entry resolved to (family,
    spec), in one order for every layer: m, then z finite, then the
    family's domain.  Raises DomainError for a bad m or a non-finite z,
    NonConvergent for z outside the region where the series converges.
    """
    # an exact int m and a finite z first: the common case skips the calls
    if not (m.__class__ is int and m >= 0 and math.isfinite(z)):
        check_m_z(m, z)
    if spec.outer:
        if abs(z) < 1.0:
            raise NonConvergent(
                f"family {family.value} requires |z| >= 1, got z = {z!r}"
            )
    else:
        if m != 0:
            raise DomainError(f"family {family.value} takes no binomial order, got m = {m}")
        if abs(z) > 1.0:
            raise NonConvergent(
                f"family {family.value} requires |z| <= 1, got z = {z!r}"
            )


def _binom_step(k: int) -> float:
    # C(3k,k)/C(3(k+1),k+1) as an exact small-integer ratio
    return ((k + 1) * (2 * k + 1) * (2 * k + 2)) / ((3 * k + 1) * (3 * k + 2) * (3 * k + 3))


# Coefficient table per (family, m), that is per (kind, outer, shifted, m):
# _coef[family, m][k] is the double that term k multiplies by its power of
# z, the base term of index n times the weight.  For A1..B2, n = k and the
# weight is the exact integer C(k, m) or C(k+m, k); for C1..C4, n = 2k or
# 2k+1 and the weight is 1.  The base term is _numerator_float(kind, n) *
# (1/C(3n,n)) / (3n+1), with 1/C(3n,n) carried by the _binom_step
# recurrence from n = 0.  Tables grow by doubling, never past the term cap
# DEFAULT_MAX_TERMS.  A published list is never changed: growth builds a
# longer one under the lock and then swaps it in, so a reader holds either
# the old list or the new one, whole.
# A table ends before its first coefficient outside the double range, a
# nonzero base term times a weight past it (A2/B2 at large m), and a sum
# that needs that term raises TermOverflow; no exact product stands in for
# it.  At most _MAX_TABLES are held; a new one evicts the oldest.  The
# verification suites and the sweep benchmark use about 40 (family, m) keys
# in all (A1..B2 at m <= 4 and the registry's m, C1..C4), so 64 keeps every
# one of them, while a loop over many m holds 64 tables of at most the term
# cap's length each (10,000 entries, about 320 kB) instead of one per m.
_MAX_TABLES = 64
_coef_lock = threading.Lock()
_coef: dict[tuple[SeriesFamily, int], list[float]] = {}


def _grow_coef(family: SeriesFamily, m: int, n: int) -> list[float]:
    """The coefficient table of (family, m), grown to cover index n."""
    key = (family, m)
    kind, outer, shifted = FAMILIES[family]
    with _coef_lock:
        table = _coef.get(key, [])
        if n < len(table):
            return table     # another thread grew it meanwhile
        done = len(table)
        size = max(n + 1, min(2 * done, DEFAULT_MAX_TERMS))
        # entry k takes the base term of index first + stride * k
        first, stride = (0, 1) if outer else (1 if shifted else 0, 2)
        # the weight C(k+top, m), C(k+m, k) or C(k, m), as an exact int:
        # the next one is this one times (k+1+top)/(k+1+top-m), or 1 at
        # k+1+top = m and 0 below.  C1..C4 have m = 0, so theirs stays 1
        top = m if shifted else 0
        weight = math.comb(done + top, m)
        grown = table[:]
        j = 0
        inv_binom = 1.0      # 1/C(3j,j)
        for k in range(done, size):
            base_n = first + stride * k
            while j < base_n and inv_binom:
                inv_binom *= _binom_step(j)
                j += 1
            if not inv_binom:
                # 1/C(3n,n) is 0.0 from n = 393 on, so every later entry
                # is 0.0 too
                grown += [0.0] * (size - k)
                break
            b = 0.0
            if weight:       # C(k, m) is 0 below k = m, and so is the entry
                b = _numerator_float(kind, base_n) * inv_binom / (3 * base_n + 1)
            # base terms are 0.0 from n = 389 on, where a weight can pass
            # the double range; the entry is 0.0 there too.  A nonzero base
            # term whose weight is past it ends the table
            try:
                grown.append(b * weight if b else 0.0)
            except OverflowError:
                break
            i = k + 1 + top
            weight = weight * i // (i - m) if i > m else int(i == m)
        if key not in _coef and len(_coef) >= _MAX_TABLES:
            del _coef[next(iter(_coef))]
        _coef[key] = grown
    if n >= len(grown):
        raise TermOverflow(
            f"family {family.value}, m = {m}: the weight of term k = {len(grown)} "
            f"is outside the double range"
        )
    return grown


def sum_series(family: SeriesFamily | str, z: float, m: int = 0,
               tol: float = 1e-13) -> float:
    """Sum one series family at real z to the requested tolerance,
    relative to the sum.

    Returns the compensated double sum.  Raises NonConvergent outside
    the family's z-range, TooManyTerms if DEFAULT_MAX_TERMS terms do not
    meet tol (A1/B1 from m = 9996 on), and
    TermOverflow if the sum needs a term whose binomial weight is
    outside the double range (A2/B2 from m = 711 on).
    """
    # the family's member, which with m keys its coefficient table
    family, spec = family_entry(family)
    z = float(z)
    check_tol(tol, 1e-15, "tol")
    check_point(family, spec, z, m)
    _, outer, shifted = spec

    cap = DEFAULT_MAX_TERMS
    if outer:
        z_pow = (1.0 / z) * (z ** -m if shifted else 1.0)
        z_step = 1.0 / z
    else:
        # the alternating sign rides on the power of z
        z_pow = z if shifted else 1.0
        z_step = -(z * z)

    total = 0.0
    comp = 0.0
    prev_mag = 0.0           # last nonzero |term|, 0 until there is one
    zero_run = 0

    coef = _coef.get((family, m), ())
    start = 0                # index of the next term
    while start < cap:
        if start >= len(coef):
            coef = _grow_coef(family, m, start)
        part = coef if not start and len(coef) <= cap else coef[start:cap]
        for k, c in enumerate(part, start):
            term = c * z_pow

            # compensated accumulation
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t

            mag = term if term >= 0.0 else -term     # abs(term), without the call
            if mag > 0.0:
                # the stop test starts past the first nonzero term and k = m
                if prev_mag > 0.0 and k > m:
                    rho = 1.1 * (mag / prev_mag)
                    if rho < 1.0:
                        tail = mag * rho / (1.0 - rho)
                        if tail <= tol * (total if total >= 0.0 else -total):
                            return total
                zero_run = 0
                prev_mag = mag
            else:
                zero_run += 1
                if zero_run >= 3 and k > m + 3:
                    # underflowed or identically zero tail
                    return total

            z_pow *= z_step
        start += len(part)

    raise TooManyTerms(
        f"family {family.value} at z = {z}, m = {m} did not meet tol = {tol} "
        f"within {cap} terms"
    )
