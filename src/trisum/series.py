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
observed ratio (inflated by 10%) bounds the remainder.  The term cap is
10000 unless the TRISUM_MAX_TERMS environment variable overrides it.

The base terms depend on k alone, so sum_series reads them from one
double table per kind, shared by every call and every z.  The table
starts empty and grows, by doubling, to the longest prefix a call has
needed; a call only multiplies its entries by the binomial weight and
the power of z.
"""

from __future__ import annotations

import enum
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import DomainError, NonConvergent, TooManyTerms
from .specfun import harmonic

__all__ = [
    "SeriesFamily",
    "FamilySpec",
    "FAMILIES",
    "validate",
    "TermValue",
    "base_term",
    "sum_series",
    "DEFAULT_MAX_TERMS",
]

DEFAULT_MAX_TERMS = 10000
_ENV_MAX_TERMS = "TRISUM_MAX_TERMS"
_EXACT_TERM_LIMIT = 170  # largest k with 3k+1 inside the exact harmonic range


class SeriesFamily(str, enum.Enum):
    A1 = "A1"
    A2 = "A2"
    B1 = "B1"
    B2 = "B2"
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"
    C4 = "C4"


@dataclass(frozen=True)
class FamilySpec:
    """What defines one family, for every layer that computes it.

    kind     "A": numerator H_{3k+1} - H_k, log x kernel;
             "B": numerator H_{2k} - H_k, log(x/(1-x)) kernel, mirrored basis
    outer    True: powers of 1/z, real |z| >= 1, has a closed form;
             False: alternating powers of z, real |z| <= 1, m = 0
    shifted  outer: weight C(k+m,k)/z^{k+m+1} instead of C(k,m)/z^{k+1};
             alternating: odd index z^{2k+1} instead of even z^{2k}
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


@dataclass(frozen=True)
class TermValue:
    """One base term: double value, exact rational when in range."""

    k: int
    value: float
    exact: Fraction | None


def _numerator_float(kind: str, k: int) -> float:
    if kind == "A":
        return harmonic(3 * k + 1) - harmonic(k)
    return harmonic(2 * k) - harmonic(k)


def base_term(kind: str, k: int) -> TermValue:
    """Base term (H_{3k+1} - H_k) or (H_{2k} - H_k) over (3k+1) C(3k,k).

    kind is "A" or "B".  The float value comes from the compensated
    harmonic table, independently of the exact branch.
    """
    if kind not in ("A", "B"):
        raise DomainError(f"base term kind must be 'A' or 'B', got {kind!r}")
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"term index must be a nonnegative integer, got {k!r}")
    den = (3 * k + 1) * math.comb(3 * k, k)
    num = _numerator_float(kind, k)
    # exact big-integer division keeps the value correct even when the
    # denominator overflows a double
    value = float(Fraction(num) / den)
    exact = None
    if k <= _EXACT_TERM_LIMIT:
        if kind == "A":
            num_q = harmonic(3 * k + 1, exact=True) - harmonic(k, exact=True)
        else:
            num_q = harmonic(2 * k, exact=True) - harmonic(k, exact=True)
        exact = num_q / den
    return TermValue(k=k, value=value, exact=exact)


def _max_terms() -> int:
    raw = os.environ.get(_ENV_MAX_TERMS)
    if raw is None:
        return DEFAULT_MAX_TERMS
    try:
        cap = int(raw)
    except ValueError as exc:
        raise DomainError(f"{_ENV_MAX_TERMS} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise DomainError(f"{_ENV_MAX_TERMS} must be positive, got {cap}")
    return cap


def validate(family: SeriesFamily | str, z: float, m: int) -> FamilySpec:
    """Check one (family, z, m) input and return the family's spec.

    Every layer calls this, so all of them check in one order (m, then
    z finite, then the family's domain) and raise the same error:
    DomainError for a bad m or a non-finite z, NonConvergent for z
    outside the region where the series converges.
    """
    family = SeriesFamily(family)
    spec = FAMILIES[family]
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise DomainError(f"m must be a nonnegative integer, got {m!r}")
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z!r}")
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
    return spec


def _binom_step(k: int) -> float:
    # C(3k,k)/C(3(k+1),k+1) as an exact small-integer ratio
    return ((k + 1) * (2 * k + 1) * (2 * k + 2)) / ((3 * k + 1) * (3 * k + 2) * (3 * k + 3))


# Base-term table per kind: _base[kind][n] is the double base term of index
# n, _numerator_float(kind, n) * (1/C(3n,n)) / (3n+1), with 1/C(3n,n) carried
# by the _binom_step recurrence from n = 0.  It depends on n alone, so every
# sum_series call reads the same entries.  It starts empty and grows by
# doubling to the longest prefix a call has needed.  A published list is
# never changed: growth builds a longer one under the lock and then swaps it
# in, so a reader holds either the old list or the new one, whole.
_base_lock = threading.Lock()
_base: dict[str, list[float]] = {"A": [], "B": []}


def _grow_base(kind: str, n: int) -> list[float]:
    """The kind's base-term table, grown to cover index n."""
    with _base_lock:
        table = _base[kind]
        if n < len(table):
            return table     # another thread grew it meanwhile
        size = max(2 * len(table), n + 1)
        grown = table[:]
        inv_binom = 1.0      # 1/C(3j,j)
        for j in range(size):
            if j >= len(table):
                grown.append(_numerator_float(kind, j) * inv_binom / (3 * j + 1))
            inv_binom *= _binom_step(j)
        _base[kind] = grown
        return grown


def sum_series(family: SeriesFamily | str, z: float, m: int = 0,
               tol: float = 1e-13) -> float:
    """Sum one series family at real z to the requested tolerance.

    Returns the compensated double sum.  Raises NonConvergent outside
    the family's z-range, TooManyTerms if the cap is hit first.
    """
    family = SeriesFamily(family)
    z = float(z)
    if not (isinstance(tol, float) and math.isfinite(tol)) or tol < 1e-15:
        raise DomainError(f"tol must be a float >= 1e-15, got {tol!r}")
    spec = validate(family, z, m)

    cap = _max_terms()
    kind = spec.kind
    table = _base[kind]
    ab_layer = spec.outer
    step = 1 if ab_layer else 2   # base index advance per term

    total = 0.0
    comp = 0.0
    prev_mag = 0.0
    seen_nonzero = False
    zero_run = 0

    n = 0                    # base index
    if ab_layer:
        z_pow = (1.0 / z) * (z ** -m if spec.shifted else 1.0)
    else:
        z_pow = z if spec.shifted else 1.0
        if spec.shifted:
            n = 1
    z_step = 1.0 / z if ab_layer else z * z

    for k in range(cap):
        if n >= len(table):
            table = _grow_base(kind, n)
        base = table[n]
        if ab_layer:
            binom = math.comb(k + m, k) if spec.shifted else math.comb(k, m)
            term = base * binom * z_pow
        else:
            term = base * z_pow if k % 2 == 0 else -base * z_pow

        # compensated accumulation
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t

        mag = abs(term)
        if mag > 0.0:
            if seen_nonzero and prev_mag > 0.0:
                rho = 1.1 * (mag / prev_mag)
                if rho < 1.0 and k >= m + 1:
                    tail = mag * rho / (1.0 - rho)
                    if tail <= tol * max(1.0, abs(total)):
                        return total
            seen_nonzero = True
            zero_run = 0
            prev_mag = mag
        else:
            zero_run += 1
            if zero_run >= 3 and k > m + 3:
                # underflowed or identically zero tail
                return total

        n += step
        z_pow *= z_step

    raise TooManyTerms(
        f"family {family.value} at z = {z}, m = {m} did not meet tol = {tol} "
        f"within {cap} terms"
    )
