"""Closed-form evaluation of the series families.

Everything reduces to the basis integral

    C_r(lam) = integral over (0,1) of log x / (x - lam)^{r+1} dx,

which is a dilogarithm at r = 0 and elementary for r >= 1.  Expanding
the rational factor of each series' integral representation into
partial fractions over the roots of x(1-x)^2 = z and integrating
termwise gives the sum as a finite combination of C_r values at the
three roots; the log(x/(1-x)) kernel swaps x for 1-x in the second
half, which lands on C_r(1-lam) with an alternating sign, folded here
into C_mirror.

``coeff_a`` / ``coeff_b`` give the partial-fraction coefficients a_r of
1/(x - lam)^{r+1} in

    x^m (1-x)^{2m} / (x(1-x)^2 - z)^{m+1}        (coeff_a)
    1             / (x(1-x)^2 - z)^{m+1}         (coeff_b)

at one root lam.  The denominator is monic with the three cubic roots
as zeros, so with t = x - lam and d = lam - w for each other root w,
a_r is the order (m - r) Taylor coefficient in t of

    (lam + t)^m (lam - 1 + t)^{2m} / ((d_1 + t)(d_2 + t))^{m+1}

(the numerator factor only for coeff_a; (1-x)^{2m} = (x-1)^{2m} since
the power is even).  Every factor is a binomial (c + t)^p with closed
Taylor coefficients, so the expansion is a few truncated Cauchy
products of length m + 1.

For |z| >= 1, the domain of every closed form, the roots are one real
root and a conjugate pair.  Every step from a root to its contribution
(binomial expansion, C_r, the dilogarithm) uses only complex + - * /,
integer powers and cmath.log, which CPython evaluates symmetrically
under conjugation.  So closed_sum evaluates the pair root with negative
imaginary part and takes its partner's contribution as the conjugate:
bit for bit the value a direct evaluation gives, as
tests/test_closedform.py checks (at huge |z| a zero imaginary part can
come out with the other sign).

A1, A2, B1 and B2 at one z share their ingredients: the roots, the
basis values C_r(lam) and C_mirror at the evaluated roots, which depend
on z alone, and at each m the coefficients of coeff_a and coeff_b.  A
PoleBasis holds them for one z: the basis values as lists over r grown
to the largest m asked so far, the coefficients for the last m only.
closed_sum keeps the last one, so calls at one z in a row, whatever
their family and m, solve the cubic once and compute each C_r once.  The
parts are the same doubles each call would compute itself, summed in the
same order, so sharing changes no total.  closed_sum adds the three
contributions to 0j one at a time in root order, with complex +, so the
total does not depend on how the interpreter's sum() rounds.

The registry at the bottom holds the published closed-form constants
for specific (family, z, m) triples, stored as exact-rational
combinations of a small atom set so they can be evaluated and printed
without rounding surprises.  Each entry's ``scale`` maps the family
normal form onto the constant as printed (the printed series absorb
powers of -1 and small integer factors into their coefficients).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DomainError, UnknownConstant, check_index
from .roots import CubicRoots, solve_cubic
from .series import SeriesFamily, check_point, family_entry, from_integral
from .specfun import catalan, dilog

__all__ = [
    "C_of",
    "C_mirror",
    "coeff_a",
    "coeff_b",
    "ClosedFormBreakdown",
    "PoleBasis",
    "closed_sum",
    "ConstantEntry",
    "REGISTRY",
    "reference_constant",
]

def _check_lam(lam: complex) -> complex:
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise DomainError(f"pole location must be finite, got {lam!r}")
    if lam.imag == 0.0 and 0.0 <= lam.real <= 1.0:
        raise DomainError(
            f"the basis integral diverges for a pole at {lam.real!r} inside [0, 1]"
        )
    return lam


def C_of(r: int, lam: complex) -> complex:
    """Closed form of the basis integral with a pole of order r+1 at lam."""
    check_index(r, "pole order")
    lam = _check_lam(lam)
    if r == 0:
        return dilog(1.0 / lam)
    sign = -1.0 if r % 2 else 1.0
    lam1 = lam - 1.0
    acc = 0j
    try:
        # each lam ** k is taken twice, at p = k and at p = r - k: keeping
        # them in a list measured slower at r = 2-4, the suites' range, than
        # taking a small power again
        for p in range(1, r):
            acc += (1.0 / (p * lam ** (r - p))) * (1.0 / lam1 ** p - 1.0 / lam ** p)
        log_ratio = cmath.log(lam1 / lam)
        return (sign / r) * acc - (sign / (r * lam ** r)) * log_ratio
    except ZeroDivisionError:
        # a power of lam or lam - 1 underflowed to 0 where it divides
        raise DomainError(
            f"C_r(lam) at r = {r}, lam = {lam!r} underflows: it divides by a "
            f"power of lam or lam - 1 that is 0 in double precision"
        ) from None


def C_mirror(r: int, lam: complex) -> complex:
    """C_r(lam) + (-1)^r C_r(1-lam): the basis combination produced by
    the log(x/(1-x)) kernel."""
    lam = complex(lam)
    return _mirror(r, lam, C_of(r, lam))


def _mirror(r: int, lam: complex, direct: complex) -> complex:
    # C_mirror(r, lam) from direct = C_r(lam), with C_of looked up in this
    # module's globals at call time
    swap = C_of(r, 1.0 - lam)
    return direct + (swap if r % 2 == 0 else -swap)


def _binomial(c: complex, p: int, n: int) -> list[complex]:
    # Taylor coefficients of (c + t)^p in t up to t^n, for any integer p:
    # C(p, j) c^{p-j}, each from the last by the factor (p-j+1)/(j c)
    out = [c ** p]
    for j in range(1, n + 1):
        out.append(out[-1] * ((p - j + 1) / j) / c)
    return out


def _mul(a: list[complex], b: list[complex]) -> list[complex]:
    # truncated Cauchy product of two equal-length coefficient lists
    n = len(a)
    out = []
    for k in range(n):
        acc = 0j
        for i in range(k + 1):
            acc += a[i] * b[k - i]
        out.append(acc)
    return out


def _check_order(m: int, which: int) -> None:
    check_index(m, "coefficient order m")
    if not isinstance(which, int) or isinstance(which, bool) or which not in (1, 2, 3):
        raise DomainError(f"root selector must be 1, 2, or 3, got {which!r}")


@lru_cache(maxsize=3)
def _denominator(m: int, roots: CubicRoots, which: int) -> tuple[complex, list[complex]]:
    # the selected root lam and the Taylor coefficients about it, to order
    # m, of 1/((x - w_1)(x - w_2))^{m+1} over the other two roots.
    # coeff_a and coeff_b at one (z, m, root) share this expansion: a
    # PoleBasis asks for both at each of its roots in turn.  Callers only
    # read the list.  CubicRoots compare by value, and solve_cubic's are
    # equal only when their z is, so a hit is the expansion of these roots
    lam = roots.roots[which - 1]
    w1, w2 = roots.roots[:which - 1] + roots.roots[which:]
    return lam, _mul(_binomial(lam - w1, -(m + 1), m), _binomial(lam - w2, -(m + 1), m))


def coeff_a(m: int, roots: CubicRoots, which: int) -> list[complex]:
    """Partial-fraction coefficients [a_0 .. a_m] at the selected root for
    the numerator x^m (1-x)^{2m}."""
    _check_order(m, which)
    lam = roots.roots[which - 1]
    # the numerator's binomials come first: each is O(m), and where their
    # lam ** m or (lam - 1) ** 2m overflows with an exponent above 100 it
    # raises OverflowError before the denominator's O(m^2) Cauchy product
    # runs
    num_x = _binomial(lam, m, m)
    num_xc = _binomial(lam - 1.0, 2 * m, m)
    den = _denominator(m, roots, which)[1]
    # a_r multiplies 1/(x - lam)^{r+1}; it is the order (m-r) coefficient
    return _mul(_mul(num_x, num_xc), den)[::-1]


def coeff_b(m: int, roots: CubicRoots, which: int) -> list[complex]:
    """Same as coeff_a but with numerator 1."""
    _check_order(m, which)
    return _denominator(m, roots, which)[1][::-1]


class PoleBasis:
    """What every A/B closed form at one z is built from.

    roots is solve_cubic(z).  What closed_sum needs of z alone is settled
    here, once:

    - plan, the roots it evaluates, as (which, lam) pairs with
      lam.imag <= 0: the real root and the pair root with negative
      imaginary part.  sources[i] says where the contribution of
      roots.roots[i] comes from: (j, False) for plan[j]'s own, (j, True)
      for the conjugate of plan[j]'s, its pair partner's.
    - safe_m = 350 / max |ln|c|| over c = lam and lam - 1 at the roots of
      plan.  Every power closed_sum's refusal tests take has modulus
      |lam|^k or |lam - 1|^k with |k| <= max(2m, 1), so for m <= safe_m
      each lies in [e^-700, e^700]: none overflows, and none is 0, since a
      modulus above the subnormals keeps a nonzero component.  On
      closed_sum's domain, 1 <= |z| <= 1.3e154, safe_m is at least 2.9,
      so m = 0, whose (lam - 1) ** -1 has |k| = 1, is covered too.

    values(name, which, m) is a list over r for the root lam =
    roots.roots[which - 1], at least m + 1 long: "C" the values C_r(lam)
    and "mirror" the values C_mirror(r, lam).  These do not depend on m,
    so each list grows to the largest m asked and serves every smaller
    one.  coeffs(name, which, m) is the list of coeff_a ("a") or coeff_b
    ("b") at that root and m; only the last m's lists are kept, and only
    finite ones: a list whose build raises OverflowError, or with an
    entry that is not finite, is refused with OverflowError, and an empty
    list marks it, so a refused list is remembered for its m and a repeat
    raises at once.  Everything is built through this module's globals
    solve_cubic, coeff_a, coeff_b and C_of, and a list is stored only once
    whole, so threads that race on a list build equal ones.
    """

    __slots__ = ("roots", "plan", "sources", "safe_m", "_values", "_coeffs")

    def __init__(self, z: float):
        self.roots = solve_cubic(z)
        roots = self.roots.roots
        self.plan = tuple((which, lam) for which, lam in enumerate(roots, start=1)
                          if lam.imag <= 0.0)
        # the roots sort a pair partner lam.conjugate() before lam
        evaluated = [lam for _, lam in self.plan]
        self.sources = tuple((evaluated.index(lam.conjugate()), True) if lam.imag > 0.0
                             else (evaluated.index(lam), False) for lam in roots)
        self.safe_m = 350.0 / max(abs(math.log(abs(c))) for lam in evaluated
                                  for c in (lam, lam - 1.0))
        self._values: dict[tuple[str, int], list[complex]] = {}
        # (m, {(name, which): list}), replaced whole when m changes; each
        # call works on the pair it read, so a call at another m that runs
        # in between cannot put its lists under this call's m
        self._coeffs: tuple[int, dict[tuple[str, int], list[complex]]] = (-1, {})

    def coeffs(self, name: str, which: int, m: int) -> list[complex]:
        held = self._coeffs
        if held[0] != m:
            held = self._coeffs = (m, {})
        got = held[1].get((name, which))
        if got is None:
            try:
                got = (coeff_a if name == "a" else coeff_b)(m, self.roots, which)
            except OverflowError:
                got = []
            if not all(map(cmath.isfinite, got)):
                # complex * and / give inf or nan where a coefficient
                # leaves the double range, instead of raising
                got = []
            # a refused list is kept as [], its marker for this m
            held[1][name, which] = got
        if not got:
            raise OverflowError(f"coeff_{name} at m = {m} leaves the double range")
        return got

    def values(self, name: str, which: int, m: int) -> list[complex]:
        have = self._values.get((name, which), [])
        if len(have) > m:
            return have
        lam = self.roots.roots[which - 1]
        got = have.copy()
        if name == "C":
            for r in range(len(got), m + 1):
                got.append(C_of(r, lam))
        else:
            # C_mirror's sum, from the kept C_r(lam)
            direct = self.values("C", which, m)
            for r in range(len(got), m + 1):
                got.append(_mirror(r, lam, direct[r]))
        self._values[name, which] = got
        return got


@lru_cache(maxsize=1)
def _pole_basis(z: float) -> PoleBasis:
    # one entry: the closed forms at one z share it when called in a row
    return PoleBasis(z)


class ClosedFormBreakdown(NamedTuple):
    """Closed-form value of one series with its per-root contributions.

    contributions[i] is the (complex) inner sum at roots.roots[i].  The
    conjugate root pair contributes exactly conjugate values, so their
    grand sum, 0j + c0 + c1 + c2 in root order, is real up to rounding.
    total is series.from_integral of its real part, the family's sign
    rule, (-1)^m times it; imag_residual is the |imaginary part|
    discarded.  A named tuple: _asdict() and _replace() give a dict and
    a changed copy, and equality is tuple equality.
    """

    family: SeriesFamily
    z: float
    m: int
    total: float
    roots: CubicRoots
    contributions: tuple[complex, complex, complex]
    imag_residual: float


def _divides_by_zero(c: complex, m: int) -> bool:
    # whether C_of(r, c) divides by a power that is 0 at some r <= m, from
    # the largest powers it divides by, c ** m and (c - 1) ** (m - 1); one
    # that overflows raises OverflowError as it does in C_of.  With an
    # exponent above 100 complex ** raises where pow(|c|, n) overflows and
    # is 0 exactly where pow(|c|, n) is (a nonzero subnormal modulus rounds
    # to a nonzero component); up to 100 it multiplies, and for |z| >= 1 no
    # root or root - 1 is below 0.4656 in modulus, so nothing underflows
    # there.  pow(|c|, n) is monotone in n, so these powers fail wherever a
    # smaller one would.  closed_sum calls this only above PoleBasis.safe_m,
    # below which none of these powers can fail
    return c ** m == 0 or (c - 1.0) ** (m - 1) == 0


def _refusal(family: SeriesFamily, z: float, m: int) -> DomainError:
    # closed_sum's one error, built only when it refuses
    return DomainError(
        f"closed form of family {family.value} at z = {z!r}, m = {m} leaves the double range"
    )


def closed_sum(family: SeriesFamily | str, z: float, m: int = 0) -> ClosedFormBreakdown:
    """Evaluate one family in powers of 1/z by its closed form.

    Raises DomainError "closed form of family F at z = ..., m = ...
    leaves the double range" where a power of a root overflows, or
    underflows to 0 where C_r divides by it, or a coefficient or the sum
    is not finite; it never returns nan.
    """
    family, spec = family_entry(family)
    if not spec.outer:
        raise DomainError(
            f"family {family.value} has no closed form; its value is defined "
            f"by series and quadrature only"
        )
    z = float(z)
    check_point(family, spec, z, m)

    basis = _pole_basis(z)
    coeff = "b" if spec.shifted else "a"
    values = "mirror" if spec.kind == "B" else "C"

    inner = []
    try:
        if m > basis.safe_m:
            # one O(1) refusal test per root of the plan, before any
            # coefficient or basis value (a pair partner's powers are their
            # conjugates, and below safe_m no test can fire):
            # (lam - 1) ** 2m, the largest power in coeff_a, raises
            # OverflowError where it overflows, and _divides_by_zero tests
            # lam ** m, coeff_a's other largest power, with the powers C_of
            # divides by at lam and, for B, at 1 - lam.  The denominator's
            # powers in _binomial cannot fail: for |z| >= 1 the roots are
            # at least 1.4897 apart, so each |lam - w| ** -(m + 1) is at
            # most 1
            for _, lam in basis.plan:
                if not spec.shifted:
                    (lam - 1.0) ** (2 * m)
                if _divides_by_zero(lam, m) or (
                        spec.kind == "B" and _divides_by_zero(1.0 - lam, m)):
                    raise _refusal(family, z, m)
        for which, _ in basis.plan:
            acc = 0j
            # coeffs holds r = 0..m, and is asked for before any basis value
            for a_r, c_r in zip(basis.coeffs(coeff, which, m), basis.values(values, which, m)):
                acc += a_r * c_r
            inner.append(acc)
    except OverflowError:
        # from a power above, or a coefficient list PoleBasis.coeffs refuses
        raise _refusal(family, z, m) from None

    # each root's contribution from the plan's: its own or its pair
    # partner's conjugate.  grand adds them to 0j in root order (so a -0.0
    # component of the first becomes 0.0)
    (j0, conj0), (j1, conj1), (j2, conj2) = basis.sources
    c0 = inner[j0].conjugate() if conj0 else inner[j0]
    c1 = inner[j1].conjugate() if conj1 else inner[j1]
    c2 = inner[j2].conjugate() if conj2 else inner[j2]
    contribs = (c0, c1, c2)
    grand = 0j + c0 + c1 + c2
    if not cmath.isfinite(grand):
        # a basis value or the sum left the double range, where complex
        # * and / give inf or nan instead of raising; complex + works on
        # each component, so the sum is finite only when every
        # contribution is
        raise _refusal(family, z, m)
    # the named tuple from its fields' tuple, without its __new__'s argument handling
    return tuple.__new__(ClosedFormBreakdown, (
        family, z, m, from_integral(spec, grand.real, z, m), basis.roots, contribs,
        abs(grand.imag)))


# -- reference constants ----------------------------------------------------

_SQRT7 = math.sqrt(7.0)


# name -> (display text, value thunk); the thunks read this module's
# globals when called
_ATOMS = {
    "pi": ("pi", lambda: math.pi),
    "ln2": ("ln2", lambda: math.log(2.0)),
    "G": ("G", lambda: catalan()),
    "sqrt7": ("sqrt7", lambda: _SQRT7),
    "atan75": ("atan(sqrt7/5)", lambda: math.atan(_SQRT7 / 5.0)),
    "re_li2_w": ("Re Li2((3+i*sqrt7)/8)", lambda: dilog(complex(3.0, _SQRT7) / 8.0).real),
    "im_li2_w": ("Im Li2((3+i*sqrt7)/8)", lambda: dilog(complex(3.0, _SQRT7) / 8.0).imag),
    "im_li2_quot": ("Im[Li2(2/(3+i*sqrt7))/(5+i*sqrt7)]",
                    lambda: (dilog(2.0 / complex(3.0, _SQRT7)) / complex(5.0, _SQRT7)).imag),
}


@lru_cache(maxsize=None)
def _atom(name: str) -> float:
    if name not in _ATOMS:
        raise UnknownConstant(f"unknown atom {name!r}")
    return _ATOMS[name][1]()


class ConstantEntry(NamedTuple):
    """One published closed-form constant and the series it evaluates."""

    id: str
    family: SeriesFamily
    z: float
    m: int
    scale: Fraction  # printed value = scale * closed_sum(family, z, m).total
    terms: tuple[tuple[Fraction, tuple[str, ...]], ...]

    def value(self) -> float:
        parts = []
        for coeff, names in self.terms:
            prod = float(coeff)
            for n in names:
                prod *= _atom(n)
            parts.append(prod)
        return math.fsum(parts)

    def expression(self) -> str:
        chunks = []
        for coeff, names in self.terms:
            mag = abs(coeff)
            body = "*".join(_ATOMS[n][0] for n in names)
            if mag.denominator == 1:
                lead = f"{mag.numerator}" if (mag != 1 or not body) else ""
            else:
                lead = f"({mag.numerator}/{mag.denominator})"
            piece = f"{lead}*{body}" if (lead and body) else (lead or body)
            chunks.append(("- " if coeff < 0 else ("+ " if chunks else "")) + piece)
        return " ".join(chunks)


def _F(n: int, d: int = 1) -> Fraction:
    return Fraction(n, d)


def _entries() -> tuple[ConstantEntry, ...]:
    E = []

    def add(cid, family, z, m, scale, *terms):
        E.append(ConstantEntry(
            id=cid, family=SeriesFamily(family), z=float(z), m=m,
            scale=Fraction(scale),
            terms=tuple((coeff, tuple(names)) for coeff, *names in terms),
        ))

    add("a1-z2-m0", "A1", 2, 0, 1,
        (_F(1, 48), "pi", "pi"), (_F(-1, 10), "ln2", "ln2"), (_F(2, 5), "G"))
    add("a1-zneg4-m0-dilog", "A1", -4, 0, -1,
        (_F(1, 96), "pi", "pi"), (_F(1, 8), "re_li2_w"),
        (_F(5, 56), "sqrt7", "im_li2_w"))
    add("a1-zneg4-m0-quot", "A1", -4, 0, -1,
        (_F(1, 96), "pi", "pi"), (_F(-4, 7), "sqrt7", "im_li2_quot"))
    add("a1-z2-m1", "A1", 2, 1, 1,
        (_F(3, 100), "pi"), (_F(-3, 400), "pi", "pi"), (_F(3, 25), "ln2"),
        (_F(9, 250), "ln2", "ln2"), (_F(-13, 125), "G"))
    add("a1-z2-m2", "A1", 2, 2, 1,
        (_F(3, 100),), (_F(-29, 1250), "pi"), (_F(149, 30000), "pi", "pi"),
        (_F(-58, 625), "ln2"), (_F(-149, 6250), "ln2", "ln2"), (_F(243, 3125), "G"))
    add("a1-z2-m3", "A1", 2, 3, 1,
        (_F(-13, 375),), (_F(1529, 75000), "pi"), (_F(-577, 150000), "pi", "pi"),
        (_F(752, 9375), "ln2"), (_F(577, 31250), "ln2", "ln2"), (_F(-1903, 31250), "G"))
    add("a2-z2-m1", "A2", 2, 1, 1,
        (_F(3, 200), "pi"), (_F(1, 150), "pi", "pi"), (_F(3, 50), "ln2"),
        (_F(-4, 125), "ln2", "ln2"), (_F(37, 250), "G"))
    add("a2-z2-m2", "A2", 2, 2, 1,
        (_F(3, 400),), (_F(23, 2500), "pi"), (_F(27, 10000), "pi", "pi"),
        (_F(23, 625), "ln2"), (_F(-81, 6250), "ln2", "ln2"), (_F(843, 12500), "G"))
    add("a2-z2-m3", "A2", 2, 3, 1,
        (_F(83, 12000),), (_F(3059, 600000), "pi"), (_F(11, 9375), "pi", "pi"),
        (_F(1517, 75000), "ln2"), (_F(-88, 15625), "ln2", "ln2"), (_F(8137, 250000), "G"))
    add("b1-z2-m0", "B1", 2, 0, 1,
        (_F(1, 20), "pi", "ln2"), (_F(-3, 40), "ln2", "ln2"), (_F(-1, 160), "pi", "pi"))
    add("b1-zneg4-m0", "B1", -4, 0, -1,
        (_F(3, 64), "ln2", "ln2"), (_F(1, 16), "atan75", "atan75"),
        (_F(-5, 112), "sqrt7", "ln2", "atan75"))
    add("b1-z2-m1", "B1", 2, 1, 1,
        (_F(-1, 200), "pi"), (_F(9, 4000), "pi", "pi"), (_F(3, 100), "ln2"),
        (_F(27, 1000), "ln2", "ln2"), (_F(-13, 1000), "pi", "ln2"))
    add("b1-z2-m2", "B1", 2, 2, 1,
        (_F(2, 625), "pi"), (_F(-149, 100000), "pi", "pi"), (_F(-51, 5000), "ln2"),
        (_F(-447, 25000), "ln2", "ln2"), (_F(243, 25000), "pi", "ln2"))
    add("b1-zneg4-m1", "B1", -4, 1, -1,
        (_F(3, 448), "ln2"), (_F(-9, 512), "ln2", "ln2"),
        (_F(-3, 128), "atan75", "atan75"), (_F(-1, 224), "sqrt7", "atan75"),
        (_F(89, 6272), "ln2", "sqrt7", "atan75"))
    add("b1-zneg4-m2", "B1", -4, 2, -2,
        (_F(-219, 25088), "ln2"), (_F(93, 4096), "ln2", "ln2"),
        (_F(31, 1024), "atan75", "atan75"), (_F(1, 256), "sqrt7", "atan75"),
        (_F(-6651, 351232), "ln2", "sqrt7", "atan75"))
    add("b2-z2-m1", "B2", 2, 1, 1,
        (_F(-1, 400), "pi"), (_F(37, 2000), "pi", "ln2"), (_F(-1, 500), "pi", "pi"),
        (_F(3, 200), "ln2"), (_F(-3, 125), "ln2", "ln2"))
    add("b2-z2-m2", "B2", 2, 2, 1,
        (_F(-17, 10000), "pi"), (_F(843, 100000), "pi", "ln2"),
        (_F(-81, 100000), "pi", "pi"), (_F(249, 20000), "ln2"),
        (_F(-243, 25000), "ln2", "ln2"))
    return tuple(E)


REGISTRY: dict[str, ConstantEntry] = {e.id: e for e in _entries()}


def reference_constant(cid: str) -> float:
    """Double value of one registry constant by id."""
    entry = REGISTRY.get(cid)
    if entry is None:
        raise UnknownConstant(
            f"no reference constant {cid!r}; known ids: {', '.join(REGISTRY)}"
        )
    return entry.value()
