"""Reference values computed apart from trisum.

Series values are mpmath direct sums of the defining series (see the
family table in the top-level README) at 40 significant digits.  The
beta-term integrals are exact rationals.  Nothing here imports trisum,
so a fault in the program cannot leak into its own reference.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import mpmath

DPS = 40
_EPS = mpmath.mpf(10) ** (-DPS - 2)


class Reference:
    """Base terms kept as 50-digit mpf values, grown on demand, and the
    family sums built from them.  One instance serves a whole run."""

    def __init__(self) -> None:
        self._ctx = mpmath.mp.clone()
        self._ctx.dps = DPS + 10
        self._harm = [self._ctx.mpf(0)]
        self._base = {"A": [], "B": []}
        self._memo = {}

    def _h(self, n: int):
        ctx = self._ctx
        while len(self._harm) <= n:
            self._harm.append(self._harm[-1] + ctx.mpf(1) / len(self._harm))
        return self._harm[n]

    def base(self, kind: str, k: int):
        """(H_{3k+1} - H_k) or (H_{2k} - H_k), over (3k+1) C(3k,k)."""
        table = self._base[kind]
        while len(table) <= k:
            j = len(table)
            top = self._h(3 * j + 1) if kind == "A" else self._h(2 * j)
            table.append((top - self._h(j)) / ((3 * j + 1) * comb(3 * j, j)))
        return table[k]

    def series_mpf(self, family: str, z: float, m: int = 0):
        """Direct sum of one family at real z."""
        ctx = self._ctx
        zz = ctx.mpf(z)
        total = ctx.mpf(0)
        small = 0
        k = 0
        while True:
            if family[0] in "AB":
                kind = family[0]
                if family[1] == "1":
                    term = self.base(kind, k) * comb(k, m) / zz ** (k + 1)
                else:
                    term = self.base(kind, k) * comb(k + m, k) / zz ** (k + m + 1)
                settled = k > 2 * m + 4
            else:
                if m != 0:
                    raise ValueError(f"family {family} takes no m")
                kind = "A" if family in ("C1", "C2") else "B"
                n = 2 * k + (1 if family in ("C2", "C4") else 0)
                term = (-1) ** k * self.base(kind, n) * zz ** n
                settled = k > 4
            total += term
            # past k = 2m the term ratio stays below 2*(4/27)/|z| < 0.3, so
            # two terms under eps*|total| bound the tail by eps*|total|
            if settled and abs(term) <= _EPS * abs(total):
                small += 1
                if small == 2:
                    return +total
            else:
                small = 0
            k += 1
            if k > 2000:
                raise ArithmeticError(f"{family} z={z} m={m}: reference sum did not settle")


    # -- lookups by check key (see workloads.checks) ----------------------

    def value(self, key: tuple) -> float:
        """The reference double for one check key, memoised."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._value(key)
        return got

    def _value(self, key: tuple) -> float:
        kind = key[0]
        if kind == "series":
            _, family, z, m, cid = key
            scale = PAPER_CONSTANTS[cid][3] if cid is not None else 1   # KeyError if unknown
            return float(self.series_mpf(family, z, m) * scale)
        if kind == "integral":
            # trisum integral prints the raw integral: (-1)^m times the series
            _, family, z, m, _ = key
            return float(self.series_mpf(family, z, m) * (-1) ** m)
        if kind == "beta":
            return float(beta_integral_exact(key[1]))
        if kind == "special":
            _, name, part = key
            v = self.special(name)
            return float(v.real if part == "real" else v.imag)
        raise KeyError(key)

    def atom(self, name: str):
        """The atoms the paper's constants are written in."""
        ctx = self._ctx
        s7 = ctx.sqrt(7)
        w = ctx.mpc(3, s7) / 8
        return {
            "pi": lambda: +ctx.pi,
            "ln2": lambda: ctx.log(2),
            "G": lambda: +ctx.catalan,
            "sqrt7": lambda: s7,
            "atan75": lambda: ctx.atan(s7 / 5),
            "re_li2_w": lambda: ctx.polylog(2, w).real,
            "im_li2_w": lambda: ctx.polylog(2, w).imag,
            "im_li2_quot": lambda: (ctx.polylog(2, 2 / ctx.mpc(3, s7)) / ctx.mpc(5, s7)).imag,
        }[name]()

    def constant(self, cid: str):
        """A paper constant evaluated from its printed expression."""
        total = self._ctx.mpf(0)
        for coeff, *atoms in PAPER_CONSTANTS[cid][4]:
            term = self._ctx.mpf(coeff.numerator) / coeff.denominator
            for a in atoms:
                term *= self.atom(a)
            total += term
        return total

    def special(self, name: str):
        ctx = self._ctx
        return {
            "Li2(1)": lambda: ctx.polylog(2, 1),
            "Li2(1/2)": lambda: ctx.polylog(2, ctx.mpf(1) / 2),
            "Li2(i)": lambda: ctx.polylog(2, ctx.mpc(0, 1)),
            "Li2(-i)": lambda: ctx.polylog(2, ctx.mpc(0, -1)),
            "Cl2(pi/2)": lambda: ctx.clsin(2, ctx.pi / 2),
            "G": lambda: +ctx.catalan,
        }[name]()


def _q(n: int, d: int = 1) -> Fraction:
    return Fraction(n, d)


# The paper's printed constants: id -> (family, z, m, scale, terms), where
# the printed value is scale times the series at (family, z, m) and each
# term is (rational coefficient, atom, atom, ...).  Transcribed from the
# paper's tables; test_reference.py proves each equal to its direct sum.
PAPER_CONSTANTS = {
    "a1-z2-m0": ("A1", 2.0, 0, 1, [
        (_q(1, 48), "pi", "pi"), (_q(-1, 10), "ln2", "ln2"), (_q(2, 5), "G")]),
    "a1-zneg4-m0-dilog": ("A1", -4.0, 0, -1, [
        (_q(1, 96), "pi", "pi"), (_q(1, 8), "re_li2_w"), (_q(5, 56), "sqrt7", "im_li2_w")]),
    "a1-zneg4-m0-quot": ("A1", -4.0, 0, -1, [
        (_q(1, 96), "pi", "pi"), (_q(-4, 7), "sqrt7", "im_li2_quot")]),
    "a1-z2-m1": ("A1", 2.0, 1, 1, [
        (_q(3, 100), "pi"), (_q(-3, 400), "pi", "pi"), (_q(3, 25), "ln2"),
        (_q(9, 250), "ln2", "ln2"), (_q(-13, 125), "G")]),
    "a1-z2-m2": ("A1", 2.0, 2, 1, [
        (_q(3, 100),), (_q(-29, 1250), "pi"), (_q(149, 30000), "pi", "pi"),
        (_q(-58, 625), "ln2"), (_q(-149, 6250), "ln2", "ln2"), (_q(243, 3125), "G")]),
    "a1-z2-m3": ("A1", 2.0, 3, 1, [
        (_q(-13, 375),), (_q(1529, 75000), "pi"), (_q(-577, 150000), "pi", "pi"),
        (_q(752, 9375), "ln2"), (_q(577, 31250), "ln2", "ln2"), (_q(-1903, 31250), "G")]),
    "a2-z2-m1": ("A2", 2.0, 1, 1, [
        (_q(3, 200), "pi"), (_q(1, 150), "pi", "pi"), (_q(3, 50), "ln2"),
        (_q(-4, 125), "ln2", "ln2"), (_q(37, 250), "G")]),
    "a2-z2-m2": ("A2", 2.0, 2, 1, [
        (_q(3, 400),), (_q(23, 2500), "pi"), (_q(27, 10000), "pi", "pi"),
        (_q(23, 625), "ln2"), (_q(-81, 6250), "ln2", "ln2"), (_q(843, 12500), "G")]),
    "a2-z2-m3": ("A2", 2.0, 3, 1, [
        (_q(83, 12000),), (_q(3059, 600000), "pi"), (_q(11, 9375), "pi", "pi"),
        (_q(1517, 75000), "ln2"), (_q(-88, 15625), "ln2", "ln2"), (_q(8137, 250000), "G")]),
    "b1-z2-m0": ("B1", 2.0, 0, 1, [
        (_q(1, 20), "pi", "ln2"), (_q(-3, 40), "ln2", "ln2"), (_q(-1, 160), "pi", "pi")]),
    "b1-zneg4-m0": ("B1", -4.0, 0, -1, [
        (_q(3, 64), "ln2", "ln2"), (_q(1, 16), "atan75", "atan75"),
        (_q(-5, 112), "sqrt7", "ln2", "atan75")]),
    "b1-z2-m1": ("B1", 2.0, 1, 1, [
        (_q(-1, 200), "pi"), (_q(9, 4000), "pi", "pi"), (_q(3, 100), "ln2"),
        (_q(27, 1000), "ln2", "ln2"), (_q(-13, 1000), "pi", "ln2")]),
    "b1-z2-m2": ("B1", 2.0, 2, 1, [
        (_q(2, 625), "pi"), (_q(-149, 100000), "pi", "pi"), (_q(-51, 5000), "ln2"),
        (_q(-447, 25000), "ln2", "ln2"), (_q(243, 25000), "pi", "ln2")]),
    "b1-zneg4-m1": ("B1", -4.0, 1, -1, [
        (_q(3, 448), "ln2"), (_q(-9, 512), "ln2", "ln2"), (_q(-3, 128), "atan75", "atan75"),
        (_q(-1, 224), "sqrt7", "atan75"), (_q(89, 6272), "ln2", "sqrt7", "atan75")]),
    "b1-zneg4-m2": ("B1", -4.0, 2, -2, [
        (_q(-219, 25088), "ln2"), (_q(93, 4096), "ln2", "ln2"),
        (_q(31, 1024), "atan75", "atan75"), (_q(1, 256), "sqrt7", "atan75"),
        (_q(-6651, 351232), "ln2", "sqrt7", "atan75")]),
    "b2-z2-m1": ("B2", 2.0, 1, 1, [
        (_q(-1, 400), "pi"), (_q(37, 2000), "pi", "ln2"), (_q(-1, 500), "pi", "pi"),
        (_q(3, 200), "ln2"), (_q(-3, 125), "ln2", "ln2")]),
    "b2-z2-m2": ("B2", 2.0, 2, 1, [
        (_q(-17, 10000), "pi"), (_q(843, 100000), "pi", "ln2"), (_q(-81, 100000), "pi", "pi"),
        (_q(249, 20000), "ln2"), (_q(-243, 25000), "ln2", "ln2")]),
}


def harmonic_exact(n: int) -> Fraction:
    return sum((Fraction(1, j) for j in range(1, n + 1)), Fraction(0))


def beta_integral_exact(k: int) -> Fraction:
    """Integral of x^k (1-x)^{2k} log x over (0, 1), exactly:
    B(k+1, 2k+1) (H_k - H_{3k+1}) with B(k+1, 2k+1) = 1/((3k+1) C(3k,k))."""
    return (harmonic_exact(k) - harmonic_exact(3 * k + 1)) / ((3 * k + 1) * comb(3 * k, k))


def rel_err(got: float, ref: float) -> float:
    """|got - ref| / |ref|; a zero reference only matches an exact zero."""
    if ref == 0.0:
        return 0.0 if got == 0.0 else float("inf")
    return abs(got - ref) / abs(ref)
