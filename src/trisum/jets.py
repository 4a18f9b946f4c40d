"""Partial-fraction coefficients at one root of the resolvent cubic.

``coeff_a`` / ``coeff_b`` give the coefficients a_r of 1/(x - lam)^{r+1}
in the partial-fraction expansions of

    x^m (1-x)^{2m} / (x(1-x)^2 - z)^{m+1}        (coeff_a)
    1             / (x(1-x)^2 - z)^{m+1}         (coeff_b)

at the root lam.  The denominator is monic with the three cubic roots
as zeros, so with t = x - lam and d = lam - w for each other root w,
a_r is the order (m - r) Taylor coefficient in t of

    (lam + t)^m (lam - 1 + t)^{2m} / ((d_1 + t)(d_2 + t))^{m+1}

(the numerator factor only for coeff_a; (1-x)^{2m} = (x-1)^{2m} since
the power is even).  Every factor is a binomial (c + t)^p with closed
Taylor coefficients, so the expansion is a few truncated Cauchy
products of length m + 1.
"""

from __future__ import annotations

from .errors import DomainError
from .roots import CubicRoots

__all__ = ["coeff_a", "coeff_b"]


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


def _pole_expansion(m: int, roots: CubicRoots, which: int) -> tuple[complex, list[complex]]:
    """The selected root lam and the Taylor coefficients about it, to
    order m, of 1/((x - w_1)(x - w_2))^{m+1} over the other two roots."""
    if not isinstance(m, int) or m < 0:
        raise DomainError(f"coefficient order m must be a nonnegative integer, got {m!r}")
    if which not in (1, 2, 3):
        raise DomainError(f"root selector must be 1, 2, or 3, got {which!r}")
    lam = roots.roots[which - 1]
    w1, w2 = (r for i, r in enumerate(roots.roots) if i != which - 1)
    return lam, _mul(_binomial(lam - w1, -(m + 1), m), _binomial(lam - w2, -(m + 1), m))


def coeff_a(m: int, z: float, roots: CubicRoots, which: int) -> list[complex]:
    """Partial-fraction coefficients [a_0 .. a_m] at the selected root for
    the numerator x^m (1-x)^{2m}."""
    lam, den = _pole_expansion(m, roots, which)
    num = _mul(_binomial(lam, m, m), _binomial(lam - 1.0, 2 * m, m))
    # a_r multiplies 1/(x - lam)^{r+1}; it is the order (m-r) coefficient
    return _mul(num, den)[::-1]


def coeff_b(m: int, z: float, roots: CubicRoots, which: int) -> list[complex]:
    """Same as coeff_a but with numerator 1."""
    return _pole_expansion(m, roots, which)[1][::-1]
