"""Roots of the resolvent cubic x*(1-x)^2 = z.

Written as the monic polynomial x^3 - 2x^2 + x - z, solved in closed
form through the depressed cubic with one Newton step of polish.  The
discriminant is z*(4 - 27z), so z = 0 and z = 4/27 are the two
degenerate parameters; anything within the guard band of them is
rejected as RepeatedRoots rather than returning ill-separated roots.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, RepeatedRoots

__all__ = ["CubicRoots", "solve_cubic", "DISCRIMINANT_GUARD"]

DISCRIMINANT_GUARD = 1e-10


class CubicRoots(NamedTuple):
    """The three roots of x^3 - 2x^2 + x - z for one parameter z.

    roots are sorted by descending real part, ties by ascending
    imaginary part, and the tuple is exactly closed under conjugation.
    A named tuple, so equality is tuple equality.
    """

    z: float
    roots: tuple[complex, complex, complex]
    discriminant: float


def _poly(x: complex, z: float) -> complex:
    return ((x - 2.0) * x + 1.0) * x - z


def _dpoly(x: complex) -> complex:
    return (3.0 * x - 4.0) * x + 1.0


def _polish(x: complex, z: float) -> complex:
    d = _dpoly(x)
    if abs(d) < 1e-8:
        return x
    return x - _poly(x, z) / d


def solve_cubic(z: float) -> CubicRoots:
    """Solve x^3 - 2x^2 + x = z for one finite real z.

    Raises RepeatedRoots when |z*(4-27z)| < DISCRIMINANT_GUARD, the band
    around the two parameters with a double root, and DomainError where
    |z| is too large for the formula's intermediates, above about 1.3e154.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"cubic parameter must be finite, got {z!r}")
    disc = z * (4.0 - 27.0 * z)
    if abs(disc) < DISCRIMINANT_GUARD:
        raise RepeatedRoots(
            f"discriminant {disc:.3e} inside guard band {DISCRIMINANT_GUARD:.0e} "
            f"at z = {z!r}"
        )

    # depressed form t^3 + p t + q with x = t + 2/3
    p = -1.0 / 3.0
    q = 2.0 / 27.0 - z

    if disc > 0.0:
        # three distinct real roots, trigonometric branch
        arg = -13.5 * q  # = 3q/(2p) * sqrt(-3/p)
        arg = max(-1.0, min(1.0, arg))
        phi = math.acos(arg)
        xs = []
        for k in range(3):
            t = (2.0 / 3.0) * math.cos((phi - 2.0 * math.pi * k) / 3.0)
            x = _polish(complex(t + 2.0 / 3.0, 0.0), z)
            xs.append(complex(x.real, 0.0))
    else:
        # one real root and a conjugate pair, Cardano branch
        s = math.sqrt(q * q / 4.0 - 1.0 / 729.0)
        if s == math.inf:
            # q * q passes the double range once |z| is above about 1.3e154;
            # Cardano's formula would go on to roots of nan
            raise DomainError(
                f"the roots of the cubic x(1-x)^2 = z overflow in double "
                f"precision at z = {z!r}"
            )
        if q <= 0.0:
            u = math.cbrt(-q / 2.0 + s)
            v = 1.0 / (9.0 * u)  # uv = -p/3
        else:
            v = math.cbrt(-q / 2.0 - s)
            u = 1.0 / (9.0 * v)
        t_real = u + v
        x_real = _polish(complex(t_real + 2.0 / 3.0, 0.0), z)
        x_real = complex(x_real.real, 0.0)
        upper = complex(-t_real / 2.0 + 2.0 / 3.0, (math.sqrt(3.0) / 2.0) * (u - v))
        upper = _polish(upper, z)
        xs = [x_real, upper, upper.conjugate()]

    xs.sort(key=lambda r: (-r.real, r.imag))
    return CubicRoots(z=z, roots=(xs[0], xs[1], xs[2]), discriminant=disc)
