"""Tanh-sinh quadrature on (0, 1) and the integral representations the
series families are verified against.

The substitution x = (1 + tanh((pi/2) sinh t))/2 pushes both endpoints
out double-exponentially, so integrands with log singularities at 0 or
1 are handled by the plain trapezoid rule in t.  Nodes are stored as
(x, 1-x, weight) triples; integrands receive x and 1-x separately so
that log(1-x) never suffers cancellation near x = 1.

Level L uses step h = 2^-L on |t| <= 6, reusing all previous function
values; refinement stops when successive levels differ by less than the
tolerance.  With t capped at 6 the smallest 1-x stays above the double
underflow threshold, so every stored node is usable.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence
from .series import FAMILIES, SeriesFamily, validate

__all__ = [
    "Kernel",
    "Variant",
    "IntegrandSpec",
    "integrate",
    "tanh_sinh",
    "beta_term_integral",
    "series_via_quadrature",
    "MAX_LEVEL",
]

MAX_LEVEL = 12
_T_MAX = 6.0
_MIN_TOL = 1e-14


class Kernel(str, enum.Enum):
    LNX = "lnx"              # log x
    LNRATIO = "lnratio"      # log(x/(1-x))


class Variant(str, enum.Enum):
    THM1 = "thm1"            # numerator x^m (1-x)^{2m}, poles at the cubic roots
    THM2 = "thm2"            # numerator 1, same poles
    C1 = "c1"                # 1/(1 + z^2 x^2 (1-x)^4) weight, numerator 1
    C2 = "c2"                # same weight, numerator x(1-x)^2
    C3 = "c3"                # as C1 but lnratio kernel
    C4 = "c4"                # as C2 but lnratio kernel


_KIND_KERNEL = {"A": Kernel.LNX, "B": Kernel.LNRATIO}

# the c1..c4 variants are the integrals of the alternating families of the
# same name, so they take those families' kernels
_C_KERNEL = {Variant(f.value.lower()): _KIND_KERNEL[spec.kind]
             for f, spec in FAMILIES.items() if not spec.outer}


@dataclass(frozen=True)
class IntegrandSpec:
    """One member of the integral catalog: kernel, parameter z, order m."""

    kernel: Kernel
    z: float
    m: int = 0
    variant: Variant = Variant.THM1

    def __post_init__(self):
        object.__setattr__(self, "kernel", Kernel(self.kernel))
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "z", float(self.z))
        if not math.isfinite(self.z):
            raise DomainError(f"integrand parameter z must be finite, got {self.z!r}")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 0:
            raise DomainError(f"integrand order m must be a nonnegative integer, got {self.m!r}")
        if self.variant in _C_KERNEL:
            if self.kernel is not _C_KERNEL[self.variant]:
                raise DomainError(
                    f"variant {self.variant.value} is defined with the "
                    f"{_C_KERNEL[self.variant].value} kernel, got {self.kernel.value}"
                )
            if self.m != 0:
                raise DomainError(f"variant {self.variant.value} takes no order m")
        else:
            # the denominator x(1-x)^2 - z must not vanish on [0, 1]
            if 0.0 <= self.z <= 4.0 / 27.0:
                raise DomainError(
                    f"z = {self.z!r} puts a pole of the integrand inside [0, 1]"
                )


# per-level node cache: level -> (x, 1-x, weight) float64 arrays
_nodes_lock = threading.Lock()
_nodes: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _build_level(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h = 2.0 ** (-level)
    if level == 0:
        j = np.arange(-int(_T_MAX), int(_T_MAX) + 1, dtype=np.float64)
        t = j * 1.0
    else:
        top = int(_T_MAX * 2 ** level)
        odd = np.arange(1, top + 1, 2, dtype=np.float64)
        t = np.concatenate([-odd[::-1], odd]) * h
    u = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * u))
    xc = 1.0 / (1.0 + np.exp(2.0 * u))
    w = 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    return x, xc, w


def _level_nodes(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    with _nodes_lock:
        got = _nodes.get(level)
        if got is None:
            got = _build_level(level)
            _nodes[level] = got
        return got


def tanh_sinh(f, tol: float = 1e-12, max_level: int = MAX_LEVEL):
    """Integrate f(x, 1-x) over (0, 1).

    f must accept two equal-length float64 arrays and return an array
    of values (real or complex).  Stops once two successive refinement
    levels agree to tol relative to max(1, |integral|); raises
    NoConvergence if max_level is exhausted first.
    """
    if not (isinstance(tol, float) and math.isfinite(tol)) or tol < _MIN_TOL:
        raise DomainError(f"tol must be a float >= {_MIN_TOL}, got {tol!r}")
    if not isinstance(max_level, int) or max_level < 2 or max_level > MAX_LEVEL:
        raise DomainError(f"max_level must be an integer in [2, {MAX_LEVEL}]")

    total = None
    prev = None
    for level in range(max_level + 1):
        x, xc, w = _level_nodes(level)
        vals = np.asarray(f(x, xc))
        contrib = np.sum(w * vals)
        h = 2.0 ** (-level)
        if level == 0:
            total = contrib  # h = 1
        else:
            total = 0.5 * total + h * contrib
        if level >= 2:
            err = abs(total - prev)
            if err <= tol * max(1.0, abs(total)) and np.isfinite(err):
                return complex(total) if np.iscomplexobj(vals) else float(total)
        prev = total
    raise NoConvergence(
        f"tanh-sinh refinement did not reach tol = {tol} within level {max_level}"
    )


def _integrand(spec: IntegrandSpec):
    z, m, kernel = spec.z, spec.m, spec.kernel
    if spec.variant in (Variant.THM1, Variant.THM2):
        p = m + 1
        thm1 = spec.variant is Variant.THM1

        def f(x, xc):
            k = np.log(x) if kernel is Kernel.LNX else np.log(x) - np.log(xc)
            u = x * xc * xc
            num = x ** m * xc ** (2 * m) if (thm1 and m > 0) else 1.0
            return k * num / (u - z) ** p

        return _quiet_at_huge_z(f, z, p)

    weighted = spec.variant in (Variant.C2, Variant.C4)

    def f(x, xc):
        k = np.log(x) if kernel is Kernel.LNX else np.log(x) - np.log(xc)
        u = x * xc * xc
        w = 1.0 / (1.0 + (z * u) ** 2)
        return k * u * w if weighted else k * w

    return _quiet_at_huge_z(f, z, 2)


def _quiet_at_huge_z(f, z: float, power: int):
    # f raises a number of size at most |z| + 1 to this power (|u| <= 4/27
    # on (0, 1)), so it can overflow only past this bound.  There the inf
    # makes a term far below 1e-300 exactly 0, which is no fault to warn
    # about; every other f skips the cost of entering an errstate.
    if power * math.log(abs(z) + 1.0) > 700.0:
        return np.errstate(over="ignore")(f)
    return f


def integrate(spec: IntegrandSpec, tol: float = 1e-12) -> float:
    """Value of the catalog integral over (0, 1), as printed (no sign
    or prefactor normalization)."""
    return tanh_sinh(_integrand(spec), tol)


def beta_term_integral(k: int, tol: float = 1e-12) -> float:
    """Integral of x^k (1-x)^{2k} log x over (0, 1)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"index must be a nonnegative integer, got {k!r}")

    def f(x, xc):
        return x ** k * xc ** (2 * k) * np.log(x) if k else np.log(x)

    return tanh_sinh(f, tol)


def series_via_quadrature(family: SeriesFamily | str, z: float, m: int = 0,
                          tol: float = 1e-12) -> float:
    """The value each series family must take, computed from its
    integral representation.  Independent oracle for sum_series and for
    the closed forms."""
    family = SeriesFamily(family)
    z = float(z)
    spec = validate(family, z, m)
    kernel = _KIND_KERNEL[spec.kind]
    if spec.outer:
        variant = Variant.THM2 if spec.shifted else Variant.THM1
        raw = integrate(IntegrandSpec(kernel, z, m, variant), tol)
        return raw if m % 2 == 0 else -raw
    raw = integrate(IntegrandSpec(kernel, z, 0, Variant(family.value.lower())), tol)
    return -z * raw if spec.shifted else -raw
