"""Tanh-sinh quadrature on (0, 1) and the integral representations the
series families are verified against.

The substitution x = (1 + tanh((pi/2) sinh t))/2 pushes both endpoints
out double-exponentially, so integrands with log singularities at 0 or
1 are handled by the plain trapezoid rule in t.  Integrands receive x
and 1-x separately so that log(1-x) never suffers cancellation near
x = 1.

Level L uses step h = 2^-L on |t| <= 6, reusing all previous function
values; refinement stops when successive levels differ by less than the
tolerance.  With t capped at 6 the smallest 1-x stays above the double
underflow threshold, so every stored node is usable.

Each level is computed once, on its first use, and kept: its nodes x and
1-x, its weights, and what the catalog integrands compute from the
nodes alone, the kernels log x and log x - log(1-x) and u = x(1-x)^2.
None of it depends on z, so every integral reuses it and only the
z-dependent factor is computed per call.

numpy, the package's only runtime dependency, serves the quadrature
layer alone.  It is imported inside the functions that use it, so it
loads on the first quadrature call and not with the module: `import
trisum`, the closed-form and series layers, and the CLI commands that
use only them (`eval --method closed|series`, `constants`) never load
it.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, NoConvergence
from .series import FAMILIES, SeriesFamily, validate

if TYPE_CHECKING:
    import numpy as np

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


class _Level(NamedTuple):
    """One refinement level: its nodes and weights, and the arrays every
    catalog integrand computes from them whatever its z."""

    x: np.ndarray
    xc: np.ndarray            # 1 - x
    w: np.ndarray
    log_x: np.ndarray         # the lnx kernel
    log_ratio: np.ndarray     # the lnratio kernel, log x - log(1-x)
    u: np.ndarray             # x (1-x)^2


# per-level cache: a level is built on its first use and kept; a reader
# that finds it there takes no lock
_nodes_lock = threading.Lock()
_nodes: dict[int, _Level] = {}


def _build_level(level: int) -> _Level:
    import numpy as np

    h = 2.0 ** (-level)
    if level == 0:
        j = np.arange(-int(_T_MAX), int(_T_MAX) + 1, dtype=np.float64)
        t = j * 1.0
    else:
        top = int(_T_MAX * 2 ** level)
        odd = np.arange(1, top + 1, 2, dtype=np.float64)
        t = np.concatenate([-odd[::-1], odd]) * h
    s = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * s))
    xc = 1.0 / (1.0 + np.exp(2.0 * s))
    w = 0.25 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    log_x = np.log(x)
    return _Level(x, xc, w, log_x, log_x - np.log(xc), x * xc * xc)


def _level_nodes(level: int) -> _Level:
    got = _nodes.get(level)
    if got is None:
        with _nodes_lock:
            got = _nodes.get(level)
            if got is None:
                got = _nodes[level] = _build_level(level)
    return got


class _OnLevel:
    """An integrand that reads a level's cached arrays: values(level)
    returns its values at the level's nodes."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values


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
    import numpy as np

    if isinstance(f, _OnLevel):
        values = f.values
    else:
        def values(lv):
            return np.asarray(f(lv.x, lv.xc))

    total = prev = 0.0
    for level in range(max_level + 1):
        lv = _level_nodes(level)
        contrib = np.add.reduce(lv.w * values(lv)).item()
        h = 2.0 ** (-level)
        if level == 0:
            total = contrib  # h = 1
        else:
            total = 0.5 * total + h * contrib
        if level >= 2:
            err = abs(total - prev)
            if err <= tol * max(1.0, abs(total)) and math.isfinite(err):
                return total
        prev = total
    raise NoConvergence(
        f"tanh-sinh refinement did not reach tol = {tol} within level {max_level}"
    )


def _integrand(kernel: Kernel, z: float, m: int, variant: Variant) -> _OnLevel:
    lnx = kernel is Kernel.LNX
    if variant in (Variant.THM1, Variant.THM2):
        p = m + 1
        if variant is Variant.THM1 and m > 0:
            def f(lv):
                k = lv.log_x if lnx else lv.log_ratio
                num = lv.x ** m * lv.xc ** (2 * m)
                return k * num / (lv.u - z) ** p
        else:
            def f(lv):
                k = lv.log_x if lnx else lv.log_ratio
                return k / (lv.u - z) ** p

        return _OnLevel(f)

    weighted = variant in (Variant.C2, Variant.C4)

    def f(lv):
        k = lv.log_x if lnx else lv.log_ratio
        u = lv.u
        w = 1.0 / (1.0 + (z * u) ** 2)
        return k * u * w if weighted else k * w

    return _OnLevel(f)


def _pole_distance(z: float) -> float:
    # how far z lies outside [0, 4/27], the range of x(1-x)^2 on [0, 1]
    return -z if z < 0.0 else z - 4.0 / 27.0


def _extreme_z_errstate(z: float, m: int, variant: Variant):
    """The np.errstate that silences the warnings an integral at this z
    raises without fault, or None where it raises none."""
    if variant in _C_KERNEL:
        power, pole_distance = 2, None
    else:
        power, pole_distance = m + 1, _pole_distance(z)
    # The integrand raises a number of size at most |z| + 1 to this power
    # (|u| <= 4/27 on (0, 1)), so it can overflow only past this bound.
    # There the inf makes a term far below 1e-300 exactly 0.
    if power * math.log(abs(z) + 1.0) > 700.0:
        import numpy as np
        return np.errstate(over="ignore")
    # Once pole_distance ** power < e^-700 (about 1e-304) the power can
    # underflow to 0 at the nodes nearest the pole, and tanh_sinh refuses
    # the inf and nan that follow.
    if pole_distance is not None and power * -math.log(pole_distance) > 700.0:
        import numpy as np
        return np.errstate(over="ignore", divide="ignore", invalid="ignore")
    return None


def _integrate(kernel: Kernel, z: float, m: int, variant: Variant, tol: float) -> float:
    # inputs already checked, as IntegrandSpec or validate() checks them
    f = _integrand(kernel, z, m, variant)
    quiet = _extreme_z_errstate(z, m, variant)
    try:
        if quiet is None:    # skips the cost of entering an errstate
            return tanh_sinh(f, tol)
        with quiet:
            return tanh_sinh(f, tol)
    except NoConvergence as exc:
        if variant in _C_KERNEL:
            raise
        raise NoConvergence(
            f"{exc}; the integrand has a pole near [0, 1]: z = {z!r} lies "
            f"{_pole_distance(z):.3g} outside [0, 4/27], the range of x(1-x)^2 there"
        ) from None


def integrate(spec: IntegrandSpec, tol: float = 1e-12) -> float:
    """Value of the catalog integral over (0, 1), as printed (no sign
    or prefactor normalization)."""
    return _integrate(spec.kernel, spec.z, spec.m, spec.variant, tol)


def beta_term_integral(k: int, tol: float = 1e-12) -> float:
    """Integral of x^k (1-x)^{2k} log x over (0, 1)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"index must be a nonnegative integer, got {k!r}")

    def f(lv):
        return lv.x ** k * lv.xc ** (2 * k) * lv.log_x if k else lv.log_x

    return tanh_sinh(_OnLevel(f), tol)


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
        raw = _integrate(kernel, z, m, variant, tol)
        return raw if m % 2 == 0 else -raw
    raw = _integrate(kernel, z, 0, Variant(family.value.lower()), tol)
    return -z * raw if spec.shifted else -raw
