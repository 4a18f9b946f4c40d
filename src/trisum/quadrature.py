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

The nodes are held in stages.  Stage 0 holds all 193 nodes of levels
0-4, since at tol 1e-12 nearly every integral stops at level 3 or 4;
each later level is a stage of its own.  The integrand is evaluated
once per stage, and one matrix product gives the sums of every level in
it: the stage's matrix has a row per level holding that level's weights
times its step 2^-level, and 0 on the other levels' nodes (the nested
levels share their nodes this way, after Takahasi & Mori 1974).  A
stage is built on its first use and kept: its nodes x and 1-x, its
weights and level-sum matrix, and what the catalog integrands compute
from the nodes alone, the kernels log x and log x - log(1-x) and
u = x(1-x)^2.  None of it depends on z, so every integral reuses it
and only the z-dependent factor is computed per call.  That factor
raises arrays to integer powers by repeated multiplication, since
numpy's power calls libm pow per element for most integer exponents.

Each catalog integrand is made once, at import, and kept in a table by
(kernel, variant); a call passes z and m to tanh_sinh as the
integrand's extra arguments, so it builds no function of its own.  The
integrand computes into the arrays it allocates, in place, with the
same operations in the same order as the formula written out on
(x, 1-x), so its values are bitwise those of the written-out formula.

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
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError, NoConvergence
from .series import FAMILIES, SeriesFamily, check_m_z, resolve_family, validate

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
_C_VARIANT = {f: Variant(f.value.lower()) for f, spec in FAMILIES.items() if not spec.outer}
_C_KERNEL = {v: _KIND_KERNEL[FAMILIES[f].kind] for f, v in _C_VARIANT.items()}


class _IntegrandFields(NamedTuple):
    kernel: Kernel
    z: float
    m: int = 0
    variant: Variant = Variant.THM1


class IntegrandSpec(_IntegrandFields):
    """One member of the integral catalog: kernel, parameter z, order m.

    A named tuple that checks and coerces its fields when built, by
    keyword or positionally, and again on _replace and _make, so every
    instance holds a valid integrand; equality is tuple equality.
    """

    __slots__ = ()

    def __new__(cls, kernel: Kernel | str, z: float, m: int = 0,
                variant: Variant | str = Variant.THM1) -> IntegrandSpec:
        kernel = Kernel(kernel)
        variant = Variant(variant)
        z = float(z)
        check_m_z(m, z)
        if variant in _C_KERNEL:
            if kernel is not _C_KERNEL[variant]:
                raise DomainError(
                    f"variant {variant.value} is defined with the "
                    f"{_C_KERNEL[variant].value} kernel, got {kernel.value}"
                )
            if m != 0:
                raise DomainError(f"variant {variant.value} takes no order m")
        else:
            # the denominator x(1-x)^2 - z must not vanish on [0, 1]
            if 0.0 <= z <= 4.0 / 27.0:
                raise DomainError(
                    f"z = {z!r} puts a pole of the integrand inside [0, 1]"
                )
        return super().__new__(cls, kernel, z, m, variant)

    @classmethod
    def _make(cls, iterable) -> IntegrandSpec:
        # the inherited _make, which _replace calls too, builds through
        # tuple.__new__ and would skip the checks
        return cls(*super()._make(iterable))


class _Stage(NamedTuple):
    """The nodes of one or more consecutive refinement levels, and the
    arrays every catalog integrand computes from them whatever its z.
    Level i of the stage is the slice bounds[i]:bounds[i + 1].  Row i of
    sums is that level's weights times its step h = 2^-level, and 0 on
    the other levels' nodes, so sums @ f gives every level's h sum(w f)."""

    x: np.ndarray
    xc: np.ndarray            # 1 - x
    w: np.ndarray
    log_x: np.ndarray         # the lnx kernel
    log_ratio: np.ndarray     # the lnratio kernel, log x - log(1-x)
    u: np.ndarray             # x (1-x)^2
    bounds: np.ndarray
    sums: np.ndarray          # (levels in the stage, nodes)


# levels 0.._STAGE0_TOP make stage 0; every later level is its own stage
_STAGE0_TOP = 4

# per-stage cache, keyed by the stage's first level: a stage is built on
# its first use and kept; a reader that finds it there takes no lock
_nodes_lock = threading.Lock()
_nodes: dict[int, _Stage] = {}


def _level_t(level: int) -> np.ndarray:
    import numpy as np

    if level == 0:
        return np.arange(-int(_T_MAX), int(_T_MAX) + 1, dtype=np.float64)
    top = int(_T_MAX * 2 ** level)
    odd = np.arange(1, top + 1, 2, dtype=np.float64)
    return np.concatenate([-odd[::-1], odd]) * 2.0 ** (-level)


def _build_stage(first: int) -> _Stage:
    import numpy as np

    last = _STAGE0_TOP if first == 0 else first
    ts = [_level_t(level) for level in range(first, last + 1)]
    t = np.concatenate(ts)
    bounds = np.cumsum([0] + [len(a) for a in ts])
    s = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * s))
    xc = 1.0 / (1.0 + np.exp(2.0 * s))
    w = 0.25 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    log_x = np.log(x)
    sums = np.zeros((len(ts), len(t)))
    for i, level in enumerate(range(first, last + 1)):
        lo, hi = bounds[i], bounds[i + 1]
        sums[i, lo:hi] = w[lo:hi] * 2.0 ** -level
    return _Stage(x, xc, w, log_x, log_x - np.log(xc), x * xc * xc, bounds, sums)


def _level_nodes(level: int) -> _Stage:
    """The stage that holds this level."""
    first = 0 if level <= _STAGE0_TOP else level
    got = _nodes.get(first)
    if got is None:
        with _nodes_lock:
            got = _nodes.get(first)
            if got is None:
                got = _nodes[first] = _build_stage(first)
    return got


class _OnStage:
    """An integrand that reads a stage's cached arrays: values(stage,
    *args) returns its values at the stage's nodes."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = values


def tanh_sinh(f, tol: float = 1e-12, args: tuple = ()):
    """Integrate f(x, 1-x, *args) over (0, 1).

    f must accept two equal-length float64 arrays, then args, and return
    an array of values (real or complex).  Stops once two successive
    refinement levels agree to tol relative to max(1, |integral|); raises
    NoConvergence if level MAX_LEVEL (12) does not.  The levels of a stage
    are summed together, so a value of f that is not finite at any node
    of a stage makes every level sum in it non-finite.
    """
    if not (isinstance(tol, float) and math.isfinite(tol)) or tol < _MIN_TOL:
        raise DomainError(f"tol must be a float >= {_MIN_TOL}, got {tol!r}")

    if isinstance(f, _OnStage):
        values = f.values
    else:
        import numpy as np

        def values(st, *args):
            return np.asarray(f(st.x, st.xc, *args))

    isfinite = math.isfinite
    total = prev = 0.0
    level = 0
    while True:
        st = _level_nodes(level)
        # every level's h sum(w f) over its own nodes, from one evaluation
        # and one product; the new nodes of level L halve the step of the
        # levels before it (h = 1 at level 0, where total starts at 0)
        for contrib in st.sums.dot(values(st, *args)).tolist():
            total = 0.5 * total + contrib
            if level >= 2:
                err = abs(total - prev)
                if err <= tol * max(1.0, abs(total)) and isfinite(err):
                    return total
            if level == MAX_LEVEL:
                raise NoConvergence(
                    f"tanh-sinh refinement did not reach tol = {tol} within level {MAX_LEVEL}"
                )
            prev = total
            level += 1


def _ipow(a: np.ndarray, n: int) -> np.ndarray:
    """a ** n for an integer n >= 1, by repeated squaring: numpy's power
    calls libm pow per element for every integer exponent but 0, +-1
    and 2, which costs more than ten times as much."""
    result = None
    while True:
        if n & 1:
            result = a if result is None else result * a
        n >>= 1
        if not n:
            return result
        a = a * a


def _catalog_integrand(kernel: Kernel, variant: Variant) -> _OnStage:
    """The catalog integrand of this kernel and variant, as values(stage,
    z, m).  It computes into arrays it made itself, in place, and never
    writes to the stage's."""
    lnx = kernel is Kernel.LNX
    if variant in (Variant.THM1, Variant.THM2):
        # with r = 1/(u - z), the numerator x^m (1-x)^{2m} is u^m, so
        # thm1 is k r (u r)^m and thm2 is k r^{m+1}: powers of numbers of
        # size at most 1/(distance of z from [0, 4/27]), which underflow
        # quietly at huge |z| where powers of u - z would overflow
        thm1 = variant is Variant.THM1

        def f(st, z, m):
            import numpy as np
            k = st.log_x if lnx else st.log_ratio
            r = st.u - z
            np.reciprocal(r, out=r)
            if thm1 and m > 0:
                p = _ipow(st.u * r, m)
                r *= k
                r *= p
                return r
            p = _ipow(r, m + 1)     # r itself or a new array
            p *= k
            return p

        return _OnStage(f)

    weighted = variant in (Variant.C2, Variant.C4)

    def f(st, z, m):
        import numpy as np
        k = st.log_x if lnx else st.log_ratio
        u = st.u
        w = u * z
        w *= w
        w += 1.0
        np.reciprocal(w, out=w)     # 1/(1 + (z u)^2)
        if weighted:
            ku = k * u
            ku *= w
            return ku
        w *= k
        return w

    return _OnStage(f)


# (kernel, variant) -> its integrand; a c variant only with its own kernel
_INTEGRANDS = {
    (kernel, variant): _catalog_integrand(kernel, variant)
    for kernel in Kernel for variant in Variant
    if _C_KERNEL.get(variant, kernel) is kernel
}

# family -> (kernel, variant) of its integral representation
_INTEGRAL_OF = {
    f: (_KIND_KERNEL[spec.kind],
        (Variant.THM2 if spec.shifted else Variant.THM1) if spec.outer else _C_VARIANT[f])
    for f, spec in FAMILIES.items()
}


def _pole_distance(z: float) -> float:
    # how far z lies outside [0, 4/27], the range of x(1-x)^2 on [0, 1]
    return -z if z < 0.0 else z - 4.0 / 27.0


def _extreme_z_errstate(z: float, m: int, variant: Variant):
    """The np.errstate that silences the warnings an integral at this z
    raises without fault, or None where it raises none."""
    if variant in _C_KERNEL:
        # (z u)^2 can overflow only once 2 log(|z| + 1) passes 700, as
        # |u| <= 4/27 on (0, 1); the inf then makes a term far below 1e-300
        # exactly 0.  e^350 - 1 is about 1.0e152, so the log is taken only
        # above 1e150.
        if abs(z) > 1e150 and 2.0 * math.log(abs(z) + 1.0) > 700.0:
            import numpy as np
            return np.errstate(over="ignore")
        return None
    # thm1/thm2 raise r = 1/(u - z), of size at most 1/pole_distance, to the
    # power m + 1.  Once pole_distance ** (m + 1) < e^-700 (about 1e-304)
    # that power can overflow at the nodes nearest the pole, and tanh_sinh
    # refuses the inf and nan that follow.  A distance of 1 or more never
    # gets there, so the log is taken only below it.
    d = _pole_distance(z)
    if d < 1.0 and (m + 1) * -math.log(d) > 700.0:
        import numpy as np
        return np.errstate(over="ignore", divide="ignore", invalid="ignore")
    return None


def _integrate(kernel: Kernel, z: float, m: int, variant: Variant, tol: float) -> float:
    # inputs already checked, as IntegrandSpec or validate() checks them
    f = _INTEGRANDS[kernel, variant]
    quiet = _extreme_z_errstate(z, m, variant)
    try:
        if quiet is None:    # skips the cost of entering an errstate
            return tanh_sinh(f, tol, args=(z, m))
        with quiet:
            return tanh_sinh(f, tol, args=(z, m))
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


def _beta_term(st, k):
    # x^k (1-x)^{2k} log x, with x^k (1-x)^{2k} = u^k
    return _ipow(st.u, k) * st.log_x if k else st.log_x


_BETA_TERM = _OnStage(_beta_term)


def beta_term_integral(k: int, tol: float = 1e-12) -> float:
    """Integral of x^k (1-x)^{2k} log x over (0, 1)."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise DomainError(f"index must be a nonnegative integer, got {k!r}")
    return tanh_sinh(_BETA_TERM, tol, args=(k,))


def series_via_quadrature(family: SeriesFamily | str, z: float, m: int = 0,
                          tol: float = 1e-12) -> float:
    """The value each series family must take, computed from its
    integral representation.  Independent oracle for sum_series and for
    the closed forms."""
    family = resolve_family(family)
    z = float(z)
    spec = validate(family, z, m)
    kernel, variant = _INTEGRAL_OF[family]
    raw = _integrate(kernel, z, m, variant, tol)
    if spec.outer:
        return raw if m % 2 == 0 else -raw
    return -z * raw if spec.shifted else -raw
