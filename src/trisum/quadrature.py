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
it.  Stage 0's levels are nested (they share their nodes, after
Takahasi & Mori 1974), so its row L holds the weights times the step
2^-L on every node of levels 0..L and 0 on the rest, and gives the
whole level-L trapezoid sum T_L; the row of a later level L holds its
new nodes alone, and T_L = T_{L-1}/2 + that row's sum.  A stage is
built on its first use and kept: its nodes x and 1-x, its weights, u =
x(1-x)^2, and its rows, plain and folded with each catalog kernel: the
rows times log x, times log x - log(1-x), and times each of these
times u.  None of it depends on z, so every integral reuses it.

A catalog integrand is a kernel times a factor that carries all of its
z-dependence, so a call computes only that factor g at the nodes and
reads T_0..T_4 from one product of its kernel's folded rows with g.
The fold computes (w k) g where the written-out integrand has w (k g),
so a value can differ from tanh_sinh of the written-out integrand by
rounding: a few units of 2^-52 times h sum(w |f|), the integral of
|f| at the stop level.  The factor raises arrays to integer powers by
repeated multiplication, since numpy's power calls libm pow per
element for most integer exponents.  The factor is computed in place in
the arrays it allocates, with the same operations in the same order as
the factor written out on (x, 1-x), so it is bitwise that array.  A
callable f passed to tanh_sinh is evaluated whole, on the plain rows.

One table, built at import, holds an entry per catalog integral, keyed
by (kernel, variant), and one per series family, keyed by its name
(which its SeriesFamily member equals).  An entry holds the integrand
(its z-factor and the name of its folded rows), the errstate rule (which
np.errstate, if any, silences the warnings the integral raises without
fault at a given z and m), and, for a family, the sign rule that makes
its value from the integral: (-1)^m for A1-B2, -1 for C1/C3 and -z for
C2/C4.  integrate() and series_via_quadrature() share the code that
applies an entry, so each rule and the NoConvergence message exist
once.  A family's call resolves its name once, by series.family_entry,
checks (z, m) once, by series.check_point (its only domain check),
reads the entry of the member it resolved to, and makes one tanh_sinh
call, with (z, m) as the integrand's extra arguments, so it builds no
function of its own.

series_via_quadrature also takes a sequence of z at one (family, m), and
beta_term_integral a sequence of k; each gives every element's scalar
value bit for bit.  Each stage computes the factor of every element
still unsettled as one array with a row per element (any number of k,
and from _SHARE_MIN z on), and each row's level sums come from the same
matrix-vector product the scalar call makes; the stop rule then settles
each element on its own, and the rest go on to the next stage
together.  One stage loop, _tanh_sinh_columns, serves both, given the
function that makes the rows: a z-factor broadcasts over a column of z, and u^k takes the
powers u^(2^j) by repeated squaring and multiplies each row by those of
its k's bits in ascending order, as _ipow does, so every row is bitwise
the scalar factor (np.cumprod would round differently, and np.power
with an array exponent calls libm pow per element).  A gemm of the whole
array would sum in another order and move the last bit.  Fewer z are
integrated one at a time, as the scalar call integrates them.

numpy, the package's only runtime dependency, serves the quadrature
layer alone.  It is imported inside the functions that use it, so it
loads on the first quadrature call and not with the module: `import
trisum`, the closed-form and series layers, and the CLI commands that
use only them (`eval --method closed|series`, `constants`) never load
it.  The catalog factors run only on a stage, so they find numpy bound
by the first stage build instead of importing it on every call.
"""

from __future__ import annotations

import enum
import math
import threading
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import DomainError, NoConvergence, check_index, check_tol
from .series import FAMILIES, SeriesFamily, check_m_z, check_point, family_entry

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
    """The nodes of one or more consecutive refinement levels, and their
    level-sum rows, plain and folded with each catalog kernel.  Level i
    of the stage holds the nodes bounds[i]:bounds[i + 1].  Row i of sums
    is the weights times the step h = 2^-level of the stage's level i on
    every node up to the end of that level, and 0 past it: stage 0's
    levels are nested, so its row i gives the whole level-i trapezoid
    sum h sum(w f), and each later stage holds one level and one row,
    that level's new nodes.  kern[name] is sums times that kernel at
    each node."""

    x: np.ndarray
    xc: np.ndarray            # 1 - x
    w: np.ndarray
    u: np.ndarray             # x (1-x)^2
    bounds: np.ndarray
    sums: np.ndarray          # (levels in the stage, nodes)
    kern: dict                # kernel name -> sums times that kernel


# numpy, bound by the first _build_stage: the z-factors run only on a
# stage, so they find it bound without an import of their own
_np = None

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
    global _np
    _np = np

    last = _STAGE0_TOP if first == 0 else first
    ts = [_level_t(level) for level in range(first, last + 1)]
    t = np.concatenate(ts)
    bounds = np.cumsum([0] + [len(a) for a in ts])
    s = 0.5 * math.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * s))
    xc = 1.0 / (1.0 + np.exp(2.0 * s))
    w = 0.25 * math.pi * np.cosh(t) / np.cosh(s) ** 2
    u = x * xc * xc
    sums = np.zeros((len(ts), len(t)))
    for i, level in enumerate(range(first, last + 1)):
        hi = bounds[i + 1]
        sums[i, :hi] = w[:hi] * 2.0 ** -level
    log_x = np.log(x)
    log_ratio = log_x - np.log(xc)
    kern = {"lnx": sums * log_x, "lnratio": sums * log_ratio,
            "lnx*u": sums * (log_x * u), "lnratio*u": sums * (log_ratio * u)}
    return _Stage(x, xc, w, u, bounds, sums, kern)


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
    """An integrand that reads a stage's cached arrays: the stage's
    kernel named `kernel` times a factor g, where values(stage, args)
    returns g at the stage's nodes; tanh_sinh takes that kernel's folded
    rows for it."""

    __slots__ = ("values", "kernel")

    def __init__(self, values, kernel: str):
        self.values = values
        self.kernel = kernel


def tanh_sinh(f, tol: float = 1e-12, args: tuple = ()):
    """Integrate f(x, 1-x, *args) over (0, 1).

    f must accept two equal-length float64 arrays, then args, and return
    an array of values (real or complex).  Stops once two successive
    refinement levels agree to tol relative to max(1, |integral|); raises
    NoConvergence if level MAX_LEVEL (12) does not, naming the relative
    step between its last two level sums.  The levels of a stage
    are summed together, so a value of f that is not finite at any node
    of a stage makes every level sum in it non-finite.
    """
    check_tol(tol, _MIN_TOL, "tol")

    if isinstance(f, _OnStage):
        values, kernel = f.values, f.kernel
    else:
        import numpy as np

        def values(st, args):
            return np.asarray(f(st.x, st.xc, *args))

        kernel = None

    # stage 0: the whole trapezoid sums T_0..T_4 of levels 0-4, from one
    # evaluation and one product, then the stop tests of levels 2-4
    st = _level_nodes(0)
    rows = st.sums if kernel is None else st.kern[kernel]
    sums = rows.dot(values(st, args)).tolist()
    value = _stage0_value(sums, tol)
    if value is not None:
        return value
    # each later level's new nodes halve the step of the levels before it
    total = sums[-1]
    for level in range(_STAGE0_TOP + 1, MAX_LEVEL + 1):
        st = _level_nodes(level)
        rows = st.sums if kernel is None else st.kern[kernel]
        prev = total
        total = 0.5 * prev + rows.dot(values(st, args)).item()
        if _settles(prev, total, tol):
            return total
    raise _unsettled(tol, prev, total)


def _stage0_value(sums: list, tol: float):
    """The first of T_2, T_3, T_4 in stage 0's level sums T_0..T_4 that
    settles from the level before it, by the stop rule of _settles, or
    None; the rule is written out here, as this runs once a call."""
    _, t1, t2, t3, t4 = sums
    err = abs(t2 - t1)
    if (err <= tol or err <= tol * abs(t2)) and math.isfinite(err):
        return t2
    err = abs(t3 - t2)
    if (err <= tol or err <= tol * abs(t3)) and math.isfinite(err):
        return t3
    err = abs(t4 - t3)
    if (err <= tol or err <= tol * abs(t4)) and math.isfinite(err):
        return t4
    return None


def _settles(prev: float, total: float, tol: float) -> bool:
    """The stop rule: level sum total is within tol * max(1, |total|) of
    the one before it, prev.  It is written as err <= tol or err <= tol *
    |total|, which decides alike, and a sum that is not finite never
    settles."""
    err = abs(total - prev)
    return (err <= tol or err <= tol * abs(total)) and math.isfinite(err)


def _unsettled(tol: float, prev: float, total: float) -> NoConvergence:
    # the error when the last level sum, total, does not settle from the
    # one before it, prev.  Their relative step tells a rounding floor
    # (about 1e-14, sums that settled but wander in their last digits) from
    # sums that never settle; sums that are not finite are named instead
    err = abs(total - prev)
    if math.isfinite(err):
        how = f"differ by {err / abs(total) if total else math.inf:.2g} relative to the last"
    else:
        how = f"are {prev!r} and {total!r}"
    return NoConvergence(
        f"tanh-sinh refinement did not reach tol = {tol} within level {MAX_LEVEL}: "
        f"its last two level sums {how}"
    )


def _tanh_sinh_columns(kernel: str, factor_rows, tol: float, params: list) -> list:
    """tanh_sinh on kernel's folded rows of one integrand per parameter of
    params, bit for bit, or the NoConvergence that call raises, unraised;
    tol already checked.  factor_rows(st, ps) gives the factor of each
    parameter of ps at st's nodes, one row each: the parameters share each
    stage's factor computation, and each one's level sums come from the
    gemv its scalar call makes (see the module docstring)."""
    st = _level_nodes(0)
    rows = st.kern[kernel]
    out = [None] * len(params)
    left = []       # (index, last two level sums) of the parameters not yet settled
    for i, g in enumerate(factor_rows(st, params)):
        sums = rows.dot(g).tolist()
        value = _stage0_value(sums, tol)
        if value is None:
            left.append((i, sums[-2], sums[-1]))
        else:
            out[i] = value
    for level in range(_STAGE0_TOP + 1, MAX_LEVEL + 1):
        if not left:
            break
        st = _level_nodes(level)
        rows = st.kern[kernel]
        todo, left = left, []
        for (i, _, prev), g in zip(todo, factor_rows(st, [params[i] for i, _, _ in todo])):
            total = 0.5 * prev + rows.dot(g).item()
            if _settles(prev, total, tol):
                out[i] = total
            else:
                left.append((i, prev, total))
    for i, prev, total in left:
        out[i] = _unsettled(tol, prev, total)
    return out


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


# The z-factors, as values(stage, (z, m)).  Each computes into arrays it
# made itself, in place, and never writes to the stage's.  With r =
# 1/(u - z), the numerator x^m (1-x)^{2m} of thm1 is u^m, so its factor
# is r (u r)^m; thm2's is r^{m+1}.  These are powers of numbers of size at
# most 1/(distance of z from [0, 4/27]), which underflow quietly at huge
# |z| where powers of u - z would overflow.

def _thm1_factor(st, args):
    z, m = args
    r = st.u - z
    _np.reciprocal(r, r)     # out given positionally: numpy parses it faster
    if m:
        r *= st.u * r if m == 1 else _ipow(st.u * r, m)
    return r


def _thm2_factor(st, args):
    z, m = args
    r = st.u - z
    _np.reciprocal(r, r)
    return _ipow(r, m + 1) if m else r


def _alternating_factor(st, args):
    w = st.u * args[0]
    w *= w
    w += 1.0
    _np.reciprocal(w, w)     # 1/(1 + (z u)^2)
    return w


def _pole_distance(z: float) -> float:
    # how far z lies outside [0, 4/27], the range of x(1-x)^2 on [0, 1]
    return -z if z < 0.0 else z - 4.0 / 27.0


def _pole_errstate(z: float, m: int):
    """The errstate rule of thm1/thm2: the np.errstate that silences the
    warnings the integral at (z, m) raises without fault, or None where
    it raises none."""
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


def _alternating_errstate(z: float, m: int):
    """The errstate rule of c1-c4, as _pole_errstate's for thm1/thm2."""
    # (z u)^2 can overflow only once 2 log(|z| + 1) passes 700, as
    # |u| <= 4/27 on (0, 1); the inf then makes a term far below 1e-300
    # exactly 0.  e^350 - 1 is about 1.0e152, so the log is taken only
    # above 1e150.
    if abs(z) > 1e150 and 2.0 * math.log(abs(z) + 1.0) > 700.0:
        import numpy as np
        return np.errstate(over="ignore")
    return None


class _Entry(NamedTuple):
    """How one catalog integral, or one family's value, is computed.

    f       the catalog integrand: its z-factor, on the stage rows folded
            with its kernel (f.kernel names them)
    quiet   the errstate rule: quiet(z, m) is the np.errstate that
            silences the warnings the integral raises without fault at
            (z, m), or None
    sign    the sign rule that makes the family's value from the
            integral: "(-1)^m", "-1" or "-z"; "" for a bare integral
    """

    f: _OnStage
    quiet: Callable[[float, int], object]
    sign: str


def _table() -> dict:
    """The entry of each family, keyed by its name (which its member
    equals too), and of each bare integral, keyed by (kernel, variant):
    the eight catalog integrals are the eight families' integral
    representations, the same entry with no sign rule."""
    table = {}
    for family, spec in FAMILIES.items():
        kernel = _KIND_KERNEL[spec.kind]
        # the sign rule of the family's integral representation: (-1)^m
        # for A/B, -1 for C1/C3 and -z for C2/C4
        if spec.outer:
            variant = Variant.THM2 if spec.shifted else Variant.THM1
            factor = _thm2_factor if spec.shifted else _thm1_factor
            entry = _Entry(_OnStage(factor, kernel.value), _pole_errstate, "(-1)^m")
        else:
            variant = Variant(family.value.lower())
            # c2 and c4 weigh by u = x(1-x)^2, which rides with the kernel
            rows = kernel.value + "*u" if spec.shifted else kernel.value
            entry = _Entry(_OnStage(_alternating_factor, rows), _alternating_errstate,
                           "-z" if spec.shifted else "-1")
        table[family.value] = entry
        table[kernel, variant] = entry._replace(sign="")
    return table


_ENTRIES = _table()


def _integral(entry: _Entry, z: float, m: int, tol: float) -> float:
    # the entry's integral at (z, m), under its errstate rule and signed
    # by its sign rule; inputs already checked, as IntegrandSpec or
    # check_point checks them
    f, quiet, sign = entry
    state = quiet(z, m)
    try:
        if state is None:    # skips the cost of entering an errstate
            raw = tanh_sinh(f, tol, (z, m))
        else:
            with state:
                raw = tanh_sinh(f, tol, (z, m))
    except NoConvergence as exc:
        if quiet is not _pole_errstate:
            raise
        raise _near_pole(exc, z) from None
    return _signed(sign, raw, z, m)


def _integrals(entry: _Entry, zs: list, m: int, tol: float) -> list:
    # _integral(entry, z, m, tol) for each z of zs, bit for bit, tol
    # checked; raises the NoConvergence of the first z that has one.  The
    # errstate entered is any z's that is not None: a rule silences only
    # warnings raised without fault, and at a z whose rule is None the
    # integral raises no warning, so the group warns as its z do one at a
    # time
    f, quiet, sign = entry
    state = None
    for z in zs:
        state = quiet(z, m)
        if state is not None:
            break

    def factor_rows(st, zs):
        # the z-factor broadcast over a column of z: one row per z
        return f.values(st, (_np.array(zs)[:, None], m))

    if state is None:
        raws = _tanh_sinh_columns(f.kernel, factor_rows, tol, zs)
    else:
        with state:
            raws = _tanh_sinh_columns(f.kernel, factor_rows, tol, zs)
    for z, raw in zip(zs, raws):
        if isinstance(raw, NoConvergence):
            raise _near_pole(raw, z) if quiet is _pole_errstate else raw
    return [_signed(sign, raw, z, m) for z, raw in zip(zs, raws)]


def _near_pole(exc: NoConvergence, z: float) -> NoConvergence:
    return NoConvergence(
        f"{exc}; the integrand has a pole near [0, 1]: z = {z!r} lies "
        f"{_pole_distance(z):.3g} outside [0, 4/27], the range of x(1-x)^2 there"
    )


def _signed(sign: str, raw: float, z: float, m: int) -> float:
    # the family's value from its integral, by the entry's sign rule
    if sign == "(-1)^m":
        return raw if m % 2 == 0 else -raw
    if sign == "-1":
        return -raw
    return -z * raw if sign == "-z" else raw


def integrate(spec: IntegrandSpec, tol: float = 1e-12) -> float:
    """Value of the catalog integral over (0, 1), as printed (no sign
    or prefactor normalization)."""
    return _integral(_ENTRIES[spec.kernel, spec.variant], spec.z, spec.m, tol)


def _beta_term(st, args):
    # the factor of x^k (1-x)^{2k} log x on the lnx rows: u^k
    k = args[0]
    return _ipow(st.u, k) if k else _np.ones_like(st.u)


_BETA_TERM = _OnStage(_beta_term, Kernel.LNX.value)


def _beta_rows(st, ks: list) -> np.ndarray:
    """u^k at st's nodes for each k of ks, one row each, every row bitwise
    _beta_term's: u^(2^j) by repeated squaring, as _ipow squares, and each
    row, from 1.0, multiplied by those powers in ascending bit order of its
    k, as _ipow multiplies.  A product with 1.0 is exact, so a row takes
    the first of its powers unchanged, and k = 0 keeps the row of ones."""
    top = max(ks).bit_length()
    has = _np.array([[k >> j & 1 for k in ks] for j in range(top)], dtype=bool)
    out = _np.ones((len(ks), len(st.u)))
    power = st.u
    for j in range(top):
        if j:
            power = power * power
        _np.multiply(out, power, out, where=has[j, :, None])   # the rows whose k has bit j
    return out


def beta_term_integral(k: int | Sequence[int], tol: float = 1e-12) -> float | list[float]:
    """Integral of x^k (1-x)^{2k} log x over (0, 1).

    k is a nonnegative int, or a list or tuple of them.  For a sequence the
    result is a list whose element i is beta_term_integral(k[i], tol), bit
    for bit, and the call raises what that list comprehension raises, at
    its first failing k; so [] gives [].  The k share each stage's
    computation of u^k.
    """
    if k.__class__ is not int and isinstance(k, (list, tuple)):
        return _beta_many(k, tol)
    check_index(k, "index")
    return tanh_sinh(_BETA_TERM, tol, (k,))


def series_via_quadrature(family: SeriesFamily | str, z: float | Sequence[float],
                          m: int = 0, tol: float = 1e-12) -> float | list[float]:
    """The value each series family must take, computed from its
    integral representation.  Independent oracle for sum_series and for
    the closed forms.

    z is a real number, or a sequence of them: a list, a tuple or a 1-D
    ndarray.  For a sequence the result is a list whose element i is
    series_via_quadrature(family, z[i], m, tol), bit for bit, and the
    call raises what that list comprehension raises, at its first
    failing z; so an empty sequence gives [].  From 4 z on, the z
    share each stage's z-factor computation.
    """
    if z.__class__ is not float and (isinstance(z, (list, tuple))
                                     or getattr(z, "ndim", 0) == 1):
        return _series_many(family, z, m, tol)
    family, spec = family_entry(family)
    z = float(z)
    check_point(family, spec, z, m)
    return _integral(_ENTRIES[family], z, m, tol)


# the fewest z whose factors are computed together: below it the shared
# arrays cost more to set up than the numpy calls they save (on A1-C4 at
# 3 z the shared call took 0.88-1.14 times the scalar calls' time, at 4 z
# 0.73-0.87 times)
_SHARE_MIN = 4


def _series_many(family: SeriesFamily | str, z: Sequence[float], m: int,
                 tol: float) -> list[float]:
    # the sequence form: every z converted and checked as the scalar call
    # checks it, up to the first that fails; the integrals of the z before
    # that one, whose NoConvergence comes first; then its failure
    if not len(z):
        return []
    family, spec = family_entry(family)
    zs = []
    failure = None
    for zi in z:
        try:
            zi = float(zi)
            check_point(family, spec, zi, m)
            if not zs:       # tanh_sinh's check, after the first point's
                check_tol(tol, _MIN_TOL, "tol")
        except (TypeError, ValueError, ArithmeticError) as exc:
            # what float() and the checks raise
            failure = exc
            break
        zs.append(zi)
    entry = _ENTRIES[family]
    if len(zs) < _SHARE_MIN:
        values = [_integral(entry, zi, m, tol) for zi in zs]
    else:
        values = _integrals(entry, zs, m, tol)
    if failure is not None:
        raise failure
    return values


def _beta_many(ks: Sequence[int], tol: float) -> list[float]:
    # the sequence form of beta_term_integral, as _series_many's for z
    done = []
    failure = None
    for k in ks:
        try:
            check_index(k, "index")
            if not done:     # tanh_sinh's check, after the first k's
                check_tol(tol, _MIN_TOL, "tol")
        except DomainError as exc:
            failure = exc
            break
        done.append(k)
    values = _tanh_sinh_columns(_BETA_TERM.kernel, _beta_rows, tol, done) if done else []
    for raw in values:
        if isinstance(raw, NoConvergence):
            raise raw
    if failure is not None:
        raise failure
    return values
