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
callable f passed to tanh_sinh is evaluated whole, on the plain rows,
and must give one value per node.

Every integral goes through one driver, _integrals, and its stage loop,
_tanh_sinh_columns: a scalar call is the one-parameter case of the
sequence form.  The driver reads an entry of one table, built at
import.  The table holds one entry per catalog integral, keyed by
(kernel, variant) and by the name of the series family whose integral
representation it is (which its SeriesFamily member equals), one for
beta_term_integral and one for a plain callable.  An entry holds the
integrand: its factor at one parameter (z, k, or the callable itself),
its shared-rows function if it has one, and the name of the rows the
factor multiplies.  It also holds the errstate rule (which np.errstate,
if any, silences the warnings the integral raises without fault at a
given z and m).  So the stop rule, the errstate rule and the
NoConvergence message each exist once.  The driver computes bare
integrals.  A family's call resolves its name once, by
series.family_entry, checks (z, m) once, by series.check_point (its
only domain check), hands the entry of the member it resolved to, z and
m to the driver, and makes the family's value from the integral by
series.from_integral, the sign rule closed_sum applies too: (-1)^m for
A1-B2, -1 for C1/C3 and -z for C2/C4.

series_via_quadrature also takes a sequence of z at one (family, m), and
beta_term_integral a sequence of k; each gives every element's scalar
value bit for bit.  The elements go through the stages together, so a
group visits each stage once.  From _SHARE_MIN unsettled elements in a
stage on, the stage computes their factors as one array with a row per
element, by the entry's shared-rows function; fewer take the factor one
element at a time.  Each row's level sums come from the same
matrix-vector product the scalar call makes; the stop rule then settles
each element on its own, and the rest go on to the next stage
together.  A z-factor broadcasts over a column of z, and u^k takes the
powers u^(2^j) by repeated squaring and multiplies each row by those of
its k's bits in ascending order, as _ipow does, so every row is bitwise
the scalar factor (np.cumprod would round differently, and np.power
with an array exponent calls libm pow per element).  A gemm of the whole
array would sum in another order and move the last bit.

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
from .series import FAMILIES, SeriesFamily, check_m_z, check_point, family_entry, from_integral

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
            if _pole_distance(z) <= 0.0:
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


def tanh_sinh(f, tol: float = 1e-12, args: tuple = ()):
    """Integrate f(x, 1-x, *args) over (0, 1).

    f must accept two equal-length float64 arrays, then args, and return
    an array of values (real or complex) of their shape, one per node;
    any other shape raises DomainError.  Stops once two successive
    refinement levels agree to tol relative to max(1, |integral|); raises
    NoConvergence if level MAX_LEVEL (12) does not, naming the relative
    step between its last two level sums.  The levels of a stage
    are summed together, so a value of f that is not finite at any node
    of a stage makes every level sum in it non-finite.
    """
    return _integrals(_ENTRIES["callable"], [f], args, tol)[0]


def _settles(prev: float, total: float, tol: float) -> bool:
    """The stop rule: level sum total is within tol * max(1, |total|) of
    the one before it, prev.  It is written as err <= tol or err <= tol *
    |total|, which decides alike, and a sum that is not finite never
    settles; an err <= tol, with tol finite, is finite too."""
    err = abs(total - prev)
    return err <= tol or err <= tol * abs(total) and math.isfinite(err)


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


def _tanh_sinh_columns(entry: _Entry, params: list, extra, tol: float) -> list:
    """The stage loop: the entry's bare integral at each parameter of
    params, with extra; tol already checked.  The parameters go through
    the stages together, each one's level sums from a gemv of the entry's
    rows with its factor, and each settles on its own by the stop rule.
    From _SHARE_MIN parameters in a stage on, an entry with a shared-rows
    function computes their factors as one array (see the module
    docstring).  Raises the NoConvergence of the first parameter that
    does not settle, after the others have."""
    factor, shared, kernel, quiet = entry
    # stage 0: the whole trapezoid sums T_0..T_4 of levels 0-4, from one
    # evaluation and one product each, then the stop tests of levels 2-4
    st = _level_nodes(0)
    rows = st.sums if kernel is None else st.kern[kernel]
    gs = shared(st, params, extra) if shared and len(params) >= _SHARE_MIN else None
    out = []
    left = []       # (index, last two level sums) of the parameters not yet settled
    for p in params:
        _, t1, t2, t3, t4 = rows.dot(factor(st, p, extra) if gs is None else gs[len(out)]).tolist()
        if _settles(t1, t2, tol):
            out.append(t2)
        elif _settles(t2, t3, tol):
            out.append(t3)
        elif _settles(t3, t4, tol):
            out.append(t4)
        else:
            left.append((len(out), t3, t4))
            out.append(None)
    if not left:
        return out
    # each later level's new nodes halve the step of the levels before it
    for level in range(_STAGE0_TOP + 1, MAX_LEVEL + 1):
        st = _level_nodes(level)
        rows = st.sums if kernel is None else st.kern[kernel]
        todo, left = left, []
        ps = [params[i] for i, _, _ in todo]
        gs = shared(st, ps, extra) if shared and len(ps) >= _SHARE_MIN else None
        for j, (i, _, prev) in enumerate(todo):
            total = 0.5 * prev + rows.dot(factor(st, ps[j], extra) if gs is None else gs[j]).item()
            if not _settles(prev, total, tol):
                left.append((i, prev, total))
            else:
                out[i] = total
        if not left:
            return out
    i, prev, total = left[0]
    exc = _unsettled(tol, prev, total)
    raise _near_pole(exc, params[i]) if quiet is _pole_errstate else exc


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


# The z-factors, as factor(stage, z, m).  Each computes into arrays it
# made itself, in place, and never writes to the stage's; z may also be
# a column of z, over which the factor broadcasts, a row per z.  With r =
# 1/(u - z), the numerator x^m (1-x)^{2m} of thm1 is u^m, so its factor
# is r (u r)^m; thm2's is r^{m+1}.  These are powers of numbers of size at
# most 1/(distance of z from [0, 4/27]), which underflow quietly at huge
# |z| where powers of u - z would overflow.

def _thm1_factor(st, z, m):
    r = st.u - z
    _np.reciprocal(r, r)     # out given positionally: numpy parses it faster
    if m:
        r *= st.u * r if m == 1 else _ipow(st.u * r, m)
    return r


def _thm2_factor(st, z, m):
    r = st.u - z
    _np.reciprocal(r, r)
    return _ipow(r, m + 1) if m else r


def _alternating_factor(st, z, m):
    w = st.u * z
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
    # that power can overflow at the nodes nearest the pole, and the stop rule
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
    """How one integral is computed: every call of the driver,
    _integrals, reads one.

    factor  the integrand's factor at one parameter p, with extra:
            factor(stage, p, extra) is its array at the stage's nodes
    shared  the shared-rows function, or None: shared(stage, ps, extra)
            is the factor of each parameter of ps, one row each, each row
            bitwise factor's
    kernel  the name of the stage's folded rows the factor multiplies, or
            None for the plain rows
    quiet   the errstate rule, or None for none: quiet(p, extra) is the
            np.errstate that silences the warnings the integral raises
            without fault at p, or None
    """

    factor: Callable
    shared: Callable | None
    kernel: str | None
    quiet: Callable[[float, int], object] | None


def _z_rows(factor):
    # a z-factor's shared-rows function: the factor broadcast over a
    # column of z, one row per z
    return lambda st, zs, m: factor(st, _np.array(zs)[:, None], m)


def _beta_term(st, k, _):
    # the factor of x^k (1-x)^{2k} log x on the lnx rows: u^k
    return _ipow(st.u, k) if k else _np.ones_like(st.u)


def _bit_masks(ks: list) -> np.ndarray:
    # has[j, i]: whether ks[i] has bit j, for j below max(ks).bit_length(),
    # from each k's little-endian bytes, so exact at any size of k
    top = max(ks).bit_length()
    width = (top + 7) // 8
    raw = _np.frombuffer(b"".join([k.to_bytes(width, "little") for k in ks]), _np.uint8)
    bits = _np.unpackbits(raw.reshape(len(ks), width), axis=1, count=top, bitorder="little")
    return bits.view(bool).T


def _beta_rows(st, ks: list, _) -> np.ndarray:
    """u^k at st's nodes for each k of ks, one row each, every row bitwise
    _beta_term's: u^(2^j) by repeated squaring, as _ipow squares, and each
    row, from 1.0, multiplied by those powers in ascending bit order of its
    k, as _ipow multiplies.  A product with 1.0 is exact, so a row takes
    the first of its powers unchanged, and k = 0 keeps the row of ones."""
    has = _bit_masks(ks)
    out = _np.ones((len(ks), len(st.u)))
    power = st.u
    for j in range(len(has)):
        if j:
            power = power * power
        _np.multiply(out, power, out, where=has[j, :, None])   # the rows whose k has bit j
    return out


def _callable_values(st, f, args):
    # a plain callable's values at st's nodes, one per node
    values = _np.asarray(f(st.x, st.xc, *args))
    if values.shape != st.x.shape:
        raise DomainError(
            f"the integrand must return one value per node, an array of shape "
            f"{st.x.shape} here, got shape {values.shape}"
        )
    return values


def _table() -> dict:
    """The entry of each catalog integral, keyed by (kernel, variant) and
    by the name of the family whose integral representation it is (which
    its member equals too): the eight catalog integrals are the eight
    families' representations, each one object under both keys.  "beta"
    keys the entry of beta_term_integral, with k as its parameter, and
    "callable" that of a plain callable f, with f as its parameter and
    its extra arguments as extra."""
    table = {"beta": _Entry(_beta_term, _beta_rows, Kernel.LNX.value, None),
             "callable": _Entry(_callable_values, None, None, None)}
    for family, spec in FAMILIES.items():
        kernel = _KIND_KERNEL[spec.kind]
        if spec.outer:
            variant = Variant.THM2 if spec.shifted else Variant.THM1
            factor = _thm2_factor if spec.shifted else _thm1_factor
            entry = _Entry(factor, _z_rows(factor), kernel.value, _pole_errstate)
        else:
            variant = Variant(family.value.lower())
            # c2 and c4 weigh by u = x(1-x)^2, which rides with the kernel
            rows = kernel.value + "*u" if spec.shifted else kernel.value
            entry = _Entry(_alternating_factor, _z_rows(_alternating_factor), rows,
                           _alternating_errstate)
        table[family.value] = table[kernel, variant] = entry
    return table


_ENTRIES = _table()

# the fewest parameters in a stage whose factors are computed together,
# by the entry's shared-rows function: below it the shared arrays cost
# about as much to set up as the numpy calls they save.  On A1-C4 a group
# of 2-3 z took 0.80-1.03 times as long with shared rows as with the
# factor per z, and 4 z 0.71-0.76 times; u^k rows pay back later, 1.0-1.35
# times at 4-8 k and 0.57-0.62 at 16 and 31 k (in-process timings on a
# 2-core x86-64 host)
_SHARE_MIN = 4


def _integrals(entry: _Entry, params: list, extra, tol: float) -> list:
    """The driver: the entry's bare integral at each parameter of params,
    with extra, under its errstate rule, each bit for bit what the call
    with that parameter alone gives.  The parameters are checked already,
    tol here.  The errstate entered is any parameter's that is not None:
    a rule silences only warnings raised without fault, and at a
    parameter whose rule is None the integral raises no warning, so a
    group warns as its parameters do one at a time."""
    check_tol(tol, _MIN_TOL, "tol")
    quiet = entry.quiet
    if quiet is not None:
        for p in params:
            state = quiet(p, extra)
            if state is not None:
                with state:
                    return _tanh_sinh_columns(entry, params, extra, tol)
    # no errstate: skips the cost of entering one
    return _tanh_sinh_columns(entry, params, extra, tol)


def _near_pole(exc: NoConvergence, z: float) -> NoConvergence:
    return NoConvergence(
        f"{exc}; the integrand has a pole near [0, 1]: z = {z!r} lies "
        f"{_pole_distance(z):.3g} outside [0, 4/27], the range of x(1-x)^2 there"
    )


def integrate(spec: IntegrandSpec, tol: float = 1e-12) -> float:
    """Value of the catalog integral over (0, 1), as printed (no sign
    or prefactor normalization)."""
    return _integrals(_ENTRIES[spec.kernel, spec.variant], [spec.z], spec.m, tol)[0]


def beta_term_integral(k: int | Sequence[int], tol: float = 1e-12) -> float | list[float]:
    """Integral of x^k (1-x)^{2k} log x over (0, 1).

    k is a nonnegative int, or a list or tuple of them.  For a sequence the
    result is a list whose element i is beta_term_integral(k[i], tol), bit
    for bit, and the call raises what that list comprehension raises, at
    its first failing k; so [] gives [].  From 4 k on, the k share each
    stage's computation of u^k.
    """
    if k.__class__ is not int and isinstance(k, (list, tuple)):
        return _many(_ENTRIES["beta"], k, _checked_index, None, tol)[1]
    check_index(k, "index")
    return _integrals(_ENTRIES["beta"], [k], None, tol)[0]


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
        if not len(z):
            return []
        family, spec = family_entry(family)

        def checked(zi):
            # zi converted and checked as the scalar call checks it
            zi = float(zi)
            check_point(family, spec, zi, m)
            return zi

        zs, raws = _many(_ENTRIES[family], z, checked, m, tol)
        return [from_integral(spec, raw, zi, m) for zi, raw in zip(zs, raws)]
    family, spec = family_entry(family)
    z = float(z)
    check_point(family, spec, z, m)
    return from_integral(spec, _integrals(_ENTRIES[family], [z], m, tol)[0], z, m)


def _checked_index(k):
    check_index(k, "index")
    return k


def _many(entry: _Entry, items: Sequence, checked, extra, tol: float) -> tuple[list, list]:
    # the sequence form: checked(item) gives each item's parameter, checked
    # as the scalar call checks it, up to the first item that fails; then
    # come the integrals of the items before that one, whose tol check and
    # NoConvergence come first, then its failure.  Returns the parameters
    # and their integrals
    params = []
    failure = None
    for item in items:
        try:
            params.append(checked(item))
        except (TypeError, ValueError, ArithmeticError) as exc:
            # what float() and the checks raise
            failure = exc
            break
    values = _integrals(entry, params, extra, tol) if params else []
    if failure is not None:
        raise failure
    return params, values
