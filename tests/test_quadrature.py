import hashlib
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from trisum.errors import DomainError, NoConvergence, NonConvergent
from trisum.quadrature import (
    MAX_LEVEL,
    IntegrandSpec,
    Kernel,
    Variant,
    beta_term_integral,
    integrate,
    series_via_quadrature,
    tanh_sinh,
)
from trisum.quadrature import (
    _ENTRIES, _ipow, _level_nodes, _pole_distance,
)
from trisum.series import SeriesFamily, sum_series

A1_Z2_M0_REF = 0.52395769463509576811


def _visits(monkeypatch, compute):
    """The stages the quadrature visits while compute() runs, and its value."""
    import trisum.quadrature as quadrature
    seen = []
    nodes = quadrature._level_nodes

    def counting(level):
        seen.append(level)
        return nodes(level)

    monkeypatch.setattr(quadrature, "_level_nodes", counting)
    got = compute()
    monkeypatch.setattr(quadrature, "_level_nodes", nodes)
    return seen, got


class TestTanhSinh:
    @pytest.mark.parametrize("f,want", [
        (lambda x, xc: np.log(x), -1.0),
        (lambda x, xc: np.log(xc), -1.0),
        (lambda x, xc: 1.0 / np.sqrt(x), 2.0),
        (lambda x, xc: np.log(x) / np.sqrt(x), -4.0),
        (lambda x, xc: x ** 3, 0.25),
        (lambda x, xc: 1.0 / (1.0 + x * x), math.pi / 4),
        (lambda x, xc: 1.0 / np.sqrt(x * xc), math.pi),
        (lambda x, xc: np.log(x) * np.log(xc), 2.0 - math.pi ** 2 / 6),
        (lambda x, xc: np.log(x) ** 2, 2.0),
    ])
    def test_known_integrals(self, f, want):
        got = tanh_sinh(f, tol=1e-13)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_extra_args(self):
        # f(x, 1-x, *args): int_0^1 x^3 (1-x) dx = 1/20
        got = tanh_sinh(lambda x, xc, p, q: x ** p * xc ** q, tol=1e-13, args=(3, 1))
        assert abs(got - 0.05) <= 1e-13

    def test_complex_integrand(self):
        # int_0^1 log x/(x - i) dx = Li2(-i)
        got = tanh_sinh(lambda x, xc: np.log(x) / (x - 1j), tol=1e-13)
        assert isinstance(got, complex)
        want = complex(-math.pi ** 2 / 48, -0.91596559417721901505)
        assert abs(got - want) <= 1e-13

    @pytest.mark.parametrize("f,shape", [
        (lambda x, xc: 1.0, "()"),
        (lambda x, xc: np.ones(3), "(3,)"),
        (lambda x, xc: np.ones(len(x) + 1), "(194,)"),
        (lambda x, xc: np.ones((len(x), 1)), "(193, 1)"),
    ], ids=["scalar", "short", "long", "column"])
    def test_wrong_shape_raises_domain_error(self, f, shape):
        # a callable must return one value per node; any other shape is a
        # DomainError that names the shape it must have, not numpy's error
        with pytest.raises(DomainError) as info:
            tanh_sinh(f)
        assert str(info.value) == (
            "the integrand must return one value per node, an array of shape (193,) "
            f"here, got shape {shape}")

    def test_right_shape_complex_integrand_as_a_list(self):
        # one complex value per node, given as a list or an array, gives the
        # same value, here past stage 0
        def f(x, xc):
            return 1.0 / (x - (0.5 + 0.1j))
        got = tanh_sinh(lambda x, xc: list(f(x, xc)))
        assert isinstance(got, complex)
        assert got == tanh_sinh(f)

    def test_no_convergence(self):
        # an interior kink defeats the trapezoid refinement at this tol
        with pytest.raises(NoConvergence, match=f"within level {MAX_LEVEL}"):
            tanh_sinh(lambda x, xc: np.abs(x - 1.0 / 3.0), tol=1e-14)

    @pytest.mark.parametrize("tol,stages", [
        (1e-4, [0]), (1e-12, [0]), (1e-14, [0]),
    ])
    def test_stops_inside_first_stage(self, monkeypatch, tol, stages):
        # levels 0-4 share one evaluation; at these tols this integral
        # stops at level 2, 3 and 4 of it
        assert self._stages_visited(
            monkeypatch, lambda x, xc: np.log(x) * np.log(xc), tol,
            2.0 - math.pi ** 2 / 6) == stages

    @pytest.mark.parametrize("tol,stages", [
        (1e-4, [0, 5]), (1e-12, [0, 5, 6, 7]), (1e-14, [0, 5, 6, 7]),
    ])
    def test_runs_past_first_stage(self, monkeypatch, tol, stages):
        # a peak of width 0.1 at x = 1/2 needs levels 5-7
        want = 20.0 * math.atan(5.0)
        assert self._stages_visited(
            monkeypatch, lambda x, xc: 1.0 / (0.01 + (x - 0.5) ** 2), tol,
            want) == stages

    def test_complex_integrand_past_first_stage(self, monkeypatch):
        # int_0^1 dx/(x - c) = log(1 - c) - log(-c); the path keeps Im < 0
        c = 0.5 + 0.1j
        want = complex(np.log(1 - c) - np.log(-c))
        assert self._stages_visited(
            monkeypatch, lambda x, xc: 1.0 / (x - c), 1e-12, want) == [0, 5, 6, 7]

    @staticmethod
    def _stages_visited(monkeypatch, f, tol, want):
        seen, got = _visits(monkeypatch, lambda: tanh_sinh(f, tol=tol))
        assert abs(got - want) <= tol * max(1.0, abs(want))
        return seen

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            tanh_sinh(lambda x, xc: x, tol=1e-15)

    def test_node_complement_consistency(self):
        for level in (0, 1, 4, 5, 12):
            nodes = _level_nodes(level)
            x, xc, w = nodes.x, nodes.xc, nodes.w
            assert np.all(x > 0) and np.all(xc > 0)
            assert np.max(np.abs(x + xc - 1.0)) <= 1e-15
            assert np.all(w > 0)


    def test_first_stage_holds_levels_0_to_4(self):
        first = _level_nodes(0)
        assert first.bounds.tolist() == [0, 13, 25, 49, 97, 193]
        assert all(_level_nodes(level) is first for level in range(1, 5))
        assert _level_nodes(5).bounds.tolist() == [0, 192]

    @pytest.mark.parametrize("first", [0, 6])
    def test_stage_sums_rows(self, first):
        # row i holds 2^-L w, L = first + i, on every node up to the end of
        # level L's slice and 0 past it: cumulative over stage 0's nested
        # levels, and the one level's new nodes in a later stage
        st = _level_nodes(first)
        bounds = st.bounds.tolist()
        assert st.sums.shape == (len(bounds) - 1, len(st.x))
        for i, hi in enumerate(bounds[1:]):
            want = np.zeros(len(st.x))
            want[:hi] = st.w[:hi] * 2.0 ** -(first + i)
            assert st.sums[i].tolist() == want.tolist()

    @pytest.mark.parametrize("first", [0, 5, 6])
    def test_folded_rows(self, first):
        # each catalog kernel's block is the plain rows times that kernel,
        # written out from the stage's own x and 1-x
        st = _level_nodes(first)
        assert sorted(st.kern) == ["lnratio", "lnratio*u", "lnx", "lnx*u"]
        for name, rows in st.kern.items():
            k = _kernel(name)(st.x, st.xc)
            assert rows.tobytes() == (st.sums * k).tobytes(), name

    @pytest.mark.parametrize("f", [
        lambda x, xc: np.log(x) * np.log(xc),
        lambda x, xc: np.log(x) / (x - 1j),
    ], ids=["real", "complex"])
    def test_rows_give_whole_level_sums(self, f):
        # stage 0's row L is the level-L trapezoid sum T_L over every node
        # of levels <= L; a later stage's row r gives T_L = T_{L-1}/2 + r
        st = _level_nodes(0)
        got = st.sums.dot(np.asarray(f(st.x, st.xc)))
        for level in range(5):
            want, l1 = _trapezoid(f, level)
            assert abs(got[level] - want) <= 4 * 2.0 ** -52 * l1, level
        total = got[4]
        for level in (5, 6, 7):
            st = _level_nodes(level)
            total = 0.5 * total + st.sums.dot(np.asarray(f(st.x, st.xc))).item()
            want, l1 = _trapezoid(f, level)
            assert abs(total - want) <= 4 * 2.0 ** -52 * l1, level


class TestIntegrandSpec:
    def test_pole_inside_interval_rejected(self):
        for z in (0.0, 0.05, 4.0 / 27.0):
            with pytest.raises(DomainError):
                IntegrandSpec(Kernel.LNX, z, 0, Variant.THM1)

    def test_outside_pole_band_accepted(self):
        IntegrandSpec(Kernel.LNX, -0.5, 0, Variant.THM1)
        IntegrandSpec(Kernel.LNX, 0.2, 0, Variant.THM1)

    def test_kernel_mismatch_rejected(self):
        with pytest.raises(DomainError):
            IntegrandSpec(Kernel.LNRATIO, 0.5, 0, Variant.C1)
        with pytest.raises(DomainError):
            IntegrandSpec(Kernel.LNX, 0.5, 0, Variant.C3)

    def test_alternating_variants_take_no_order(self):
        with pytest.raises(DomainError):
            IntegrandSpec(Kernel.LNX, 0.5, 1, Variant.C2)

    def test_string_coercion(self):
        spec = IntegrandSpec("lnx", 2.0, 0, "thm1")
        assert spec.kernel is Kernel.LNX
        assert spec.variant is Variant.THM1

    def test_coercion_with_defaults(self):
        spec = IntegrandSpec("lnx", 2, 1)
        assert spec.kernel is Kernel.LNX and spec.variant is Variant.THM1
        assert type(spec.z) is float and spec.z == 2.0 and spec.m == 1
        assert IntegrandSpec(z=2, kernel="lnx", m=1) == spec

    @pytest.mark.parametrize("build, message", [
        (lambda: IntegrandSpec("lnx", 0.5, 0, "c3"),
         "variant c3 is defined with the lnratio kernel, got lnx"),
        (lambda: IntegrandSpec("lnx", 0.1, 1),
         "z = 0.1 puts a pole of the integrand inside [0, 1]"),
        (lambda: IntegrandSpec("lnx", 2, 1)._replace(z=0.1),
         "z = 0.1 puts a pole of the integrand inside [0, 1]"),
        (lambda: IntegrandSpec("lnx", 2, 1)._replace(m=-1),
         "m must be a nonnegative integer, got -1"),
        (lambda: IntegrandSpec("lnx", 0.5, 0, "c1")._replace(m=2),
         "variant c1 takes no order m"),
        (lambda: IntegrandSpec._make(("lnx", 0.1, 1, "thm2")),
         "z = 0.1 puts a pole of the integrand inside [0, 1]"),
    ], ids=["pair", "pole", "replace-z", "replace-m", "replace-c-order", "make"])
    def test_every_build_is_checked(self, build, message):
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == message

    def test_replace_and_make_coerce(self):
        spec = IntegrandSpec("lnx", 2, 1)._replace(kernel="lnratio", z=-4)
        assert spec == (Kernel.LNRATIO, -4.0, 1, Variant.THM1)
        assert spec.kernel is Kernel.LNRATIO and type(spec.z) is float
        assert IntegrandSpec._make(["lnratio", -4, 1, "thm1"]) == spec
        with pytest.raises(TypeError):
            IntegrandSpec._make(["lnx", 2.0])


class TestCatalogIntegrals:
    def test_reference_kernel_integral(self):
        # int_0^1 log x/((x-2)(x^2+1)) dx, the m = 0 member at z = 2
        got = integrate(IntegrandSpec(Kernel.LNX, 2.0, 0, Variant.THM1), tol=1e-13)
        assert got == pytest.approx(A1_Z2_M0_REF, abs=1e-13)

    @pytest.mark.parametrize("family,z,m", [
        ("A1", 2.0, 0), ("A1", 2.0, 3), ("A1", -4.0, 1), ("A2", 3.0, 2),
        ("B1", 2.0, 0), ("B1", -8.0, 2), ("B2", -2.0, 1), ("B2", 5.0, 4),
    ])
    def test_matches_series_ab(self, family, z, m):
        got = series_via_quadrature(family, z, m, tol=1e-12)
        want = sum_series(family, z, m, tol=1e-13)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    @pytest.mark.parametrize("family", ["C1", "C2", "C3", "C4"])
    @pytest.mark.parametrize("z", [0.25, 0.5, 0.9, 1.0, -0.5])
    def test_matches_series_alternating(self, family, z):
        got = series_via_quadrature(family, z, tol=1e-12)
        want = sum_series(family, z, tol=1e-13)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    @pytest.mark.parametrize("variant,z,m", [
        ("thm1", 1e300, 1), ("thm2", -1e300, 1), ("thm1", 1e10, 40),
        ("c1", 1e300, 0), ("c2", -1e200, 0),
    ])
    def test_overflow_at_huge_z_is_silent(self, variant, z, m):
        # the integrand overflows to inf at some nodes, which only makes a
        # negligible term 0; no numpy RuntimeWarning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate(IntegrandSpec(Kernel.LNX, z, m, Variant(variant)))
        assert abs(got) < 1e-150

    @pytest.mark.parametrize("variant", ["thm1", "thm2"])
    @pytest.mark.parametrize("z", [1e308, -1e308, 1e10, -1e10])
    @pytest.mark.parametrize("m", [0, 1, 60])
    def test_theorem_integrands_underflow_quietly_at_huge_z(self, variant, z, m):
        # they raise r = 1/(u - z), |r| < 1, to powers: nothing overflows,
        # so no errstate is needed to keep numpy quiet
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = integrate(IntegrandSpec(Kernel.LNX, z, m, Variant(variant)))
        assert abs(got) <= 2.0 * (1.0 / abs(z)) ** (m + 1)

    def test_domain_mirrors_series(self):
        with pytest.raises(NonConvergent):
            series_via_quadrature("A1", 0.5)
        with pytest.raises(NonConvergent):
            series_via_quadrature("C1", 2.0)


def _kernel(name: str):
    """A catalog kernel computed from x and 1-x alone: log x for lnx,
    log(x/(1-x)) for lnratio, times u = x(1-x)^2 for a name ending *u."""
    def k(x, xc):
        base, _, weight = name.partition("*")
        k = np.log(x) if base == "lnx" else np.log(x) - np.log(xc)
        return k * (x * xc * xc) if weight else k
    return k


def _z_factor(variant: str, z: float, m: int):
    """The catalog integrand's factor besides its kernel, computed from
    x and 1-x alone."""
    def g(x, xc):
        u = x * xc * xc
        if variant in ("thm1", "thm2"):
            # x^m (1-x)^{2m} / (u - z)^{m+1} = r (u r)^m with r = 1/(u - z)
            r = 1.0 / (u - z)
            if variant == "thm1" and m > 0:
                return r * _ipow(u * r, m)
            return _ipow(r, m + 1)
        zu = z * u
        return 1.0 / (1.0 + zu * zu)
    return g


def _kernel_name(kernel: str, variant: str) -> str:
    # c2 and c4 weigh by u, which the package folds into the kernel
    return kernel + "*u" if variant in ("c2", "c4") else kernel


def _written_out(kernel: str, z: float, m: int, variant: str):
    """The catalog integrand computed from x and 1-x alone."""
    k, g = _kernel(_kernel_name(kernel, variant)), _z_factor(variant, z, m)
    return lambda x, xc: k(x, xc) * g(x, xc)


def _level_slices(level: int):
    # (x, 1-x, w) of each level's own nodes, levels 0..level; stage 0
    # holds levels 0-4, each later stage one level
    for lv in range(level + 1):
        st = _level_nodes(lv)
        i = lv if lv <= 4 else 0
        lo, hi = st.bounds[i], st.bounds[i + 1]
        yield st.x[lo:hi], st.xc[lo:hi], st.w[lo:hi]


def _trapezoid(f, level: int):
    """The level-L trapezoid sums 2^-L sum(w f) and 2^-L sum(w |f|) over
    the nodes of levels <= L, each summed by math.fsum."""
    x, xc, w = (np.concatenate(a) for a in zip(*_level_slices(level)))
    v = w * np.asarray(f(x, xc))
    h = 2.0 ** -level
    total = h * math.fsum(v.real)
    if np.iscomplexobj(v):
        total = complex(total, h * math.fsum(v.imag))
    return total, h * math.fsum(np.abs(v))


def _stop_l1(f, tol: float = 1e-12) -> float:
    """h sum(w |f|) at the level where the stop rule of tanh_sinh, applied
    to the level sums of _trapezoid, stops on f."""
    prev = _trapezoid(f, 1)[0]
    for level in range(2, MAX_LEVEL + 1):
        total, l1 = _trapezoid(f, level)
        err = abs(total - prev)
        if err <= tol * max(1.0, abs(total)) and math.isfinite(err):
            return l1
        prev = total
    raise AssertionError("the level sums do not settle")


# the catalog integrals fold each kernel into the stage's level rows, so
# (w k) g stands where the written-out integrand has w (k g): a value may
# move by rounding, within this many units of 2^-52 times h sum(w |f|)
_FOLD_ULPS = 8


def _with_powers(kernel: str, z: float, m: int, variant: str):
    """The catalog integrand as printed, with numpy's ** for the powers."""
    def f(x, xc):
        k = np.log(x) if kernel == "lnx" else np.log(x) - np.log(xc)
        u = x * xc * xc
        if variant in ("thm1", "thm2"):
            num = x ** m * xc ** (2 * m) if variant == "thm1" else 1.0
            return k * num / (u - z) ** (m + 1)
        w = 1.0 / (1.0 + (z * u) ** 2)
        return k * u * w if variant in ("c2", "c4") else k * w
    return f


_CATALOG = (
    [(kernel, variant, z, m) for kernel in ("lnx", "lnratio") for variant in ("thm1", "thm2")
     for z in (-30.0, -2.0, -0.5, -1e-3, 0.2, 0.5, 2.0, 30.0) for m in (0, 1, 2, 4)]
    + [(kernel, variant, z, 0) for variant, kernel in (
        ("c1", "lnx"), ("c2", "lnx"), ("c3", "lnratio"), ("c4", "lnratio"))
       for z in (-3.0, -1.0, -0.5, 0.0, 0.25, 0.9, 1.0, 3.0)]
)


@pytest.mark.parametrize("kernel,variant,z,m", _CATALOG)
def test_catalog_integrand_reads_cache_bitwise(kernel, variant, z, m):
    # the integrand reads the stage's u and folded rows: its factor, and its
    # shared-rows function's row, must be the very array the formula on
    # (x, 1-x) gives, on the rows of its own kernel, and its integral
    # within rounding of the written-out one's
    entry = _ENTRIES[Kernel(kernel), Variant(variant)]
    assert entry.kernel == _kernel_name(kernel, variant)
    for level in (0, 5):
        st = _level_nodes(level)
        want = _z_factor(variant, z, m)(st.x, st.xc).tobytes()
        assert entry.factor(st, z, m).tobytes() == want, level
        assert entry.shared(st, [z], m)[0].tobytes() == want, level
    got = integrate(IntegrandSpec(kernel, z, m, variant))
    written = _written_out(kernel, z, m, variant)
    want = tanh_sinh(written)
    assert abs(got - want) <= _FOLD_ULPS * 2.0 ** -52 * _stop_l1(written)


# family -> (kernel, variant) of its integral, written out here apart from
# the package's own table
_FAMILY_INTEGRAL = {
    "A1": ("lnx", "thm1"), "A2": ("lnx", "thm2"), "B1": ("lnratio", "thm1"),
    "B2": ("lnratio", "thm2"), "C1": ("lnx", "c1"), "C2": ("lnx", "c2"),
    "C3": ("lnratio", "c3"), "C4": ("lnratio", "c4"),
}

_FAMILY_POINTS = (
    [(family, z, m) for family in ("A1", "A2", "B1", "B2")
     for z in (-30.0, -2.5, -1.0, 1.0, 1.5, 30.0, 1e300, -1e300) for m in (0, 1, 3)]
    + [(family, z, 0) for family in ("C1", "C2", "C3", "C4")
       for z in (-1.0, -0.5, 0.0, 0.3, 1.0)]
)


@pytest.mark.parametrize("family,z,m", _FAMILY_POINTS)
def test_series_via_quadrature_bitwise(family, z, m):
    # the family's value is its catalog integral, signed (-1)^m for A/B,
    # negated for C1/C3 and times -z for C2/C4: the very float tanh_sinh
    # gives for the integrand written out on (x, 1-x), up to the rounding
    # the kernel's fold moves it by
    kernel, variant = _FAMILY_INTEGRAL[family]
    written = _written_out(kernel, z, m, variant)
    raw = tanh_sinh(written)
    scale = 1.0
    if family[0] in "AB":
        want = raw if m % 2 == 0 else -raw
    elif family in ("C2", "C4"):
        want, scale = -z * raw, abs(z)
    else:
        want = -raw
    got = series_via_quadrature(family, z, m)
    assert abs(got - want) <= _FOLD_ULPS * 2.0 ** -52 * _stop_l1(written) * scale


@pytest.mark.parametrize("kernel,variant,z,m", [
    (kernel, variant, -1e-8, 8) for kernel in ("lnx", "lnratio") for variant in ("thm1", "thm2")
] + [
    # r^(m+1) can overflow next to the pole, so these run under an errstate
    ("lnx", "thm1", -1e-20, 40), ("lnratio", "thm1", -1e-40, 20),
    ("lnratio", "thm1", -1e-20, 40),
    # (z u)^2 overflows, likewise under an errstate
    ("lnx", "c1", 1e300, 0), ("lnx", "c2", -1e300, 0), ("lnratio", "c3", 1e200, 0),
    ("lnratio", "c4", -1e300, 0),
])
def test_extreme_z_integral_bitwise(kernel, variant, z, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = integrate(IntegrandSpec(kernel, z, m, variant))
    with np.errstate(all="ignore"):
        written = _written_out(kernel, z, m, variant)
        want = tanh_sinh(written)
        l1 = _stop_l1(written)
    assert abs(got - want) <= _FOLD_ULPS * 2.0 ** -52 * l1


@pytest.mark.parametrize("kernel,variant,z,m,stages", [
    ("lnx", "thm1", 2.0, 1, [0]), ("lnratio", "thm2", -2.0, 2, [0]),
    ("lnx", "thm1", -1e-3, 0, [0, 5]), ("lnx", "thm2", 0.2, 2, [0, 5, 6]),
    ("lnx", "thm1", -1e-8, 8, [0, 5, 6, 7]), ("lnx", "c2", 3.0, 0, [0]),
    ("lnratio", "c3", 1.0, 0, [0]), ("lnratio", "c4", -0.5, 0, [0]),
])
def test_folded_and_unfolded_paths_agree(monkeypatch, kernel, variant, z, m, stages):
    # integrate() takes the kernel-folded rows, a callable the plain rows:
    # the same integrand stops at the same stages with the same value, up
    # to the fold's rounding
    written = _written_out(kernel, z, m, variant)
    seen, got = _visits(monkeypatch, lambda: integrate(IntegrandSpec(kernel, z, m, variant)))
    seen_plain, want = _visits(monkeypatch, lambda: tanh_sinh(written))
    assert seen == seen_plain == stages
    assert abs(got - want) <= _FOLD_ULPS * 2.0 ** -52 * _stop_l1(written)


@pytest.mark.parametrize("k", [0, 1, 2, 7, 30])
def test_beta_term_folded_and_unfolded_agree(k):
    def written(x, xc):
        return np.log(x) * (x * xc * xc) ** k
    got = beta_term_integral(k)
    assert abs(got - tanh_sinh(written)) <= _FOLD_ULPS * 2.0 ** -52 * _stop_l1(written)


def _around(x):
    # x, its neighbouring doubles, and points a relative 1e-12 to either side
    return (x * (1.0 - 1e-12), math.nextafter(x, -math.inf), x,
            math.nextafter(x, math.inf), x * (1.0 + 1e-12))


def _errstate_rule(variant: Variant):
    # the errstate rule the table holds for this variant's integral
    return _ENTRIES[Kernel(_VARIANT_KERNEL[variant.value]), variant].quiet


_VARIANT_KERNEL = {v: k for k, v in _FAMILY_INTEGRAL.values()}


def test_extreme_z_errstate_decision_matches_log_test():
    # the early exits (|z| <= 1e150 for c, pole distance >= 1 for thm) must
    # decide as the log test alone does, on both sides of each threshold
    c_z = [v for x in (1.0, 1e150, math.exp(350.0) - 1.0, 1e300) for v in _around(x)]
    for variant in (Variant.C1, Variant.C2, Variant.C3, Variant.C4):
        for z in c_z + [-z for z in c_z]:
            want = 2.0 * math.log(abs(z) + 1.0) > 700.0
            assert (_errstate_rule(variant)(z, 0) is not None) == want, (variant, z)
    for m in range(51):
        edge = math.exp(-700.0 / (m + 1))
        d_values = [v for x in (edge, 1.0, 2.0) for v in _around(x)]
        # z = 4/27 + d rounds to 4/27 itself for d near e^-700: keep the z
        # outside [0, 4/27], which are the ones an integral can be asked for
        zs = [z for d in d_values for z in (-d, d + 4.0 / 27.0) if _pole_distance(z) > 0.0]
        for variant in (Variant.THM1, Variant.THM2):
            for z in zs:
                want = (m + 1) * -math.log(_pole_distance(z)) > 700.0
                assert (_errstate_rule(variant)(z, m) is not None) == want, (variant, z, m)


_HIGH_ORDER = [(kernel, variant, z, m) for kernel in ("lnx", "lnratio")
               for variant in ("thm1", "thm2") for z in (-30.0, -2.0, 2.0, 30.0)
               for m in (8, 20)]


@pytest.mark.parametrize("kernel,variant,z,m", _CATALOG + _HIGH_ORDER)
def test_catalog_integral_matches_power_formula(kernel, variant, z, m):
    # the integrands take their powers by repeated multiplication, of
    # r = 1/(u - z) and u r; the integral must agree with the printed
    # formula evaluated with numpy's **
    got = integrate(IntegrandSpec(kernel, z, m, variant))
    want = tanh_sinh(_with_powers(kernel, z, m, variant))
    assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


class TestBetaTermIntegral:
    def _exact(self, k: int) -> Fraction:
        h = lambda n: sum(Fraction(1, j) for j in range(1, n + 1))
        return (h(k) - h(3 * k + 1)) / ((3 * k + 1) * math.comb(3 * k, k))

    def test_k_zero(self):
        assert beta_term_integral(0, tol=1e-13) == pytest.approx(-1.0, abs=1e-13)

    def test_k_two_frozen(self):
        assert beta_term_integral(2, tol=1e-13) == pytest.approx(-51 / 4900, abs=1e-13)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8, 13, 21, 30])
    def test_matches_exact_rational(self, k):
        got = beta_term_integral(k, tol=1e-12)
        want = float(self._exact(k))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_bad_index(self):
        with pytest.raises(DomainError):
            beta_term_integral(-1)


# series_via_quadrature's values and errors on the oracle parity grid, as
# recorded before the per-family entry table; "about" in the file says
# what the grid holds
_PARITY = json.loads((Path(__file__).parent / "data" / "oracle_parity.json").read_text())


def _numerics_digest() -> str:
    """A digest of what the quadrature values rest on besides the code:
    numpy's sinh, cosh, exp and log on the t of levels 0-5 and on the
    arguments the node formulas give them (the grid visits stages 0 and
    5), and the summation order of its matrix-vector product, probed on
    fixed arrays of stage 0's and stage 5's row shapes.  It reads none of
    the package's arrays, so a code change that moves them fails the grid
    instead of skipping it."""
    h = hashlib.sha256()
    for level in range(6):
        if level == 0:
            t = np.arange(-6.0, 7.0)
        else:
            odd = np.arange(1.0, 6 * 2 ** level + 1, 2.0)
            t = np.concatenate([-odd[::-1], odd]) * 2.0 ** -level
        s = 0.5 * math.pi * np.sinh(t)
        for a in (s, np.cosh(t), np.exp(-2.0 * s), np.exp(2.0 * s), np.cosh(s),
                  np.log(1.0 / (1.0 + np.exp(-2.0 * s))), np.log(1.0 / (1.0 + np.exp(2.0 * s)))):
            h.update(a.tobytes())
    for rows, n in ((5, 193), (1, 192)):
        i = np.arange(n, dtype=np.float64)
        vector = np.where(i % 2 == 0, 1.0, -1.0) / (i + 1.0)
        matrix = 1.0 / (np.arange(rows * n, dtype=np.float64).reshape(rows, n) % 89.0 + 0.5)
        h.update(matrix.dot(vector).tobytes())
        h.update(matrix.dot(vector * 1e-3 + 1.0).tobytes())
    return h.hexdigest()


def _outcome(f, *args, **kwargs) -> str:
    try:
        return f(*args, **kwargs).hex()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("family", [f.value for f in SeriesFamily])
def test_series_via_quadrature_parity_grid(family):
    # every value bitwise, and every error word for word, as recorded.  The
    # values are bitwise only on the numerics they were recorded with: a
    # numpy whose transcendental functions or product differ in the last
    # bit moves them by rounding, which the tests above bound
    if _numerics_digest() != _PARITY["numerics"]:
        pytest.skip("this numpy's nodes or matrix-vector product differ in the last bit "
                    "from those the grid was recorded with")
    rows = [r for r in _PARITY["rows"] if r[0] == family]
    assert len(rows) > 20
    got = [_outcome(series_via_quadrature, f, float.fromhex(z), m) for f, z, m, _, _ in rows]
    assert got == [r[3] for r in rows]


def _enum_error(family) -> str:
    try:
        SeriesFamily(family)
    except ValueError as exc:
        return f"ValueError: {exc}"
    raise AssertionError(f"{family!r} names a family")


@pytest.mark.parametrize("family", [
    "X9", "a1", "", " A1", 3, None, ("A1",), (Kernel.LNX, Variant.THM1), ("lnx", "thm1"),
], ids=repr)
def test_unknown_family_raises_the_enum_error(family):
    # the table also holds each bare integral by (kernel, variant): a
    # family argument must not find one
    assert _outcome(series_via_quadrature, family, 2.0, 1) == _enum_error(family)
    assert _outcome(series_via_quadrature, family, "abc", -1, tol=0.0) == _enum_error(family)


def test_unhashable_family_raises_the_enum_error():
    assert _outcome(series_via_quadrature, ["A1"], 2.0) == _enum_error(["A1"])


# (family, z, m, keyword arguments) -> what series_via_quadrature raised
# before the per-family entry table; checks run family, z's float(), m,
# z finite, the family's domain, then tol
_BAD_CALLS = [
    (("A1", 0.5, 0), {}, "NonConvergent: family A1 requires |z| >= 1, got z = 0.5"),
    (("B1", -0.999, 2), {}, "NonConvergent: family B1 requires |z| >= 1, got z = -0.999"),
    (("A2", 0.0, 1), {}, "NonConvergent: family A2 requires |z| >= 1, got z = 0.0"),
    (("C1", 1.5, 0), {}, "NonConvergent: family C1 requires |z| <= 1, got z = 1.5"),
    (("C4", -2.0, 0), {}, "NonConvergent: family C4 requires |z| <= 1, got z = -2.0"),
    (("C1", 0.5, 1), {}, "DomainError: family C1 takes no binomial order, got m = 1"),
    (("C4", -0.5, 3), {}, "DomainError: family C4 takes no binomial order, got m = 3"),
    (("C2", 2.0, 1), {}, "DomainError: family C2 takes no binomial order, got m = 1"),
    (("A1", 2.0, True), {}, "DomainError: m must be a nonnegative integer, got True"),
    (("B2", 2.0, False), {}, "DomainError: m must be a nonnegative integer, got False"),
    (("A1", 2.0, -1), {}, "DomainError: m must be a nonnegative integer, got -1"),
    (("A2", 2.0, 2.0), {}, "DomainError: m must be a nonnegative integer, got 2.0"),
    (("C3", 0.5, True), {}, "DomainError: m must be a nonnegative integer, got True"),
    (("A1", math.nan, 0), {}, "DomainError: z must be finite, got nan"),
    (("B2", -math.inf, 1), {}, "DomainError: z must be finite, got -inf"),
    (("C2", math.inf, 0), {}, "DomainError: z must be finite, got inf"),
    (("C3", math.nan, 0), {}, "DomainError: z must be finite, got nan"),
    (("A1", math.nan, -1), {}, "DomainError: m must be a nonnegative integer, got -1"),
    (("C1", math.inf, 1), {}, "DomainError: z must be finite, got inf"),
    (("A1", 2.0, 0), {"tol": 1e-16}, "DomainError: tol must be a float >= 1e-14, got 1e-16"),
    (("A1", 2.0, 0), {"tol": 1e-15}, "DomainError: tol must be a float >= 1e-14, got 1e-15"),
    (("C1", 0.5, 0), {"tol": math.nan}, "DomainError: tol must be a float >= 1e-14, got nan"),
    (("B1", 2.0, 1), {"tol": math.inf}, "DomainError: tol must be a float >= 1e-14, got inf"),
    (("A2", 2.0, 1), {"tol": 1}, "DomainError: tol must be a float >= 1e-14, got 1"),
    (("A1", 0.5, 0), {"tol": 1e-16}, "NonConvergent: family A1 requires |z| >= 1, got z = 0.5"),
    (("A1", 2.0, -1), {"tol": 1e-16}, "DomainError: m must be a nonnegative integer, got -1"),
    (("A1", "abc", 0), {}, "ValueError: could not convert string to float: 'abc'"),
    (("A1", None, 0), {},
     "TypeError: float() argument must be a string or a real number, not 'NoneType'"),
]


@pytest.mark.parametrize("args,kwargs,want", _BAD_CALLS)
def test_bad_input_raises_as_recorded(args, kwargs, want):
    assert _outcome(series_via_quadrature, *args, **kwargs) == want
    family, z, m = args
    # a member finds the same entry as its name
    assert _outcome(series_via_quadrature, SeriesFamily(family), z, m, **kwargs) == want


def test_table_entries():
    # each family's name and member find one entry: its integral's
    # integrand and errstate rule, with the family's sign rule
    signs = {"A1": "(-1)^m", "A2": "(-1)^m", "B1": "(-1)^m", "B2": "(-1)^m",
             "C1": "-1", "C2": "-z", "C3": "-1", "C4": "-z"}
    for family, (kernel, variant) in _FAMILY_INTEGRAL.items():
        entry = _ENTRIES[family]
        assert _ENTRIES[SeriesFamily(family)] is entry
        bare = _ENTRIES[Kernel(kernel), Variant(variant)]
        assert entry._replace(sign="") == bare
        assert entry.kernel == _kernel_name(kernel, variant)
        assert (entry.sign, bare.sign) == (signs[family], "")


def test_c_family_no_convergence_passes_through(monkeypatch):
    # only thm1/thm2 have a pole near [0, 1] to name; a C family's
    # NoConvergence leaves the driver as its stop rule made it.  No C-family
    # input is known to fail, so the driver's stop rule is stubbed to
    # settle nothing
    import trisum.quadrature as quadrature

    monkeypatch.setattr(quadrature, "_stage0_value", lambda sums, tol: None)
    monkeypatch.setattr(quadrature, "_settles", lambda prev, total, tol: False)
    monkeypatch.setattr(quadrature, "_unsettled",
                        lambda tol, prev, total: NoConvergence("did not converge"))
    for family in ("C1", "C2", "C3", "C4"):
        for z in (0.5, [0.5], [0.5, 0.25, -0.5, 0.75]):
            with pytest.raises(NoConvergence) as info:
                series_via_quadrature(family, z)
            assert str(info.value) == "did not converge"
    with pytest.raises(NoConvergence) as info:
        series_via_quadrature("A1", 2.0)
    assert str(info.value).startswith("did not converge; the integrand has a pole near")


# -- the sequence form: many z at one (family, m) ---------------------------

# duplicates, +-1 and the doubles next to 1, the pole distance 1 (4/27 + 1,
# where the errstate rule's early exit ends), +-30, 1e150 and 1e300; for
# C1-C4, z in [0, 1] and its mirror.  A2/B2 at z near 1 run past stage 0
# from m = 5, beside z that stop in it
_SEQ_Z_OUTER = [2.0, 1.0, -1.0, 2.0, math.nextafter(1.0, 2.0), math.nextafter(-1.0, -2.0),
                4.0 / 27.0 + 1.0, 30.0, -30.0, 1e150, -1e150, 1e300, -1e300, 1.0]
_SEQ_Z_INNER = [0.5, 0.0, -0.0, 0.25, 0.5, 0.9, 1.0, -1.0, 1e-8, 5e-324, -0.3]


def _hexes(call) -> list[str] | str:
    try:
        return [value.hex() for value in call()]
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _one_by_one(family, zs, m=0, **kwargs):
    return lambda: [series_via_quadrature(family, z, m, **kwargs) for z in zs]


@pytest.mark.parametrize("family", [f.value for f in SeriesFamily])
@pytest.mark.parametrize("tol", [1e-12, 1e-8])
def test_sequence_matches_scalar_calls_bitwise(family, tol):
    outer = family[0] in "AB"
    zs = _SEQ_Z_OUTER if outer else _SEQ_Z_INNER
    # zs * 4 holds every z four times in one group
    for m in [*range(9), 20] if outer else [0]:
        for some in (zs[:0], zs[:1], zs[:2], zs[:3], zs[:4], zs[:7], zs, zs * 4):
            want = _hexes(_one_by_one(family, some, m, tol=tol))
            for form in (list, tuple, np.array):
                got = series_via_quadrature(family, form(some), m, tol)
                assert type(got) is list
                assert [value.hex() for value in got] == want, (m, len(some), form)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", [f.value for f in SeriesFamily])
def test_sequence_visits_stage_0_once(monkeypatch, family, n):
    # a group of fewer than _SHARE_MIN z computes its factors one by one,
    # but its z share one stage visit, as every group does
    zs = (_SEQ_Z_OUTER if family[0] in "AB" else _SEQ_Z_INNER)[:n]
    seen, got = _visits(monkeypatch, lambda: series_via_quadrature(family, zs))
    assert seen == [0]
    assert [value.hex() for value in got] == _hexes(_one_by_one(family, zs))


@pytest.mark.parametrize("family,m,tol", [
    ("A2", 3000, 1e-14),     # columns leave at levels 0, 6 and 9
    ("B2", 1000, 1e-12),
    ("A2", 4400, 1e-12),     # the errstate rule is on at z = 1 and off at 2 and -3
])
def test_sequence_visits_each_stage_once(monkeypatch, family, m, tol):
    # the z go on together through the stages the scalar calls visit
    zs = [2.0, 1.0, -1.0, 1.2, 1.0, -3.0]
    stages = set()
    for z in zs:
        seen, _ = _visits(monkeypatch, lambda: series_via_quadrature(family, z, m, tol))
        stages.update(seen)
    seen, got = _visits(monkeypatch, lambda: series_via_quadrature(family, zs, m, tol))
    assert seen == sorted(stages) and len(seen) >= 4
    assert [value.hex() for value in got] == _hexes(_one_by_one(family, zs, m, tol=tol))


@pytest.mark.parametrize("family,zs,m,kwargs", [
    # a domain error before a NoConvergence, and after one: A2/B2 at z = 1,
    # m = 5000 overflow near the pole and never settle, while the other z
    # settle; with 4 z or more before the failure they share their factors
    ("A2", [3.0, -1.0, 2.0, -3.0, 0.5, 1.0], 5000, {}),
    ("A2", [3.0, -1.0, 2.0, -3.0, 1.0, 0.5], 5000, {}),
    ("A2", [3.0, 0.5, 1.0, 2.0, -3.0], 5000, {}),
    ("A2", [3.0, 1.0, 0.5, 2.0, -3.0], 5000, {}),
    ("B2", [-1.0, 2.0, 1.0, 3.0, 1.0], 5000, {}),
    ("A1", [2.0, 3.0, -4.0, 5.0, math.nan, 0.5], 0, {}),
    ("A1", [2.0, 3.0, -4.0, 5.0, "abc"], 0, {}),
    ("A1", [2.0, None, 3.0, -4.0, 5.0], 0, {}),
    ("A1", ["2", 3, -4.0, 5.0], 0, {}),
    ("C2", [0.5, 0.25, -0.5, 0.75, 1.5], 0, {}),
    ("C1", [0.5, 0.25, -0.5, 0.75], 1, {}),
    ("B1", [2.0, 3.0, -4.0, 5.0], -1, {}),
    ("A1", [2.0, 3.0, -4.0, 5.0], 0, {"tol": 1e-16}),
    ("A1", [0.5, 2.0, 3.0, -4.0, 5.0], 0, {"tol": 1e-16}),
    ("A1", [2.0, 0.5, 3.0, -4.0, 5.0], 0, {"tol": 1e-16}),
    ("X9", [2.0, 3.0, -4.0, 5.0], 0, {}),
    ("X9", [], 0, {}),
    ("A1", [], -1, {"tol": 0.0}),
    ("A2", [3.0, 1.0], 5000, {}),
    ("A1", [2.0, 0.5], 0, {}),
])
def test_sequence_raises_the_first_error_of_the_scalar_calls(family, zs, m, kwargs):
    want = _hexes(_one_by_one(family, zs, m, **kwargs))
    for form in (list, tuple):
        assert _hexes(lambda: series_via_quadrature(family, form(zs), m, **kwargs)) == want


def test_no_convergence_names_the_last_relative_step():
    # A2 at z = 1.1, m = 3000: the level sums (about 7.1e62) settle to a
    # relative 1e-14 and then wander in their last digits, so tol = 1e-14
    # is never met.  The message gives that step, and the sequence form
    # raises the scalar call's text, with a group of 4 z and of 1
    def message(call):
        with pytest.raises(NoConvergence) as info:
            call()
        return str(info.value)

    want = message(lambda: series_via_quadrature("A2", 1.1, 3000, tol=1e-14))
    found = re.search(r"within level 12: its last two level sums differ by (\S+) "
                      r"relative to the last; the integrand has a pole near", want)
    assert found and 1e-15 < float(found.group(1)) < 1e-13, want
    for zs in ([1.1], [2.0, 3.0, 1.1, -4.0]):
        assert message(lambda: series_via_quadrature("A2", zs, 3000, tol=1e-14)) == want
    # a kink defeats the refinement: the sums keep moving, far above rounding
    kink = message(lambda: tanh_sinh(lambda x, xc: np.abs(x - 1.0 / 3.0), tol=1e-14))
    found = re.search(r"differ by (\S+) relative to the last$", kink)
    assert found and float(found.group(1)) > 1e-10, kink


def test_str_and_0d_z_stay_scalar():
    want = series_via_quadrature("A1", 2.0, 1)
    assert series_via_quadrature("A1", "2", 1) == want
    assert series_via_quadrature("A1", np.float64(2.0), 1) == want
    assert series_via_quadrature("A1", np.array(2.0), 1) == want


# -- the sequence form of beta_term_integral: many k ------------------------

# 0-40, 100-1000 (u^k underflows to 0 at every node from about k = 400),
# and duplicates.  Under the stop rule every k settles in stage 0, so the
# k take the shared stage loop's later-stage path only where it serves the
# z sequence, in the tests above
_SEQ_K = [*range(41), 100, 200, 400, 1000, 7, 0, 1000, 30, 7]


def _beta_one_by_one(ks, **kwargs):
    return lambda: [beta_term_integral(k, **kwargs) for k in ks]


@pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-14])
def test_beta_sequence_matches_scalar_calls_bitwise(tol):
    for some in (*(_SEQ_K[:n] for n in (0, 1, 2, 3, 4, 7, 31)), _SEQ_K, _SEQ_K[::-1] * 2):
        want = _hexes(_beta_one_by_one(some, tol=tol))
        for form in (list, tuple):
            got = beta_term_integral(form(some), tol)
            assert type(got) is list
            assert [value.hex() for value in got] == want, (len(some), form)


@pytest.mark.parametrize("n", [1, 3, 31])
def test_beta_sequence_visits_stage_0_once(monkeypatch, n):
    # every k list, however short, shares one stage visit
    seen, got = _visits(monkeypatch, lambda: beta_term_integral(list(range(n))))
    assert seen == [0]
    assert [value.hex() for value in got] == _hexes(_beta_one_by_one(range(n)))


@pytest.mark.parametrize("bad", [True, -1, 2.0, "3", None])
@pytest.mark.parametrize("at", [0, 1, 3, 4, 6])
def test_beta_sequence_raises_the_first_error_of_the_scalar_calls(bad, at):
    ks = [3, 0, 30, 7, 1000, 12, 2]
    ks.insert(at, bad)
    want = _hexes(_beta_one_by_one(ks))
    assert want.startswith("DomainError: index must be")
    for form in (list, tuple):
        assert _hexes(lambda: beta_term_integral(form(ks))) == want


@pytest.mark.parametrize("tol", [1e-16, 1, math.nan, "1e-12"])
@pytest.mark.parametrize("at", [None, 0, 1, 5])
def test_beta_sequence_raises_a_bad_tol_as_the_scalar_calls(tol, at):
    # the tol check follows the first k's index check, so a bad first k is
    # named instead; [] checks nothing
    ks = [3, 0, 30, 7, 1000, 12]
    if at is not None:
        ks[at] = -1
    want = _hexes(_beta_one_by_one(ks, tol=tol))
    assert want.startswith("DomainError: index" if at == 0 else "DomainError: tol")
    for form in (list, tuple):
        assert _hexes(lambda: beta_term_integral(form(ks), tol=tol)) == want
    assert beta_term_integral([], tol=tol) == []
