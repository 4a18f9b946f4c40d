import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from trisum.errors import DomainError, NoConvergence, NonConvergent
from trisum.quadrature import (
    IntegrandSpec,
    Kernel,
    Variant,
    beta_term_integral,
    integrate,
    series_via_quadrature,
    tanh_sinh,
)
from trisum.series import sum_series

A1_Z2_M0_REF = 0.52395769463509576811


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

    def test_complex_integrand(self):
        # int_0^1 log x/(x - i) dx = Li2(-i)
        got = tanh_sinh(lambda x, xc: np.log(x) / (x - 1j), tol=1e-13)
        assert isinstance(got, complex)
        want = complex(-math.pi ** 2 / 48, -0.91596559417721901505)
        assert abs(got - want) <= 1e-13

    def test_no_convergence(self):
        # an interior kink defeats the trapezoid refinement at this tol
        with pytest.raises(NoConvergence):
            tanh_sinh(lambda x, xc: np.abs(x - 1.0 / 3.0), tol=1e-14, max_level=4)

    def test_bad_tol(self):
        with pytest.raises(DomainError):
            tanh_sinh(lambda x, xc: x, tol=1e-15)

    def test_node_complement_consistency(self):
        from trisum.quadrature import _level_nodes
        for level in (0, 1, 4):
            x, xc, w = _level_nodes(level)
            assert np.all(x > 0) and np.all(xc > 0)
            assert np.max(np.abs(x + xc - 1.0)) <= 1e-15
            assert np.all(w > 0)


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

    def test_domain_mirrors_series(self):
        with pytest.raises(NonConvergent):
            series_via_quadrature("A1", 0.5)
        with pytest.raises(NonConvergent):
            series_via_quadrature("C1", 2.0)


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
