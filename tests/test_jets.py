"""Partial-fraction coefficients: trisum.closedform.coeff_a and coeff_b."""

import math
import random

import pytest

from trisum.errors import DomainError
from trisum.closedform import coeff_a, coeff_b
from trisum.roots import solve_cubic


class TestPartialFractionCoefficients:
    def test_residue_at_real_root_z2(self):
        roots = solve_cubic(2.0)
        which = next(i + 1 for i, r in enumerate(roots.roots) if r == 2 + 0j)
        a = coeff_a(0, roots, which)
        assert a[0] == pytest.approx(0.2 + 0j, abs=1e-15)

    def test_residue_at_imaginary_root_z2(self):
        roots = solve_cubic(2.0)
        which = next(i + 1 for i, r in enumerate(roots.roots) if abs(r - 1j) < 1e-12)
        a = coeff_a(0, roots, which)
        assert a[0] == pytest.approx(-1 / (2 + 4j), abs=1e-15)

    def test_residue_z_minus_four(self):
        roots = solve_cubic(-4.0)
        s7 = math.sqrt(7.0)
        lam = complex(1.5, s7 / 2)
        which = next(i + 1 for i, r in enumerate(roots.roots) if abs(r - lam) < 1e-12)
        a = coeff_a(0, roots, which)
        want = -(7 + 5j * s7) / 112
        assert a[0] == pytest.approx(want, abs=1e-15)

    def test_b_coefficients_z2_m1(self):
        roots = solve_cubic(2.0)
        which = next(i + 1 for i, r in enumerate(roots.roots) if r == 2 + 0j)
        b = coeff_b(1, roots, which)
        # jet of (x^2+1)^{-2} about 2: value 1/25, derivative -8/125
        assert b[1] == pytest.approx(1 / 25 + 0j, abs=1e-15)
        assert b[0] == pytest.approx(-8 / 125 + 0j, abs=1e-15)

    def test_bad_selector(self):
        roots = solve_cubic(2.0)
        with pytest.raises(DomainError):
            coeff_a(0, roots, 0)
        with pytest.raises(DomainError):
            coeff_a(-1, roots, 1)
        # indices are ints that are not bools, as everywhere in the package
        with pytest.raises(DomainError, match="coefficient order m"):
            coeff_a(True, roots, 1)
        with pytest.raises(DomainError, match="root selector"):
            coeff_a(0, roots, True)
        with pytest.raises(DomainError, match="root selector"):
            coeff_a(0, roots, 1.0)

    @pytest.mark.parametrize("z", [2.0, 3.0, -4.0, -8.0, 1.0, -1.0, 30.0, -30.0])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6, 7, 8])
    def test_reconstruction_a(self, z, m):
        # summing a_r/(x-root)^{r+1} over all roots rebuilds the rational function
        roots = solve_cubic(z)
        rng = random.Random(hash((z, m)) & 0xFFFF)
        for _ in range(20):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(x - r) for r in roots.roots) < 0.3:
                continue
            acc = 0j
            for w in (1, 2, 3):
                ar = coeff_a(m, roots, w)
                lam = roots.roots[w - 1]
                acc += sum(ar[r] / (x - lam) ** (r + 1) for r in range(m + 1))
            den = (x * (1 - x) ** 2 - z) ** (m + 1)
            want = x ** m * (1 - x) ** (2 * m) / den
            assert abs(acc - want) <= 1e-10 * max(1.0, abs(want))

    @pytest.mark.parametrize("z", [2.0, -4.0, 5.0, 1.0, -1.0, 30.0, -30.0])
    @pytest.mark.parametrize("m", [0, 2, 4, 5, 6, 7, 8])
    def test_reconstruction_b(self, z, m):
        roots = solve_cubic(z)
        rng = random.Random(hash((z, m, 2)) & 0xFFFF)
        for _ in range(20):
            x = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(x - r) for r in roots.roots) < 0.3:
                continue
            acc = 0j
            for w in (1, 2, 3):
                br = coeff_b(m, roots, w)
                lam = roots.roots[w - 1]
                acc += sum(br[r] / (x - lam) ** (r + 1) for r in range(m + 1))
            want = 1.0 / (x * (1 - x) ** 2 - z) ** (m + 1)
            assert abs(acc - want) <= 1e-10 * max(1.0, abs(want))

    def test_conjugate_root_gives_conjugate_coeffs(self):
        roots = solve_cubic(-4.0)
        pair = [i + 1 for i, r in enumerate(roots.roots) if r.imag != 0.0]
        a_up = coeff_a(3, roots, pair[0])
        a_dn = coeff_a(3, roots, pair[1])
        for u, d in zip(a_up, a_dn):
            assert u == pytest.approx(d.conjugate(), rel=1e-14, abs=1e-16)

    def test_denominator_expanded_once_per_root(self, monkeypatch):
        # coeff_a and coeff_b at one (z, m, root) share the expansion of
        # 1/((x - w1)(x - w2))^{m+1}: two binomials of power -(m+1) per
        # root, whichever of them runs first, and the same bits as apart
        import trisum.closedform as cf

        def bits(coeffs):
            return [(c.real.hex(), c.imag.hex()) for c in coeffs]

        roots, m = solve_cubic(-8.0), 4
        apart = {}
        for which in (1, 2, 3):
            for name, build in (("a", coeff_a), ("b", coeff_b)):
                cf._denominator.cache_clear()
                apart[name, which] = bits(build(m, roots, which))
        powers = []
        binomial = cf._binomial
        monkeypatch.setattr(cf, "_binomial",
                            lambda c, p, n: powers.append(p) or binomial(c, p, n))
        for first, then in (("a", "b"), ("b", "a")):
            cf._denominator.cache_clear()
            powers.clear()
            for name in (first, then):
                for which in (1, 2, 3):
                    build = coeff_a if name == "a" else coeff_b
                    assert bits(build(m, roots, which)) == apart[name, which]
            assert [p for p in powers if p < 0] == [-(m + 1)] * 6
