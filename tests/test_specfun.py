"""Bessel / kernel accuracy tests against independent oracles.

Oracles used here never call the code under test:
* integer-order J and I via their integral representations on a
  Gauss-Legendre rule (entire integrands, so the rule is exact to
  rounding at 200 nodes),
* half-integer orders via trigonometric / hyperbolic closed forms,
* zeros via bisection on the oracles (j_{3/2,n} solves tan x = x).
"""

import math

import numpy as np
import pytest

from helmholtz_means.specfun import (
    BESSEL_I_MAX_T,
    a_norm,
    b_norm,
    bessel_i,
    bessel_j,
    bessel_zero,
    gamma_fn,
)

# Reference values for the first zeros, correct to 1e-6.
J_1_1 = 3.831706
J_32_1 = 4.493409

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(200)
_THETA = 0.5 * math.pi * (_GL_NODES + 1.0)
_W = 0.5 * math.pi * _GL_WEIGHTS


def oracle_j_int(n, x):
    """J_n(x) = (1/pi) int_0^pi cos(n*theta - x*sin(theta)) d(theta)."""
    return float(np.sum(_W * np.cos(n * _THETA - x * np.sin(_THETA))) / math.pi)


def oracle_i_int(n, x):
    """I_n(x) = (1/pi) int_0^pi exp(x*cos(theta)) cos(n*theta) d(theta)."""
    return float(np.sum(_W * np.exp(x * np.cos(_THETA)) * np.cos(n * _THETA)) / math.pi)


def oracle_j_half(x):
    return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)


def oracle_j_3half(x):
    return math.sqrt(2.0 / (math.pi * x)) * (math.sin(x) / x - math.cos(x))


def oracle_i_half(x):
    return math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestGamma:
    def test_classical_values(self):
        assert gamma_fn(1.0) == 1.0
        assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-15
        # Gamma(5/2) = 3*sqrt(pi)/4, by recurrence from Gamma(1/2)
        assert abs(gamma_fn(2.5) - 3.0 * math.sqrt(math.pi) / 4.0) < 1e-15
        assert abs(gamma_fn(2.5) - 1.3293403881791370) < 1e-13

    def test_half_integer_grid(self):
        for k in range(1, 60):
            x = 0.5 * k
            assert gamma_fn(x) == pytest.approx(math.gamma(x), rel=1e-13)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            gamma_fn(bad)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(2.5, 0.0) == 0.0

    def test_half_order_closed_form(self):
        assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-13)
        for t in np.linspace(0.1, 50.0, 173):
            assert bessel_j(0.5, t) == pytest.approx(oracle_j_half(t), abs=1e-12)
            assert bessel_j(1.5, t) == pytest.approx(oracle_j_3half(t), abs=1e-12)

    def test_j1_vanishes_near_its_first_zero(self):
        assert abs(bessel_j(1, J_1_1)) <= 1e-5

    @pytest.mark.parametrize("l", [0, 1, 2, 3, 4, 5])
    def test_all_half_orders_vs_recursive_closed_form(self, l):
        # independent ladder built right here: J_{l+1/2} from
        # sqrt(2/(pi t)) (sin t, cos t) via the three-term recurrence
        for t in np.linspace(0.2, 50.0, 83):
            c = math.sqrt(2.0 / (math.pi * t))
            jm, jc = c * math.cos(t), c * math.sin(t)
            nu = 0.5
            for _ in range(l):
                jm, jc = jc, (2.0 * nu / t) * jc - jm
                nu += 1.0
            if t > nu:  # the upward ladder is only trustworthy below the order
                assert bessel_j(l + 0.5, t) == pytest.approx(jc, abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_integer_orders_vs_integral(self, n):
        for t in np.linspace(0.05, 50.0, 97):
            assert bessel_j(n, t) == pytest.approx(oracle_j_int(n, t), abs=1e-11)

    def test_recurrence_identity(self):
        # J_{nu-1}(t) + J_{nu+1}(t) = (2 nu / t) J_nu(t)
        for nu in [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0]:
            for t in np.linspace(0.1, 30.0, 41):
                lhs = bessel_j(nu - 1, t) + bessel_j(nu + 1, t)
                rhs = 2.0 * nu / t * bessel_j(nu, t)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_series_recurrence_seam(self):
        # The evaluation strategy switches at t = max(12, 2 nu); both
        # sides of the seam must agree.
        for nu in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0]:
            cut = max(12.0, 2.0 * nu)
            assert bessel_j(nu, cut) == pytest.approx(bessel_j(nu, cut + 1e-12), abs=1e-11)

    def test_vectorized_matches_scalar(self):
        # Series/recurrence lengths are chosen collectively for an array,
        # so agreement is to rounding, not bitwise.
        t = np.linspace(0.0, 40.0, 57)
        vec = bessel_j(1, t)
        assert vec.shape == t.shape
        for i, ti in enumerate(t):
            assert vec[i] == pytest.approx(bessel_j(1, float(ti)), abs=1e-13)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-1.0, 1.0)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(1, 0.0) == 0.0

    def test_half_order_closed_form(self):
        assert bessel_i(0.5, 1.0) == pytest.approx(oracle_i_half(1.0), rel=1e-13)
        assert bessel_i(0.5, 1.0) == pytest.approx(0.9376748882454876, rel=1e-12)
        for t in np.linspace(0.1, 50.0, 111):
            assert bessel_i(0.5, t) == pytest.approx(oracle_i_half(t), rel=1e-11)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6])
    def test_integer_orders_vs_integral(self, n):
        for t in np.linspace(0.05, 50.0, 53):
            assert bessel_i(n, t) == pytest.approx(oracle_i_int(n, t), rel=1e-11)

    def test_monotone_in_t(self):
        assert bessel_i(1, 2.0) > bessel_i(1, 1.0)

    def test_large_argument_guard(self):
        bessel_i(0, BESSEL_I_MAX_T)  # boundary allowed
        with pytest.raises(ValueError):
            bessel_i(0, BESSEL_I_MAX_T + 1.0)
        with pytest.raises(ValueError):
            bessel_i(0, -0.5)

    def test_deep_into_recurrence_range(self):
        # I_{1/2} closed form reaches any t; exercise t far past the seam.
        for t in [60.0, 120.0, 250.0, 300.0]:
            assert bessel_i(0.5, t) == pytest.approx(oracle_i_half(t), rel=1e-11)

    def test_integer_orders_deep_arguments(self):
        # exp(t cos(theta)) stays finite to t = 200, so the integral
        # oracle still applies well past the series/recurrence seam
        for n in [0, 1, 3]:
            for t in [80.0, 140.0, 200.0]:
                assert bessel_i(n, t) == pytest.approx(oracle_i_int(n, t), rel=1e-10)


class TestKernels:
    def test_normalization_exact(self):
        for m in range(11):
            assert a_norm(m, 0.0) == 1.0
            assert b_norm(m, 0.0) == 1.0

    def test_a1_is_sinc(self):
        for t in np.linspace(1e-3, 30.0, 211):
            assert a_norm(1, t) == pytest.approx(math.sin(t) / t, abs=1e-12)
        assert abs(a_norm(1, math.pi)) < 1e-12

    def test_b1_is_sinhc(self):
        for t in np.linspace(1e-3, 30.0, 211):
            assert b_norm(1, t) == pytest.approx(math.sinh(t) / t, rel=1e-12)
        assert b_norm(1, 1.0) == pytest.approx(1.1752011936438014, rel=1e-12)

    def test_a0_is_j0(self):
        for t in np.linspace(0.0, 30.0, 61):
            assert a_norm(0, t) == pytest.approx(oracle_j_int(0, t), abs=1e-11)

    def test_a2_a3_closed_forms_through_large_t(self):
        # a_2 = 2 J_1(t)/t; a_3 = 3 (sin t - t cos t) / t^3.  The grid
        # crosses the series/recurrence seam at t = 12.
        for t in np.linspace(0.5, 50.0, 100):
            assert a_norm(2, t) == pytest.approx(2.0 * oracle_j_int(1, t) / t, abs=1e-11)
            a3 = 3.0 * (math.sin(t) - t * math.cos(t)) / t**3
            assert a_norm(3, t) == pytest.approx(a3, abs=1e-12)

    def test_small_t_even_series(self):
        # a/b = 1 -/+ t^2/(2(m+2)) + O(t^4)
        for m in range(9):
            t = 1e-4
            lead = t * t / (2.0 * (m + 2.0))
            assert a_norm(m, t) == pytest.approx(1.0 - lead, abs=1e-17)
            assert b_norm(m, t) == pytest.approx(1.0 + lead, abs=1e-17)

    def test_b_monotone(self):
        t = np.linspace(0.0, 10.0, 10_000)
        for m in range(9):
            v = b_norm(m, t)
            assert np.all(np.diff(v) > 0.0)
            assert np.all(v >= 1.0)

    def test_a_sign_structure(self):
        for m in range(11):
            z1 = bessel_zero(0.5 * m, 1)
            t = np.linspace(1e-6, z1 * 0.999, 500)
            assert np.all(a_norm(m, t) > 0.0)
            assert a_norm(m, z1 * 1.02) < 0.0

    def test_a_bounded_with_max_only_at_zero(self):
        # t >= 1e-6 so the 1 - t^2/(2(m+2)) droop is resolvable in float64
        t = np.linspace(1e-6, 60.0, 4001)
        for m in range(11):
            v = a_norm(m, t)
            assert np.all(v < 1.0)
            assert np.all(v > -1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            a_norm(2, -0.1)
        with pytest.raises(ValueError):
            b_norm(2, -0.1)
        with pytest.raises(ValueError):
            a_norm(-1, 1.0)


class TestBesselZero:
    def test_reference_first_zeros(self):
        assert bessel_zero(1, 1) == pytest.approx(J_1_1, abs=1e-5)
        assert bessel_zero(1.5, 1) == pytest.approx(J_32_1, abs=1e-5)

    def test_j0_first_zero_against_bisection_oracle(self):
        ref = bisect(lambda x: oracle_j_int(0, x), 2.0, 3.0)
        assert bessel_zero(0, 1) == pytest.approx(ref, abs=1e-9)
        assert bessel_zero(0, 1) == pytest.approx(2.404825557695773, abs=1e-9)

    def test_j32_first_zero_solves_tan_x_eq_x(self):
        ref = bisect(lambda x: math.sin(x) / x - math.cos(x), math.pi, 4.6)
        assert bessel_zero(1.5, 1) == pytest.approx(ref, abs=1e-9)

    def test_half_order_zeros_are_multiples_of_pi(self):
        for n in range(1, 8):
            assert bessel_zero(0.5, n) == pytest.approx(n * math.pi, abs=1e-9)

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.0])
    def test_zero_consistency(self, nu):
        for n in range(1, 6):
            z = bessel_zero(nu, n)
            assert abs(bessel_j(nu, z)) <= 1e-8

    def test_full_contract_range_brackets(self):
        # Must not fail to bracket anywhere in nu <= 6, n <= 20; zeros
        # strictly increase in n and interlace with the next order.
        for nu in np.arange(0.0, 6.5, 0.5):
            zs = [bessel_zero(float(nu), n) for n in range(1, 21)]
            assert np.all(np.diff(zs) > 0.0)
            if nu <= 5.0:
                nxt = [bessel_zero(float(nu) + 1.0, n) for n in range(1, 20)]
                for n in range(19):
                    assert zs[n] < nxt[n] < zs[n + 1]

    def test_high_order_first_zero(self):
        # Worst case for the asymptotic guess; j_{6,1} = 9.93610952...
        assert bessel_zero(6, 1) == pytest.approx(9.936109524217684, abs=1e-9)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bessel_zero(1, 0)
        with pytest.raises(ValueError):
            bessel_zero(6.5, 1)


class TestSeriesRegionAgainstScipy:
    """The Horner series region against scipy.special, inside the
    documented contracts: J absolute 1e-11, I relative 1e-11; the
    kernels, which are J and I rescaled, to the same bounds."""

    @pytest.mark.parametrize("m", range(11))
    def test_kernels(self, m):
        sp = pytest.importorskip("scipy.special")
        nu = 0.5 * m
        t = np.linspace(1e-3, max(12.0, float(m)), 2001)
        scale = math.gamma(nu + 1.0) / (0.5 * t) ** nu
        assert np.max(np.abs(a_norm(m, t) - scale * sp.jv(nu, t))) <= 1e-11
        b_ref = scale * sp.iv(nu, t)
        assert np.max(np.abs(b_norm(m, t) / b_ref - 1.0)) <= 1e-11

    @pytest.mark.parametrize("nu", [0.5 * k for k in range(13)])
    def test_bessel(self, nu):
        sp = pytest.importorskip("scipy.special")
        t = np.linspace(0.0, max(12.0, 2.0 * nu), 2001)
        assert np.max(np.abs(bessel_j(nu, t) - sp.jv(nu, t))) <= 1e-11
        ts = t[1:]  # I_nu(0) = 0 for nu > 0: relative error is undefined there
        assert np.max(np.abs(bessel_i(nu, ts) / sp.iv(nu, ts) - 1.0)) <= 1e-11
        assert bessel_i(nu, 0.0) == sp.iv(nu, 0.0)
