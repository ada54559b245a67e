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

from helmholtz_means import specfun
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
        # sides of the seam must agree, for J and for I.
        for nu in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0]:
            cut = max(12.0, 2.0 * nu)
            assert bessel_j(nu, cut) == pytest.approx(bessel_j(nu, cut + 1e-12), abs=1e-11)
            assert bessel_i(nu, cut) == pytest.approx(bessel_i(nu, cut + 1e-12), rel=1e-11)

    def test_near_integer_order_past_the_cutoff_is_refused(self):
        # 2 nu within 1e-9 of an integer is not an integer: past the
        # cutoff no recurrence serves it, so it raises instead of
        # returning a neighbouring order's value; the series still serves it
        nu = 2.9999999999
        for f in (bessel_j, bessel_i):
            with pytest.raises(ValueError, match="only integer and half-integer orders"):
                f(nu, 20.0)
            with pytest.raises(ValueError, match="only integer and half-integer orders"):
                f(nu, np.array([1.0, 20.0]))
        assert bessel_j(nu, 12.0) == pytest.approx(bessel_j(3.0, 12.0), abs=1e-9)
        assert bessel_i(nu, 12.0) == pytest.approx(bessel_i(3.0, 12.0), rel=1e-9)

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

    @pytest.mark.parametrize("m", range(9))
    def test_one_float_point_matches_array_path(self, m):
        # a float in the series region takes the scalar Horner route; it
        # must give the array path's value bit for bit, as a Python float
        cutoff = max(12.0, float(m))
        grid = np.concatenate([np.linspace(0.0, cutoff, 241), [1e-9, 0.1 * math.pi, math.e]])
        for kernel in (a_norm, b_norm):
            for t in grid.tolist():
                got = kernel(m, t)
                assert type(got) is float
                # t is the largest point, which fixes the series' term count
                assert got == kernel(m, np.array([0.5 * t, t]))[1] == kernel(m, np.array(t))
                assert kernel(m, np.array([t])).tolist() == [got]
                assert kernel(m, np.float64(t)) == got

    @pytest.mark.parametrize("m", range(7))
    def test_one_float_point_past_the_cutoff_matches_array_path(self, m):
        # past the cutoff a float takes the recurrence on Python floats;
        # it must give the one-point array's value bit for bit
        cutoff = max(12.0, float(m))
        grid = np.linspace(cutoff, 300.0, 97)[1:].tolist() + [cutoff + 1e-9, 12.5, 50.0]
        for kernel in (a_norm, b_norm):
            for t in grid:
                got = kernel(m, t)
                assert type(got) is float
                # t is the largest point past the cutoff, where the recurrence starts
                both = kernel(m, np.array([0.5 * (cutoff + t), t]))
                assert got == both[1] == kernel(m, np.array(t))
                assert kernel(m, np.array([t])).tolist() == [got]

    def test_domain_errors(self):
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                a_norm(2, bad)
            with pytest.raises(ValueError):
                b_norm(2, bad)
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
        # Over nu <= 6, n <= 20 the zeros strictly increase in n and
        # interlace with the next order.
        for nu in np.arange(0.0, 6.5, 0.5):
            zs = [bessel_zero(float(nu), n) for n in range(1, 21)]
            assert np.all(np.diff(zs) > 0.0)
            if nu <= 5.0:
                nxt = [bessel_zero(float(nu) + 1.0, n) for n in range(1, 20)]
                for n in range(19):
                    assert zs[n] < nxt[n] < zs[n + 1]

    def test_high_order_first_zero(self):
        # The largest order served; j_{6,1} = 9.93610952...
        assert bessel_zero(6, 1) == pytest.approx(9.936109524217684, abs=1e-9)

    def test_argument_validation(self):
        # arguments are checked ahead of the cache, so every call raises
        for _ in range(2):
            # a fractional index is refused, not truncated to j_{1,1}
            for nu, n in [(1, 0), (6.5, 1), (float("nan"), 1), (1, 1.9), (1, float("inf"))]:
                with pytest.raises(ValueError):
                    bessel_zero(nu, n)

    def test_repeated_call_is_a_cache_hit(self):
        specfun._zeros.cache_clear()
        first = bessel_zero(2.5, 3)
        hits = specfun._zeros.cache_info().hits
        assert bessel_zero(2.5, 3) == first
        info = specfun._zeros.cache_info()
        assert (info.currsize, info.hits) == (1, hits + 1)

    def test_numpy_order_shares_the_float_entry(self):
        specfun._zeros.cache_clear()
        z = bessel_zero(1.5, 1)
        assert bessel_zero(np.float64(1.5), 1) == z == bessel_zero(np.array(1.5), 1)
        info = specfun._zeros.cache_info()
        assert (info.currsize, info.hits) == (1, 2)

    def test_cached_zeros_are_read_only(self):
        zeros = specfun._zeros(1.0, 128)
        assert not zeros.flags.writeable
        with pytest.raises(ValueError):
            zeros[0] = 0.0

    def test_zero_depends_only_on_order_and_index(self):
        # a zero's truncation size is fixed by n, so neither a later,
        # larger request nor a cache clear moves its bits
        specfun._zeros.cache_clear()
        first = bessel_zero(1.0, 1)
        bessel_zero(1.0, 150)
        assert bessel_zero(1.0, 1) == first
        specfun._zeros.cache_clear()
        assert bessel_zero(1.0, 1) == first

    def test_index_bound(self):
        assert bessel_zero(0.0, 200) == pytest.approx(627.5333317469042, abs=1e-11)
        assert bessel_zero(0.0, 200.0) == bessel_zero(0.0, np.int64(200)) == bessel_zero(0.0, 200)
        for n in (201, 10_000):
            with pytest.raises(ValueError, match="1 <= n <= 200"):
                bessel_zero(1.0, n)

    def test_non_half_integer_order_past_the_series_cutoff(self):
        # j_{0.3,4..6} lie past t = 12, where bessel_j serves only integer
        # and half-integer orders; the zeros interlace j_{0,n} < j_{0.3,n} < n pi
        for n in range(4, 7):
            z = bessel_zero(0.3, n)
            assert z > 12.0
            assert bessel_zero(0.0, n) < z < n * math.pi

    def test_zeros_against_scipy(self):
        sp = pytest.importorskip("scipy.special")
        optimize = pytest.importorskip("scipy.optimize")
        for nu in [0.3] + [0.5 * k for k in range(13)]:
            for n in range(1, 201):
                z = bessel_zero(nu, n)
                ref = optimize.brentq(lambda x: sp.jv(nu, x), z - 0.5, z + 0.5,
                                      xtol=1e-14, rtol=1e-15)
                assert abs(z - ref) <= 1e-11, (nu, n)


def _regions(values):
    """Each value in the series region, under its bare id, and in the
    recurrence region past the cutoff."""
    return [pytest.param(v, "series", id=str(v)) for v in values] + [
        pytest.param(v, "recurrence", id=f"{v}-recurrence") for v in values
    ]


class TestSeriesRegionAgainstScipy:
    """Both evaluation regions against scipy.special, inside the
    documented contracts: J absolute 1e-11 on the series region
    t <= max(12, 2 nu) and past it to t = 50, I relative 1e-11 on the
    series region and past it to t = 300; the kernels, which are J and
    I rescaled, to the same bounds over the same ranges."""

    @pytest.mark.parametrize("m, region", _regions(range(13)))
    def test_kernels(self, m, region):
        sp = pytest.importorskip("scipy.special")
        nu = 0.5 * m
        cutoff = max(12.0, float(m))
        if region == "series":
            ta = tb = np.linspace(1e-3, cutoff, 2001)
        else:
            ta, tb = (np.linspace(cutoff, top, 2001)[1:] for top in (50.0, 300.0))
        a_ref = math.gamma(nu + 1.0) / (0.5 * ta) ** nu * sp.jv(nu, ta)
        assert np.max(np.abs(a_norm(m, ta) - a_ref)) <= 1e-11
        b_ref = math.gamma(nu + 1.0) / (0.5 * tb) ** nu * sp.iv(nu, tb)
        assert np.max(np.abs(b_norm(m, tb) / b_ref - 1.0)) <= 1e-11

    @pytest.mark.parametrize("nu, region", _regions([0.5 * k for k in range(13)]))
    def test_bessel(self, nu, region):
        sp = pytest.importorskip("scipy.special")
        cutoff = max(12.0, 2.0 * nu)
        if region == "series":
            tj = np.linspace(0.0, cutoff, 2001)
            ti = tj[1:]  # I_nu(0) = 0 for nu > 0: relative error is undefined there
            assert bessel_i(nu, 0.0) == sp.iv(nu, 0.0)
        else:
            tj, ti = (np.linspace(cutoff, top, 2001)[1:] for top in (50.0, 300.0))
        assert np.max(np.abs(bessel_j(nu, tj) - sp.jv(nu, tj))) <= 1e-11
        assert np.max(np.abs(bessel_i(nu, ti) / sp.iv(nu, ti) - 1.0)) <= 1e-11

    @pytest.mark.parametrize("nu", [12.5, 24.5, 30.5, 60.0, 75.5, 100.5, 120.0])
    def test_high_order_i_past_the_cutoff(self, nu):
        # Upward from I_{1/2}, rounding grows by about exp(2t - 2 nu eta)
        # (1e-10 at nu = 30.5); Miller's downward recurrence keeps every
        # order, half-integers included, to 1e-11 up to t = 300
        sp = pytest.importorskip("scipy.special")
        t = np.linspace(2.0 * nu, 300.0, 2001)[1:]
        assert np.max(np.abs(bessel_i(nu, t) / sp.iv(nu, t) - 1.0)) <= 1e-11

    @pytest.mark.parametrize("m", [25, 49, 61, 120, 151, 201])
    def test_high_order_b_norm_past_the_cutoff(self, m):
        sp = pytest.importorskip("scipy.special")
        nu = 0.5 * m
        t = np.linspace(float(m), 300.0, 2001)[1:]
        b_ref = math.gamma(nu + 1.0) / (0.5 * t) ** nu * sp.iv(nu, t)
        assert np.max(np.abs(b_norm(m, t) / b_ref - 1.0)) <= 1e-11


class TestLogForm:
    """Gamma(nu + 1) / (t/2)^nu and its reciprocal are formed in log form,
    so a kernel or Bessel value that fits in a double is returned finite
    even where either factor alone would overflow."""

    def test_former_overflows_against_scipy(self):
        sp = pytest.importorskip("scipy.special")
        b = b_norm(240, 300.0)
        assert b == pytest.approx(1.09e56, rel=1e-2)
        assert b == pytest.approx(math.exp(math.lgamma(121.0) - 120.0 * math.log(150.0))
                                  * sp.iv(120, 300.0), rel=1e-11)
        assert bessel_i(149.5, 299.0) == pytest.approx(sp.iv(149.5, 299.0), rel=1e-11)
        a = a_norm(400, 450.0)
        ref = math.exp(math.lgamma(201.0) - 200.0 * math.log(225.0)) * sp.jv(200, 450.0)
        assert math.isfinite(a) and a == pytest.approx(ref, rel=1e-11)
        for kernel in (a_norm, b_norm):
            assert kernel(240, np.array([300.0]))[0] == kernel(240, 300.0)


class TestMillerOrders:
    """One downward pass gives every order nu + l at once, for the
    sphere rule's error bound."""

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.5, 5.0])
    def test_against_scipy(self, nu):
        sp = pytest.importorskip("scipy.special")
        for t in (1e-3, 0.7, 4.5, 12.0, 60.0, 120.0):
            count = int(1.5 * t + 2.0 * nu) + 25
            orders = nu + np.arange(count)
            j = np.array(specfun._miller_orders(nu, t, -1.0, count))
            assert np.max(np.abs(j - sp.jv(orders, t))) <= 1e-14
            i = np.array(specfun._miller_orders(nu, t, 1.0, count))
            assert np.max(np.abs(i / sp.ive(orders, t) / math.exp(t) - 1.0)
                          [sp.ive(orders, t) > 1e-300]) <= 1e-12

    def test_one_order_is_the_kernel_recurrence(self):
        # count = 1 repeats _miller's pass bit for bit
        for nu, t, sign in [(0.0, 20.0, -1.0), (3.0, 44.5, -1.0), (2.5, 100.0, 1.0), (1.0, 13.0, 1.0)]:
            one = specfun._miller_orders(nu, t, sign)[0]
            assert one == specfun._miller(nu, np.array([t]), sign)[0]


class TestMillerRescaling:
    """Miller's array pass checks for rescaling every 8 steps past the
    series cutoff; values stay finite and accurate where rescales fire:
    J out to t = 10^4, and any array whose smallest t is far below its
    largest, as every point's pass starts from the largest."""

    @pytest.mark.parametrize("nu", range(8))
    def test_integer_j_against_scipy(self, nu):
        sp = pytest.importorskip("scipy.special")
        cutoff = max(12.0, 2.0 * nu)
        for top in (300.0, 1e4):
            t = np.linspace(cutoff, top, 997)[1:]
            assert np.max(np.abs(bessel_j(nu, t) - sp.jv(nu, t))) <= 1e-14

    @pytest.mark.parametrize("nu", [0.5 * k for k in range(15)])
    def test_i_against_scipy(self, nu):
        sp = pytest.importorskip("scipy.special")
        t = np.linspace(max(12.0, 2.0 * nu), 300.0, 997)[1:]
        assert np.max(np.abs(bessel_i(nu, t) / sp.iv(nu, t) - 1.0)) <= 1e-13

    def test_rescales_fire_in_these_ranges(self, monkeypatch):
        # with the threshold out of reach the passes above give other bits
        t = np.linspace(12.5, 1e4, 997)
        j, i = bessel_j(3, t), bessel_i(3, t[t <= 300.0])
        monkeypatch.setattr(specfun, "_RESCALE_AT", math.inf)
        with np.errstate(all="ignore"):
            assert not np.array_equal(bessel_j(3, t), j)
            assert not np.array_equal(bessel_i(3, t[t <= 300.0]), i)

    def test_one_order_repeats_the_array_pass_where_it_rescales(self):
        # _miller_orders keeps _miller's cadence, rescalings and normalizing
        # sum, so count = 1 gives a one-point pass's bits at any t
        for t in np.linspace(12.5, 1e4, 41).tolist():
            for nu in (0.0, 1.0, 7.0):
                assert specfun._miller_orders(nu, t, -1.0)[0] == specfun._miller(
                    nu, np.array([t]), -1.0)[0]
        for t in np.linspace(12.5, 300.0, 41).tolist():
            for nu in (0.0, 2.5, 7.0):
                assert specfun._miller_orders(nu, t, 1.0)[0] == specfun._miller(
                    nu, np.array([t]), 1.0)[0]

    def test_cadence_bound(self):
        # past the cutoff every pass checks every 8 steps: one step grows a
        # value less than 2100-fold there; far below it, every step
        for t in np.linspace(12.0 + 1e-9, 1e4, 101).tolist():
            start = specfun._miller_start(t, -1.0) + 1
            assert 2.0 * start / t + 1.0 < 2100.0
            assert specfun._rescale_every(start, t) == 8
        assert specfun._rescale_every(60, 1e-3) == 1


class TestSeriesCancellation:
    """J's ascending series is refused where 2^-52 sum |terms| at its
    largest point exceeds 1e-11; only orders above 6 reach t > 12."""

    @pytest.mark.parametrize("call, where", [
        (lambda: bessel_j(60, 100.0), "t = 100 for order 60"),
        (lambda: bessel_j(60, np.array([1.0, 100.0])), "t = 100 for order 60"),
        (lambda: bessel_j(20, 39.0), "t = 39 for order 20"),
        (lambda: a_norm(120, 110.0), "t = 110 for order 60"),
        (lambda: a_norm(120, np.array([110.0])), "t = 110 for order 60"),
        (lambda: a_norm(120, np.array([3.0, 110.0])), "t = 110 for order 60"),
    ])
    def test_cancelling_series_is_refused(self, call, where):
        with pytest.raises(ValueError, match=f"series cancels at {where}"):
            call()

    def test_accepted_series_meet_the_contract(self):
        # the checks' largest order and t, m <= 14 and t <= 14, and series
        # points that stay at t <= 12 whatever the order
        sp = pytest.importorskip("scipy.special")
        for nu, t in [(7.0, 14.0), (6.5, 13.0), (20.0, 12.0), (60.0, 30.0)]:
            assert abs(bessel_j(nu, t) - sp.jv(nu, t)) <= 1e-11
        t = np.linspace(0.0, 14.0, 57)
        ref = math.gamma(8.0) / (0.5 * t[1:]) ** 7 * sp.jv(7, t[1:])
        assert np.max(np.abs(a_norm(14, t)[1:] - ref)) <= 1e-11
        assert bessel_j(60, np.array([1.0, 150.0])).shape == (2,)  # 150 is past 2 nu
        assert b_norm(120, 110.0) > 1.0  # I's series has no cancellation

    def test_orders_up_to_six_pay_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("checked")

        monkeypatch.setattr(specfun, "_check_cancellation", refuse)
        t = np.linspace(0.0, 12.0, 9)
        for m in range(13):
            a_norm(m, t), a_norm(m, 12.0), bessel_j(0.5 * m, t), bessel_j(0.5 * m, 12.0)
