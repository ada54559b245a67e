"""Quadrature rules against 1-D reductions, brute force, and each other."""

import math

import numpy as np
import pytest

from helmholtz_means.geometry import (
    EstimationError,
    ball,
    box,
    custom_domain,
    difference,
    translate,
    volume,
)
from helmholtz_means.quadrature import (
    _ball_rule,
    _box_rule,
    _gauss,
    _leggauss,
    ball_mean,
    box_mean,
    mc_integral,
    mc_mean,
    mean_rule,
    resolution,
    surface_flux,
    surface_flux_error,
)
from helmholtz_means.solutions import (
    membrane_eigenfunction,
    plane_wave,
    radial_solution,
)
from helmholtz_means.specfun import a_norm


def simpson(vals, h):
    n = len(vals) - 1
    assert n % 2 == 0
    return (h / 3.0) * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2]) + 2.0 * np.sum(vals[2:-2:2]))


def radial_mean_oracle(m, lam, r, n=20_001):
    """M(U, B_r) for U = a_norm(m-2, lam|x|) via the 1-D reduction
    m * int_0^1 a_{m-2}(lam r s) s^{m-1} ds, Simpson on a dense grid."""
    s = np.linspace(0.0, 1.0, n)
    vals = a_norm(m - 2, lam * r * s) * s ** (m - 1)
    return m * simpson(vals, s[1] - s[0])


def disk_mean_bruteforce(f, r, n=1_601):
    """Mean over the disk of radius r at the origin by iterated Cartesian
    Simpson with the substitution x = r sin(t) (independent of any polar
    product rule)."""
    t = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n)
    x = r * np.sin(t)
    jac = r * np.cos(t)
    inner = np.empty(n)
    for k in range(n):
        half = math.sqrt(max(r * r - x[k] * x[k], 0.0))
        y = np.linspace(-half, half, n)
        pts = np.stack([np.full(n, x[k]), y], axis=1)
        inner[k] = simpson(np.asarray(f(pts)), y[1] - y[0]) if half > 0 else 0.0
    outer = simpson(inner * jac, t[1] - t[0])
    return outer / (math.pi * r * r)


class TestBallMean:
    def test_constant_is_exactly_one(self):
        one = lambda p: np.ones(len(p))
        assert ball_mean(one, [0, 0], 1.0).value == 1.0
        assert ball_mean(one, [0.5, -1, 2], 0.7).value == 1.0

    def test_radial_field_m2(self):
        # M(U, B_1) = a_norm(2, 1) = 2 J_1(1); DERIVED via 1-D Simpson oracle
        u = radial_solution(2, 1.0, [0, 0])
        est = ball_mean(u, [0, 0], 1.0)
        assert est.value == pytest.approx(radial_mean_oracle(2, 1.0, 1.0), abs=1e-10)
        assert est.value == pytest.approx(0.8801011714898671, abs=1e-10)
        assert est.value == pytest.approx(a_norm(2, 1.0), abs=1e-10)

    def test_plane_wave_m2_equals_kernel_and_bruteforce(self):
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        est = ball_mean(u, [0, 0], 1.0)
        assert est.value == pytest.approx(a_norm(2, 1.0), abs=1e-10)
        assert est.value == pytest.approx(disk_mean_bruteforce(u, 1.0), abs=1e-9)

    def test_radial_field_m3(self):
        u = radial_solution(3, 1.0, [0, 0, 0])
        est = ball_mean(u, [0, 0, 0], 2.0)
        assert est.value == pytest.approx(radial_mean_oracle(3, 1.0, 2.0), abs=1e-10)
        assert est.value == pytest.approx(a_norm(3, 2.0), abs=1e-10)

    def test_off_center_ball(self):
        c = np.array([0.4, -0.3])
        u = plane_wave(2, 2.0, [0, 1], 0.7)
        est = ball_mean(u, c, 0.8)
        # mean-value formula: M(u, B_r(c)) = a_norm(2, lam r) u(c)
        assert est.value == pytest.approx(a_norm(2, 1.6) * u(c), abs=1e-10)

    def test_error_estimate_reported(self):
        u = plane_wave(2, 4.0, [1, 0], 0.0)
        est = ball_mean(u, [0, 0], 1.0)
        assert est.method == "ball_spectral"
        assert est.abs_error_estimate < 1e-10

    def test_convergence_order(self):
        u = radial_solution(2, 4.0, [0, 0])
        exact = a_norm(2, 6.0)
        errs = []
        for nodes in [8, 16, 32]:
            est = ball_mean(u, [0, 0], 1.5, radial_nodes=nodes, angular_resolution=nodes)
            errs.append(max(abs(est.value - exact), 1e-13))
        for a, b in zip(errs, errs[1:]):
            assert b <= a / 4.0 or a <= 1e-12

    def test_fallback_warns_above_m3(self):
        one = lambda p: np.ones(len(p))
        with pytest.warns(UserWarning):
            est = ball_mean(one, [0, 0, 0, 0], 1.0, mc_samples=10_000, seed=1)
        assert est.method == "monte_carlo"
        assert est.value == 1.0

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ball_mean(lambda p: np.ones(len(p)), [0, 0], 0.0)


class TestBoxMean:
    def test_constant(self):
        assert box_mean(lambda p: np.ones(len(p)), [0, 0], [1, 1]).value == 1.0

    def test_membrane_21_zero_mean(self):
        u = membrane_eigenfunction(2, 1, 1.0)
        assert abs(box_mean(u, [0, 0], [1, 1]).value) <= 1e-12

    def test_membrane_11_closed_form(self):
        # (int_0^1 sin(pi x) dx)^2 = (2/pi)^2
        u = membrane_eigenfunction(1, 1, 1.0)
        assert box_mean(u, [0, 0], [1, 1]).value == pytest.approx(
            (2.0 / math.pi) ** 2, abs=1e-12
        )

    def test_3d_box(self):
        f = lambda p: p[:, 0] * p[:, 1] + p[:, 2] ** 2
        est = box_mean(f, [0, 0, 0], [1, 1, 1], nodes_per_axis=12)
        assert est.value == pytest.approx(0.25 + 1.0 / 3.0, abs=1e-13)

    def test_convergence_order(self):
        u = membrane_eigenfunction(3, 3, 1.0)
        f = lambda p: u(p) ** 2  # mean 1/4, smooth, nontrivial
        errs = []
        for nodes in [4, 8, 16]:
            est = box_mean(f, [0, 0], [1, 1], nodes_per_axis=nodes)
            errs.append(max(abs(est.value - 0.25), 1e-13))
        for a, b in zip(errs, errs[1:]):
            assert b <= a / 4.0 or a <= 1e-12

    def test_degenerate(self):
        with pytest.raises(ValueError):
            box_mean(lambda p: np.ones(len(p)), [0, 0], [1, 0])


class TestMonteCarlo:
    def test_constant_exact_with_zero_bar(self):
        est = mc_mean(lambda p: np.ones(len(p)), ball([0, 0], 1.0), samples=50_000, seed=0)
        assert est.value == 1.0
        assert est.abs_error_estimate == 0.0

    def test_odd_function_over_ball(self):
        est = mc_mean(lambda p: p[:, 0], ball([0, 0], 1.0), samples=500_000, seed=1)
        assert abs(est.value) <= max(est.abs_error_estimate, 1e-12)

    def test_cross_method_against_box_gauss(self):
        u = radial_solution(2, 1.0, [0, 0])
        d = box([-0.5, -0.5], [0.5, 0.5])
        mc = mc_mean(u, d, samples=1_000_000, seed=2)
        gauss = box_mean(u, [-0.5, -0.5], [0.5, 0.5])
        assert abs(mc.value - gauss.value) <= mc.abs_error_estimate

    def test_agreement_with_ball_spectral_20_seeds(self):
        u = plane_wave(2, 1.0, [1, 0], 0.3)
        spectral = ball_mean(u, [0, 0], 1.0).value
        for seed in range(20):
            mc = mc_mean(u, ball([0, 0], 1.0), samples=200_000, seed=seed)
            assert abs(mc.value - spectral) <= mc.abs_error_estimate

    def test_deterministic_per_seed(self):
        u = radial_solution(2, 1.0, [0, 0])
        d = ball([0, 0], 1.0)
        a = mc_mean(u, d, samples=100_000, seed=7)
        b = mc_mean(u, d, samples=100_000, seed=7)
        assert (a.value, a.abs_error_estimate, a.samples_or_nodes) == (
            b.value,
            b.abs_error_estimate,
            b.samples_or_nodes,
        )
        c = mc_mean(u, d, samples=100_000, seed=8)
        assert c.value != a.value

    def test_acceptance_guard(self):
        tiny = ball([0, 0], 0.05)
        loose = custom_domain(2, tiny.indicator, ([-50, -50], [50, 50]))
        with pytest.raises(EstimationError):
            mc_mean(lambda p: np.ones(len(p)), loose, samples=100_000, seed=0)

    def test_mc_integral_ball_area(self):
        val, err, vol, verr = mc_integral(
            lambda p: np.ones(len(p)), ball([0, 0], 1.0), samples=1_000_000, seed=3
        )
        assert abs(val - math.pi) <= err
        assert abs(vol - math.pi) <= verr
        assert val == vol  # same stream, f = 1


class TestMeanRule:
    def test_mc_rule_matches_volume_and_mc_mean_bit_for_bit(self):
        d = difference(box([-1, -1], [1, 1]), ball([0.9, 0.2], 0.3))  # crosses x = 1
        u = radial_solution(2, 2.0, [0, 0])
        ref = mc_mean(u, d, samples=100_000, seed=9)
        # |D| first: the points are redrawn from the seed for the mean
        rule = mean_rule(d, 2.0, samples=100_000, seed=9)
        assert rule.method == "monte_carlo"
        assert rule.volume() == volume(d, samples=100_000, seed=9)
        assert rule.accepted is None
        assert rule.mean(u) == ref
        assert rule.mean(u) == ref  # and again on the kept points
        # a mean first: one draw gives both
        rule = mean_rule(d, 2.0, samples=100_000, seed=9)
        assert rule.mean(u) == ref
        assert rule.volume() == volume(d, samples=100_000, seed=9)

    def test_product_rules_match_wrappers(self):
        # the counts follow from lambda times the radius, or the longest side
        u = plane_wave(2, 3.0, [0.6, 0.8], 0.2)
        radial, angular, _ = resolution(3.0 * 0.9)
        rule = mean_rule(translate(ball([0.1, 0.0], 0.9), [0.2, -0.3]), 3.0)
        assert rule.method == "ball_spectral"
        est = rule.mean(u)
        assert est == ball_mean(u, [0.3, -0.3], 0.9, radial_nodes=radial,
                                angular_resolution=angular)
        assert est.samples_or_nodes == radial * angular
        nodes = resolution(3.0 * 2.0)[2]
        rule = mean_rule(box([0, 0], [1, 2]), 3.0)
        assert rule.method == "box_gauss"
        est = rule.mean(u)
        assert est == box_mean(u, [0, 0], [1, 2], nodes_per_axis=nodes)
        assert est.samples_or_nodes == nodes * nodes

    def test_blocked_mean_equals_unblocked_formula(self):
        # more accepted points than one 2^18-point evaluation block
        d = difference(box([-1, -1], [1, 1]), ball([0.9, 0.2], 0.3))  # crosses x = 1
        u = plane_wave(2, 3.0, [0.6, 0.8], 0.2)
        rule = mean_rule(d, 3.0, samples=400_000, seed=9)
        est = rule.mean(u)
        assert est.samples_or_nodes == len(rule.accepted) > 2**18
        vals = np.asarray(u(rule.accepted), dtype=float)
        assert est.value == float(np.mean(vals))
        assert est.abs_error_estimate == 3.0 * float(np.std(vals)) / math.sqrt(len(vals))

    def test_samples_must_be_positive(self):
        d = difference(box([-1, -1], [1, 1]), ball([0.4, 0.2], 0.3))
        with pytest.raises(ValueError, match="samples"):
            mc_mean(lambda p: p[:, 0], d, samples=0)

    def test_product_rule_evaluates_in_blocks(self):
        # lambda r = 60 on a 3-D ball: about 7e5 fine and coarse nodes,
        # formed and evaluated at most 2^16 at a time
        u = plane_wave(3, 60.0, [0.0, 0.6, 0.8], 0.3)
        calls = []

        def spy(pts):
            calls.append(len(pts))
            return u(pts)

        radial, angular, _ = resolution(60.0)
        est = mean_rule(ball([0.1, 0.2, -0.3], 1.0), 60.0).mean(spy)
        fine = radial * angular * (angular // 2)
        assert est.samples_or_nodes == fine
        coarse_radial, coarse_angular = 2 * radial // 3, 2 * angular // 3
        assert sum(calls) == fine + coarse_radial * coarse_angular * (coarse_angular // 2)
        assert len(calls) > 2 and max(calls) <= 2**16
        assert abs(est.value - a_norm(3, 60.0) * u([0.1, 0.2, -0.3])) <= 1e-14
        assert est.abs_error_estimate <= 1e-14

    @pytest.mark.parametrize("m, build", [
        # rows of 500, 12168 and 4900 points cross the 2^16-point block
        # edges, and no level's size is a multiple of 2^16; 520 angular
        # nodes give 135200 directions, more than a block, on the fine level
        (2, lambda: _ball_rule(np.array([0.1, -0.2]), 0.8, 300, 500)),
        (3, lambda: mean_rule(ball([0.1, 0.2, -0.3], 1.0), 60.0)),
        (3, lambda: _box_rule([0, -1, 0.5], [1, 1, 2], 70)),
        (3, lambda: _ball_rule(np.array([0.1, 0.2, -0.3]), 1.0, 6, 520)),
    ], ids=["ball_2d", "ball_3d_lambda_r_60", "box_3d", "ball_3d_directions_above_a_block"])
    def test_level_mean_matches_gathered_blocks(self, m, build):
        # reference: each block gathered point by point from unravelled
        # flat indices, weights multiplied left to right
        rule = build()
        u = plane_wave(m, 7.0, np.full(m, 1.0 / math.sqrt(m)), 0.3)
        for factors in rule.levels:
            shape = tuple(len(w) for _, w in factors)
            total = math.prod(shape)
            assert total > 2**16 and total % 2**16
            blocks, ref_blocks, num, den = [], [], 0.0, 0.0
            for start in range(0, total, 2**16):
                idx = np.unravel_index(np.arange(start, min(start + 2**16, total)), shape)
                w = math.prod(weights[i] for (_, weights), i in zip(factors, idx))
                pts = rule._place(*(nodes[i] for (nodes, _), i in zip(factors, idx)))
                ref_blocks.append(pts)
                num += float(np.sum(w * np.asarray(u(pts), dtype=float)))
                den += float(np.sum(w))

            def spy(pts):
                blocks.append(pts.copy())
                return u(pts)

            assert rule._level_mean(spy, factors) == num / den
            assert len(blocks) == len(ref_blocks)
            assert all(np.array_equal(a, b) for a, b in zip(blocks, ref_blocks))

    def test_gauss_nodes_are_memoised_read_only(self):
        x, w = _leggauss(24)
        assert _leggauss(24)[0] is x
        ref_x, ref_w = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # _gauss maps the table into fresh arrays; writing them leaves it intact
        s, ws = _gauss(-1.0, 1.0, 24)
        assert s is not x and ws is not w and s.flags.writeable
        s[0] = ws[0] = 5.0
        assert np.array_equal(_leggauss(24)[0], ref_x) and np.array_equal(_leggauss(24)[1], ref_w)


class TestResolution:
    def test_counts_grow_with_the_band(self):
        counts = [resolution(t) for t in (0.0, 1.0, 20.0, 60.0, 120.0)]
        for lower, higher in zip(counts, counts[1:]):
            assert all(a <= b for a, b in zip(lower, higher))
        assert all(isinstance(n, int) and n >= 1 for c in counts for n in c)

    @pytest.mark.parametrize("band", [120.5, 1e6, float("inf"), float("nan")])
    def test_cap_names_the_band(self, band):
        with pytest.raises(ValueError, match="above the resolution cap 120"):
            resolution(band)

    def test_box_band_uses_the_longest_side(self):
        mean_rule(box([0, 0], [1, 3]), 40.0)
        with pytest.raises(ValueError, match="band lambda \\* size = 123 "):
            mean_rule(box([0, 0], [1, 3]), 41.0)


class TestSurfaceFlux:
    def test_constant_field_zero_flux(self):
        assert surface_flux(np.zeros_like, [0, 0], 1.0) == 0.0

    def test_radial_m3_analytic_derivative(self):
        # U = sin(s)/s, U'(r) = (r cos r - sin r)/r^2; flux = 4 pi r^2 U'(r)
        u = radial_solution(3, 1.0, [0, 0, 0])
        for r in [1.0, math.pi]:
            expect = 4.0 * math.pi * r * r * ((r * math.cos(r) - math.sin(r)) / r**2)
            got = surface_flux(u.gradient, [0, 0, 0], r)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_plane_wave_m2_divergence_theorem(self):
        # flux = -lambda^2 |B_1| M(u, B_1) = -pi a_norm(2,1)
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        got = surface_flux(u.gradient, [0, 0], 1.0)
        assert got == pytest.approx(-math.pi * a_norm(2, 1.0), rel=1e-12)
        assert got == pytest.approx(-2.7649, abs=2e-4)

    def test_divergence_theorem_cases(self):
        cases = [
            (plane_wave(2, 1.0, [0, 1], 0.2), [0.1, 0.0], 0.8),
            (radial_solution(2, 2.0, [0, 0]), [0.0, 0.0], 1.2),
            (plane_wave(3, 1.5, [0, 0, 1], 0.0), [0, 0, 0], 1.0),
            (radial_solution(3, 1.0, [0.2, 0, 0]), [0.2, 0, 0], 2.0),
        ]
        for u, c, r in cases:
            m = u.dimension
            vol = math.pi * r * r if m == 2 else 4.0 * math.pi * r**3 / 3.0
            lhs = vol * ball_mean(u, c, r).value
            rhs = -surface_flux(u.gradient, c, r) / u.wavenumber**2
            scale = max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale
        # F(x) = x - c has divergence m, so its flux is m |B_r|
        for c, r in [([0.3, -0.2], 0.7), ([0.1, 0.2, -0.4], 1.3)]:
            m = len(c)
            vol = math.pi * r * r if m == 2 else 4.0 * math.pi * r**3 / 3.0
            got = surface_flux(lambda p, c=np.array(c): p - c, c, r)
            assert got == pytest.approx(m * vol, rel=1e-13)

    def test_error_estimate_positive_and_small(self):
        # |fine - coarse| covers an under-resolved rule's error and is at
        # rounding level at the default count
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        exact = -math.pi * a_norm(2, 1.0)
        err = surface_flux_error(u.gradient, [0, 0], 1.0, angular_resolution=12)
        assert 0 < err < 1e-3
        assert abs(surface_flux(u.gradient, [0, 0], 1.0, angular_resolution=12) - exact) <= err
        assert surface_flux_error(u.gradient, [0, 0], 1.0) <= 1e-12 * abs(exact)

    def test_unsupported_dimension(self):
        with pytest.raises(NotImplementedError):
            surface_flux(np.zeros_like, [0, 0, 0, 0], 1.0)
