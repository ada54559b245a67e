"""Quadrature rules against 1-D reductions, brute force, and each other."""

import math

import numpy as np
import pytest

from helmholtz_means import quadrature
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
    _NODE_BUDGET,
    RESOLUTION_CAP,
    ProductRule,
    SampleRule,
    _ball_rule,
    _box_resolution,
    _box_rule,
    _gauss,
    _leggauss,
    _level_means,
    _basis,
    _polar_gauss,
    _sphere_rule,
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
    modified_radial_solution,
    plane_wave,
    radial_solution,
)
from helmholtz_means.specfun import a_norm, b_norm, bessel_zero


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
        # a constant has degree 0, which every product rule integrates
        # exactly: its stated bound is 0, and its bar is rounding only
        one = lambda p: np.ones(len(p))
        assert ball_mean(one, [0, 0], 1.0, bound=0.0).value == 1.0
        assert ball_mean(one, [0.5, -1, 2], 0.7, bound=0.0, axis=[0, 0, 1]).value == 1.0
        assert 0.0 < ball_mean(one, [0, 0], 1.0, bound=0.0).abs_error_estimate <= 1e-14

    def test_bare_callable_needs_a_stated_bound(self):
        with pytest.raises(TypeError, match="error bound of a bare callable"):
            ball_mean(lambda p: np.ones(len(p)), [0, 0], 1.0)
        with pytest.raises(TypeError, match="error bound of a bare callable"):
            mean_rule(box([0, 0], [1, 1]), 1.0).mean(lambda p: p[:, 0])

    @pytest.mark.parametrize("m", [3, 4, 12])
    def test_bare_callable_needs_an_axis_from_three_dimensions(self, m):
        # the meridian rule integrates only functions symmetric about an
        # axis: a bare callable states it, or is refused before evaluation
        calls = []

        def f(p):
            calls.append(len(p))
            return p[:, 0]

        rule = mean_rule(ball(np.zeros(m), 1.0), 2.0)
        with pytest.raises(TypeError, match="needs the symmetry axis"):
            rule.mean(f, bound=0.0)
        with pytest.raises(TypeError, match="needs the symmetry axis"):
            mean_rule(difference(ball(np.zeros(m), 1.0), ball(np.full(m, 0.1), 0.2)),
                      2.0).mean(f, bound=0.0)
        with pytest.raises(TypeError, match="needs the symmetry axis"):
            surface_flux(lambda p: p, np.zeros(m), 1.0)
        assert calls == []
        # x1 is symmetric about e1 through every center: exact, with bar rounding only
        est = rule.mean(f, bound=0.0, axis=np.eye(m)[0])
        assert abs(est.value) <= 1e-16 and est.abs_error_estimate <= 1e-14
        with pytest.raises(ValueError, match="axis must be a finite nonzero vector"):
            rule.mean(f, bound=0.0, axis=np.zeros(m))
        # a box rule and a circle need no axis
        assert mean_rule(box(np.zeros(3), np.ones(3)), 1.0).mean(f, bound=0.0).value == \
            pytest.approx(0.5, abs=1e-15)
        assert ball_mean(f, [0.25, 0], 1.0, bound=0.0).value == pytest.approx(0.25, abs=1e-15)

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
        # too few nodes: the proved bar grows and still covers the error
        coarse = ball_mean(u, [0, 0], 1.0, radial_nodes=4, angular_resolution=8)
        assert coarse.abs_error_estimate > 1e-6
        assert abs(coarse.value - a_norm(2, 4.0)) <= coarse.abs_error_estimate

    def test_convergence_order(self):
        u = radial_solution(2, 4.0, [0, 0])
        exact = a_norm(2, 6.0)
        errs = []
        for nodes in [8, 16, 32]:
            est = ball_mean(u, [0, 0], 1.5, radial_nodes=nodes, angular_resolution=nodes)
            errs.append(max(abs(est.value - exact), 1e-13))
        for a, b in zip(errs, errs[1:]):
            assert b <= a / 4.0 or a <= 1e-12

    def test_exact_in_four_dimensions(self):
        # over the unit ball of R^m, z = a.(x - c) for a unit a: M(1) = 1,
        # M(z^2) = 1/(m+2), M(z^4) = 3/((m+2)(m+4)) and M(z^2 |x - c|^2) =
        # 1/(m+4), from a coarse rule turned onto a
        c = np.array([0.3, -0.1, 0.2, 0.5])
        a = np.array([0.5, -0.5, 0.1, 0.7])
        a /= np.linalg.norm(a)
        z = lambda p: (p - c) @ a
        cases = [(lambda p: np.ones(len(p)), 1.0),
                 (lambda p: (p[:, 3] - c[3]) ** 2, 1.0 / 6.0),
                 (lambda p: z(p) ** 2, 1.0 / 6.0),
                 (lambda p: z(p) ** 4, 1.0 / 16.0),
                 (lambda p: z(p) ** 2 * np.sum((p - c) ** 2, axis=1), 1.0 / 8.0)]
        for i, (f, exact) in enumerate(cases):
            axis = [0, 0, 0, 1] if i == 1 else a
            est = ball_mean(f, c, 1.0, radial_nodes=6, angular_resolution=8, bound=0.0, axis=axis)
            assert est.method == "ball_spectral"
            assert est.samples_or_nodes == 6 * 4
            assert est.value == pytest.approx(exact, abs=1e-15)
        assert ball_mean(cases[0][0], c, 1.0, bound=0.0, axis=a).value == 1.0

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ball_mean(lambda p: np.ones(len(p)), [0, 0], 0.0, bound=0.0)


class TestBoxMean:
    def test_constant(self):
        assert box_mean(lambda p: np.ones(len(p)), [0, 0], [1, 1], bound=0.0).value == 1.0

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
        est = box_mean(f, [0, 0, 0], [1, 1, 1], nodes_per_axis=12, bound=0.0)
        assert est.value == pytest.approx(0.25 + 1.0 / 3.0, abs=1e-13)

    def test_interval(self):
        # m = 1: the rows are the interval's Gauss rule and the columns one
        # point of weight 1 with no axis of its own; M(cos(lam x + phi), [0, 2])
        # in closed form; the bar is the proved 1e-14 and the evaluation of
        # cos at arguments up to 6.2
        lam, phi = 3.0, 0.2
        est = mean_rule(box([0], [2]), lam).mean(plane_wave(1, lam, [1], phi))
        exact = (math.sin(2.0 * lam + phi) - math.sin(phi)) / (2.0 * lam)
        assert est.method == "box_gauss" and est.samples_or_nodes == _box_resolution(1, 2.0 * lam)
        assert abs(est.value - exact) <= 1e-15 and est.abs_error_estimate <= 1e-14 + 2e-14

    def test_convergence_order(self):
        u = membrane_eigenfunction(3, 3, 1.0)
        f = lambda p: u(p) ** 2  # mean 1/4, smooth, nontrivial
        errs = []
        for nodes in [4, 8, 16]:
            est = box_mean(f, [0, 0], [1, 1], nodes_per_axis=nodes, bound=math.inf)  # value only
            errs.append(max(abs(est.value - 0.25), 1e-13))
        for a, b in zip(errs, errs[1:]):
            assert b <= a / 4.0 or a <= 1e-12

    def test_degenerate(self):
        with pytest.raises(ValueError):
            box_mean(lambda p: np.ones(len(p)), [0, 0], [1, 0], bound=0.0)


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
        # the floor is on the draw: |D|, a mean and the inside points all fail
        rule = SampleRule(loose, 100_000, 0)
        for use in (rule.volume, lambda: rule.mean(lambda p: p[:, 0]), lambda: rule.accepted):
            with pytest.raises(EstimationError, match="acceptance rate .* below 0.0001"):
                use()

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
        # nothing is drawn before the first use; |D| first, and its draw
        # serves the mean
        rule = mean_rule(d, 2.0, samples=100_000, seed=9)
        assert rule.method == "monte_carlo"
        assert "accepted" not in vars(rule)
        assert rule.volume() == volume(d, samples=100_000, seed=9)
        assert "accepted" in vars(rule)
        assert rule.mean(u) == ref
        assert rule.mean(u) == ref  # and again on the kept points
        # a mean first: one draw gives both
        rule = mean_rule(d, 2.0, samples=100_000, seed=9)
        assert rule.mean(u) == ref
        assert rule.volume() == volume(d, samples=100_000, seed=9)

    def test_product_rules_match_wrappers(self):
        # the counts follow from lambda times the radius, or the longest side
        u = plane_wave(2, 3.0, [0.6, 0.8], 0.2)
        radial, angular = resolution(2, 3.0 * 0.9)
        rule = mean_rule(translate(ball([0.125, 0.0], 0.9), [0.25, -0.375]), 3.0)
        assert rule.method == "ball_spectral"
        est = rule.mean(u)
        assert est == ball_mean(u, [0.375, -0.375], 0.9, radial_nodes=radial,
                                angular_resolution=angular)
        assert est.samples_or_nodes == radial * angular
        nodes = _box_resolution(2, 3.0 * 2.0)
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
        # lambda times the longest side 100 on a 3-D box: more than 2^16
        # nodes on one level, formed and evaluated at most 2^16 at a time;
        # the exact mean of cos(lam d.x + phi) is the real part of
        # e^{i phi} times the product of the 1-D means of e^{i lam d_j x_j}
        low, high = np.array([0.1, -0.4, -0.3]), np.array([1.1, 0.3, 0.5])
        d = np.array([0.0, 0.6, 0.8])
        u = plane_wave(3, 100.0, d, 0.3)
        calls = []

        def spy(pts):
            calls.append(len(pts))
            return u(pts)

        rule = mean_rule(box(low, high), 100.0)
        est = rule.mean(spy, bound=rule.bound(u))
        assert est.samples_or_nodes == _box_resolution(3, 100.0) ** 3 == sum(calls) > 2**16
        assert len(calls) > 1 and max(calls) <= 2**16
        w = 100.0 * d
        exact = np.exp(0.3j) * np.prod([1.0 if k == 0 else
                                        (np.exp(1j * k * b) - np.exp(1j * k * a)) / (1j * k * (b - a))
                                        for k, a, b in zip(w, low, high)])
        assert abs(est.value - exact.real) <= 1e-14
        # the bar is u's proved bound at lambda, at most 1e-14, and the
        # rounding of cos at arguments up to 100 |x| <= 128: 7 x 128 ulp
        assert est == rule.mean(u) and est.abs_error_estimate <= 1e-14 + 7 * 128 * 2.0**-52 + 1e-14

    @pytest.mark.parametrize("m, center, build", [
        # rows of 500, 260 and 4900 points do not divide a 2^16-point
        # block, and no level's size is a multiple of 2^16; 70001 circle
        # directions are more than a block
        (2, [0.1, -0.2], lambda c: _ball_rule(np.array(c), 0.8, 300, 500)),
        (3, [0.1, 0.2, -0.3], lambda c: _ball_rule(np.array(c), 1.0, 300, 520)),
        (3, None, lambda c: _box_rule([0, -1, 0.5], [1, 1, 2], 70)),
        (2, [0.1, -0.2], lambda c: _ball_rule(np.array(c), 1.0, 6, 70_001)),
    ], ids=["ball_2d", "ball_3d_more_than_a_block", "box_3d", "ball_2d_directions_above_a_block"])
    def test_level_mean_matches_gathered_blocks(self, m, center, build):
        # reference: blocks of 2^16 // columns whole rows, or one row's
        # columns 2^16 at a time, each point gathered from its own (row,
        # column) node pair and weighted w_row * w_column; a 3-D ball's
        # meridian columns are turned onto the field's direction first
        rule = build(center)
        d = np.full(m, 1.0 / math.sqrt(m))
        u = plane_wave(m, 7.0, d, 0.3)
        (rows, w_rows), (cols, w_cols) = rule.level
        if rule.axial:
            cols = cols @ _basis(d, m)
        for level in [[(rows, w_rows), (cols, w_cols)]]:
            n_rows, n_cols = len(w_rows), len(w_cols)
            total = n_rows * n_cols
            assert total > 2**16 and total % 2**16
            step, width = max(2**16 // n_cols, 1), min(n_cols, 2**16)
            blocks, ref_blocks, num, den = [], [], 0.0, 0.0
            for i in range(0, n_rows, step):
                for j in range(0, n_cols, width):
                    ii, jj = (a.reshape(-1) for a in np.meshgrid(
                        np.arange(i, min(i + step, n_rows)), np.arange(j, min(j + width, n_cols)),
                        indexing="ij"))
                    if center is None:
                        pts = np.column_stack([rows[ii], cols[jj, 1:]])
                    else:
                        pts = np.array(center) + rows[ii][:, None] * cols[jj]
                    w = w_rows[ii] * w_cols[jj]
                    ref_blocks.append(pts)
                    num += float(np.sum(w * np.asarray(u(pts), dtype=float)))
                    den += float(np.sum(w))

            def spy(pts):
                blocks.append(pts.copy())
                return u(pts)

            assert _level_means([spy], [(rule._place, level, [(cols, [0])])])[0][0][0] == num / den
            assert max(len(b) for b in blocks) <= 2**16
            assert sum(len(b) for b in blocks) == total
            assert len(blocks) == len(ref_blocks)
            assert all(np.array_equal(a, b) for a, b in zip(blocks, ref_blocks))

    @pytest.mark.parametrize("d, lam", [
        (ball([0.1, -0.2], 1.3), 4.0),
        (ball([0.1, -0.2, 0.3], 0.9), 5.0),
        (box([0, -1, 0.5], [1, 1, 2]), 4.0),
        (box([0, 0, 0], [1, 1, 1]), 100.0),  # 97,336 points: two 2^16-point blocks
        (difference(box([-1, -1], [1, 1]), ball([0.5, 0.1], 0.25)), 3.0),
        (difference(ball([0, 0, 0], 1.0), box([-0.2, 0.1, -0.3], [0.3, 0.4, 0.1])), 3.0),
        (difference(box([-1, -1, -1], [1, 1, 1]), ball([0.3, -0.2, 0.1], 0.4)), 3.0),
    ], ids=["ball_2d", "ball_3d", "box_3d", "box_3d_two_blocks", "box_minus_disk",
            "ball_3d_minus_box", "box_3d_minus_ball"])
    def test_means_equal_one_field_means_bit_for_bit(self, d, lam):
        # one pass over a family gives every member's one-field mean, bit for
        # bit: the same points (a 3-D ball term's turned onto each axis), the
        # same weighted products and the same pairwise sums per field
        m = d.dimension
        c = np.linspace(-0.1, 0.2, m)
        e1, e2 = np.eye(m)[0], np.eye(m)[1]
        fields = [radial_solution(m, lam, c), radial_solution(m, 0.5 * lam, np.zeros(m)),
                  plane_wave(m, lam, e1, 0.0), plane_wave(m, lam, e1, 0.5 * math.pi),
                  plane_wave(m, 0.3 * lam, e2, 1.0), modified_radial_solution(m, 0.7, c)]
        rng = np.random.default_rng(5)
        for _ in range(3):
            v = rng.normal(size=m)
            fields.append(plane_wave(m, lam, v / np.linalg.norm(v), float(rng.uniform(0, 6))))
        if d.kind == "box" and lam > 50:
            fields = fields[:3]
        rule = mean_rule(d, lam)
        assert rule.method != "monte_carlo"
        assert rule.means(fields) == [rule.mean(u) for u in fields]
        assert rule.means([]) == []

    @pytest.mark.parametrize("m", [2, 3])
    def test_means_place_the_nodes_once_per_axis(self, m):
        # a 2-D rule places its nodes once for the whole family; a 3-D ball
        # rule once per distinct axis among the fields
        rule = mean_rule(ball(np.zeros(m), 1.0), 3.0)
        calls = []
        place = rule._place
        rule._place = lambda rows, cols: calls.append(len(cols)) or place(rows, cols)
        e1, e2 = np.eye(m)[0], np.eye(m)[1]
        fields = [plane_wave(m, 3.0, e1, 0.0), plane_wave(m, 3.0, e1, 1.0),
                  radial_solution(m, 3.0, np.zeros(m)),  # about the center: axis e1
                  plane_wave(m, 2.0, e2, 0.0), plane_wave(m, 3.0, -e2, 0.5)]
        ests = rule.means(fields)
        assert len(calls) == (1 if m == 2 else 3)  # e1, e2 and -e2
        rule._place = place
        assert ests == [rule.mean(u) for u in fields]

    @staticmethod
    def per_term(rule, fs, bounds=None, axes=None):
        """The oracle: each term of a certified difference in its own pass,
        (|a| M(f, a) - |b| M(f, b)) / |D| with the error estimate
        (|a| err_a + |b| err_b) / |D| plus a bound stated for f."""
        bounds, axes = bounds or [None] * len(fs), axes or [None] * len(fs)
        out = []
        for f, bound, axis in zip(fs, bounds, axes):
            term = None if bound is None else 0.0
            ea, eb = (r.mean(f, term, axis) for r in (rule.rule_a, rule.rule_b))
            out.append(((rule.volume_a * ea.value - rule.volume_b * eb.value) / rule.volume,
                        (rule.volume_a * ea.abs_error_estimate
                         + rule.volume_b * eb.abs_error_estimate) / rule.volume + (bound or 0.0)))
        return out

    @pytest.mark.parametrize("d, lam, x0, members", [
        (difference(box([-1, -1], [1, 1]), ball([0.5, 0.1], 0.25)), 1.5, [0, 0], 13),
        (difference(ball([0, 0, 0], 1.0), box([0.2, -0.1, 0.1], [0.6, 0.3, 0.5])), 2.0,
         [0, 0, 0], 15),
        (translate(difference(box([-1, -1], [1, 1]), ball([0.5, 0.1], 0.25)), [0.3, -0.7]),
         1.5, [0.3, -0.7], 13),
        (difference(box([0, 0, 0], [1, 1, 1]), ball([0.5, 0.4, 0.6], 0.3)), 100.0,
         [0.1, 0.2, 0.1], 15),
    ], ids=["box_minus_disk", "ball_3d_minus_box", "translated", "box_3d_band_100_minus_ball"])
    def test_difference_pass_equals_per_term_passes(self, d, lam, x0, members):
        # one evaluation of each field per block over both terms' nodes
        # gives each term's sums as its own pass does, bit for bit
        from helmholtz_means.verify import default_family, make_problem

        p = make_problem(d, lam, np.array(x0, dtype=float))
        rule = p.rule
        assert rule.method == "product_difference"
        family = default_family(p)
        assert len(family) == members
        if d.dimension == 3 and lam < 50:  # the ball term turns onto 11 distinct axes
            assert len({_basis(u.axis(rule.rule_a.center), 3).tobytes() for u in family}) == 11
        if lam > 50:  # the box term spans two blocks, and the ball joins the second
            assert rule.rule_a.nodes > 2**16
            assert rule.rule_a.nodes + rule.rule_b.nodes < 2 * 2**16
        got = [(e.value, e.abs_error_estimate) for e in rule.means(family)]
        assert got == self.per_term(rule, family)

    def test_difference_pass_of_a_radial_field_past_the_series(self):
        # past t = 12 a_norm takes Miller's pass, whose length is fixed from
        # the largest t it is given, so over both terms' nodes at once a
        # term's values may move in their last bits; the move stays far
        # inside the rounding term of the error bar
        d = difference(box([-1, -1], [1, 1]), ball([0.3, -0.2], 0.4))
        rule = mean_rule(d, 14.0)
        fields = [radial_solution(2, 14.0, c) for c in ([0, 0], [0.9, 0.9], [-0.7, 0.2])]
        for est, (value, error) in zip(rule.means(fields), self.per_term(rule, fields)):
            assert abs(est.value - value) <= 1e-15 <= error
            assert abs(est.abs_error_estimate - error) <= 1e-12 * error

    def test_difference_pass_of_a_bare_callable(self):
        d = difference(ball([0, 0, 0], 1.0), box([0.2, -0.1, 0.1], [0.6, 0.3, 0.5]))
        rule = mean_rule(d, 2.0)
        axis = np.array([0.6, 0.0, 0.8])
        f = lambda p: np.cos(2.0 * (p @ axis))
        est = rule.mean(f, 1e-12, axis)
        assert [(est.value, est.abs_error_estimate)] == self.per_term(rule, [f], [1e-12], [axis])
        with pytest.raises(TypeError, match="error bound of a bare callable"):
            rule.mean(f, None, axis)
        with pytest.raises(TypeError, match="needs the symmetry axis"):
            rule.mean(f, 1e-12)

    @pytest.mark.parametrize("lam, blocks", [(1.5, 1), (100.0, 2)])
    def test_difference_evaluates_each_field_once_per_block(self, monkeypatch, lam, blocks):
        from helmholtz_means.solutions import SolutionField

        if lam > 50:
            d = difference(box([0, 0, 0], [1, 1, 1]), ball([0.5, 0.4, 0.6], 0.3))
            fields = [plane_wave(3, lam, [0, 0.6, 0.8], 0.3), plane_wave(3, lam, [1, 0, 0], 0.0)]
        else:
            d = difference(box([-1, -1], [1, 1]), ball([0.5, 0.1], 0.25))
            fields = [radial_solution(2, lam, [0, 0]), plane_wave(2, lam, [0.6, 0.8], 0.2)]
        rule = mean_rule(d, lam)
        calls = []
        call = SolutionField.__call__
        monkeypatch.setattr(SolutionField, "__call__",
                            lambda u, pts: calls.append((id(u), len(pts))) or call(u, pts))
        rule.means(fields)
        assert sorted(c[0] for c in calls) == sorted([id(u) for u in fields] * blocks)
        assert sum(n for _, n in calls) == len(fields) * (rule.rule_a.nodes + rule.rule_b.nodes)

    def test_means_refuse_what_mean_refuses(self):
        # means takes fields, whose bounds a rule knows; a 3-D ball rule also
        # needs each one's axis, which a field without params does not state
        import dataclasses

        rule = mean_rule(ball([0, 0, 0], 1.0), 2.0)
        wave = plane_wave(3, 2.0, [1, 0, 0], 0.0)
        with pytest.raises(TypeError, match="error bound of a bare callable"):
            rule.means([wave, lambda p: p[:, 0]])
        with pytest.raises(TypeError, match="needs the symmetry axis"):
            rule.means([wave, dataclasses.replace(wave, params={})])

    def test_basis_is_numpy_norm_arithmetic(self):
        # _basis normalizes by sqrt(x . x), the arithmetic of np.linalg.norm
        rng = np.random.default_rng(3)
        for m in (3, 4, 7):
            for _ in range(50):
                axis = rng.normal(size=m) * 10.0 ** rng.uniform(-200, 200)
                a = axis / np.max(np.abs(axis))
                a = a / np.linalg.norm(a)
                k = int(np.argmin(np.abs(a)))
                e = -a[k] * a
                e[k] += 1.0
                ref = np.stack([a, e / np.linalg.norm(e)])
                assert np.array_equal(_basis(axis, m), ref)

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
        for m in (2, 3, 5):
            counts = [resolution(m, t) + (_box_resolution(m, t),)
                      for t in (0.0, 1.0, 20.0, 60.0, 120.0)]
            for lower, higher in zip(counts, counts[1:]):
                assert all(a <= b for a, b in zip(lower, higher))
            assert all(isinstance(n, int) and n >= 1 for c in counts for n in c)
            # the sphere rule's degree is odd past the circle, so its
            # angular // 2 meridian nodes reach it
            assert all(c[1] % 2 == 0 for c in counts) or m == 2

    @pytest.mark.parametrize("m", [1, 0, -1])
    def test_dimension_below_two_is_refused(self, m):
        # a 1-D ball is sampled, so no ball rule is sized for it
        for band in (0.0, 1.0, 120.0):
            with pytest.raises(ValueError, match="m >= 2"):
                resolution(m, band)

    def test_counts_are_the_fewest_within_the_target(self):
        # one node fewer on either axis breaks the 1e-14 bound
        for m, band in [(2, 3.8), (3, 4.4934), (3, 60.0), (5, 5.7635)]:
            radial, angular = resolution(m, band)
            rule = _ball_rule(np.zeros(m), 1.0, radial, angular)
            bound = rule._truncation(band, False)
            assert bound <= 1e-14
            u = plane_wave(m, band, np.eye(m)[0], 0.0)
            assert rule.bound(u) - bound < 1e-13  # the rest is u's rounding
            for fewer in (_ball_rule(np.zeros(m), 1.0, radial - 1, angular),
                          _ball_rule(np.zeros(m), 1.0, radial, angular - (1 if m == 2 else 2))):
                assert fewer.bound(u) - rule.bound(u) > 0.0
                assert fewer._truncation(band, False) > 0.5e-14

    def test_sizing_hands_over_the_bound_it_proved(self):
        # the truncation a ball rule would compute at lambda, bit for bit
        from helmholtz_means.quadrature import (
            _ball_sizing, _gauss_error, _radial_bound, _sphere_bound)

        for m in range(2, 13):
            for t in [1e-9, 1e-3, 0.37] + list(np.linspace(0.0, RESOLUTION_CAP, 61)[1:]):
                radial, angular, proved = _ball_sizing(m, t)
                assert (radial, angular) == resolution(m, t)
                degree = angular - 1
                assert proved == (_sphere_bound(m, t, degree)[1]
                                  + _gauss_error(*_radial_bound(m, t), radial))

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_seeded_bound_equals_a_computed_one(self, m):
        lam, r, c = 7.3, 0.8, np.linspace(-0.2, 0.3, m)
        seeded = mean_rule(ball(c, r), lam)
        assert (lam, False) in seeded._truncations
        e = np.eye(m)[0]
        for u in (plane_wave(m, lam, e, 0.3), radial_solution(m, lam, c + 0.1),
                  plane_wave(m, 0.5 * lam, e, 0.0), modified_radial_solution(m, lam, c)):
            empty = _ball_rule(c, r, *resolution(m, lam * r))
            assert seeded.bound(u) == empty.bound(u)

    @pytest.mark.parametrize("band", [120.5, 1e6, float("inf"), float("nan")])
    def test_cap_names_the_band(self, band):
        with pytest.raises(ValueError, match="above the resolution cap 120"):
            resolution(2, band)

    def test_box_band_uses_the_longest_side(self):
        mean_rule(box([0, 0], [1, 3]), 40.0)
        with pytest.raises(ValueError, match="band lambda \\* size = 123 "):
            mean_rule(box([0, 0], [1, 3]), 41.0)


def closed_form_sphere_rule(m, angular):
    """The m in {2, 3} sphere rules in closed form: the trapezoid rule on
    the circle, and the Gauss-Legendre meridian (z, sqrt(1 - z^2)) with
    half the Legendre weights on the sphere."""
    if m == 2:
        phi = 2.0 * np.pi * np.arange(angular) / angular
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), np.full(angular, 1.0 / angular)
    z, wz = np.polynomial.legendre.leggauss(angular // 2)
    return np.stack([z, np.sqrt(1.0 - z * z)], axis=1), 0.5 * wz


class TestSphereRule:
    @pytest.mark.parametrize("m", [2, 3])
    def test_low_dimensions_match_the_closed_forms_bit_for_bit(self, m):
        for angular in (8, 9, 30, 77, 141, 282):
            cols, w, degree = _sphere_rule(m, angular)
            ref_cols, ref_w = closed_form_sphere_rule(m, angular)
            assert np.array_equal(cols, ref_cols) and np.array_equal(w, ref_w)
            assert degree == (angular - 1 if m == 2 else 2 * (angular // 2) - 1)

    def test_circle_rule_is_a_read_only_table(self):
        # formed once per angular count; a write to it raises, and a
        # rule built from a cold table has the bits of one from a warm one
        cols, w, _ = _sphere_rule(2, 30)
        again, w_again, _ = _sphere_rule(2, 30)
        assert again is cols and w_again is w
        for arr in (cols, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        u = plane_wave(2, 3.0, [0.6, 0.8], 0.3)
        warm = mean_rule(ball([0.1, 0.2], 1.3), 3.0).mean(u)
        quadrature._sphere_rule.cache_clear()
        assert mean_rule(ball([0.1, 0.2], 1.3), 3.0).mean(u) == warm

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_directions_integrate_sphere_moments(self, m):
        # on S^{m-1}, z = a.theta: E z^2 = 1/m, E z^4 = 3/(m(m+2)),
        # E z^6 = 15/(m(m+2)(m+4)); the meridian of 6 nodes turned onto a
        # random axis a gives unit directions, exact to degree 11 in z
        rng = np.random.default_rng(m)
        cols, w, degree = _sphere_rule(m, 12)
        a = rng.normal(size=m)
        basis = _basis(a, m)
        a /= np.linalg.norm(a)
        dirs = cols @ basis
        assert dirs.shape == (6, m) and degree == 11
        assert np.max(np.abs(basis @ basis.T - np.eye(2))) <= 1e-15
        assert np.max(np.abs(np.einsum("ij,ij->i", dirs, dirs) - 1.0)) <= 1e-15
        assert abs(w.sum() - 1.0) <= 1e-15
        z = dirs @ a
        assert abs(w @ z**2 - 1.0 / m) <= 1e-15
        assert abs(w @ z**4 - 3.0 / (m * (m + 2))) <= 1e-15
        assert abs(w @ z**6 - 15.0 / (m * (m + 2) * (m + 4))) <= 1e-15

    def test_polar_rule_for_s3_is_chebyshev_second_kind(self):
        # weight sqrt(1 - z^2): nodes cos(j pi / (n + 1)), weights
        # proportional to sin^2(j pi / (n + 1)); memoised and read-only
        n = 20
        cols, w = _polar_gauss(n, 4)
        assert _polar_gauss(n, 4)[0] is cols
        z, s = cols.T
        theta = np.arange(n, 0, -1) * math.pi / (n + 1)
        assert np.max(np.abs(z - np.cos(theta))) <= 1e-14
        assert np.max(np.abs(s - np.sin(theta))) <= 1e-14
        assert np.max(np.abs(w - 2.0 / (n + 1) * np.sin(theta) ** 2)) <= 1e-15
        for arr in (cols, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("m, bands", [(4, (1.0, 8.0, 15.0)), (5, (0.5, 1.5))])
    def test_means_match_the_kernels(self, m, bands):
        # M(u, B_r(c)) is a_norm(m, t) u(c) for a plane wave, a_norm(m, t)
        # for the radial field and b_norm(m, t) for the modified one, t = k r
        c, d, r = np.linspace(0.1, -0.2, m), np.full(m, 1.0 / math.sqrt(m)), 0.8
        for t in bands:
            k = t / r
            rule = mean_rule(ball(c, r), k)
            assert rule.method == "ball_spectral"
            pw = plane_wave(m, k, d, 0.3)
            for u, exact in ((pw, a_norm(m, t) * pw(c)), (radial_solution(m, k, c), a_norm(m, t)),
                             (modified_radial_solution(m, k, c), b_norm(m, t))):
                est = rule.mean(u)
                scale = max(1.0, abs(exact))
                assert abs(est.value - exact) <= 1e-13 * scale
                assert est.abs_error_estimate <= 1e-12 * scale

    def test_budget_is_the_3d_ball_rule_at_the_cap(self):
        # the box budget keeps the count the fitted 3-D ball rules had at
        # the cap, 84 x 141 x 282; the meridian ball rule there is 53 x 87
        assert _NODE_BUDGET == 84 * 141 * 282 == 3_340_008
        radial, angular = resolution(3, RESOLUTION_CAP)
        rule = mean_rule(ball([0, 0, 0], 1.0), RESOLUTION_CAP)
        assert rule.nodes == radial * (angular // 2) == 53 * 87

    def test_five_dimensional_balls_in_scope_are_spectral(self):
        # lambda r0 = j_{5/2,1}: the size condition's edge in m = 5
        t = bessel_zero(2.5, 1)
        rule = mean_rule(ball(np.zeros(5), 1.0), t)
        assert rule.method == "ball_spectral" and rule.nodes <= _NODE_BUDGET

    @pytest.mark.parametrize("m", range(2, 13))
    def test_balls_are_spectral_to_the_cap_in_every_dimension(self, m):
        # radial x n points: at most 5,225 at the cap for m <= 12, and the
        # circle's radial x azimuth 9,116
        rule = mean_rule(ball(np.full(m, 0.1), 1.0), RESOLUTION_CAP)
        radial, angular = resolution(m, RESOLUTION_CAP)
        assert rule.method == "ball_spectral" and rule.axial == (m > 2)
        assert rule.nodes == radial * (angular if m == 2 else angular // 2)
        assert rule.nodes <= (9116 if m == 2 else 5225)

    def test_sampled_domains_are_capped_by_their_half_diagonal(self):
        # a disk crossing the square's edge is sampled; its band is lambda
        # times the bounding box's half-diagonal sqrt(2), refused before any draw
        d = difference(box([-1, -1], [1, 1]), ball([0.9, 0.1], 0.25))
        rule = mean_rule(d, RESOLUTION_CAP / math.sqrt(2.0) * (1.0 - 1e-12), samples=10)
        assert rule.method == "monte_carlo" and "accepted" not in vars(rule)
        with pytest.raises(ValueError, match="band lambda \\* size = 2828.43 is above the "
                                             "resolution cap 120"):
            mean_rule(d, 2000.0)

    def test_eight_dimensional_box_is_sampled(self):
        # 15^8 fine nodes at band 1: the rule is chosen before any is built
        rule = mean_rule(box(np.zeros(8), np.ones(8)), 1.0, samples=1000, seed=1)
        assert rule.method == "monte_carlo" and "accepted" not in vars(rule)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_no_product_rule_exceeds_the_budget(self, m):
        for band in (0.5, 1.8, 1.9, 8.0, 8.1, 21.8, 21.9, 37.3, 37.4, 60.0, 120.0):
            for d in (ball(np.zeros(m), 1.0), box(np.zeros(m), np.ones(m))):
                if d.kind == "box" and band * 0.5 * math.sqrt(m) > RESOLUTION_CAP:
                    # over the budget, the box would be sampled, and its
                    # half-diagonal band is over the cap
                    with pytest.raises(ValueError, match="above the resolution cap"):
                        mean_rule(d, band, samples=1000, seed=1)
                    continue
                rule = mean_rule(d, band, samples=1000, seed=1)
                if isinstance(rule, ProductRule):
                    assert rule.nodes == math.prod(len(w) for _, w in rule.level) <= _NODE_BUDGET
                else:
                    assert m >= 4 and d.kind == "box"  # no ball, nothing in m <= 3


class TestSurfaceFlux:
    def test_constant_field_zero_flux(self):
        assert surface_flux(np.zeros_like, [0, 0], 1.0) == 0.0

    def test_radial_m3_analytic_derivative(self):
        # U = sin(s)/s, U'(r) = (r cos r - sin r)/r^2; flux = 4 pi r^2 U'(r)
        u = radial_solution(3, 1.0, [0, 0, 0])
        for r in [1.0, math.pi]:
            expect = 4.0 * math.pi * r * r * ((r * math.cos(r) - math.sin(r)) / r**2)
            got = surface_flux(u.gradient, [0, 0, 0], r, axis=u.axis([0, 0, 0]))
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
            rhs = -surface_flux(u.gradient, c, r, axis=u.axis(np.asarray(c, float))) / u.wavenumber**2
            scale = max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale
        # F(x) = x - c has divergence m, so its flux is m |B_r|
        for c, r in [([0.3, -0.2], 0.7), ([0.1, 0.2, -0.4], 1.3)]:
            m = len(c)
            vol = math.pi * r * r if m == 2 else 4.0 * math.pi * r**3 / 3.0
            got = surface_flux(lambda p, c=np.array(c): p - c, c, r, axis=np.ones(m))
            assert got == pytest.approx(m * vol, rel=1e-13)

    def test_error_estimate_positive_and_small(self):
        # the proved bound covers an under-resolved rule's error and is at
        # rounding level at the default count
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        exact = -math.pi * a_norm(2, 1.0)
        for angular in (4, 6, 8):
            err = surface_flux_error(u, [0, 0], 1.0, angular_resolution=angular)
            assert 0 < err < 1.0
            got = surface_flux(u.gradient, [0, 0], 1.0, angular_resolution=angular)
            assert 1e-16 < abs(got - exact) <= err
        assert surface_flux_error(u, [0, 0], 1.0) <= 1e-12 * abs(exact)

    def test_divergence_theorem_four_dimensions(self):
        # |B_r| = pi^2 r^4 / 2 in R^4; F(x) = x - c has divergence 4
        c, r = np.array([0.1, -0.2, 0.3, 0.0]), 0.9
        vol = 0.5 * math.pi**2 * r**4
        got = surface_flux(lambda p: p - c, c, r, angular_resolution=40, axis=[0, 1, 0, 0])
        assert got == pytest.approx(4.0 * vol, rel=1e-14)
        for u in (plane_wave(4, 2.5, [0.5, 0.5, 0.5, 0.5], 0.4), radial_solution(4, 3.0, c),
                  radial_solution(4, 3.0, c + 0.5)):
            lhs = vol * mean_rule(ball(c, r), u.wavenumber).mean(u).value
            rhs = -surface_flux(u.gradient, c, r, angular_resolution=60,
                                axis=u.axis(c)) / u.wavenumber**2
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_gradient_is_evaluated_in_blocks(self):
        # 128000 directions on the circle, two blocks of at most 2^16
        # points; F(x) = x - c has flux 2 |B_r| = 2 pi r^2
        c, r = np.array([0.1, -0.2]), 0.9
        calls = []

        def grad(p):
            calls.append(len(p))
            return p - c

        got = surface_flux(grad, c, r, angular_resolution=128_000)
        assert sum(calls) == 128_000 and len(calls) == 2 and max(calls) <= 2**16
        assert got == pytest.approx(2.0 * math.pi * r**2, rel=1e-14)

    def test_one_dimension_is_a_usage_error(self):
        with pytest.raises(ValueError, match="the sphere rule needs m >= 2, got 1"):
            surface_flux(np.zeros_like, [0.0], 1.0)
        with pytest.raises(ValueError, match="the sphere rule needs m >= 2, got 1"):
            ball_mean(lambda p: np.ones(len(p)), [0.0], 1.0)
