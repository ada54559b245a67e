"""Theorem checks: consistency direction, counterexamples, sign arguments."""

import math

import numpy as np
import pytest

from helmholtz_means.geometry import (
    DISJOINT,
    INSIDE,
    ball,
    box,
    certified_relation,
    circumradius_about,
    custom_domain,
    difference,
    equivalent_radius,
    translate,
    volume,
)
from helmholtz_means.quadrature import (
    SampleRule,
    ball_mean,
    box_mean,
    mc_integral,
    mc_mean,
    mean_rule,
    resolution,
)
from helmholtz_means.quadrature import _box_resolution
from helmholtz_means.solutions import (
    membrane_eigenfunction,
    modified_radial_solution,
    plane_wave,
    radial_solution,
)
from helmholtz_means.specfun import a_norm, b_norm, bessel_zero
from helmholtz_means.verify import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    characterize,
    check_identity,
    check_mean_value_formula,
    check_size_condition,
    default_family,
    derive_verdict,
    flux_identity_check,
    kuran_limit_check,
    make_problem,
    membrane_counterexample,
    proof_discrepancy,
    report_to_dict,
    reports_to_csv,
    theorem1_identity_check,
)


def simpson(vals, h):
    n = len(vals) - 1
    assert n % 2 == 0
    return (h / 3.0) * (vals[0] + vals[-1] + 4.0 * np.sum(vals[1:-1:2]) + 2.0 * np.sum(vals[2:-2:2]))


class TestVerdictRule:
    def test_pure_function_cases(self):
        assert derive_verdict(0.0, 1e-8, 0.0) == PASS
        assert derive_verdict(5e-9, 1e-8, 0.0) == PASS
        assert derive_verdict(2e-8, 1e-8, 0.0) == FAIL
        assert derive_verdict(1.5e-8, 1e-8, 1e-8) == PASS  # within tol + bar
        assert derive_verdict(0.0, 1e-8, 1e-6) == INCONCLUSIVE  # noise dominates

    def test_report_dict_schema(self):
        rep = check_mean_value_formula(plane_wave(2, 1.0, [1, 0], 0.0), [0, 0], 1.0)
        d = report_to_dict(rep)
        assert set(d) == {
            "name", "lhs", "rhs", "residual", "tolerance", "error_bar", "verdict", "diagnostics",
        }
        import json

        json.dumps(d)  # everything serializable

    def test_csv_flattening(self):
        reps = membrane_counterexample(1.0)
        csv = reports_to_csv(reps)
        lines = csv.strip().split("\n")
        assert len(lines) == len(reps) + 1
        assert lines[0].startswith("name,lhs,rhs,residual,tolerance,error_bar,verdict")


class TestMeanValueFormula:
    def test_radial_centered(self):
        u = radial_solution(2, 1.0, [0.2, -0.1])
        rep = check_mean_value_formula(u, [0.2, -0.1], 1.0)
        assert rep.verdict == PASS
        assert abs(rep.residual) <= 1e-9
        assert rep.lhs == pytest.approx(a_norm(2, 1.0), rel=1e-12)

    def test_plane_wave_known_value(self):
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        rep = check_mean_value_formula(u, [0, 0], 1.0)
        assert rep.verdict == PASS
        assert rep.lhs == pytest.approx(0.8801011714898671, abs=1e-9)
        assert rep.rhs == pytest.approx(0.8801011714898671, abs=1e-9)

    def test_tiny_radius_limit(self):
        u = plane_wave(2, 1.0, [0, 1], 0.3)
        rep = check_mean_value_formula(u, [0.4, 0.2], 1e-3)
        assert rep.verdict == PASS
        assert abs(rep.residual) <= 1e-6

    def test_past_first_kernel_zero_both_sides_negative(self):
        u = plane_wave(2, 2.0, [1, 0], 0.0)
        rep = check_mean_value_formula(u, [0, 0], 2.0)  # lambda r = 4 > j_{1,1}
        assert rep.verdict == PASS
        assert rep.lhs < 0 and rep.rhs < 0

    def test_m3(self):
        u = plane_wave(3, 1.0, [0, 0, 1], 0.0)
        rep = check_mean_value_formula(u, [0, 0, 0.3], 1.5)
        assert rep.verdict == PASS and abs(rep.residual) <= 1e-9

    @pytest.mark.parametrize("m", range(6, 13))
    def test_passes_at_the_size_condition_edge_in_high_dimensions(self, m):
        # lambda r = j_{m/2,1}: the meridian ball rule is spectral up to
        # m = 12, so the formula and the radial identity pass there
        rng = np.random.default_rng(m)
        x = rng.uniform(-0.5, 0.5, m)
        lam = bessel_zero(0.5 * m, 1)
        d = rng.normal(size=m)
        u = plane_wave(m, lam, d / np.linalg.norm(d), 0.3)
        rep = check_mean_value_formula(u, x, 1.0)
        assert rep.verdict == PASS and rep.diagnostics["method"] == "ball_spectral"
        assert rep.error_bar <= 1e-12 and abs(rep.residual) <= rep.error_bar
        radial = radial_solution(m, lam, x + rng.uniform(-0.5, 0.5, m))
        rep = check_identity(radial, make_problem(ball(x, 1.0), lam, x))
        assert rep.verdict == PASS and rep.diagnostics["method"] == "ball_spectral"
        assert rep.error_bar <= 1e-12 and abs(rep.residual) <= rep.error_bar

    def test_rejects_modified_fields(self):
        from helmholtz_means.solutions import modified_radial_solution

        with pytest.raises(ValueError):
            check_mean_value_formula(modified_radial_solution(2, 1.0, [0, 0]), [0, 0], 1.0)

    def test_is_the_identity_on_the_ball_about_x(self):
        u, x = plane_wave(3, 2.0, [0, 0.6, 0.8], 0.3), [0.1, 0.2, -0.3]
        rep = report_to_dict(check_mean_value_formula(u, x, 1.5))
        ref = report_to_dict(check_identity(u, make_problem(ball(x, 1.5), 2.0, x)))
        assert rep.pop("name") == "mean_value_formula" and ref.pop("name") == "identity"
        assert rep == ref


class TestIdentity:
    def test_ball_reduces_to_mean_value_formula(self):
        # consistency direction for m in {2, 3}, lambda r in {0.5, 1, 3, 5}
        # (lambda r = 5 is past the first kernel zero in both dimensions)
        for m in (2, 3):
            c = np.zeros(m) + 0.1
            e1, e2 = np.zeros(m), np.zeros(m)
            e1[0] = 1.0
            e2[-1] = 1.0
            for lam_r in [0.5, 1.0, 3.0, 5.0]:
                p = make_problem(ball(c, 1.0), lam_r, c)
                for u in [
                    radial_solution(m, lam_r, c),
                    plane_wave(m, lam_r, e1, 0.0),
                    plane_wave(m, lam_r, e2, 1.1),
                ]:
                    rep = check_identity(u, p)
                    assert rep.verdict == PASS
                    assert abs(rep.residual) <= 1e-8

    def test_membrane_mode_on_square_passes_trivially(self):
        lam = math.pi * math.sqrt(5.0)
        p = make_problem(box([0, 0], [1, 1]), lam, [0.5, 0.5])
        rep = check_identity(membrane_eigenfunction(2, 1, 1.0), p)
        assert rep.verdict == PASS
        assert rep.lhs == 0.0
        assert abs(rep.rhs) <= 1e-12

    def test_radial_on_square_records_signed_residual(self):
        # Square is not a disk: nonzero residual; its sign is +, since
        # the square mean of the decreasing field exceeds nothing --
        # lhs = a_m(lambda r) equals the ball mean, which beats the
        # square mean by the discrepancy argument.  A translate of the
        # square, about its own center, gives the same residual.
        square = box([-0.5, -0.5], [0.5, 0.5])
        for d, x0 in [(square, [0, 0]), (translate(square, [0.2, 0.1]), [0.2, 0.1])]:
            p = make_problem(d, 1.0, x0, seed=5)
            rep = check_identity(radial_solution(2, 1.0, x0), p)
            assert rep.diagnostics["method"] == "box_gauss"
            assert rep.diagnostics["seed"] is None and rep.diagnostics["volume_seed"] is None
            assert rep.verdict == FAIL
            assert rep.residual == pytest.approx(0.0017991489101022, abs=1e-10)

    def test_wavenumber_mismatch_rejected(self):
        p = make_problem(ball([0, 0], 1.0), 1.0, [0, 0])
        with pytest.raises(ValueError):
            check_identity(plane_wave(2, 2.0, [1, 0], 0.0), p)

    def test_field_below_the_problems_lambda_runs_on_its_rule(self):
        # a rule sized for lambda = 60 resolves a field at 2: same verdict
        # and residual to rounding as on the field's own problem
        c = [0.0, 0.0, 0.0]
        p, own = make_problem(ball(c, 1.0), 60.0, c), make_problem(ball(c, 1.0), 2.0, c)
        for u in [plane_wave(3, 2.0, [0.6, 0.0, 0.8], 0.3), radial_solution(3, 2.0, c)]:
            rep, ref = check_identity(u, p), check_identity(u, own)
            assert rep.verdict == ref.verdict == PASS
            assert rep.diagnostics["lambda"] == 2.0
            assert rep.lhs == ref.lhs
            assert rep.residual == pytest.approx(ref.residual, abs=1e-13)

    def test_field_above_the_problems_lambda_rejected_past_the_slack(self):
        p = make_problem(ball([0, 0], 1.0), 60.0, [0, 0])
        rep = check_identity(radial_solution(2, 60.0 * (1 + 5e-13), [0, 0]), p)
        assert rep.verdict == PASS
        with pytest.raises(ValueError, match="above the problem's lambda"):
            check_identity(radial_solution(2, 60.0 * (1 + 2e-12), [0, 0]), p)

    def test_translated_ball_uses_spectral_path(self):
        # x0 at the true center; nested shifts add up onto the base center:
        # (0.1, -0.2) + (0.3, 0) + (-0.1, 0.5) = (0.3, 0.3)
        nested = translate(translate(ball([0.1, -0.2], 1.0), [0.3, 0.0]), [-0.1, 0.5])
        for d, c in [(translate(ball([0, 0], 1.0), [0.3, 0.0]), [0.3, 0.0]), (nested, [0.3, 0.3])]:
            u = radial_solution(2, 1.0, c)
            rep = check_identity(u, make_problem(d, 1.0, c, seed=5))
            assert rep.diagnostics["method"] == "ball_spectral"
            # nothing is drawn on a ball: no seed is printed
            assert rep.diagnostics["seed"] is None and rep.diagnostics["volume_seed"] is None
            assert rep.verdict == PASS
            assert rep.rhs == pytest.approx(ball_mean(u, c, 1.0).value, abs=1e-14)

    def test_mc_path_for_composite_domains(self):
        disk = ball([0, 0], 1.0)
        for d in [
            difference(box([-0.6, -0.6], [0.6, 0.6]), ball([0.6, 0], 0.25)),  # crosses x = 0.6
            translate(custom_domain(2, disk.indicator, disk.bounding_box), [0.4, 0.4]),
        ]:
            p = make_problem(d, 1.0, [0.4, 0.4], samples=300_000, seed=3)
            rep = check_identity(plane_wave(2, 1.0, [1, 0], 0.0), p)
            assert rep.diagnostics["method"] == "monte_carlo"
            assert rep.diagnostics["seed"] == rep.diagnostics["volume_seed"] == 3
            assert rep.verdict in (PASS, FAIL, INCONCLUSIVE)

    def test_dimension_above_12_rejected_before_any_draw(self):
        # j_{m/2,1} is computed for m/2 <= 6, so m = 13 has no size condition
        cube = box(np.zeros(13), np.ones(13))
        d = custom_domain(13, cube.indicator, cube.bounding_box)
        counter = CountingIndicator(d)
        with pytest.raises(ValueError, match="dimension m = 13 is above 12"):
            make_problem(d, 1.0, np.full(13, 0.5), samples=1000)
        assert counter.points == 0


class TestModifiedIdentity:
    """check_identity on a modified-equation field: the kernel is b_norm,
    and the default tolerance is 1e-8 relative to |lhs|."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("mu_r", [0.5, 3.0, 20.0])
    def test_ball_about_its_center_passes(self, m, mu_r):
        # at mu r = 20 the rule's rounding error is above an absolute 1e-8
        c = np.linspace(0.2, -0.1, m)
        p = make_problem(ball(c, 1.0), mu_r, c)
        rep = check_identity(modified_radial_solution(m, mu_r, c), p)
        assert rep.verdict == PASS, (rep.residual, rep.error_bar, rep.tolerance)
        assert rep.lhs == pytest.approx(b_norm(m, mu_r), rel=1e-14)
        assert rep.tolerance == pytest.approx(1e-8 * rep.lhs, rel=1e-15)

    @pytest.mark.parametrize("d, x0, mu", [
        (box([0, 0], [1, 1]), [0.5, 0.5], 0.5),
        (box([0, 0], [1, 1]), [0.5, 0.5], 3.0),
        (ball([0, 0], 1.0), [0.3, 0.0], 0.5),
    ])
    def test_off_a_ball_fails_with_the_sign_functional(self, d, x0, mu):
        # identity residual = -(modified sign functional) / |D|
        p = make_problem(d, mu, x0)
        rep = check_identity(modified_radial_solution(2, mu, x0), p)
        disc = proof_discrepancy(p, "modified_helmholtz")
        assert rep.verdict == FAIL
        assert rep.residual == pytest.approx(-disc.residual / p.volume, rel=1e-12)


def touching_difference():
    """A square minus a box notch that shares its face x = 1: a certified
    difference whose mean is exact but whose enclosing radius is not."""
    return difference(box([-1, -1], [1, 1]), box([0, -0.5], [1, 0.5]))


class CountingIndicator:
    """Wraps a domain's indicator and counts the points it classifies."""

    def __init__(self, d):
        self.inner, self.points = d.indicator, 0
        object.__setattr__(d, "indicator", self)

    def __call__(self, pts):
        self.points += len(pts)
        return self.inner(pts)


PLANE_WAVE_LAMBDA_R = [1.0, 20.0, 40.0, 60.0, 100.0]
TOLERANCES = [None, 1e-6, 2e-4]


def seeded_plane_wave(m, lam, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=m)
    return plane_wave(m, lam, v / np.linalg.norm(v), float(rng.uniform(0.0, 2.0 * math.pi)))


def box_plane_wave_mean(u, low, high):
    """M(cos(lam d.x + phi), box) = Re e^{i(lam d.c + phi)} prod sinc(lam d_k h_k)."""
    low, high = np.asarray(low, dtype=float), np.asarray(high, dtype=float)
    k, half = u.wavenumber * np.asarray(u.params["direction"]), 0.5 * (high - low)
    return (np.exp(1j * (k @ (0.5 * (high + low)) + u.params["phase"]))
            * np.prod(np.sinc(k * half / math.pi))).real


class TestResolutionFromLambdaR:
    """Plane waves at large lambda r: the theorem never comes out as fail."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("lam_r", PLANE_WAVE_LAMBDA_R)
    def test_mean_value_formula_passes(self, m, lam_r):
        r = 0.8
        u = seeded_plane_wave(m, lam_r / r, seed=int(lam_r) + m)
        x = np.linspace(-0.3, 0.4, m)
        for tol in TOLERANCES:
            kwargs = {} if tol is None else {"tolerance": tol}
            rep = check_mean_value_formula(u, x, r, **kwargs)
            assert rep.verdict == PASS, (tol, rep.residual, rep.error_bar)
            assert abs(rep.residual) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("lam_r", PLANE_WAVE_LAMBDA_R)
    def test_identity_on_a_ball_passes(self, m, lam_r):
        c = np.linspace(0.2, -0.1, m)
        d = translate(ball(np.zeros(m), 1.25), c)
        u = seeded_plane_wave(m, lam_r / 1.25, seed=10 * int(lam_r) + m)
        p = make_problem(d, u.wavenumber, c)
        for tol in TOLERANCES:
            rep = check_identity(u, p, tolerance=tol)
            assert rep.verdict == PASS, (tol, rep.residual, rep.error_bar)
            assert rep.diagnostics["method"] == "ball_spectral"

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("lam_side", PLANE_WAVE_LAMBDA_R)
    def test_box_mean_matches_sinc_product(self, m, lam_side):
        low, high = -np.linspace(0.5, 0.3, m), np.linspace(0.2, 0.5, m)
        lam = lam_side / float(np.max(high - low))
        u = seeded_plane_wave(m, lam, seed=100 * int(lam_side) + m)
        exact = box_plane_wave_mean(u, low, high)
        p = make_problem(box(low, high), lam, np.zeros(m))
        rep = check_identity(u, p)
        assert rep.diagnostics["method"] == "box_gauss"
        assert abs(rep.rhs - exact) <= rep.error_bar + 1e-14
        assert abs(rep.rhs - exact) <= 1e-13
        # the bar: the proved 1e-14 plus the rounding of cos at arguments
        # up to lam |x| ~ 1.3 lam_side, (m + 4) ulp each
        assert rep.error_bar <= 2e-14 + 2e-15 * lam_side


class TestSharedRule:
    SAMPLES = 50_000

    def domain(self):
        # the disk crosses the edge x = 1, so the domain is sampled
        return difference(box([-1, -1], [1, 1]), ball([1.0, 0.1], 0.25))

    def test_one_draw_per_call(self):
        # One seeded draw classifies `samples` points for |D| and every
        # mean; the extra point is the x0 membership check.
        n = self.SAMPLES
        d = self.domain()
        count = CountingIndicator(d)
        p = make_problem(d, 1.5, [0, 0], samples=n, seed=4)
        check_identity(radial_solution(2, 1.5, [0, 0]), p)
        assert count.points == n + 1

        d = self.domain()
        count = CountingIndicator(d)
        p = make_problem(d, 1.5, [0, 0], samples=n, seed=4)
        rep = characterize(p)
        assert rep.diagnostics["family_size"] == 13
        assert count.points == n + 1

        d = self.domain()
        count = CountingIndicator(d)
        kuran_limit_check(d, [0, 0], samples=n, seed=4)
        assert count.points == n + 1

        # at lambda = 3, r0 = 1.28 is below the square's bound sqrt(2),
        # so the size condition takes its sup over the same draw
        d = self.domain()
        count = CountingIndicator(d)
        p = make_problem(d, 3.0, [0, 0], samples=n, seed=4)
        rep = characterize(p)
        assert count.points == n + 1
        assert rep.diagnostics["size_condition"]["method"] == "sampled_sup"

        # a certified difference: an exact mean, and one draw for the sup
        d = touching_difference()
        count = CountingIndicator(d)
        rep = characterize(make_problem(d, 3.0, [-0.5, 0], samples=n, seed=4))
        assert count.points == n + 1
        assert rep.diagnostics["size_condition"]["method"] == "sampled_sup"

        d = self.domain()
        count = CountingIndicator(d)
        p = make_problem(d, 1.5, [0, 0], samples=n, seed=4)
        proof_discrepancy(p)
        assert count.points == n + 1

    def test_make_problem_sizes_every_check(self, monkeypatch):
        # resolution(lambda * size) sizes ball rules (radial and angular)
        # and box rules (per axis), kuran's from its largest lambda; every
        # identity a check runs reports the problem's rule, and characterize
        # and kuran check their whole family in one pass over it
        import helmholtz_means.verify as verify

        passes = []
        family_check = verify._identity_reports

        def spy(fields, p, tolerance=None):
            reps = family_check(fields, p, tolerance)
            passes.append([rep.diagnostics["nodes_or_samples"] for rep in reps])
            return reps

        monkeypatch.setattr(verify, "_identity_reports", spy)
        disk, square = ball([0, 0], 1.0), box([-0.5, -0.5], [0.5, 0.5])
        disk_size = lambda lam: math.prod(resolution(2, lam))
        square_size = lambda lam: _box_resolution(2, lam) ** 2
        for d, count in [(disk, disk_size), (square, square_size)]:
            size = count(1.5)
            p = make_problem(d, 1.5, [0, 0])
            passes.clear()
            assert check_identity(radial_solution(2, 1.5, [0, 0]), p).diagnostics[
                "nodes_or_samples"] == size
            assert passes == [[size]]
            assert proof_discrepancy(p).diagnostics["nodes_or_samples"] == size
            passes.clear()
            rep = characterize(p)
            assert passes == [[size] * rep.diagnostics["family_size"]]
            passes.clear()
            kuran_limit_check(d, [0, 0])
            assert passes == [[count(0.3)] * 4]

    def test_problem_keeps_its_one_draw(self):
        # |D| needs the draw, so make_problem makes it; every later use
        # reads the same cached inside points
        rule = mean_rule(self.domain(), 1.5, samples=self.SAMPLES, seed=4)
        assert "accepted" not in vars(rule)
        p = make_problem(self.domain(), 3.0, [0, 0], samples=self.SAMPLES, seed=4)
        points = p.rule.accepted
        assert (p.volume, p.volume_error) == p.rule.volume()
        check_identity(radial_solution(2, 3.0, [0, 0]), p)
        assert check_size_condition(p).lhs == circumradius_about(points, p.x0)
        assert p.rule.accepted is points
        assert len(points) == p.rule.mean(lambda x: x[:, 0]).samples_or_nodes

    def test_characterize_members_share_one_sample(self):
        n = self.SAMPLES
        p = make_problem(self.domain(), 1.5, [0, 0], samples=n, seed=4)
        rep = characterize(p)
        family = default_family(p)
        for f, member in zip(family, rep.diagnostics["members"], strict=True):
            assert member["residual"] == check_identity(f, p).residual

    def test_volume_error_widens_mc_bar(self):
        n = self.SAMPLES
        u = radial_solution(2, 1.5, [0, 0])
        p = make_problem(self.domain(), 1.5, [0, 0], samples=n, seed=4)
        rep = check_identity(u, p)
        t = p.lam * p.r
        term = abs(t * a_norm(4, t) / 4.0) * p.lam * p.r * p.volume_error / (2 * p.volume)
        assert rep.diagnostics["volume_error_term"] == pytest.approx(term, rel=1e-12)
        assert term > 0.0
        mc_bar = mc_mean(u, p.domain, samples=n, seed=4).abs_error_estimate
        assert rep.error_bar == pytest.approx(mc_bar + term, rel=1e-12)
        assert rep.tolerance == rep.error_bar
        # analytic volumes add nothing
        q = make_problem(ball([0, 0], 1.0), 1.5, [0, 0])
        rep = check_identity(radial_solution(2, 1.5, [0, 0]), q)
        assert rep.diagnostics["volume_error_term"] == 0.0


class TestCertifiedDifference:
    """A \\ B with B certified inside A or clear of it: exact |D| and the
    signed sum of the terms' product rules."""

    BOX_MINUS_DISK = difference(box([-1, -1], [1, 1]), ball([0.5, 0.2], 0.25))
    CUBE_LOW, CUBE_SIDE = np.array([0.2, -0.1, 0.1]), 0.4
    BALL_MINUS_CUBE = difference(ball([0, 0, 0], 1.0), box(CUBE_LOW, CUBE_LOW + CUBE_SIDE))

    @pytest.mark.parametrize("d", [BOX_MINUS_DISK, BALL_MINUS_CUBE], ids=["2d", "3d"])
    def test_relation_is_certified_once_per_problem(self, d, monkeypatch):
        # a difference keeps its relation and its volume: make_problem reads
        # the volume twice and sizes the rule from the relation, and every
        # member of characterize's family reads the volume again
        import helmholtz_means.geometry as geometry

        calls = []
        certify = geometry.certified_relation

        def spy(a, b, strict=False):
            calls.append(strict)
            return certify(a, b, strict)

        monkeypatch.setattr(geometry, "certified_relation", spy)
        fresh = difference(d.a, d.b)
        rep = characterize(make_problem(fresh, 2.0, np.zeros(d.dimension)))
        assert rep.diagnostics["family_size"] > 1
        assert calls.count(False) == 1

    def test_certification_table(self):
        disk = ball([0, 0], 1.0)
        custom = custom_domain(2, ball([0.2, 0], 0.1).indicator, ([0.1, -0.1], [0.3, 0.1]))
        square = box([-1, -1], [1, 1])
        cases = [
            # (a, b, relation, strictly inside or disjoint)
            (square, ball([0.5, 0.2], 0.25), INSIDE, True),
            (ball([0, 0, 0], 1.0), box([0.2, -0.1, 0.1], [0.6, 0.3, 0.5]), INSIDE, True),
            (box([0, 0], [1, 1]), ball([3, 0], 0.5), DISJOINT, True),
            (disk, ball([1.3, 1.3], 0.5), DISJOINT, True),  # bounding boxes overlap
            (square, ball([0.9, 0.2], 0.3), None, False),  # crosses x = 1
            (square, custom, INSIDE, True),  # its bounding box is inside
            (disk, custom, None, False),  # no enclosing-radius bound
            (box([0, 0], [2, 1]), box([1, 0], [2, 1]), INSIDE, False),  # shares three faces
            (disk, ball([0.5, 0], 0.5), INSIDE, False),  # tangent from inside
            (ball([0, 0, 0, 0], 1.0), ball([0.1, 0, 0, 0], 0.5), INSIDE, True),
            (translate(square, [3, 0]), translate(ball([0.5, 0.2], 0.25), [3, 0]), INSIDE, True),
            (translate(square, [3, 0]), ball([0.5, 0.2], 0.25), DISJOINT, True),
            (translate(disk, [0.5, 0]), ball([1.2, 0], 0.2), INSIDE, True),
            (square, difference(ball([0, 0], 0.5), ball([0, 0], 0.2)), INSIDE, True),
            (difference(square, ball([0, 0], 0.5)), ball([4, 0], 0.5), DISJOINT, True),
            (difference(square, ball([0, 0], 0.5)), ball([0.7, 0.7], 0.2), None, False),
        ]
        for a, b, relation, strict in cases:
            assert certified_relation(a, b) == relation, (a, b)
            assert (certified_relation(a, b, strict=True) is not None) == strict, (a, b)

    def test_exact_volume_against_closed_form(self):
        assert self.BOX_MINUS_DISK.analytic_volume == pytest.approx(4.0 - math.pi / 16, rel=1e-15)
        assert self.BALL_MINUS_CUBE.analytic_volume == pytest.approx(
            4.0 * math.pi / 3.0 - 0.4**3, rel=1e-15)
        disjoint = difference(ball([0, 0], 1.0), ball([1.3, 1.3], 0.5))
        assert disjoint.analytic_volume == math.pi
        nested = difference(box([-1, -1], [1, 1]), difference(ball([0, 0], 0.5), ball([0, 0], 0.2)))
        assert nested.analytic_volume == pytest.approx(4.0 - math.pi * 0.21, rel=1e-15)
        shifted = translate(self.BOX_MINUS_DISK, [2.0, -1.0])
        assert volume(shifted) == (self.BOX_MINUS_DISK.analytic_volume, 0.0)
        for uncertified in (
            difference(box([-1, -1], [1, 1]), ball([0.9, 0.2], 0.3)),
            difference(box([-1, -1], [1, 1]),
                       custom_domain(2, ball([0, 0], 0.2).indicator, ([-0.2, -0.2], [0.2, 0.2]))),
        ):
            assert uncertified.analytic_volume is None

    def test_plane_wave_on_box_minus_disk(self):
        u = plane_wave(2, 7.3, [0.6, 0.8], 0.4)
        c, rho = np.array([0.5, 0.2]), 0.25
        v_disk = math.pi * rho * rho
        exact = ((4.0 * box_plane_wave_mean(u, [-1, -1], [1, 1])
                  - v_disk * a_norm(2, 7.3 * rho) * u(c)) / (4.0 - v_disk))
        rule = mean_rule(self.BOX_MINUS_DISK, 7.3)
        assert rule.method == "product_difference"
        est = rule.mean(u)
        assert abs(est.value - exact) <= 1e-12
        assert est.abs_error_estimate <= 1e-12
        assert est.seed is None
        box_nodes = _box_resolution(2, 7.3 * 2.0) ** 2
        disk_nodes = math.prod(resolution(2, 7.3 * rho))
        assert est.samples_or_nodes == box_nodes + disk_nodes
        assert rule.mean(lambda p: np.ones(len(p)), bound=0.0).value == 1.0
        # a translate of the difference integrates the translated field,
        # whose bound is u's on the untranslated rule
        shifted = mean_rule(translate(self.BOX_MINUS_DISK, [0.3, -0.7]), 7.3)
        back = shifted.mean(lambda p: u(p - np.array([0.3, -0.7])), bound=rule.bound(u))
        assert abs(back.value - exact) <= min(1e-12, back.abs_error_estimate)

    def test_plane_wave_on_ball_minus_cube(self):
        u = plane_wave(3, 5.1, [0.48, 0.6, 0.64], 1.1)
        v_ball, v_cube = 4.0 * math.pi / 3.0, self.CUBE_SIDE**3
        m_cube = box_plane_wave_mean(u, self.CUBE_LOW, self.CUBE_LOW + self.CUBE_SIDE)
        exact = (v_ball * a_norm(3, 5.1) * u(np.zeros(3)) - v_cube * m_cube) / (v_ball - v_cube)
        est = mean_rule(self.BALL_MINUS_CUBE, 5.1).mean(u)
        assert est.method == "product_difference"
        assert abs(est.value - exact) <= 1e-12

    def test_identity_report_is_exact(self):
        u = radial_solution(2, 1.5, [0, 0])
        p = make_problem(self.BOX_MINUS_DISK, 1.5, [0, 0], seed=4)
        assert p.volume == self.BOX_MINUS_DISK.analytic_volume and p.volume_error == 0.0
        rep = check_identity(u, p)
        assert rep.diagnostics["method"] == "product_difference"
        assert rep.diagnostics["volume_error_term"] == 0.0
        assert rep.diagnostics["seed"] is None and rep.diagnostics["volume_seed"] is None
        assert rep.tolerance == 1e-8 and rep.error_bar <= 1e-13
        assert rep.verdict == FAIL  # a square with a bite is not B_r(0)
        disc = proof_discrepancy(p)
        assert disc.verdict == PASS and disc.tolerance == pytest.approx(1e-8 * p.volume)

    def test_disjoint_subtrahend_gives_the_ball_report(self):
        disk = ball([0.1, -0.2], 0.9)
        far = difference(disk, ball([1.2, 0.9], 0.5))
        u = plane_wave(2, 3.0, [0.6, 0.8], 0.2)
        assert mean_rule(far, 3.0).mean(u) == mean_rule(disk, 3.0).mean(u)
        reps = [check_identity(u, make_problem(d, 3.0, [0.1, -0.2])) for d in (disk, far)]
        numbers = [(r.lhs, r.rhs, r.residual, r.tolerance, r.error_bar, r.verdict) for r in reps]
        assert numbers[0] == numbers[1]

    def test_empty_difference_has_no_volume(self):
        disk = ball([0, 0], 1.0)
        same = difference(disk, ball([0, 0], 1.0))
        assert same.analytic_volume == 0.0
        with pytest.raises(ValueError, match="volume must be positive"):
            mean_rule(same, 1.0)
        with pytest.raises(ValueError, match="volume must be positive"):
            equivalent_radius(same)

    def test_term_above_the_cap_is_sampled(self):
        # lambda * 2 = 140 is above the box's cap, though the disk's band is 17.5
        rule = mean_rule(self.BOX_MINUS_DISK, 70.0, samples=10_000, seed=1)
        assert rule.method == "monte_carlo"
        with pytest.raises(ValueError, match="resolution cap"):
            mean_rule(box([-1, -1], [1, 1]), 70.0)
        # a 4-D ball has a product rule, and so has a difference of two
        four = difference(ball([0, 0, 0, 0], 1.0), ball([0.1, 0, 0, 0], 0.5))
        assert four.analytic_volume == pytest.approx(15.0 / 16.0 * math.pi**2 / 2.0, rel=1e-14)
        assert mean_rule(four, 1.0, samples=10_000, seed=1).method == "product_difference"


class TestSizeCondition:
    def test_square_fails_with_reference_numbers(self):
        lam = math.pi * math.sqrt(5.0)
        p = make_problem(box([0, 0], [1, 1]), lam, [0.5, 0.5])
        rep = check_size_condition(p)
        assert rep.verdict == FAIL
        assert rep.diagnostics["lambda_times_enclosing_radius"] == pytest.approx(
            4.967294, abs=1e-5
        )
        assert rep.diagnostics["j_half_m_1"] == pytest.approx(3.831706, abs=1e-5)

    def test_small_ball_passes(self):
        p = make_problem(ball([0, 0], 1.0), 1.0, [0, 0])
        rep = check_size_condition(p)
        assert rep.verdict == PASS  # lambda r = 1 < 3.831706

    def test_m3_ball_close_to_critical(self):
        p = make_problem(ball([0, 0, 0], 4.4), 1.0, [0, 0, 0])
        assert check_size_condition(p).verdict == PASS  # 4.4 < 4.493409
        p2 = make_problem(ball([0, 0, 0], 4.6), 1.0, [0, 0, 0])
        assert check_size_condition(p2).verdict == FAIL

    def test_sampled_path_for_composite_domain(self):
        # The minuend's bound about x0 is 0.7 + 1 = 1.7 > r0 = 1.65, but
        # the bite removes the far side: the true enclosing radius is
        # about 1.5625, at the corners where the two circles meet.
        bitten = difference(ball([0, 0], 1.0), ball([-1.0, 0.0], 0.8))
        p = make_problem(bitten, bessel_zero(1.0, 1) / 1.65, [0.7, 0.0], samples=200_000, seed=1)
        assert p.r0 == pytest.approx(1.65, rel=1e-12)
        rep = check_size_condition(p)
        assert rep.diagnostics["method"] == "sampled_sup"
        assert (rep.diagnostics["samples"], rep.diagnostics["seed"]) == (200_000, 1)
        assert rep.lhs == circumradius_about(p.rule.accepted, p.x0)  # the problem's draw
        assert 1.55 < rep.lhs <= 1.5626
        assert rep.verdict == PASS

    def test_sampled_pass_needs_the_draws_spacing(self):
        # The bitten disk's true enclosing radius is 1.5627 > r0 = 1.555:
        # a sampled sup never passes it, and a sup above r0 fails.
        bitten = difference(ball([0, 0], 1.0), ball([-1.0, 0.0], 0.8))
        j = bessel_zero(1.0, 1)
        for samples in (2_000, 20_000, 200_000):
            for seed in range(3):
                rep = check_size_condition(make_problem(bitten, j / 1.555, [0.7, 0.0],
                                                        samples=samples, seed=seed))
                assert rep.diagnostics["method"] == "sampled_sup"
                # h, the draw's mean spacing over the bounding box [-1, 1]^2
                assert rep.error_bar == (4.0 / samples) ** 0.5
                assert rep.verdict != PASS
                assert rep.verdict == (FAIL if rep.lhs > rep.rhs else INCONCLUSIVE)
        for seed in range(3):
            p = make_problem(bitten, j / 1.65, [0.7, 0.0], samples=200_000, seed=seed)
            assert check_size_condition(p).verdict == PASS

    def test_sampled_verdict_bands(self):
        # one draw, three r0: just under the sup (fail), less than h above
        # it (inconclusive), more than h above it (pass)
        bitten = difference(ball([0, 0], 1.0), ball([-1.0, 0.0], 0.8))
        j = bessel_zero(1.0, 1)
        rep = check_size_condition(make_problem(bitten, j / 1.6, [0.7, 0.0],
                                                samples=20_000, seed=0))
        sup, h = rep.lhs, rep.error_bar
        for r0, verdict in [(sup * (1.0 - 1e-12), FAIL), (sup + 0.5 * h, INCONCLUSIVE),
                            (sup + 1.01 * h, PASS)]:
            p = make_problem(bitten, j / r0, [0.7, 0.0], samples=20_000, seed=0)
            rep = check_size_condition(p)
            assert (rep.lhs, rep.error_bar) == (sup, h)  # the same draw
            assert rep.verdict == verdict

    def test_upper_bound_certifies_difference(self):
        # A \ B lies in A, so A's enclosing radius 0.7 + 1 = 1.7 bounds it,
        # and 1.7 <= r0 = 3.83 certifies the pass without sampling.  It is
        # exact when closure(B) lies in the open A (the annulus), only a
        # bound when B touches A's boundary from inside (the tangent disk).
        # A translate shifts x0 onto the untranslated tree.
        annulus = difference(ball([0, 0], 1.0), ball([0, 0], 0.4))
        tangent = difference(ball([0, 0], 1.0), ball([0.6, 0], 0.4))
        cases = [
            (annulus, [0.7, 0.0], "exact"),
            (translate(annulus, [0.5, -0.2]), [1.2, -0.2], "exact"),
            (tangent, [-0.7, 0.0], "upper_bound"),
            (translate(tangent, [0.5, -0.2]), [-0.2, -0.2], "upper_bound"),
        ]
        for d, x0, method in cases:
            rep = check_size_condition(make_problem(d, 1.0, x0))
            assert rep.diagnostics["method"] == method
            assert rep.diagnostics["samples"] == 0 and rep.diagnostics["seed"] is None
            assert rep.lhs == pytest.approx(1.7, abs=1e-15)
            assert rep.error_bar == 0.0
            assert rep.verdict == PASS
        # a custom domain has no bound, so it is sampled
        disk = ball([0, 0], 1.0)
        custom = custom_domain(2, disk.indicator, disk.bounding_box)
        rep = check_size_condition(make_problem(custom, 1.0, [0, 0], samples=50_000, seed=1))
        assert rep.diagnostics["method"] == "sampled_sup"

    def test_touching_difference_samples_its_own_draw(self):
        # the minuend's bound sqrt(1.5^2 + 1) is above r0 = j_{1,1} / 3, so
        # one SampleRule of the problem's samples at its seed gives the sup
        p = make_problem(touching_difference(), 3.0, [-0.5, 0.0], samples=100_000, seed=6)
        assert p.rule.method == "product_difference"
        rep = check_size_condition(p)
        assert rep.diagnostics["method"] == "sampled_sup"
        assert (rep.diagnostics["samples"], rep.diagnostics["seed"]) == (100_000, 6)
        assert rep.lhs == circumradius_about(SampleRule(p.domain, 100_000, 6).accepted, p.x0)
        assert 1.79 < rep.lhs <= math.hypot(1.5, 1.0)
        assert rep.verdict == FAIL
        summary = characterize(p).diagnostics["size_condition"]
        assert summary == {"verdict": FAIL, "method": "sampled_sup",
                           "enclosing_radius": rep.lhs, "r0": p.r0}

    def test_counts_must_be_positive(self):
        annulus = difference(ball([0, 0], 1.0), ball([0, 0], 0.4))
        with pytest.raises(ValueError, match="samples"):
            make_problem(annulus, 1.0, [0.7, 0.0], samples=0)

    def test_problem_invariants(self):
        p = make_problem(box([0, 0], [1, 1]), 2.0, [0.5, 0.5])
        assert p.r == pytest.approx(0.5641895835477563, rel=1e-12)
        assert p.lam * p.r0 == pytest.approx(bessel_zero(1.0, 1), abs=1e-9)
        with pytest.raises(ValueError):
            make_problem(box([0, 0], [1, 1]), 2.0, [2.0, 0.5])  # x0 outside


class TestCharacterize:
    def test_true_ball_consistent(self):
        p = make_problem(ball([0.1, 0.4], 0.8), 1.2, [0.1, 0.4])
        rep = characterize(p)
        assert rep.verdict == PASS
        assert rep.diagnostics["conclusion"] == "consistent with D = B_r(x0)"
        assert rep.diagnostics["family_size"] >= 9

    def test_shifted_ball_detected_with_radial_witness(self):
        d = translate(ball([0, 0], 1.0), [0.3, 0.0])
        p = make_problem(d, 1.0, [0, 0])
        rep = characterize(p)
        assert rep.verdict == FAIL
        assert rep.diagnostics["conclusion"] == "not a ball centered at x0"
        assert rep.diagnostics["witness"]["kind"] == "radial"
        assert rep.diagnostics["witness"]["residual"] > 0

    def test_square_at_membrane_wavenumber_outside_scope(self):
        lam = math.pi * math.sqrt(5.0)
        p = make_problem(box([0, 0], [1, 1]), lam, [0.5, 0.5])
        fam = [membrane_eigenfunction(2, 1, 1.0), membrane_eigenfunction(1, 2, 1.0)]
        rep = characterize(p, family=fam)
        assert rep.verdict == INCONCLUSIVE
        assert rep.diagnostics["conclusion"] == "outside theorem scope"
        member_verdicts = {m["field"]: m["verdict"] for m in rep.diagnostics["members"]}
        assert member_verdicts["membrane"] == PASS

    def test_m3_ball_consistent(self):
        p = make_problem(ball([0, 0, 0], 1.0), 1.0, [0, 0, 0])
        rep = characterize(p)
        assert rep.verdict == PASS

    def test_family_wavenumber_validated(self):
        p = make_problem(ball([0, 0], 1.0), 1.0, [0, 0])
        with pytest.raises(ValueError):
            characterize(p, family=[plane_wave(2, 2.0, [1, 0], 0.0)])

    def test_annulus_via_monte_carlo_path(self):
        # composite domain: no spectral shortcut, sampled size condition
        annulus = difference(ball([0, 0], 1.0), ball([0, 0], 0.4))
        p = make_problem(annulus, 1.0, [0.7, 0.0], samples=400_000, seed=2)
        rep = characterize(p)
        assert rep.verdict == FAIL
        assert rep.diagnostics["conclusion"] == "not a ball centered at x0"
        assert rep.diagnostics["size_condition"]["verdict"] == PASS
        assert any(m["verdict"] == FAIL for m in rep.diagnostics["members"])


class TestProofDiscrepancy:
    def test_square_negative_beyond_noise(self):
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0])
        rep = proof_discrepancy(p)
        assert rep.verdict == PASS
        assert rep.residual < -rep.error_bar

    def test_offset_ball_negative_beyond_noise(self):
        d = translate(ball([0, 0], 1.0), [0.3, 0.0])
        p = make_problem(d, 1.0, [0, 0])
        rep = proof_discrepancy(p)
        assert rep.verdict == PASS
        assert rep.residual < -3.0 * rep.error_bar  # far beyond the bar

    def test_ball_itself_inconclusive_sign(self):
        p = make_problem(ball([0, 0], 1.0), 1.0, [0, 0])
        rep = proof_discrepancy(p)
        assert rep.verdict == INCONCLUSIVE
        assert abs(rep.residual) <= max(rep.error_bar, 1e-12)

    def test_modified_variant_flips_sign(self):
        # The monotone-increasing kernel of the modified equation makes
        # the same functional strictly positive.
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0])
        rep = proof_discrepancy(p, equation="modified_helmholtz")
        assert rep.diagnostics["expected_sign"] == "positive"
        assert rep.verdict == PASS
        assert rep.residual > rep.error_bar

    def test_contrapositive_witness_relation(self):
        # identity residual = -(discrepancy)/|D| for the radial field
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0])
        disc = proof_discrepancy(p)
        ident = check_identity(radial_solution(2, 1.0, [0, 0]), p)
        assert ident.residual == pytest.approx(
            -disc.residual / p.volume, abs=disc.error_bar / p.volume
        )

    def test_reproducible_bit_identical(self):
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0], samples=200_000, seed=11)
        a = proof_discrepancy(p)
        b = proof_discrepancy(p)
        assert (a.lhs, a.rhs, a.residual, a.error_bar) == (b.lhs, b.rhs, b.residual, b.error_bar)

    def test_bad_equation_rejected(self):
        p = make_problem(ball([0, 0], 1.0), 1.0, [0, 0])
        with pytest.raises(ValueError):
            proof_discrepancy(p, equation="laplace")

    BOX_MINUS_DISK = difference(box([-1, -1], [1, 1]), ball([0.5, 0.2], 0.25))
    # the same set behind a custom indicator, which only sampling integrates
    SAMPLED_BOX_MINUS_DISK = custom_domain(2, BOX_MINUS_DISK.indicator,
                                           BOX_MINUS_DISK.bounding_box)

    @pytest.mark.parametrize("equation,field", [
        ("helmholtz", radial_solution), ("modified_helmholtz", modified_radial_solution),
    ])
    @pytest.mark.parametrize("d,lam", [
        (box([-0.5, -0.5], [0.5, 0.5]), 1.0),
        (translate(ball([0, 0], 1.0), [0.3, 0.0]), 1.0),
        (BOX_MINUS_DISK, 2.3),
    ])
    def test_identity_route_agrees_with_integrals_over_g_i_and_g_e(self, d, lam, equation, field):
        # The oracle integrates U over G_i and G_e with two independent
        # Monte Carlo runs; both routes estimate int_D U - int_{B_r} U.
        n = 200_000
        p = make_problem(d, lam, [0, 0], samples=n, seed=3)
        rep = proof_discrepancy(p, equation=equation)
        assert rep.verdict == PASS
        u, b = field(2, lam, [0, 0]), ball([0, 0], p.r)
        int_i, err_i, _, _ = mc_integral(u, difference(d, b), samples=n, seed=4)
        int_e, err_e, _, _ = mc_integral(u, difference(b, d), samples=n, seed=5)
        assert abs(rep.residual - (int_i - int_e)) <= rep.error_bar + math.hypot(err_i, err_e)

    def test_mc_bar_covers_the_exact_functional(self):
        # |D| and M(U, D) come from one draw.  The exact functional comes
        # from product rules: int_D U = int_box U - int_disk U.
        lam, c, rh = 2.3, [0.5, 0.2], 0.25
        u = radial_solution(2, lam, [0, 0])
        vol = 4.0 - math.pi * rh * rh
        exact = (4.0 * box_mean(u, [-1, -1], [1, 1], nodes_per_axis=64).value
                 - math.pi * rh * rh * ball_mean(u, c, rh).value
                 - vol * a_norm(2, lam * math.sqrt(vol / math.pi)))
        covered = 0
        for seed in range(1000, 1040):
            p = make_problem(self.SAMPLED_BOX_MINUS_DISK, lam, [0, 0], samples=200_000,
                             seed=seed)
            rep = proof_discrepancy(p)
            assert rep.diagnostics["method"] == "monte_carlo"
            assert rep.diagnostics["samples"] == 200_000 and rep.diagnostics["seed"] == seed
            assert rep.tolerance == 0.0
            covered += abs(rep.residual - exact) <= rep.error_bar
        assert covered >= 38

    def test_product_rule_bar_and_volume_diagnostics(self):
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0], seed=5)
        rep = proof_discrepancy(p)
        assert rep.diagnostics["method"] == "box_gauss"
        assert rep.diagnostics["samples"] is None and rep.diagnostics["seed"] is None
        assert rep.diagnostics["nodes_or_samples"] == _box_resolution(2, 1.0) ** 2
        assert rep.tolerance == pytest.approx(1e-8 * p.volume)
        assert rep.rhs == pytest.approx(p.volume * a_norm(2, p.r), rel=1e-15)
        removed = {"seed_g_e", "volume_g_i", "volume_g_e", "volume_gap",
                   "volume_gap_error_bar", "volumes_match"}
        assert not removed & set(rep.diagnostics)


class TestMembraneBundle:
    def test_unit_square_bundle(self):
        reps = {r.name: r for r in membrane_counterexample(1.0)}
        assert len(reps) == 5
        assert reps["membrane_center_values"].verdict == PASS
        assert reps["membrane_center_values"].lhs == 0.0
        assert reps["membrane_zero_mean"].verdict == PASS
        assert abs(reps["membrane_zero_mean"].lhs) <= 1e-12
        assert reps["membrane_identity"].verdict == PASS
        assert abs(reps["membrane_identity"].residual) <= 1e-12
        size = reps["membrane_size_condition"]
        assert size.verdict == FAIL
        assert size.lhs == pytest.approx(4.967294, abs=1e-5)
        assert size.rhs == pytest.approx(3.831706, abs=1e-5)
        gap = reps["membrane_size_gap"]
        assert gap.verdict == PASS
        assert gap.lhs == pytest.approx(1.135588, abs=2e-5)

    def test_scale_invariance(self):
        for a in [0.5, 2.0]:
            reps = {r.name: r for r in membrane_counterexample(a)}
            assert reps["membrane_center_values"].verdict == PASS
            assert reps["membrane_size_condition"].verdict == FAIL
            assert reps["membrane_size_condition"].lhs == pytest.approx(4.967294, abs=1e-5)
            assert reps["membrane_size_gap"].lhs == pytest.approx(1.135588, abs=2e-5)


class TestKuranLimit:
    def test_kernel_rate_against_series_coefficient(self):
        # (a_norm(m, t) - 1) / (-t^2 / (2(m+2))) in [0.999, 1.001] at t = 1e-2
        for m in [2, 3, 4, 5]:
            t = 1e-2
            ratio = (a_norm(m, t) - 1.0) / (-t * t / (2.0 * (m + 2.0)))
            assert 0.999 <= ratio <= 1.001

    def test_kernel_value_at_zero(self):
        assert a_norm(3, 0.0) == 1.0

    def test_ball_reports(self):
        kernel, ident = kuran_limit_check(ball([0, 0], 1.0), [0, 0], lambdas=(0.1, 0.01, 0.001))
        assert kernel.verdict == PASS
        assert kernel.lhs == pytest.approx(1.0, abs=1e-3)
        assert ident.verdict == PASS
        # identity residual for plane waves on a ball is quadrature-tiny
        assert abs(ident.diagnostics["table"][-1]["identity_residual"]) <= 1e-7

    def test_box_identity_limit_matches_harmonic_residual(self):
        # For the box about x0 = (0.3, 1.0), M(x1 - x0_1) = 0.2; the
        # sin-profile residual / lambda approaches -0.2.
        _, ident = kuran_limit_check(box([0, 0], [1, 2]), [0.3, 1.0], lambdas=(0.1, 0.03, 0.01),
                                     seed=890)
        assert ident.verdict == PASS
        assert ident.diagnostics["seed"] is None  # a product rule draws nothing
        assert ident.rhs == pytest.approx(-0.2, abs=1e-12)
        assert ident.lhs == pytest.approx(-0.2, abs=1e-3)

    def test_mc_domain_passes_with_a_common_sample_bar(self):
        d = difference(box([-1, -1], [1, 1]), ball([0.5, 0.1], 0.25))
        kernel, ident = kuran_limit_check(d, [0, 0], samples=200_000, seed=5)
        assert (kernel.verdict, ident.verdict) == (PASS, PASS)
        assert 0.0 < ident.error_bar < 1e-6 < ident.tolerance
        # a disk crossing the box's edge leaves only sampling, which reports its seed
        crossing = difference(box([-1, -1], [1, 1]), ball([0.9, 0.1], 0.25))
        _, ident = kuran_limit_check(crossing, [0, 0], samples=200_000, seed=5)
        assert ident.diagnostics["seed"] == 5

    def test_lambda_sequence_validated(self):
        with pytest.raises(ValueError):
            kuran_limit_check(ball([0, 0], 1.0), [0, 0], lambdas=(0.01, 0.1))
        with pytest.raises(ValueError, match="at least one lambda"):
            kuran_limit_check(ball([0, 0], 1.0), [0, 0], lambdas=())

    def test_one_problem_serves_every_lambda(self, monkeypatch):
        import helmholtz_means.verify as verify

        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return make_problem(*args, **kwargs)

        monkeypatch.setattr(verify, "make_problem", counting)
        kuran_limit_check(box([0, 0], [1, 2]), [0.3, 1.0])
        assert calls == [0.3]

    def test_rounding_at_small_lambda_is_not_a_fail(self):
        # the ratio divides a_norm's last bit by t^2 / 8: at t = 1e-7 that
        # is a bar of about 0.18, so the report cannot fail
        kernel, _ = kuran_limit_check(ball([0, 0], 1.0), [0, 0], lambdas=(1e-3, 1e-7))
        assert kernel.verdict == INCONCLUSIVE
        assert kernel.error_bar == pytest.approx(8 * 2.0**-52 / 1e-14, rel=1e-12)
        with pytest.raises(ValueError, match="underflows"):
            kuran_limit_check(ball([0, 0], 1.0), [0, 0], lambdas=(1e-200,))

    @pytest.mark.parametrize("m", [2, 3, 6])
    @pytest.mark.parametrize("t", [1e-3, 1e-5, 1e-7])
    def test_kernel_bar_covers_the_ratio_error(self, m, t):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        kernel, _ = kuran_limit_check(ball(np.zeros(m), 1.0), np.zeros(m), lambdas=(t,))
        tt = mpmath.mpf(kernel.diagnostics["table"][-1]["t"])
        nu = mpmath.mpf(m) / 2
        exact_a = mpmath.gamma(nu + 1) * (2 / tt) ** nu * mpmath.besselj(nu, tt)
        exact = (exact_a - 1) / (-tt * tt / (2 * (m + 2)))
        assert abs(kernel.lhs - float(exact)) <= kernel.error_bar


class TestFluxIdentity:
    CASES = [
        (radial_solution(3, 1.0, [0, 0, 0]), [0, 0, 0], 1.0),
        (plane_wave(2, 1.0, [1, 0], 0.0), [0, 0], 1.0),
        (radial_solution(2, 2.0, [0.1, 0.0]), [0.1, 0.0], 1.5),
        (plane_wave(3, 1.5, [0, 0, 1], 0.3), [0, 0, 0], 0.8),
        (radial_solution(3, 1.0, [0, 0, 0]), [0, 0, 0], math.pi),
        (plane_wave(2, 0.5, [0, 1], 0.0), [0.2, -0.1], 2.0),
        # lambda r from 17 to 30: the volume term needs a rule sized from lambda r
        (plane_wave(2, 17.7657, [-0.22511304302116736, 0.974332652568798], 2.8582),
         [-0.701, 0.04], 1.17718),
        (plane_wave(2, 14.6602, [0.9786642875979429, -0.20546584188232117], 3.3003),
         [-0.46, -0.668], 1.39714),
        (plane_wave(3, 30.0, [0, 0.6, 0.8], 0.3), [0, 0, 0], 1.0),
    ]

    @pytest.mark.parametrize("u,c,r", CASES)
    def test_six_cases_pass(self, u, c, r):
        rep = flux_identity_check(u, c, r)
        assert rep.verdict == PASS
        assert abs(rep.diagnostics["relative_residual"]) <= 1e-5
        assert rep.error_bar <= 1e-10 * abs(rep.lhs)

    def test_plane_wave_value(self):
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        rep = flux_identity_check(u, [0, 0], 1.0)
        assert rep.lhs == pytest.approx(math.pi * a_norm(2, 1.0), rel=1e-9)
        assert rep.lhs == pytest.approx(2.7649, abs=2e-4)

    def test_one_pass_per_sphere_level(self):
        # the gradient is evaluated once, on the sphere rule the volume
        # rule's band sizes (for m >= 3 its angular // 2 meridian points);
        # the bar is proved, so no second pass forms it
        from dataclasses import replace

        for m, lam, r in [(2, 1.0, 1.0), (3, 1.5, 0.8), (4, 1.0, 1.0), (8, 2.0, 1.0)]:
            u = radial_solution(m, lam, np.zeros(m))
            rows = []
            counted = replace(u, gradient=lambda x, g=u.gradient: rows.append(len(x)) or g(x))
            rep = flux_identity_check(counted, np.zeros(m), r)
            angular = rep.diagnostics["angular_resolution"]
            assert angular == resolution(m, lam * r)[1]
            assert rows == [angular if m == 2 else angular // 2]
            assert rep.verdict == PASS

    def test_zero_field_trivial_identity(self):
        from helmholtz_means.solutions import SolutionField

        zero = SolutionField(
            dimension=2,
            wavenumber=1.0,
            equation="helmholtz",
            evaluate=lambda p: np.zeros(len(p)),
            gradient=np.zeros_like,
            kind="plane_wave",
        )
        rep = flux_identity_check(zero, [0, 0], 1.0)
        assert rep.verdict == PASS
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_one_resolution_sizes_both_rules(self, monkeypatch):
        # the volume mean's ball rule and the flux's sphere rule come from
        # one resolution(m, lambda r)
        import helmholtz_means.quadrature as quadrature
        import helmholtz_means.verify as verify

        bands = []
        sized = quadrature.resolution

        def spy(m, band):
            bands.append(band)
            return sized(m, band)

        monkeypatch.setattr(quadrature, "resolution", spy)
        monkeypatch.setattr(verify, "resolution", spy)
        u = plane_wave(3, 2.0, [0.6, 0.0, 0.8], 0.3)
        rep = flux_identity_check(u, [0.1, 0, 0], 1.5)
        assert bands == [3.0]
        assert rep.verdict == PASS
        assert rep.diagnostics["angular_resolution"] == sized(3, 3.0)[1]

    def test_one_dimension_is_refused_before_sizing(self):
        u = plane_wave(1, 1.0, [1.0], 0.0)
        with pytest.raises(ValueError, match="the flux identity needs a sphere, m >= 2, got m = 1"):
            flux_identity_check(u, [0.0], 1.0)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_passes_at_the_size_condition_edge(self, m):
        # at lambda r = j_{m/2,1} a_norm(m, lambda r) = 0, so both sides are
        # about 1e-15; the tolerance is on the integrand's scale |D|
        t = bessel_zero(0.5 * m, 1)
        d = np.linspace(0.6, 0.8, m)
        for u in (plane_wave(m, t, d / np.linalg.norm(d), 0.3),
                  radial_solution(m, t, np.full(m, 0.2))):
            rep = flux_identity_check(u, np.zeros(m), 1.0)
            assert rep.verdict == PASS, (rep.lhs, rep.rhs, rep.tolerance, rep.error_bar)
            assert abs(rep.lhs) <= 1e-13 and abs(rep.rhs) <= 1e-13
            assert rep.tolerance == pytest.approx(1e-5 * ball(np.zeros(m), 1.0).analytic_volume)


class TestTheorem1:
    def test_m3_against_radial_simpson_oracle(self):
        # 3 int_0^1 b_1(mu r s) s^2 ds with b_1 = sinh / arg
        mu, r = 1.0, 1.0
        s = np.linspace(0.0, 1.0, 20_001)
        with np.errstate(invalid="ignore"):
            vals = np.where(s > 0, np.sinh(mu * r * s) / np.where(s > 0, mu * r * s, 1.0), 1.0)
        oracle = 3.0 * simpson(vals * s * s, s[1] - s[0])
        rep = theorem1_identity_check(mu, [0, 0, 0], r, 3)
        assert rep.verdict == PASS
        assert rep.rhs == pytest.approx(oracle, abs=1e-9)
        assert abs(rep.residual) <= 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("mu_r", [0.5, 1.0, 3.0])
    def test_grid_of_cases(self, m, mu_r):
        rep = theorem1_identity_check(1.0, np.zeros(m), mu_r, m)
        assert rep.verdict == PASS
        assert abs(rep.residual) <= 1e-8
        assert rep.diagnostics["kernel_strictly_increasing"]

    @pytest.mark.parametrize("mu", [20.0, 40.0])
    def test_tolerance_scales_with_the_kernel(self, mu):
        # b_norm(3, mu) is 1.7e6 at mu = 20 and 1.4e14 at mu = 40; the
        # rule's rounding-level error exceeds any absolute 1e-8 there
        rep = theorem1_identity_check(mu, [0, 0, 0], 1.0, 3)
        assert rep.tolerance == 1e-8 * b_norm(3, mu)
        assert rep.verdict == PASS, (rep.residual, rep.error_bar, rep.tolerance)
        assert abs(rep.residual) <= 1e-13 * rep.lhs

    def test_small_argument_limit(self):
        rep = theorem1_identity_check(1.0, np.zeros(2), 1e-4, 2)
        assert rep.lhs == pytest.approx(1.0, abs=1e-8)
        assert rep.rhs == pytest.approx(1.0, abs=1e-8)

    def test_is_the_identity_on_the_ball_plus_the_monotone_grid(self):
        x0 = [0.1, 0.2]
        rep = theorem1_identity_check(2.0, x0, 1.5, 2)
        ref = check_identity(modified_radial_solution(2, 2.0, x0),
                             make_problem(ball(x0, 1.5), 2.0, x0), 1e-8)
        assert rep.name == "theorem1_ball_identity"
        assert rep.diagnostics.pop("kernel_strictly_increasing") is True
        assert rep.diagnostics.pop("grid_points") == 10_000
        assert report_to_dict(rep) == dict(report_to_dict(ref), name=rep.name)

    def test_monotone_kernel_values(self):
        assert b_norm(3, 2.0) > b_norm(3, 1.0) > 1.0
