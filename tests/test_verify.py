"""Theorem checks: consistency direction, counterexamples, sign arguments."""

import math

import numpy as np
import pytest

from helmholtz_means.geometry import ball, box, custom_domain, difference, translate
from helmholtz_means.quadrature import ball_mean, mc_mean
from helmholtz_means.solutions import (
    membrane_eigenfunction,
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

    def test_rejects_modified_fields(self):
        from helmholtz_means.solutions import modified_radial_solution

        with pytest.raises(ValueError):
            check_mean_value_formula(modified_radial_solution(2, 1.0, [0, 0]), [0, 0], 1.0)


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
            p = make_problem(d, 1.0, x0)
            rep = check_identity(radial_solution(2, 1.0, x0), p)
            assert rep.diagnostics["method"] == "box_gauss"
            assert rep.verdict == FAIL
            assert rep.residual == pytest.approx(0.0017991489101022, abs=1e-10)

    def test_wavenumber_mismatch_rejected(self):
        p = make_problem(ball([0, 0], 1.0), 1.0, [0, 0])
        with pytest.raises(ValueError):
            check_identity(plane_wave(2, 2.0, [1, 0], 0.0), p)

    def test_translated_ball_uses_spectral_path(self):
        # x0 at the true center; nested shifts add up onto the base center:
        # (0.1, -0.2) + (0.3, 0) + (-0.1, 0.5) = (0.3, 0.3)
        nested = translate(translate(ball([0.1, -0.2], 1.0), [0.3, 0.0]), [-0.1, 0.5])
        for d, c in [(translate(ball([0, 0], 1.0), [0.3, 0.0]), [0.3, 0.0]), (nested, [0.3, 0.3])]:
            u = radial_solution(2, 1.0, c)
            rep = check_identity(u, make_problem(d, 1.0, c))
            assert rep.diagnostics["method"] == "ball_spectral"
            assert rep.verdict == PASS
            assert rep.rhs == pytest.approx(ball_mean(u, c, 1.0).value, abs=1e-14)

    def test_mc_path_for_composite_domains(self):
        disk = ball([0, 0], 1.0)
        for d in [
            difference(box([-0.6, -0.6], [0.6, 0.6]), ball([0, 0], 0.25)),
            translate(custom_domain(2, disk.indicator, disk.bounding_box), [0.4, 0.4]),
        ]:
            p = make_problem(d, 1.0, [0.4, 0.4])
            rep = check_identity(
                plane_wave(2, 1.0, [1, 0], 0.0), p, samples=300_000, seed=3
            )
            assert rep.diagnostics["method"] == "monte_carlo"
            assert rep.verdict in (PASS, FAIL, INCONCLUSIVE)


class CountingIndicator:
    """Wraps a domain's indicator and counts the points it classifies."""

    def __init__(self, d):
        self.inner, self.points = d.indicator, 0
        object.__setattr__(d, "indicator", self)

    def __call__(self, pts):
        self.points += len(pts)
        return self.inner(pts)


class TestSharedRule:
    SAMPLES = 50_000

    def domain(self):
        return difference(box([-1, -1], [1, 1]), ball([0.5, 0.1], 0.25))

    def test_one_draw_per_call(self):
        # One seeded draw classifies `samples` points for |D| and every
        # mean; the extra point is the x0 membership check.
        n = self.SAMPLES
        d = self.domain()
        count = CountingIndicator(d)
        p = make_problem(d, 1.5, [0, 0], samples=n, seed=4)
        check_identity(radial_solution(2, 1.5, [0, 0]), p, samples=n, seed=4)
        assert count.points == n + 1

        d = self.domain()
        count = CountingIndicator(d)
        p = make_problem(d, 1.5, [0, 0], samples=n, seed=4)
        rep = characterize(p, samples=n, seed=4)
        assert rep.diagnostics["family_size"] == 13
        assert count.points == n + 1

        d = self.domain()
        count = CountingIndicator(d)
        kuran_limit_check(d, [0, 0], samples=n, seed=4)
        assert count.points == n + 1

    def test_other_resolution_gets_its_own_rule(self):
        n = self.SAMPLES
        d = self.domain()
        count = CountingIndicator(d)
        p = make_problem(d, 1.5, [0, 0], samples=n, seed=4)
        check_identity(radial_solution(2, 1.5, [0, 0]), p, samples=n, seed=5)
        assert count.points == 2 * n + 1
        assert len(p.rules) == 2

    def test_fresh_problem_holds_no_points(self):
        p = make_problem(self.domain(), 1.5, [0, 0], samples=self.SAMPLES, seed=4)
        (rule,) = p.rules.values()
        assert rule.accepted is None
        check_identity(radial_solution(2, 1.5, [0, 0]), p, samples=self.SAMPLES, seed=4)
        assert len(rule.accepted) == rule.mean(lambda x: x[:, 0]).samples_or_nodes

    def test_characterize_members_share_one_sample(self):
        n = self.SAMPLES
        p = make_problem(self.domain(), 1.5, [0, 0], samples=n, seed=4)
        rep = characterize(p, samples=n, seed=4)
        family = default_family(p, seed=4)
        for f, member in zip(family, rep.diagnostics["members"], strict=True):
            assert member["residual"] == check_identity(f, p, samples=n, seed=4).residual

    def test_volume_error_widens_mc_bar(self):
        n = self.SAMPLES
        u = radial_solution(2, 1.5, [0, 0])
        p = make_problem(self.domain(), 1.5, [0, 0], samples=n, seed=4)
        rep = check_identity(u, p, samples=n, seed=4)
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
        p = make_problem(bitten, bessel_zero(1.0, 1) / 1.65, [0.7, 0.0])
        assert p.r0 == pytest.approx(1.65, rel=1e-12)
        rep = check_size_condition(p, budget=200_000, seed=1)
        assert rep.diagnostics["method"] == "sampled_sup"
        assert rep.diagnostics["budget"] == 200_000
        assert 1.55 < rep.lhs <= 1.5626
        assert rep.verdict == PASS

    def test_upper_bound_certifies_difference(self):
        # A \ B lies in A, so A's enclosing radius 0.7 + 1 = 1.7 bounds it,
        # and 1.7 <= r0 = 3.83 certifies the pass without sampling; a
        # translate shifts x0 onto the untranslated tree.
        annulus = difference(ball([0, 0], 1.0), ball([0, 0], 0.4))
        cases = [(annulus, [0.7, 0.0]), (translate(annulus, [0.5, -0.2]), [1.2, -0.2])]
        for d, x0 in cases:
            rep = check_size_condition(make_problem(d, 1.0, x0), budget=200_000, seed=1)
            assert rep.diagnostics["method"] == "upper_bound"
            assert rep.diagnostics["budget"] == 0 and rep.diagnostics["seed"] is None
            assert rep.lhs == pytest.approx(1.7, abs=1e-15)
            assert rep.error_bar == 0.0
            assert rep.verdict == PASS
        # a custom domain has no bound, so it is sampled
        disk = ball([0, 0], 1.0)
        custom = custom_domain(2, disk.indicator, disk.bounding_box)
        rep = check_size_condition(make_problem(custom, 1.0, [0, 0]), budget=50_000, seed=1)
        assert rep.diagnostics["method"] == "sampled_sup"

    def test_counts_must_be_positive(self):
        annulus = difference(ball([0, 0], 1.0), ball([0, 0], 0.4))
        with pytest.raises(ValueError, match="samples"):
            make_problem(annulus, 1.0, [0.7, 0.0], samples=0)
        p = make_problem(annulus, 1.0, [0.7, 0.0], samples=10_000)
        with pytest.raises(ValueError, match="budget"):
            check_size_condition(p, budget=0)
        with pytest.raises(ValueError, match="budget"):
            characterize(p, samples=10_000, budget=0)
        with pytest.raises(ValueError, match="samples"):
            check_identity(radial_solution(2, 1.0, [0.7, 0.0]), p, samples=0)

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
        p = make_problem(annulus, 1.0, [0.7, 0.0])
        rep = characterize(p, samples=400_000, seed=2, budget=200_000)
        assert rep.verdict == FAIL
        assert rep.diagnostics["conclusion"] == "not a ball centered at x0"
        assert rep.diagnostics["size_condition"]["verdict"] == PASS
        assert any(m["verdict"] == FAIL for m in rep.diagnostics["members"])


class TestProofDiscrepancy:
    def test_square_negative_beyond_noise(self):
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0])
        rep = proof_discrepancy(p, samples=1_000_000, seed=5)
        assert rep.verdict == PASS
        assert rep.residual < -rep.error_bar
        assert rep.diagnostics["volumes_match"]

    def test_offset_ball_negative_beyond_noise(self):
        d = translate(ball([0, 0], 1.0), [0.3, 0.0])
        p = make_problem(d, 1.0, [0, 0])
        rep = proof_discrepancy(p, samples=1_000_000, seed=6)
        assert rep.verdict == PASS
        assert rep.residual < -3.0 * rep.error_bar  # far beyond the bar

    def test_ball_itself_inconclusive_sign(self):
        p = make_problem(ball([0, 0], 1.0), 1.0, [0, 0])
        rep = proof_discrepancy(p, samples=300_000, seed=7)
        assert rep.verdict == INCONCLUSIVE
        assert abs(rep.residual) <= max(rep.error_bar, 1e-12)

    def test_modified_variant_flips_sign(self):
        # The monotone-increasing kernel of the modified equation makes
        # the same functional strictly positive.
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0])
        rep = proof_discrepancy(p, samples=1_000_000, seed=8, equation="modified_helmholtz")
        assert rep.diagnostics["expected_sign"] == "positive"
        assert rep.verdict == PASS
        assert rep.residual > rep.error_bar

    def test_contrapositive_witness_relation(self):
        # identity residual = -(discrepancy)/|D| for the radial field
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0])
        disc = proof_discrepancy(p, samples=2_000_000, seed=9)
        ident = check_identity(radial_solution(2, 1.0, [0, 0]), p)
        assert ident.residual == pytest.approx(
            -disc.residual / p.volume, abs=disc.error_bar / p.volume
        )

    def test_reproducible_bit_identical(self):
        p = make_problem(box([-0.5, -0.5], [0.5, 0.5]), 1.0, [0, 0])
        a = proof_discrepancy(p, samples=200_000, seed=11)
        b = proof_discrepancy(p, samples=200_000, seed=11)
        assert (a.lhs, a.rhs, a.residual, a.error_bar) == (b.lhs, b.rhs, b.residual, b.error_bar)
        assert a.diagnostics["volume_g_i"] == b.diagnostics["volume_g_i"]

    def test_bad_equation_rejected(self):
        p = make_problem(ball([0, 0], 1.0), 1.0, [0, 0])
        with pytest.raises(ValueError):
            proof_discrepancy(p, equation="laplace")


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
        _, ident = kuran_limit_check(box([0, 0], [1, 2]), [0.3, 1.0], lambdas=(0.1, 0.03, 0.01))
        assert ident.verdict == PASS
        assert ident.rhs == pytest.approx(-0.2, abs=1e-12)
        assert ident.lhs == pytest.approx(-0.2, abs=1e-3)

    def test_lambda_sequence_validated(self):
        with pytest.raises(ValueError):
            kuran_limit_check(ball([0, 0], 1.0), [0, 0], lambdas=(0.01, 0.1))
        with pytest.raises(ValueError, match="at least one lambda"):
            kuran_limit_check(ball([0, 0], 1.0), [0, 0], lambdas=())


class TestFluxIdentity:
    CASES = [
        (radial_solution(3, 1.0, [0, 0, 0]), [0, 0, 0], 1.0),
        (plane_wave(2, 1.0, [1, 0], 0.0), [0, 0], 1.0),
        (radial_solution(2, 2.0, [0.1, 0.0]), [0.1, 0.0], 1.5),
        (plane_wave(3, 1.5, [0, 0, 1], 0.3), [0, 0, 0], 0.8),
        (radial_solution(3, 1.0, [0, 0, 0]), [0, 0, 0], math.pi),
        (plane_wave(2, 0.5, [0, 1], 0.0), [0.2, -0.1], 2.0),
    ]

    @pytest.mark.parametrize("u,c,r", CASES)
    def test_six_cases_pass(self, u, c, r):
        rep = flux_identity_check(u, c, r)
        assert rep.verdict == PASS
        assert abs(rep.diagnostics["relative_residual"]) <= 1e-5

    def test_plane_wave_value(self):
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        rep = flux_identity_check(u, [0, 0], 1.0)
        assert rep.lhs == pytest.approx(math.pi * a_norm(2, 1.0), rel=1e-9)
        assert rep.lhs == pytest.approx(2.7649, abs=2e-4)

    def test_zero_field_trivial_identity(self):
        from helmholtz_means.solutions import SolutionField

        zero = SolutionField(
            dimension=2,
            wavenumber=1.0,
            equation="helmholtz",
            evaluate=lambda p: np.zeros(len(p)),
            kind="plane_wave",
        )
        rep = flux_identity_check(zero, [0, 0], 1.0)
        assert rep.verdict == PASS
        assert rep.lhs == 0.0 and rep.rhs == 0.0


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

    def test_small_argument_limit(self):
        rep = theorem1_identity_check(1.0, np.zeros(2), 1e-4, 2)
        assert rep.lhs == pytest.approx(1.0, abs=1e-8)
        assert rep.rhs == pytest.approx(1.0, abs=1e-8)

    def test_monotone_kernel_values(self):
        assert b_norm(3, 2.0) > b_norm(3, 1.0) > 1.0
