"""Domain construction, volumes, radii, JSON round-trips."""

import math

import numpy as np
import pytest

from helmholtz_means.geometry import (
    Ball,
    Box,
    Difference,
    EstimationError,
    Translate,
    ball,
    box,
    circumradius_about,
    custom_domain,
    difference,
    domain_from_json,
    domain_to_json,
    equivalent_radius,
    exact_circumradius,
    translate,
    unit_ball_volume,
    volume,
)
from helmholtz_means.quadrature import SampleRule


class TestConstructors:
    def test_ball_volumes(self):
        assert ball([0, 0], 1.0).analytic_volume == pytest.approx(math.pi, rel=1e-14)
        assert ball([0, 0, 0], 1.0).analytic_volume == pytest.approx(4 * math.pi / 3, rel=1e-14)
        assert ball([0, 0], 2.0).analytic_volume == pytest.approx(4 * math.pi, rel=1e-14)

    def test_unit_ball_volume_closed_forms(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)
        assert unit_ball_volume(4) == pytest.approx(math.pi**2 / 2, rel=1e-14)
        assert unit_ball_volume(5) == pytest.approx(8 * math.pi**2 / 15, rel=1e-14)

    def test_box_volumes(self):
        assert box([0, 0], [1, 1]).analytic_volume == 1.0
        assert box([0, 0], [2.5, 2.5]).analytic_volume == pytest.approx(6.25)
        assert box([0, 0, 0], [1, 1, 1]).analytic_volume == 1.0

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            ball([0, 0], 0.0)
        with pytest.raises(ValueError):
            ball([0, 0], -1.0)
        for r in [math.nan, math.inf]:
            with pytest.raises(ValueError, match="finite"):
                ball([0, 0], r)
        with pytest.raises(ValueError):
            box([0, 0], [1, 0])
        with pytest.raises(ValueError):
            difference(ball([0, 0], 1), ball([0, 0, 0], 1))

    def test_indicator_vectorized_and_box_bound(self):
        d = ball([0.5, 0.5], 0.5)
        pts = np.array([[0.5, 0.5], [0.95, 0.5], [1.5, 0.5], [0.0, 0.0]])
        assert list(d.contains(pts)) == [True, True, False, False]
        assert d.contains([0.5, 0.5]) is True
        lo, hi = d.bounding_box
        rng = np.random.default_rng(7)
        outside = rng.uniform(hi + 0.01, hi + 1.0, size=(1000, 2))
        assert not np.any(d.contains(outside))


class TestVolumes:
    def test_mc_agrees_with_analytic_within_3_sigma(self):
        for d in [ball([0.2, -0.1], 0.8), box([0, 0], [2, 0.5]), ball([0, 0, 0], 1.1)]:
            v_true = d.analytic_volume
            lo, hi = d.bounding_box
            stripped = custom_domain(d.dimension, d.indicator, (lo - 0.2, hi + 0.2))
            v, err = volume(stripped, samples=400_000, seed=3)
            assert err > 0
            assert abs(v - v_true) <= err

    def test_difference_empty(self):
        d = difference(ball([0, 0], 1), ball([0, 0], 1))
        v, err = volume(d, samples=200_000, seed=0)
        assert abs(v) <= max(err, 1e-12)

    def test_annulus_area(self):
        d = difference(ball([0, 0], 1), ball([0, 0], 0.5))
        v, err = volume(d, samples=1_000_000, seed=1)
        assert abs(v - 3 * math.pi / 4) <= err

    def test_square_minus_equal_area_disk(self):
        # pi r^2 = 1, so the two difference pieces have equal volumes.
        r = 1 / math.sqrt(math.pi)
        sq = box([0, 0], [1, 1])
        disk = ball([0.5, 0.5], r)
        g_i = difference(sq, disk)
        g_e = difference(disk, sq)
        vi, ei = volume(g_i, samples=1_000_000, seed=2)
        ve, ee = volume(g_e, samples=1_000_000, seed=3)
        assert vi > 3 * ei  # both pieces are nonempty
        assert ve > 3 * ee
        assert abs(vi - ve) <= math.hypot(ei, ee)

    def test_difference_plus_intersection(self):
        a = ball([0, 0], 1)
        b = ball([0.5, 0], 0.7)
        vd, ed = volume(difference(a, b), samples=1_000_000, seed=4)
        inter = custom_domain(2, lambda p: a.indicator(p) & b.indicator(p), a.bounding_box)
        vi, ei = volume(inter, samples=1_000_000, seed=5)
        assert vd + vi == pytest.approx(math.pi, abs=math.hypot(ed, ei))


class TestEquivalentRadius:
    def test_ball_identity(self):
        assert equivalent_radius(ball([1, 2], 0.75)) == pytest.approx(0.75, rel=1e-14)

    def test_unit_square(self):
        # solve pi r^2 = 1
        assert equivalent_radius(box([0, 0], [1, 1])) == pytest.approx(
            0.5641895835477563, rel=1e-14
        )

    def test_unit_cube(self):
        # solve (4 pi / 3) r^3 = 1
        assert equivalent_radius(box([0, 0, 0], [1, 1, 1])) == pytest.approx(
            0.6203504908994001, rel=1e-14
        )

    def test_scale_equivariance(self):
        for s in [0.5, 2.0, 3.7]:
            assert equivalent_radius(ball([0, 0], s)) == pytest.approx(
                s * equivalent_radius(ball([0, 0], 1.0)), rel=1e-12
            )
            assert equivalent_radius(box([0, 0], [s, s])) == pytest.approx(
                s * equivalent_radius(box([0, 0], [1, 1])), rel=1e-12
            )

    def test_empty_domain_rejected(self):
        empty = difference(ball([0, 0], 1), ball([0, 0], 2))
        with pytest.raises(ValueError):
            equivalent_radius(empty, samples=50_000)


def sampled_radius(d, x0, samples, seed=0):
    """The sup of |y - x0| over one seeded draw's inside points."""
    return circumradius_about(SampleRule(d, samples, seed).accepted, x0)


class TestCircumradius:
    def test_ball_about_center(self):
        r = sampled_radius(ball([0, 0], 1.0), [0, 0], 1_000_000)
        assert r == pytest.approx(1.0, abs=1e-3)
        assert r < 1.0  # converges from below

    def test_square_about_center_half_diagonal(self):
        r = sampled_radius(box([0, 0], [1, 1]), [0.5, 0.5], 1_000_000)
        assert r == pytest.approx(1 / math.sqrt(2), abs=2e-3)

    def test_offset_ball_triangle_inequality(self):
        r = sampled_radius(ball([0.4, 0], 1.0), [0, 0], 1_000_000)
        assert r == pytest.approx(1.4, abs=3e-3)

    def test_monotone_in_samples(self):
        # a longer draw at the same seed extends the same stream
        d = box([0, 0], [1, 1])
        prev_points, prev = np.empty((0, 2)), 0.0
        for samples in [1_000, 10_000, 100_000, 400_000]:
            points = SampleRule(d, samples, 9).accepted
            assert np.array_equal(points[: len(prev_points)], prev_points)
            cur = circumradius_about(points, [0.5, 0.5])
            assert cur >= prev
            prev_points, prev = points, cur

    def test_no_inside_point(self):
        empty = difference(ball([0, 0], 1), ball([0, 0], 2))
        with pytest.raises(EstimationError, match="acceptance rate"):
            sampled_radius(empty, [0, 0], 10_000)

    def test_exact_circumradius(self):
        assert exact_circumradius(ball([0.3, 0], 1.0), [0, 0]) == pytest.approx(1.3, rel=1e-14)
        assert exact_circumradius(box([0, 0], [1, 1]), [0.5, 0.5]) == pytest.approx(
            1 / math.sqrt(2), rel=1e-14
        )
        assert exact_circumradius(box([0, 0], [1, 1]), [0, 0]) == pytest.approx(
            math.sqrt(2), rel=1e-14
        )
        shifted = translate(ball([0, 0], 1.0), [0.3, 0])
        assert exact_circumradius(shifted, [0, 0]) == pytest.approx(1.3, rel=1e-14)
        # closure(B) strictly inside A: A's radius; a shared face or a
        # tangent B can take A's farthest points away, so only sampling answers
        assert exact_circumradius(difference(ball([0, 0], 1), ball([0, 0], 0.5)), [0, 0]) == 1.0
        shared_faces = difference(box([0, 0], [2, 1]), box([1, 0], [2, 1]))
        assert exact_circumradius(shared_faces, [0.5, 0.5]) is None
        assert shared_faces.circumradius_upper([0.5, 0.5]) == pytest.approx(math.hypot(1.5, 0.5))
        tangent = difference(ball([0, 0], 1), ball([0.5, 0], 0.5))
        assert exact_circumradius(tangent, [-0.5, 0]) is None
        twice = translate(translate(ball([0, 0], 1.0), [0.3, 0]), [0, 0.4])
        assert exact_circumradius(twice, [0, 0]) == pytest.approx(1.5, rel=1e-14)
        square = translate(translate(box([0, 0], [1, 1]), [0.25, 0]), [0, 0.5])
        assert exact_circumradius(square, [0.75, 1.0]) == pytest.approx(1 / math.sqrt(2), rel=1e-14)
        custom = custom_domain(2, ball([0, 0], 1.0).indicator, ([-1, -1], [1, 1]))
        assert exact_circumradius(translate(custom, [0.3, 0]), [0, 0]) is None


class TestJson:
    def test_round_trip_ball(self):
        d = ball([0.25, -1.5], 0.75)
        d2 = domain_from_json(domain_to_json(d))
        assert d2.kind == "ball"
        assert d2.analytic_volume == pytest.approx(d.analytic_volume, rel=1e-15)

    def test_round_trip_nested(self):
        cases = [
            (translate(difference(box([0, 0], [1, 1]), ball([0.5, 0.5], 0.3)), [1.0, 2.0]), Translate),
            (ball([0.25, -1.5], 0.75), Ball),
            (box([0, 0, -1], [1, 2, 0.5]), Box),
            (difference(box([0, 0], [1, 1]), ball([0.5, 0.5], 0.3)), Difference),
            (translate(translate(box([0, 0], [1, 1]), [1, 0]), [0, 2]), Translate),
        ]
        for d, node in cases:
            obj = domain_to_json(d)
            d2 = domain_from_json(obj)
            assert isinstance(d2, node) and d2.kind == d.kind
            assert domain_to_json(d2) == obj
            lo, hi = d.bounding_box
            assert np.array_equal(lo, d2.bounding_box[0]) and np.array_equal(hi, d2.bounding_box[1])
            pts = np.random.default_rng(0).uniform(lo - 0.2, hi + 0.2, size=(5000, d.dimension))
            assert np.array_equal(d.contains(pts), d2.contains(pts))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            domain_from_json({"kind": "ball", "center": [0, 0], "r": 1, "extra": 2})
        with pytest.raises(ValueError):
            domain_from_json({"kind": "pentagon", "sides": 5})
        with pytest.raises(ValueError):
            domain_from_json({"kind": "ball", "center": [0, 0]})

    def test_custom_not_serializable(self):
        d = custom_domain(2, lambda p: p[:, 0] > 0, ([0, -1], [1, 1]))
        for tree in (d, translate(d, [1, 0]), difference(ball([0.5, 0], 0.4), d)):
            assert tree.description is None
            with pytest.raises(ValueError):
                domain_to_json(tree)
