"""Solution generators: exact values, closed forms, PDE residuals."""

import math

import numpy as np
import pytest

from helmholtz_means.solutions import (
    helmholtz_residual,
    membrane_eigenfunction,
    modified_radial_solution,
    plane_wave,
    radial_solution,
    solution_from_json,
    solution_to_json,
)
from helmholtz_means.specfun import a_norm, bessel_zero

from oracles import poisson_eval


def assert_gradient_matches_central_difference(u, pts, h=1e-6, rel=1e-8):
    """u.gradient against the central difference at step h, within rel
    times the largest gradient component over pts."""
    grad = u.gradient(pts)
    assert grad.shape == pts.shape
    fd = np.stack([(u(pts + h * e) - u(pts - h * e)) / (2.0 * h)
                   for e in np.eye(u.dimension)], axis=1)
    assert np.max(np.abs(grad - fd)) <= rel * np.max(np.abs(grad))


class TestPlaneWave:
    def test_point_values(self):
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        assert u([0.0, 0.0]) == 1.0
        assert u([math.pi, 0.0]) == pytest.approx(-1.0, abs=1e-15)

    def test_residual(self):
        u = plane_wave(2, 1.0, [1, 0], 0.0)
        assert abs(helmholtz_residual(u, np.array([0.3, -0.7]), h=1e-4)) <= 1e-6

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(3)
        for u in (plane_wave(2, 1.5, [0.6, -0.8], 0.4),
                  plane_wave(3, 2.0, np.array([1.0, 2.0, 2.0]) / 3.0, -0.1)):
            assert_gradient_matches_central_difference(
                u, rng.uniform(-2.0, 2.0, size=(50, u.dimension)))

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            plane_wave(2, 1.0, [1, 1], 0.0)
        with pytest.raises(ValueError):
            plane_wave(2, -1.0, [1, 0], 0.0)


class TestRadial:
    def test_center_value_is_one(self):
        for m in [2, 3, 4, 5]:
            u = radial_solution(m, 1.7, np.zeros(m))
            assert u(np.zeros(m)) == 1.0

    def test_m3_is_sinc(self):
        u = radial_solution(3, 1.0, [0, 0, 0])
        assert abs(u([math.pi, 0.0, 0.0])) < 1e-12
        for rho in [0.5, 1.0, 2.0, 4.0]:
            assert u([rho, 0.0, 0.0]) == pytest.approx(math.sin(rho) / rho, abs=1e-12)

    def test_gradient_matches_central_difference(self):
        # the center itself is among the points: the gradient is 0 there.
        # lambda rho stays below 7: further out the kernel's rounding over
        # h, not the gradient, would set the difference
        rng = np.random.default_rng(4)
        for m, lam, c in ((2, 1.5, [0.1, 0.2]), (3, 0.7, [0.0, 0.0, 0.0]),
                          (3, 1.5, [0.3, -0.2, 0.1])):
            pts = np.vstack([c, rng.uniform(-3.0, 3.0, size=(50, m))])
            u = radial_solution(m, lam, c)
            assert np.array_equal(u.gradient(pts[:1]), np.zeros((1, m)))
            assert_gradient_matches_central_difference(u, pts)

    def test_m2_vanishes_at_j01(self):
        u = radial_solution(2, 1.0, [0, 0])
        assert abs(u([2.404826, 0.0])) <= 1e-5

    def test_monotone_decreasing_then_positive_ranges(self):
        # decreasing on (0, j_{m/2,1}), positive on (0, j_{(m-2)/2,1})
        for m in [2, 3, 4, 5]:
            t_dec = np.linspace(1e-4, bessel_zero(0.5 * m, 1) * 0.9999, 10_000)
            v = a_norm(m - 2, t_dec)
            assert np.all(np.diff(v) < 0.0)
            t_pos = np.linspace(1e-4, bessel_zero(0.5 * (m - 2), 1) * 0.9999, 10_000)
            assert np.all(a_norm(m - 2, t_pos) > 0.0)


class TestModifiedRadial:
    def test_center_and_closed_form(self):
        u = modified_radial_solution(3, 1.0, [0, 0, 0])
        assert u(np.zeros(3)) == 1.0
        assert u([1.0, 0.0, 0.0]) == pytest.approx(math.sinh(1.0), rel=1e-12)

    def test_positive_and_radially_increasing(self):
        rng = np.random.default_rng(11)
        u = modified_radial_solution(2, 2.0, [0.3, -0.2])
        pts = rng.uniform(-3, 3, size=(1000, 2))
        vals = u(pts)
        assert np.all(vals > 0.0)
        rho = np.linalg.norm(pts - np.array([0.3, -0.2]), axis=1)
        order = np.argsort(rho)
        assert np.all(np.diff(vals[order]) > 0.0)

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(5)
        for m, mu, c in ((2, 1.1, [0.0, 0.0]), (3, 2.0, [0.5, 0.0, 0.0])):
            pts = np.vstack([c, rng.uniform(-2.0, 2.0, size=(50, m))])
            u = modified_radial_solution(m, mu, c)
            assert np.array_equal(u.gradient(pts[:1]), np.zeros((1, m)))
            assert_gradient_matches_central_difference(u, pts)

    def test_residual_modified_equation(self):
        u = modified_radial_solution(3, 1.3, [0, 0, 0])
        assert abs(helmholtz_residual(u, np.array([0.4, 0.2, -0.1]), h=1e-4)) <= 1e-5


class TestMembrane:
    def test_wavenumber(self):
        u = membrane_eigenfunction(2, 1, 1.0)
        assert u.wavenumber == pytest.approx(math.pi * math.sqrt(5.0), rel=1e-15)

    def test_center_values(self):
        assert membrane_eigenfunction(2, 1, 1.0)([0.5, 0.5]) == 0.0  # exact
        assert membrane_eigenfunction(1, 2, 1.0)([0.5, 0.5]) == 0.0
        assert membrane_eigenfunction(1, 1, 1.0)([0.5, 0.5]) == pytest.approx(1.0, rel=1e-15)

    def test_vanishes_on_boundary_exactly(self):
        u = membrane_eigenfunction(3, 2, 1.0)
        for p in [[0.0, 0.3], [1.0, 0.7], [0.2, 0.0], [0.9, 1.0]]:
            assert u(p) == 0.0

    def test_residual(self):
        u = membrane_eigenfunction(2, 1, 1.0)
        assert abs(helmholtz_residual(u, np.array([0.3, 0.6]), h=1e-4)) <= 1e-5

    def test_gradient_matches_central_difference(self):
        rng = np.random.default_rng(6)
        for i, j, a in ((2, 1, 1.0), (1, 3, 2.0)):
            pts = rng.uniform(0.0, a, size=(50, 2))
            assert_gradient_matches_central_difference(membrane_eigenfunction(i, j, a), pts)

    def test_scale(self):
        u = membrane_eigenfunction(2, 1, 2.0)
        assert u.wavenumber == pytest.approx(math.pi * math.sqrt(5.0) / 2.0, rel=1e-15)
        assert u([1.0, 1.0]) == 0.0


class TestPoisson:
    def test_at_zero_radius(self):
        for m in [2, 3, 4, 5]:
            assert poisson_eval(m, 1.0, 0.0) == pytest.approx(1.0, abs=1e-13)

    def test_m3_closed_form(self):
        assert poisson_eval(3, 1.0, math.pi) == pytest.approx(0.0, abs=1e-8)
        assert poisson_eval(3, 1.0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-10)

    def test_m2_is_j0(self):
        # J_0(1) from the ascending series, summed independently here
        term, total = 1.0, 1.0
        for k in range(1, 30):
            term *= -0.25 / (k * k)
            total += term
        assert poisson_eval(2, 1.0, 1.0) == pytest.approx(total, abs=1e-10)
        assert poisson_eval(2, 1.0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-10)

    def test_cross_validates_radial_solution(self):
        rho = np.linspace(0.0, 10.0, 201)
        for m in [2, 3, 4, 5]:
            dev = np.abs(poisson_eval(m, 1.0, rho) - a_norm(m - 2, rho))
            assert float(np.max(dev)) <= 1e-8

    def test_non_convergence_raises(self):
        from helmholtz_means.geometry import EstimationError

        with pytest.raises(EstimationError):
            poisson_eval(2, 100.0, 10.0)  # 160 nodes cannot resolve lam*rho = 1000
        # but a finer rule can
        assert poisson_eval(2, 100.0, 10.0, nodes=2048) == pytest.approx(
            a_norm(0, 1000.0), abs=1e-8
        )


class TestResidualOracle:
    def test_all_generators_at_seeded_points(self):
        rng = np.random.default_rng(42)
        fields = [
            plane_wave(2, 1.0, [0, 1], 0.4),
            plane_wave(3, 2.0, np.array([1.0, 2.0, 2.0]) / 3.0, -0.1),
            radial_solution(2, 1.5, [0.1, 0.2]),
            radial_solution(3, 0.7, [0, 0, 0]),
            modified_radial_solution(2, 1.1, [0, 0]),
            modified_radial_solution(3, 2.0, [0.5, 0, 0]),
            membrane_eigenfunction(2, 1, 1.0),
            membrane_eigenfunction(1, 3, 2.0),
        ]
        for u in fields:
            pts = rng.uniform(-1.0, 1.0, size=(100, u.dimension))
            for x in pts:
                assert abs(helmholtz_residual(u, x, h=1e-4)) <= 1e-5

    def test_order_h2_scaling(self):
        u = plane_wave(2, 3.0, [1, 0], 0.0)
        x = np.array([0.234, -0.567])
        r1 = helmholtz_residual(u, x, h=2e-3)
        r2 = helmholtz_residual(u, x, h=1e-3)
        assert abs(r1) / abs(r2) == pytest.approx(4.0, rel=0.05)

    def test_non_solution_detected(self):
        # f = x1^2 with lambda = 1: laplacian + u = 2 + x1^2
        from helmholtz_means.solutions import SolutionField

        f = SolutionField(
            dimension=2,
            wavenumber=1.0,
            equation="helmholtz",
            evaluate=lambda p: p[:, 0] ** 2,
            gradient=lambda p: np.stack([2.0 * p[:, 0], np.zeros(len(p))], axis=1),
            kind="plane_wave",
        )
        x = np.array([0.7, 0.1])
        assert helmholtz_residual(f, x, h=1e-4) == pytest.approx(2.0 + 0.49, abs=1e-5)


class TestJson:
    def test_round_trips(self):
        fields = [
            plane_wave(2, 1.5, [0, 1], 0.25),
            radial_solution(3, 2.0, [0.1, 0.2, 0.3]),
            modified_radial_solution(2, 0.8, [0, 0]),
            membrane_eigenfunction(2, 1, 1.5),
        ]
        pts2 = np.random.default_rng(1).uniform(-1, 1, size=(100, 2))
        pts3 = np.random.default_rng(2).uniform(-1, 1, size=(100, 3))
        for u in fields:
            v = solution_from_json(solution_to_json(u))
            assert v.kind == u.kind
            assert v.wavenumber == u.wavenumber
            pts = pts2 if u.dimension == 2 else pts3
            assert np.array_equal(u(pts), v(pts))
            assert np.array_equal(u.gradient(pts), v.gradient(pts))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            solution_from_json({"kind": "radial", "lambda": 1.0, "center": [0, 0], "x": 1})
        with pytest.raises(ValueError):
            solution_from_json({"kind": "vortex"})
