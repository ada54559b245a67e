"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see the pass/fail line
each criterion prints.  Every Monte Carlo case carries a frozen seed.
"""

import math
import time

import numpy as np
import pytest

from helmholtz_means.geometry import ball, box, difference, translate
from helmholtz_means.solutions import (
    membrane_eigenfunction,
    plane_wave,
    radial_solution,
)
from helmholtz_means.specfun import a_norm, b_norm, bessel_zero
from helmholtz_means.verify import (
    FAIL,
    PASS,
    check_mean_value_formula,
    check_size_condition,
    flux_identity_check,
    make_problem,
    membrane_counterexample,
    proof_discrepancy,
    theorem1_identity_check,
)

from oracles import poisson_eval

_SQ2 = math.sqrt(0.5)


def _line(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d}: {status} ({elapsed:6.2f} s) {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _fields(m, lam):
    if m == 2:
        dirs = [(1.0, 0.0), (0.0, 1.0), (_SQ2, _SQ2), (_SQ2, -_SQ2)]
    else:
        s3 = 1.0 / math.sqrt(3.0)
        dirs = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (s3, s3, s3), (0.0, _SQ2, -_SQ2)]
    phases = [0.0, math.pi / 3.0, 1.0, -0.7]
    waves = [plane_wave(m, lam, d, ph) for d, ph in zip(dirs, phases)]
    return [radial_solution(m, lam, np.zeros(m))] + waves


def test_criterion_1_bessel_zero_reproduction():
    t0 = time.perf_counter()
    z11 = bessel_zero(1, 1)
    z32 = bessel_zero(1.5, 1)
    dt = time.perf_counter() - t0
    ok = abs(z11 - 3.831706) <= 1e-5 and abs(z32 - 4.493409) <= 1e-5 and dt < 1.0
    _line(1, ok, dt, f"j_(1,1)={z11:.6f}, j_(3/2,1)={z32:.6f}")


def test_criterion_2_mean_value_formula_30_cases():
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    negative_case = False
    for m in (2, 3):
        for lam, r in [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0)]:
            for u in _fields(m, lam):
                rep = check_mean_value_formula(u, np.zeros(m), r)
                worst = max(worst, abs(rep.residual))
                cases += 1
                if lam * r > bessel_zero(0.5 * m, 1) and rep.lhs < 0 and rep.rhs < 0:
                    negative_case = True
    dt = time.perf_counter() - t0
    ok = cases == 30 and worst <= 1e-8 and negative_case and dt < 5.0
    _line(2, ok, dt, f"{cases} cases, worst |residual| = {worst:.2e}, "
                     f"negative-kernel case seen: {negative_case}")


def test_criterion_3_membrane_counterexample_bundle():
    t0 = time.perf_counter()
    reps = {r.name: r for r in membrane_counterexample(1.0)}
    u21 = membrane_eigenfunction(2, 1, 1.0)
    center_exact = u21([0.5, 0.5]) == 0.0
    zero_mean = abs(reps["membrane_zero_mean"].lhs) <= 1e-12
    identity_ok = reps["membrane_identity"].verdict == PASS and abs(reps["membrane_identity"].residual) <= 1e-12
    size = reps["membrane_size_condition"]
    size_ok = (
        size.verdict == FAIL
        and abs(size.lhs - 4.967294) <= 1e-5
        and abs(size.rhs - 3.831706) <= 1e-5
    )
    dt = time.perf_counter() - t0
    ok = center_exact and zero_mean and identity_ok and size_ok and dt < 1.0
    _line(3, ok, dt, f"lambda*r0 = {size.lhs:.6f} vs j_(1,1) = {size.rhs:.6f}")


def test_criterion_4_proof_discrepancy_sign():
    details = []
    ok = True
    cases = [
        ("offset ball", translate(ball([0.0, 0.0], 1.0), [0.3, 0.0]), 101),
        ("unit square", box([-0.5, -0.5], [0.5, 0.5]), 202),
    ]
    for label, domain, seed in cases:
        t0 = time.perf_counter()
        p = make_problem(domain, 1.0, [0.0, 0.0], samples=4_000_000, seed=seed)
        assert check_size_condition(p).verdict == PASS
        rep = proof_discrepancy(p)
        dt = time.perf_counter() - t0
        neg = rep.residual < -rep.error_bar  # error_bar is the combined 3 sigma
        ok = ok and neg and dt < 30.0
        details.append(f"{label}: diff={rep.residual:.3e} (3s={rep.error_bar:.1e}, {dt:.1f} s)")
    _line(4, ok, 0.0, "; ".join(details))


def test_criterion_5_poisson_integral_cross_check():
    t0 = time.perf_counter()
    rho = np.linspace(0.0, 10.0, 201)
    worst = 0.0
    for m in (2, 3, 4, 5):
        dev = np.abs(poisson_eval(m, 1.0, rho) - a_norm(m - 2, rho))
        worst = max(worst, float(np.max(dev)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and dt < 5.0
    _line(5, ok, dt, f"max |poisson - kernel| = {worst:.2e} over m in 2..5")


def test_criterion_6_flux_identity():
    t0 = time.perf_counter()
    cases = [
        (radial_solution(2, 1.0, [0.0, 0.0]), [0.0, 0.0], 1.0),
        (plane_wave(2, 1.0, [1.0, 0.0], 0.0), [0.0, 0.0], 1.0),
        (plane_wave(2, 2.0, [0.0, 1.0], 0.5), [0.2, -0.1], 1.4),
        (radial_solution(3, 1.0, [0.0, 0.0, 0.0]), [0.0, 0.0, 0.0], math.pi),
        (plane_wave(3, 1.5, [0.0, 0.0, 1.0], 0.0), [0.0, 0.0, 0.0], 0.8),
        (radial_solution(3, 0.7, [0.1, 0.0, 0.0]), [0.1, 0.0, 0.0], 2.0),
    ]
    worst = 0.0
    verdicts = []
    for u, c, r in cases:
        rep = flux_identity_check(u, c, r)
        verdicts.append(rep.verdict)
        worst = max(worst, abs(rep.diagnostics["relative_residual"]))
    dt = time.perf_counter() - t0
    ok = all(v == PASS for v in verdicts) and worst <= 1e-5 and dt < 5.0
    _line(6, ok, dt, f"6 cases, worst relative residual = {worst:.2e}")


def test_criterion_7_kuran_limit_rate():
    t0 = time.perf_counter()
    t = 1e-2
    ratios = {m: (a_norm(m, t) - 1.0) / (-t * t / (2.0 * (m + 2.0))) for m in (2, 3, 4, 5)}
    dt = time.perf_counter() - t0
    ok = all(0.999 <= v <= 1.001 for v in ratios.values()) and dt < 1.0
    _line(7, ok, dt, "ratios " + ", ".join(f"m={m}: {v:.6f}" for m, v in ratios.items()))


def test_criterion_8_theorem1_ball_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (2, 3):
        for mu_r in (0.5, 1.0, 3.0):
            rep = theorem1_identity_check(1.0, np.zeros(m), mu_r, m)
            assert rep.verdict == PASS
            worst = max(worst, abs(rep.residual))
    grid = np.linspace(0.0, 10.0, 10_000)
    monotone = all(bool(np.all(np.diff(b_norm(m, grid)) > 0.0)) for m in (2, 3))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and monotone and dt < 5.0
    _line(8, ok, dt, f"worst |residual| = {worst:.2e}, kernel increasing: {monotone}")


def test_criterion_9_radial_field_monotone_positive():
    t0 = time.perf_counter()
    ok = True
    for m in (2, 3, 4, 5):
        t_dec = np.linspace(1e-6, bessel_zero(0.5 * m, 1), 10_000)
        ok = ok and bool(np.all(np.diff(a_norm(m - 2, t_dec[:-1])) < 0.0))
        t_pos = np.linspace(1e-6, bessel_zero(0.5 * (m - 2), 1), 10_000)
        ok = ok and bool(np.all(a_norm(m - 2, t_pos[:-1]) > 0.0))
    dt = time.perf_counter() - t0
    ok = ok and dt < 2.0
    _line(9, ok, dt, "a_(m-2) decreasing on (0, j_(m/2,1)), positive on (0, j_((m-2)/2,1))")


def test_criterion_10_monte_carlo_determinism():
    t0 = time.perf_counter()
    # a box minus a disk that crosses its edge has no product rule, so the
    # sign functional is sampled
    d = difference(box([-0.5, -0.5], [0.5, 0.5]), ball([0.5, 0.1], 0.2))
    a, b = (proof_discrepancy(make_problem(d, 1.0, [0.0, 0.0], samples=4_000_000, seed=202))
            for _ in range(2))
    assert a.diagnostics["method"] == "monte_carlo"
    fields = lambda r: (r.lhs, r.rhs, r.residual, r.error_bar, r.diagnostics["nodes_or_samples"])
    fields_equal = fields(a) == fields(b)
    dt = time.perf_counter() - t0
    _line(10, fields_equal, dt, "same-seed rerun reproduces all numeric fields bit-identically")
