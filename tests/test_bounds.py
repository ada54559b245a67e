"""The product rules' error bars are proved bounds: bar >= |rule - exact|
for every field kind, on balls (m = 2..12, up to the resolution cap, the
meridian turned onto each field's random axis), boxes and certified
differences, on rules sized from the bound and on rules given too few
nodes.

Exact means come from closed forms evaluated in mpmath at 30 digits:
the mean-value formula M(u, B_r(c)) = K(m, k r) u(c) for every field on
a ball (the radial fields about c' through K(m-2, k |c - c'|)), the
product of 1-D means for plane waves and membrane modes on a box, and
the divergence theorem for the flux.  A radial field on a box has no
closed form; its reference is the box rule with twice the nodes, whose
own bar is added.
"""

import math

import numpy as np
import pytest

from helmholtz_means.geometry import ball, box, difference
from helmholtz_means.quadrature import (
    _NODE_BUDGET,
    RESOLUTION_CAP,
    _ball_rule,
    _box_resolution,
    _box_rule,
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

mpmath = pytest.importorskip("mpmath")
mpmath.mp.dps = 30

KINDS = ("plane_wave", "radial", "modified_radial")


def kernel(m, t, modified=False):
    t = mpmath.mpf(t)
    if t == 0:
        return mpmath.mpf(1)
    nu = mpmath.mpf(m) / 2
    bessel = mpmath.besseli if modified else mpmath.besselj
    return mpmath.gamma(nu + 1) * bessel(nu, t) / (t / 2) ** nu


def mp(v):
    return [mpmath.mpf(float(x)) for x in v]


def ball_mean_exact(u, c, r):
    m, k, c = u.dimension, u.wavenumber, mp(c)
    if u.kind == "plane_wave":
        d = mp(u.params["direction"])
        return kernel(m, k * r) * mpmath.cos(k * mpmath.fsum(a * b for a, b in zip(d, c))
                                             + u.params["phase"])
    if u.kind == "membrane":
        i, j, a = u.params["i"], u.params["j"], u.params["a"]
        return (kernel(2, k * r) * mpmath.sin(i * mpmath.pi * c[0] / a)
                * mpmath.sin(j * mpmath.pi * c[1] / a))
    modified = u.kind == "modified_radial"
    gap = mpmath.sqrt(mpmath.fsum((a - b) ** 2 for a, b in zip(c, mp(u.params["center"]))))
    return kernel(m - 2, k * gap, modified) * kernel(m, k * r, modified)


def box_mean_exact(u, low, high):
    """The product of the 1-D means, or None where there is no closed form."""
    low, high = mp(low), mp(high)
    if u.kind == "plane_wave":
        z = mpmath.expj(u.params["phase"])
        for d, a, b in zip(mp(u.params["direction"]), low, high):
            w = u.wavenumber * d
            z *= (mpmath.expj(w * b) - mpmath.expj(w * a)) / (1j * w * (b - a)) if w else 1
        return mpmath.re(z)
    if u.kind == "membrane":
        out = mpmath.mpf(1)
        for n, a, b in zip((u.params["i"], u.params["j"]), low, high):
            w = n * mpmath.pi / u.params["a"]
            out *= (mpmath.cos(w * a) - mpmath.cos(w * b)) / (w * (b - a))
        return out
    return None


def unit(rng, m):
    v = rng.normal(size=m)
    return v / np.linalg.norm(v)


def field(rng, kind, m, k, c, r, on_center=False):
    """A field of this kind with a random direction, or a radial field about
    a random source (about c itself when on_center)."""
    if kind == "plane_wave":
        return plane_wave(m, k, unit(rng, m), float(rng.uniform(0.0, 2.0 * math.pi)))
    source = c if on_center else c + r * float(rng.uniform(0.0, 1.5)) * unit(rng, m)
    if kind == "radial":
        return radial_solution(m, k, source)
    return modified_radial_solution(m, k, source)


def check(est, exact, cases):
    err = abs(mpmath.mpf(est.value) - exact)
    assert err <= est.abs_error_estimate, (float(err), est.abs_error_estimate)
    cases.append(float(err) / est.abs_error_estimate)


@pytest.mark.parametrize("m", range(2, 13))
def test_ball_bar_bounds_the_error(m):
    rng = np.random.default_rng(100 + m)
    ratios = []
    for case in range(24):
        kind = KINDS[case % 3]
        c, r = rng.uniform(-1.0, 1.0, m), float(rng.uniform(0.3, 1.5))
        t = float(rng.uniform(0.05, RESOLUTION_CAP if case % 4 == 0 else 12.0))
        if case == 0:
            t = RESOLUTION_CAP
        if kind == "modified_radial":
            t = min(t, 10.0)
        u = field(rng, kind, m, t / r, c, r, on_center=case % 5 == 1)
        radial, angular = resolution(m, t)
        if case % 2:  # too few nodes: the truncation bound, not rounding, must cover it
            radial = max(2, int(radial * rng.uniform(0.3, 0.9)))
            angular = max(4, int(angular * rng.uniform(0.3, 0.9)))
        check(_ball_rule(c, r, radial, angular).mean(u), ball_mean_exact(u, c, r), ratios)
    # the under-resolved rules' bars are proved bounds, not guesses: some
    # error reaches a fair share of its bar
    assert max(ratios) > 1e-3


def test_membrane_modes_on_disks_and_squares():
    rng = np.random.default_rng(7)
    ratios = []
    for case in range(16):
        i, j, a = int(rng.integers(1, 6)), int(rng.integers(1, 6)), float(rng.uniform(0.5, 2.0))
        u = membrane_eigenfunction(i, j, a)
        c, r = rng.uniform(-1.0, 1.0, 2), float(rng.uniform(0.3, 1.5))
        radial, angular = resolution(2, u.wavenumber * r)
        low = rng.uniform(-1.0, 0.0, 2)
        high = low + rng.uniform(0.3, 1.5, 2)
        nodes = _box_resolution(2, u.wavenumber * float(np.max(high - low)))
        if case % 2:
            radial, angular, nodes = max(2, radial // 2), max(4, angular // 2), max(2, nodes // 2)
        check(_ball_rule(c, r, radial, angular).mean(u), ball_mean_exact(u, c, r), ratios)
        check(_box_rule(low, high, nodes).mean(u), box_mean_exact(u, low, high), ratios)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_box_bar_bounds_the_error(m):
    rng = np.random.default_rng(200 + m)
    ratios = []
    for case in range(18):
        kind = KINDS[case % 3]
        low = rng.uniform(-1.0, 0.0, m)
        high = low + rng.uniform(0.3, 1.5, m)
        band = float(rng.uniform(0.1, {1: 120.0, 2: 120.0, 3: 120.0}.get(m, 12.0)))
        if kind != "plane_wave":
            band = min(band, 8.0)
        if kind != "plane_wave" and m == 1:
            continue  # the radial fields need m >= 2
        mid, half = 0.5 * (low + high), 0.5 * float(np.linalg.norm(high - low))
        u = field(rng, kind, m, band / float(np.max(high - low)), mid, half)
        nodes = _box_resolution(m, band)
        if case % 2:
            nodes = max(2, int(nodes * rng.uniform(0.3, 0.9)))
        if (2 * nodes) ** m > _NODE_BUDGET:
            continue
        est = _box_rule(low, high, nodes).mean(u)
        exact = box_mean_exact(u, low, high)
        if exact is None:  # the rule with twice the nodes, and its own bar
            ref = _box_rule(low, high, 2 * nodes).mean(u)
            est = type(est)(est.value, est.abs_error_estimate + ref.abs_error_estimate,
                            est.method, est.samples_or_nodes)
            exact = mpmath.mpf(ref.value)
        check(est, exact, ratios)
    assert len(ratios) >= 6


@pytest.mark.parametrize("m", [2, 3, 4])
def test_certified_difference_bar_bounds_the_error(m):
    # a ball minus a ball inside it, and for m <= 3 a box minus a ball:
    # (|A| M_A - |B| M_B) / |D| in closed form
    rng = np.random.default_rng(300 + m)
    ratios = []
    for case in range(8):
        kind = KINDS[case % 3] if case % 4 != 3 else "plane_wave"
        c = rng.uniform(-0.5, 0.5, m)
        r_in = float(rng.uniform(0.1, 0.3))
        inner_c = c + (0.9 - r_in) * float(rng.uniform(0.0, 1.0)) * unit(rng, m)
        a, b = ball(c, 1.0), ball(inner_c, r_in)
        if case % 4 == 3 and m <= 3:
            a = box(c - 1.0, c + 1.0)
        t = float(rng.uniform(0.1, 12.0 if m < 4 else 5.0))
        u = field(rng, kind, m, t, c, 1.0)
        rule = mean_rule(difference(a, b), t)
        assert rule.method == "product_difference"
        va, vb = a.analytic_volume, b.analytic_volume
        exact_a = (ball_mean_exact(u, c, 1.0) if a.kind == "ball"
                   else box_mean_exact(u, c - 1.0, c + 1.0))
        exact = (va * exact_a - vb * ball_mean_exact(u, inner_c, r_in)) / (va - vb)
        check(rule.mean(u), exact, ratios)
    assert ratios


@pytest.mark.parametrize("m", range(2, 13))
def test_flux_bar_bounds_the_error(m):
    # the outward flux of grad u over |x - c| = r is -k^2 |B_r| M(u, B_r)
    rng = np.random.default_rng(400 + m)
    ratios = []
    for case in range(10):
        kind = KINDS[case % 2]
        c, r = rng.uniform(-1.0, 1.0, m), float(rng.uniform(0.3, 1.5))
        t = float(rng.uniform(0.1, RESOLUTION_CAP if case % 4 == 0 else 20.0))
        u = field(rng, kind, m, t / r, c, r, on_center=case == 3)
        angular = resolution(m, t)[1]
        if case % 2:
            angular = max(4, int(angular * rng.uniform(0.3, 0.9)))
        volume = mpmath.pi ** (mpmath.mpf(m) / 2) / mpmath.gamma(mpmath.mpf(m) / 2 + 1) * r**m
        exact = -(u.wavenumber**2) * volume * ball_mean_exact(u, c, r)
        err = abs(mpmath.mpf(surface_flux(u.gradient, c, r, angular, axis=u.axis(c))) - exact)
        bar = surface_flux_error(u, c, r, angular)
        assert err <= bar, (float(err), bar)
        ratios.append(float(err) / bar)
    assert max(ratios) > 1e-4
