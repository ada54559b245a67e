"""Volume means M(f, D), ball/box product rules, seeded Monte Carlo, and
sphere-surface flux integrals.

A MeanRule is M(., D) for one domain at one resolution; mean_rule picks
it from the domain's node type, and ball_mean, box_mean and mc_mean
are one-call wrappers over a fresh rule.

The spectral ball rule pairs Gauss-Legendre in radius (with the s^{m-1}
Jacobian folded into the weights) with the periodic trapezoid rule on
the circle (m = 2) or a Gauss(polar) x trapezoid(azimuth) product on the
sphere (m = 3).  Means are computed as sum(w f) / sum(w), which makes
M(1, D) exactly 1.0 and absorbs the volume normalization.

Monte Carlo estimates are rejection sampled over the bounding box with
an explicit seed; the reported error bar is 3 standard errors, and a
fixed (samples, seed) pair reproduces results bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import (
    Ball,
    Box,
    Domain,
    EstimationError,
    Translate,
    _draw,
    _hit_volume,
    _uniform,
    ball,
)

__all__ = [
    "MeanValueEstimate",
    "MeanRule",
    "ProductRule",
    "SampleRule",
    "mean_rule",
    "ball_mean",
    "box_mean",
    "mc_mean",
    "mc_integral",
    "surface_flux",
    "surface_flux_error",
]

BALL_SPECTRAL = "ball_spectral"
BOX_GAUSS = "box_gauss"
MONTE_CARLO = "monte_carlo"

_MIN_ACCEPTANCE = 1e-4


@dataclass(frozen=True)
class MeanValueEstimate:
    value: float
    abs_error_estimate: float
    method: str
    samples_or_nodes: int
    seed: int | None = None


def _sphere_directions(m: int, angular: int, rule: str):
    """Unit directions (n_dir, m) of the periodic trapezoid rule on the
    circle (m = 2), or of the Gauss(polar) x trapezoid(azimuth) product
    on the sphere (m = 3) together with its polar Gauss weights (None
    for m = 2)."""
    if m not in (2, 3):
        raise NotImplementedError(f"{rule} supports m in {{2, 3}}, got {m}")
    phi = 2.0 * np.pi * np.arange(angular) / angular
    if m == 2:
        return np.stack([np.cos(phi), np.sin(phi)], axis=1), None
    z, wz = np.polynomial.legendre.leggauss(max(int(angular) // 2, 4))
    sz = np.sqrt(1.0 - z * z)
    dirs = np.stack(
        [
            np.outer(sz, np.cos(phi)).ravel(),
            np.outer(sz, np.sin(phi)).ravel(),
            np.repeat(z, angular),
        ],
        axis=1,
    )
    return dirs, wz


def _ball_nodes_weights(center: np.ndarray, r: float, radial_nodes: int, angular: int):
    """Quadrature points (n, m) and weights (n,) for a ball rule."""
    m = center.size
    dirs, wz = _sphere_directions(m, angular, "spectral ball rule")
    s, ws = np.polynomial.legendre.leggauss(int(radial_nodes))
    s = 0.5 * r * (s + 1.0)  # radius in (0, r)
    ws = 0.5 * r * ws * s ** (m - 1)
    wa = np.full(angular, 1.0 / angular) if wz is None else np.repeat(0.5 * wz, angular) / angular
    pts = center + s[:, None, None] * dirs[None, :, :]  # (radial, n_dir, m)
    w = ws[:, None] * wa[None, :]
    return pts.reshape(-1, m), w.ravel()


def _box_nodes_weights(lo: np.ndarray, hi: np.ndarray, nodes: int):
    """Tensor Gauss-Legendre points (n, m) and weights (n,) over a box."""
    m = lo.size
    x, w = np.polynomial.legendre.leggauss(int(nodes))
    axes = [0.5 * (hi[i] - lo[i]) * (x + 1.0) + lo[i] for i in range(m)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * m), indexing="ij")
    ww = np.ones_like(wgrids[0])
    for g in wgrids:
        ww = ww * g
    return pts, ww.ravel()


class MeanRule:
    """The volume mean M(., D) of one domain at one resolution.

    M is linear, so its nodes or samples do not depend on the integrand:
    build the rule once and call mean(f) for every field.  Nothing is
    drawn or built before the first call that needs it.  method is
    BALL_SPECTRAL or BOX_GAUSS (ProductRule) or MONTE_CARLO (SampleRule);
    resolution tells apart the rules of one domain.
    """

    method: str
    resolution: tuple

    def mean(self, f) -> MeanValueEstimate:
        raise NotImplementedError


class ProductRule(MeanRule):
    """A ball or box product rule with a fine and a coarse node set.

    Means are sum(w f) / sum(w), with identical pairwise reductions top
    and bottom, so f = 1 gives exactly 1.0; the error estimate is the
    change from the coarse to the fine set, so smooth integrands report
    near-zero.
    """

    def __init__(self, method: str, resolution: tuple, size: int, build):
        self.method, self.resolution, self.size = method, resolution, size
        self._build = build  # () -> [(points, weights) fine, (points, weights) coarse]
        self.node_sets = None

    def mean(self, f) -> MeanValueEstimate:
        if self.node_sets is None:
            self.node_sets = self._build()
        value, coarse = (
            float(np.sum(w * np.asarray(f(pts), dtype=float)) / np.sum(w))
            for pts, w in self.node_sets
        )
        return MeanValueEstimate(value, abs(value - coarse), self.method, self.size)


class SampleRule(MeanRule):
    """Rejection sampling over the bounding box from one seeded draw.

    hits is the draw's indicator, which also gives |D| (volume()), and
    accepted its inside points; both are None until first needed, and
    the points are kept only once a mean asks for them.  A mean is the
    sample mean over accepted points with error bar 3 sigma /
    sqrt(n_accepted); it raises EstimationError when the acceptance rate
    drops below 1e-4 (bounding box too loose).
    """

    method = MONTE_CARLO

    def __init__(self, d: Domain, samples: int, seed: int):
        self.domain, self.samples, self.seed = d, int(samples), seed
        self.resolution = (MONTE_CARLO, self.samples, seed)
        self.hits = self.accepted = None

    def volume(self) -> tuple[float, float]:
        """(|D|, 3-sigma error bar) from the draw, as geometry.volume gives it."""
        if self.hits is None:
            self.hits = _draw(self.domain, self.samples, self.seed)[1]
        return _hit_volume(self.domain, self.hits)

    def mean(self, f) -> MeanValueEstimate:
        if self.accepted is None:
            if self.hits is None:
                pts, self.hits = _draw(self.domain, self.samples, self.seed)
            else:  # the same stream again; the indicator is not rerun
                pts = _uniform(self.domain, self.samples, self.seed)
            self.accepted = np.compress(self.hits, pts, axis=0)
        n_acc = len(self.accepted)
        if n_acc < _MIN_ACCEPTANCE * self.samples:
            raise EstimationError(
                f"acceptance rate {n_acc / self.samples:.2e} below {_MIN_ACCEPTANCE}; "
                "tighten the bounding box"
            )
        vals = np.asarray(f(self.accepted), dtype=float)
        return MeanValueEstimate(
            value=float(np.mean(vals)),
            abs_error_estimate=3.0 * float(np.std(vals)) / math.sqrt(n_acc),
            method=MONTE_CARLO,
            samples_or_nodes=n_acc,
            seed=self.seed,
        )


def _ball_rule(center, r, radial_nodes, angular, mc_samples, seed) -> MeanRule:
    center = np.asarray(center, dtype=float)
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    m = center.size
    if m not in (2, 3):
        warnings.warn(
            f"no spectral ball rule for m = {m}; falling back to Monte Carlo",
            stacklevel=3,
        )
        return SampleRule(ball(center, r), mc_samples, seed)
    levels = ((radial_nodes, angular), (max(radial_nodes // 2, 4), max(angular // 2, 8)))
    n_dir = angular if m == 2 else max(angular // 2, 4) * angular
    return ProductRule(
        BALL_SPECTRAL,
        (BALL_SPECTRAL, radial_nodes, angular),
        radial_nodes * n_dir,
        lambda: [_ball_nodes_weights(center, r, n, a) for n, a in levels],
    )


def _box_rule(low, high, nodes) -> MeanRule:
    lo = np.asarray(low, dtype=float)
    hi = np.asarray(high, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or not np.all(hi > lo):
        raise ValueError("box requires low < high componentwise")
    levels = (nodes, max(nodes // 2, 4))
    return ProductRule(
        BOX_GAUSS,
        (BOX_GAUSS, nodes),
        int(nodes) ** lo.size,
        lambda: [_box_nodes_weights(lo, hi, n) for n in levels],
    )


def mean_rule(
    d: Domain,
    nodes: int = 64,
    angular: int = 64,
    box_nodes: int = 32,
    samples: int = 2_000_000,
    seed: int = 0,
) -> MeanRule:
    """The most accurate rule for d's structure: a ball (m in {2, 3}) or
    a box, up to translation, gets its product rule; any other domain
    Monte Carlo with (samples, seed)."""
    base, shift = d, np.zeros(d.dimension)
    while isinstance(base, Translate):
        shift = shift + base.by
        base = base.of
    if isinstance(base, Ball) and d.dimension in (2, 3):
        return _ball_rule(base.center + shift, base.r, nodes, angular, samples, seed)
    if isinstance(base, Box):
        return _box_rule(base.low + shift, base.high + shift, box_nodes)
    return SampleRule(d, samples, seed)


def ball_mean(
    f,
    center,
    r: float,
    radial_nodes: int = 64,
    angular_resolution: int = 64,
    mc_samples: int = 2_000_000,
    seed: int = 0,
) -> MeanValueEstimate:
    """Volume mean of f over B_r(center): the spectral product rule for
    m in {2, 3}, other dimensions Monte Carlo (with a warning)."""
    return _ball_rule(center, r, radial_nodes, angular_resolution, mc_samples, seed).mean(f)


def box_mean(f, low, high, nodes_per_axis: int = 32) -> MeanValueEstimate:
    """Tensor Gauss-Legendre mean of f over an axis-aligned box."""
    return _box_rule(low, high, nodes_per_axis).mean(f)


def mc_mean(f, d: Domain, samples: int = 2_000_000, seed: int = 0) -> MeanValueEstimate:
    """Rejection-sampled mean of f over an implicit domain (see SampleRule)."""
    return SampleRule(d, samples, seed).mean(f)


def mc_integral(f, d: Domain, samples: int = 2_000_000, seed: int = 0):
    """Seeded Monte Carlo integral of f over an implicit domain.

    Returns (integral, error bar, volume, volume error bar); all error
    bars are 3 standard errors.  Single-stream estimator: the integrand
    is f * indicator over the bounding box, so integral and volume come
    from the same sample and are reproducible together.
    """
    samples = int(samples)
    lo, hi = d.bounding_box
    vbox = float(np.prod(hi - lo))
    pts, keep = _draw(d, samples, seed)
    g = np.zeros(samples)
    if np.any(keep):
        g[keep] = np.asarray(f(pts[keep]), dtype=float)
    integral = vbox * float(np.mean(g))
    ierr3 = 3.0 * vbox * float(np.std(g)) / math.sqrt(samples)
    return (integral, ierr3) + _hit_volume(d, keep)


def _sphere_points(center: np.ndarray, r: float, angular: int):
    """Surface nodes, unit normals, and surface weights for a circle or sphere."""
    normals, wz = _sphere_directions(center.size, angular, "surface_flux")
    if wz is None:
        w = np.full(angular, 2.0 * np.pi * r / angular)
    else:
        w = np.repeat(wz, angular) * (2.0 * np.pi * r * r / angular)
    return center + r * normals, normals, w


def _flux_value(u, center, r, angular, step) -> float:
    pts, normals, w = _sphere_points(center, r, angular)
    h = step * r
    dn = (np.asarray(u(pts + h * normals)) - np.asarray(u(pts - h * normals))) / (2.0 * h)
    return float(w @ dn)


def surface_flux(u, center, r: float, angular_resolution: int = 256, step_scale: float = 1e-5) -> float:
    """Outward flux int_{boundary of B_r(center)} du/dn dS.

    The normal derivative is a central difference with step 1e-5 * r
    along the radial direction.  Circles and spheres only.
    """
    center = np.asarray(center, dtype=float)
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    return _flux_value(u, center, r, int(angular_resolution), step_scale)


def surface_flux_error(
    u, center, r: float, angular_resolution: int = 256, step_scale: float = 1e-5
) -> float:
    """Truncation-error estimate for surface_flux by step halving.

    The central quotient has error ~ C h^2, so flux(h) - flux(h/2)
    amounts to 3/4 of the error at h; 4/3 of the gap bounds it.  (A
    one-sided-vs-central gap would instead track the O(h) one-sided
    error, about 1/h too pessimistic for this bar.)
    """
    center = np.asarray(center, dtype=float)
    r = float(r)
    full = _flux_value(u, center, r, int(angular_resolution), step_scale)
    half = _flux_value(u, center, r, int(angular_resolution), 0.5 * step_scale)
    return 4.0 / 3.0 * abs(full - half)
