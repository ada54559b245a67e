"""Volume means M(f, D), ball/box product rules, seeded Monte Carlo, and
sphere-surface flux integrals.

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

from .geometry import Domain, EstimationError, _draw, _hit_volume, ball

__all__ = [
    "MeanValueEstimate",
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


def _ball_mean_value(f, center, r, radial_nodes, angular) -> float:
    pts, w = _ball_nodes_weights(center, r, radial_nodes, angular)
    vals = np.asarray(f(pts), dtype=float)
    # identical pairwise reductions top and bottom: f = 1 gives exactly 1.0
    return float(np.sum(w * vals) / np.sum(w))


def ball_mean(
    f,
    center,
    r: float,
    radial_nodes: int = 64,
    angular_resolution: int = 64,
    mc_samples: int = 2_000_000,
    seed: int = 0,
) -> MeanValueEstimate:
    """Volume mean of f over B_r(center).

    Spectral product rule for m in {2, 3}; other dimensions fall back to
    Monte Carlo (with a warning).  The error estimate is the change
    under halving the resolution, so smooth integrands report near-zero.
    """
    center = np.asarray(center, dtype=float)
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    m = center.size
    if m not in (2, 3):
        warnings.warn(
            f"no spectral ball rule for m = {m}; falling back to Monte Carlo",
            stacklevel=2,
        )
        return mc_mean(f, ball(center, r), samples=mc_samples, seed=seed)
    value = _ball_mean_value(f, center, r, radial_nodes, angular_resolution)
    coarse = _ball_mean_value(
        f, center, r, max(radial_nodes // 2, 4), max(angular_resolution // 2, 8)
    )
    err = abs(value - coarse)
    n_dir = angular_resolution if m == 2 else max(angular_resolution // 2, 4) * angular_resolution
    return MeanValueEstimate(
        value=value,
        abs_error_estimate=err,
        method=BALL_SPECTRAL,
        samples_or_nodes=radial_nodes * n_dir,
    )


def _box_mean_value(f, lo, hi, nodes) -> float:
    m = lo.size
    x, w = np.polynomial.legendre.leggauss(int(nodes))
    axes = [0.5 * (hi[i] - lo[i]) * (x + 1.0) + lo[i] for i in range(m)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * m), indexing="ij")
    ww = np.ones_like(wgrids[0])
    for g in wgrids:
        ww = ww * g
    ww = ww.ravel()
    vals = np.asarray(f(pts), dtype=float)
    return float(np.sum(ww * vals) / np.sum(ww))


def box_mean(f, low, high, nodes_per_axis: int = 32) -> MeanValueEstimate:
    """Tensor Gauss-Legendre mean of f over an axis-aligned box."""
    lo = np.asarray(low, dtype=float)
    hi = np.asarray(high, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or not np.all(hi > lo):
        raise ValueError("box requires low < high componentwise")
    value = _box_mean_value(f, lo, hi, nodes_per_axis)
    coarse = _box_mean_value(f, lo, hi, max(nodes_per_axis // 2, 4))
    return MeanValueEstimate(
        value=value,
        abs_error_estimate=abs(value - coarse),
        method=BOX_GAUSS,
        samples_or_nodes=int(nodes_per_axis) ** lo.size,
    )


def mc_mean(f, d: Domain, samples: int = 2_000_000, seed: int = 0) -> MeanValueEstimate:
    """Rejection-sampled mean of f over an implicit domain.

    value is the sample mean over accepted points; the error bar is
    3 sigma / sqrt(n_accepted).  Raises EstimationError when the
    acceptance rate drops below 1e-4 (bounding box too loose).
    """
    samples = int(samples)
    pts, keep = _draw(d, samples, seed)
    n_acc = int(np.count_nonzero(keep))
    if n_acc < _MIN_ACCEPTANCE * samples:
        raise EstimationError(
            f"acceptance rate {n_acc / samples:.2e} below {_MIN_ACCEPTANCE}; "
            "tighten the bounding box"
        )
    vals = np.asarray(f(pts[keep]), dtype=float)
    value = float(np.mean(vals))
    err3 = 3.0 * float(np.std(vals)) / math.sqrt(n_acc)
    return MeanValueEstimate(
        value=value,
        abs_error_estimate=err3,
        method=MONTE_CARLO,
        samples_or_nodes=n_acc,
        seed=seed,
    )


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
