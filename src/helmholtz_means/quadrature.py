"""Volume means M(f, D), ball/box product rules, seeded Monte Carlo, and
sphere-surface flux integrals of closed-form gradients.

A MeanRule is M(., D) for one domain at one resolution; mean_rule picks
it from the domain's node type and sizes it by resolution(lambda * size),
and ball_mean, box_mean and mc_mean are one-call wrappers over a rule.
A difference a \\ b whose subtrahend is certified to lie inside its
minuend gets the signed sum of the two terms' rules,
(|a| M(f, a) - |b| M(f, b)) / |a \\ b|, and one whose subtrahend misses
its minuend gets the minuend's rule.

The spectral ball rule pairs Gauss-Legendre in radius (with the s^{m-1}
Jacobian folded into the weights) with one sphere rule for S^{m-1} in
every dimension m >= 2: the periodic trapezoid rule in the azimuth times
a Gauss rule in the cosine of each further polar angle.  Means are
computed as sum(w f) / sum(w), which makes M(1, D) exactly 1.0 and
absorbs the volume normalization.  A ball or box whose fine rule would
hold more than _NODE_BUDGET points is sampled instead.

Monte Carlo estimates are rejection sampled over the bounding box with
an explicit seed; a SampleRule makes one draw, on first use, and its
|D|, every mean and the sampled enclosing radius of verify's size
condition all read it.  The reported error bar is 3 standard errors,
and a fixed (samples, seed) pair reproduces results bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DISJOINT,
    Ball,
    Box,
    Difference,
    Domain,
    EstimationError,
    _draw,
    _hit_volume,
    _require_counts,
    _unwrap,
    certified_relation,
    unit_ball_volume,
)

__all__ = [
    "MeanValueEstimate",
    "MeanRule",
    "ProductRule",
    "SampleRule",
    "DifferenceRule",
    "RESOLUTION_CAP",
    "resolution",
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
PRODUCT_DIFFERENCE = "product_difference"
MONTE_CARLO = "monte_carlo"

_MIN_ACCEPTANCE = 1e-4
_MEAN_BLOCK = 1 << 18  # accepted points per field evaluation in SampleRule.mean
_PRODUCT_BLOCK = 1 << 16  # most points per field evaluation in _level_mean

# Largest band lambda * size that resolution sizes a product rule for; at
# the cap a 3-D ball rule has 84 x 141 x 282 fine nodes.
RESOLUTION_CAP = 120.0


@dataclass(frozen=True)
class MeanValueEstimate:
    value: float
    abs_error_estimate: float
    method: str
    samples_or_nodes: int
    seed: int | None = None


def resolution(band: float) -> tuple[int, int, int]:
    """Fine node counts (radial, angular, per box axis) of the product
    rules for band = lambda * size: a ball's or sphere's radius, or a
    box's longest side.  By Jacobi-Anger (DLMF 10.12) the field's angular
    modes of order k > band die off like J_k(band), so the counts grow
    linearly in the band; the coarse level (2/3 of each count) already
    brings a plane wave to within 1e-13 of its exact mean, so
    |fine - coarse| bounds the fine level's error.  ValueError above
    RESOLUTION_CAP."""
    t = float(band)
    if not t <= RESOLUTION_CAP:
        raise ValueError(
            f"band lambda * size = {t:g} is above the resolution cap {RESOLUTION_CAP:g}"
        )
    return math.ceil(0.55 * t) + 18, 2 * math.ceil(1.05 * t) + 30, math.ceil(0.75 * t) + 14


@functools.lru_cache(maxsize=256)
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per count
    (Golub-Welsch) and kept read-only; 256 counts hold every count that
    resolution sizes up to RESOLUTION_CAP, at both levels."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=256)
def _polar_gauss(nodes: int, k: int):
    """Read-only z, sqrt(1 - z^2) and weights summing to 1 of the Gauss rule
    on [-1, 1] for the weight (1 - z^2)^((k-3)/2): Legendre for k = 3, else
    Golub-Welsch on the symmetric Jacobi recurrence."""
    if k == 3:
        z, w = _leggauss(nodes)
        w = 0.5 * w
    else:
        a, j = 0.5 * (k - 3), np.arange(1.0, nodes)
        off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a + 1) * (2 * j + 2 * a - 1)))
        z, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        w = v[0] ** 2
    s = np.sqrt(1.0 - z * z)
    for x in (z, s, w):
        x.flags.writeable = False
    return z, s, w


def _ball_nodes(m: int, radial: int, angular: int) -> int:
    """Points of an m-D ball rule level, or with radial = 1 of a sphere rule."""
    return radial * math.prod(_sphere_shape(m, angular))


def _sphere_shape(m: int, angular: int) -> tuple[int, ...]:
    """Axes (z_m, ..., z_3, azimuth) of the sphere rule on S^{m-1}."""
    return (max(int(angular) // 2, 4),) * (m - 2) + (int(angular),)


# Most fine points a product rule may hold in any dimension: the 3-D ball
# rule's at RESOLUTION_CAP, 84 x 141 x 282; a larger ball or box is sampled.
_NODE_BUDGET = _ball_nodes(3, *resolution(RESOLUTION_CAP)[:2])


def _sphere_directions(m: int, angular: int):
    """Unit directions (n_dir, m) on S^{m-1}, m >= 2, in the row-major order
    of _sphere_shape, and weights summing to 1: the periodic trapezoid rule
    in the azimuth times _polar_gauss in z_k for k = 3..m, a direction of
    S^{k-1} being (sqrt(1 - z_k^2) y, z_k) for y on S^{k-2}."""
    if m < 2:
        raise ValueError(f"the sphere rule needs m >= 2, got {m}")
    shape = _sphere_shape(m, angular)
    phi = 2.0 * np.pi * np.arange(angular) / angular
    dirs = np.empty(shape + (m,))
    scale = w = 1.0  # products of sqrt(1 - z_k^2) and of weights over the axes so far
    for k in range(m, 2, -1):
        z, s, wz = _polar_gauss(shape[0], k)
        axis = (1,) * (m - k) + (-1,) + (1,) * (k - 2)
        np.multiply(z.reshape(axis), scale, out=dirs[..., k - 1])
        scale, w = scale * s.reshape(axis), w * wz.reshape(axis)
    dirs[..., 0] = np.cos(phi) * scale
    dirs[..., 1] = np.sin(phi) * scale
    return dirs.reshape(-1, m), np.full(shape, w / angular).reshape(-1)


def _gauss(a: float, b: float, nodes: int):
    """Gauss-Legendre nodes and weights on (a, b), as fresh arrays."""
    x, w = _leggauss(int(nodes))
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


class MeanRule:
    """The volume mean M(., D) of one domain at one resolution.

    M is linear, so its nodes or samples do not depend on the integrand:
    build the rule once and call mean(f) for every field.  A SampleRule
    draws nothing before the first call that needs it.  method is
    BALL_SPECTRAL or BOX_GAUSS (ProductRule), PRODUCT_DIFFERENCE
    (DifferenceRule) or MONTE_CARLO (SampleRule).
    """

    method: str

    def mean(self, f) -> MeanValueEstimate:
        raise NotImplementedError


class ProductRule(MeanRule):
    """A ball or box product rule with a fine and a coarse level.

    Every level is rows x columns, two (nodes, weights) pairs: a ball's
    radial Gauss rule (Jacobian s^{m-1} in its weights) times the sphere
    directions, or a box's Gauss rule on axis 0 times the tensor product
    of its other axes.  place(rows, columns) maps slices of the two to
    their (rows * columns, m) points in row-major order.  The error
    estimate is the change from the coarse to the fine level.
    """

    def __init__(self, method: str, place, levels):
        self.method, self._place, self.levels = method, place, levels  # [fine, coarse]

    def mean(self, f) -> MeanValueEstimate:
        value, coarse = (_level_mean(self._place, f, level) for level in self.levels)
        size = math.prod(len(w) for _, w in self.levels[0])
        return MeanValueEstimate(value, abs(value - coarse), self.method, size)


def _level_mean(place, f, level) -> float:
    """sum(w f) / sum(w) over a rows x columns level, w = w_row w_column, in
    blocks of 2^16 // columns whole rows, or one row's columns 2^16 at a time
    where they hold more, each freed once f has read it; w f and w share
    their blocks, so f = 1 gives exactly 1.0."""
    (rows, w_rows), (cols, w_cols) = level
    step = max(_PRODUCT_BLOCK // len(w_cols), 1)  # rows per block
    num = den = 0.0
    for i in range(0, len(w_rows), step):
        for j in range(0, len(w_cols), _PRODUCT_BLOCK):  # one slice unless step is 1
            w = np.multiply.outer(w_rows[i : i + step], w_cols[j : j + _PRODUCT_BLOCK]).reshape(-1)
            vals = f(place(rows[i : i + step], cols[j : j + _PRODUCT_BLOCK]))
            num += float(np.sum(w * np.asarray(vals, dtype=float)))
            den += float(np.sum(w))
    return num / den


class SampleRule(MeanRule):
    """Rejection sampling over the bounding box from one seeded draw.

    The draw is made at the first call that needs it (accepted, volume()
    or mean) and cached: it keeps the inside points, accepted, whose count
    also gives |D|, and drops the rest.  It raises EstimationError when
    the acceptance rate is below 1e-4 (bounding box too loose), so every
    use of the draw fails the same way.  A mean is the sample mean over
    the accepted points with error bar 3 sigma / sqrt(n_accepted); f is
    evaluated over fixed blocks of 2^18 points, so it must act pointwise,
    and the reductions run over all values at once.
    """

    method = MONTE_CARLO

    def __init__(self, d: Domain, samples: int, seed: int):
        self.domain, self.samples, self.seed = d, int(samples), seed

    @functools.cached_property
    def accepted(self) -> np.ndarray:
        """The draw's inside points, (n_accepted, m)."""
        pts, hits = _draw(self.domain, self.samples, self.seed)
        accepted = np.compress(hits, pts, axis=0)
        if len(accepted) < _MIN_ACCEPTANCE * self.samples:
            raise EstimationError(
                f"acceptance rate {len(accepted) / self.samples:.2e} below {_MIN_ACCEPTANCE}; "
                "tighten the bounding box"
            )
        return accepted

    def volume(self) -> tuple[float, float]:
        """(|D|, 3-sigma error bar) from the draw, as geometry.volume gives it."""
        return _hit_volume(self.domain, len(self.accepted), self.samples)

    def mean(self, f) -> MeanValueEstimate:
        accepted = self.accepted
        n_acc = len(accepted)
        vals = np.empty(n_acc)
        for i in range(0, n_acc, _MEAN_BLOCK):
            vals[i : i + _MEAN_BLOCK] = f(accepted[i : i + _MEAN_BLOCK])
        return MeanValueEstimate(
            value=float(np.mean(vals)),
            abs_error_estimate=3.0 * float(np.std(vals)) / math.sqrt(n_acc),
            method=MONTE_CARLO,
            samples_or_nodes=n_acc,
            seed=self.seed,
        )


class DifferenceRule(MeanRule):
    """The mean over a \\ b, b inside a, from the terms' rules.

    mean is (|a| M(f, a) - |b| M(f, b)) / |a \\ b| with |a \\ b| = |a| - |b|,
    so f = 1 gives exactly 1.0, and its error estimate is
    (|a| err_a + |b| err_b) / |a \\ b|; samples_or_nodes counts the terms'
    fine nodes.
    """

    method = PRODUCT_DIFFERENCE

    def __init__(self, volume_a: float, rule_a: MeanRule, volume_b: float, rule_b: MeanRule):
        self.volume = volume_a - volume_b
        if not self.volume > 0.0:
            raise ValueError(f"domain volume must be positive, got {self.volume}")
        self.volume_a, self.rule_a, self.volume_b, self.rule_b = volume_a, rule_a, volume_b, rule_b

    def mean(self, f) -> MeanValueEstimate:
        va, vb = self.volume_a, self.volume_b
        ea, eb = self.rule_a.mean(f), self.rule_b.mean(f)
        return MeanValueEstimate(
            (va * ea.value - vb * eb.value) / self.volume,
            (va * ea.abs_error_estimate + vb * eb.abs_error_estimate) / self.volume,
            PRODUCT_DIFFERENCE,
            ea.samples_or_nodes + eb.samples_or_nodes,
        )


def _coarse(count: int, floor: int = 8) -> int:
    """A product rule's coarse count for the fine count `count`: two
    thirds of it, at least floor (8 for the sphere rule's directions)."""
    return max(2 * count // 3, floor)


def _ball_place(center):
    """place for a ball level: center + s * direction, formed in one array."""
    def place(s, dirs):
        pts = s[:, None, None] * dirs
        return np.add(pts, center, out=pts).reshape(-1, center.size)
    return place


def _ball_rule(center, r, radial_nodes, angular) -> ProductRule:
    levels = []
    for n, a in ((radial_nodes, angular), (_coarse(radial_nodes, 4), _coarse(angular))):
        s, ws = _gauss(0.0, r, n)
        levels.append([(s, ws * s ** (center.size - 1)), _sphere_directions(center.size, a)])
    return ProductRule(BALL_SPECTRAL, _ball_place(center), levels)


def _box_rule(low, high, nodes) -> MeanRule:
    lo = np.asarray(low, dtype=float)
    hi = np.asarray(high, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or not np.all(hi > lo):
        raise ValueError("box requires low < high componentwise")
    _require_counts(nodes=nodes)

    def place(x, cols):
        pts = np.empty((len(x),) + cols.shape)
        pts[:] = cols
        pts[..., 0] = x[:, None]
        return pts.reshape(-1, cols.shape[1])

    levels = []
    for n in (int(nodes), _coarse(int(nodes), 4)):
        first, *others = [_gauss(a, b, n) for a, b in zip(lo, hi)]
        # columns: the tensor product of axes 1..m-1, as points whose axis 0
        # (0 here) place fills from the rows; for m = 1 one point of weight 1
        cols = np.stack(np.meshgrid(np.zeros(1), *(x for x, _ in others), indexing="ij"), -1)
        w = functools.reduce(np.multiply.outer, [wx for _, wx in others], np.ones(1))
        levels.append([first, (cols.reshape(-1, lo.size), w.reshape(-1))])
    return ProductRule(BOX_GAUSS, place, levels)


def mean_rule(d: Domain, lam: float, samples: int = 2_000_000, seed: int = 0) -> MeanRule:
    """The most accurate rule for d's structure at wavenumber lam: a ball
    (m >= 2) or a box, up to translation, gets its product rule, sized by
    resolution(lam * radius) or resolution(lam * longest side), when its
    fine level holds at most _NODE_BUDGET points; a difference certified
    by geometry.certified_relation gets its terms' product rules, each
    sized from its own size, when both terms have one within
    RESOLUTION_CAP and the budget; any other domain Monte Carlo with
    (samples, seed)."""
    rule = _product_rule(d, lam)
    return SampleRule(d, samples, seed) if rule is None else rule


def _product_rule(d: Domain, lam: float, shift=0.0) -> MeanRule | None:
    """The product rule, or signed sum of them, of d shifted by shift;
    None where only sampling serves, or where the fine level would hold
    more than _NODE_BUDGET points (counted before any node is built).
    ValueError for a ball or box above RESOLUTION_CAP."""
    base, inner = _unwrap(d)
    shift = shift + inner
    m = d.dimension
    if isinstance(base, Ball) and m >= 2:
        radial, angular, _ = resolution(lam * base.r)
        if _ball_nodes(m, radial, angular) > _NODE_BUDGET:
            return None
        return _ball_rule(base.center + shift, base.r, radial, angular)
    if isinstance(base, Box):
        nodes = resolution(lam * float(np.max(base.high - base.low)))[2]
        if nodes**m > _NODE_BUDGET:
            return None
        return _box_rule(base.low + shift, base.high + shift, nodes)
    relation = certified_relation(base.a, base.b) if isinstance(base, Difference) else None
    if relation is None:
        return None
    try:
        rule_a = _product_rule(base.a, lam, shift)
        if relation == DISJOINT:
            return rule_a
        rule_b = _product_rule(base.b, lam, shift)
    except ValueError:  # a term's band is above RESOLUTION_CAP: sample d instead
        return None
    if rule_a is None or rule_b is None:
        return None
    return DifferenceRule(base.a.analytic_volume, rule_a, base.b.analytic_volume, rule_b)


def ball_mean(f, center, r: float, radial_nodes: int = 64,
              angular_resolution: int = 64) -> MeanValueEstimate:
    """Volume mean of f over B_r(center), m >= 2, on the spectral product rule."""
    center = np.asarray(center, dtype=float)
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    _require_counts(radial_nodes=radial_nodes, angular=angular_resolution)
    return _ball_rule(center, r, radial_nodes, angular_resolution).mean(f)


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
    from the same sample and are reproducible together.  No check uses
    it; the tests compare proof_discrepancy against it over G_i and G_e.
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
    return (integral, ierr3) + _hit_volume(d, int(np.count_nonzero(keep)), samples)


def _flux(grad, center, r: float, angular: int) -> float:
    """int grad . n dS over |x - center| = r, the sphere's area times the
    _level_mean of grad . (p - center) / r on the level (r) x directions.
    ValueError for m < 2, or for more than _NODE_BUDGET directions."""
    center, r = np.asarray(center, dtype=float), float(r)
    m = center.size
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    _require_counts(angular_resolution=angular)
    if _ball_nodes(m, 1, angular) > _NODE_BUDGET:
        raise ValueError(f"surface_flux: {_ball_nodes(m, 1, angular)} directions in m = {m} "
                         f"are above the node budget {_NODE_BUDGET}")
    level = [(np.array([r]), np.ones(1)), _sphere_directions(m, angular)]
    dn = lambda p: np.einsum("ij,ij->i", np.asarray(grad(p)), p - center) / r
    return m * unit_ball_volume(m) * r ** (m - 1) * _level_mean(_ball_place(center), dn, level)


def surface_flux(grad, center, r: float, angular_resolution: int = 256) -> float:
    """Outward flux int_{boundary of B_r(center)} grad . n dS of a vector
    field grad, (n, m) points to (n, m) values (a field's closed-form
    gradient gives the flux of du/dn), on the sphere-direction rule.
    Circles and spheres only.
    """
    return _flux(grad, center, r, int(angular_resolution))


def surface_flux_error(grad, center, r: float, angular_resolution: int = 256) -> float:
    """|fine - coarse| of surface_flux's rule, the coarse level having
    max(2 angular_resolution // 3, 8) directions as in the ball rule.  No
    check calls it: flux_identity_check reuses its fine flux for the bar."""
    angular = int(angular_resolution)
    return abs(_flux(grad, center, r, angular) - _flux(grad, center, r, _coarse(angular)))
