"""Volume means M(f, D), ball/box product rules, seeded Monte Carlo, and
sphere-surface flux integrals of closed-form gradients.

A MeanRule is M(., D) for one domain at one resolution; mean_rule picks
it from the domain's node type and sizes it for the wavenumber lambda,
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
absorbs the volume normalization.

Each product rule has one level, sized by inverting a proved error
bound: the fewest nodes whose bound is at most 1e-14 for a unit plane
wave e^{i lambda d.x}.  Every Helmholtz field in solutions (plane waves,
the radial field, membrane modes) is a superposition of such waves with
total mass at most 1, so it inherits the bound; the modified radial
field takes I in place of J and a factor e^{mu |c - c'|}.  The bounds:

* sphere rule exact to degree L, by Gegenbauer's expansion of a plane
  wave (DLMF 10.23(ii)), nu = (m - 2)/2, t = lambda r:
  Gamma(nu) (t/2)^{-nu} sum_{l > L} (nu + l) |J_{nu+l}(t)| C_l^{(nu)}(1),
  or sum_{l > L} 2 |J_l(t)| for m = 2;
* n-point Gauss rule on [-1, 1] for a function analytic inside the
  Bernstein ellipse E_rho, where it is at most M(rho):
  (64/15) M(rho) rho^{-2(n-1)} / (rho^2 - 1), minimised over rho
  (Trefethen, SIAM Rev. 50 (2008), Thm 4.5, whose I_n has n + 1 points;
  checked against the n-point rule's error); the ball's radial integrand is
  (m/2)((1+x)/2)^{m-1} a_norm(m-2, t(1+x)/2), at most
  (m/2)((1+a_rho)/2)^{m-1} e^{t (rho - 1/rho)/4} there;
* a box's tensor rule errs by at most the sum of its axes' 1-D bounds.

A mean's error bar is that bound at the field's own wavenumber, plus
the field's own evaluation error (for a plane wave about
lambda |x| 2^-52, since cos's error grows with its argument) and the
rounding of the weighted sum.  A bare callable has no known bound: its
caller states one.  A ball or box whose level would hold more than
_NODE_BUDGET points is sampled instead.

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
from .solutions import HELMHOLTZ, SolutionField
from .specfun import _SERIES_CUTOFF, _miller_orders, b_norm

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

# Largest band lambda * size that resolution sizes a product rule for.
RESOLUTION_CAP = 120.0
# Proved bound every product rule is sized to, for a unit plane wave at its lambda.
_BOUND_TARGET = 1e-14
_EPS = 2.0**-52
# Most points a product rule may hold in any dimension; a larger ball or box is sampled.
_NODE_BUDGET = 3_340_008


@dataclass(frozen=True)
class MeanValueEstimate:
    value: float
    abs_error_estimate: float
    method: str
    samples_or_nodes: int
    seed: int | None = None


# ---------------------------------------------------------------------------
# proved error bounds and the counts they size


def _sphere_bound(m: int, t: float, degree: int | None = None, modified: bool = False,
                  flux: bool = False) -> tuple[int, float]:
    """(L, bound): a bound on the error of a sphere rule on S^{m-1} that
    is exact to degree L, with positive weights summing to 1, for
    e^{i t d.w} over every unit d (e^{t d.w} when modified, I in place
    of J; with flux the t-derivative, from
    |d/dt[t^-nu J_{nu+l}]| <= t^-nu ((l/t)|J_{nu+l}| + |J_{nu+l+1}|)).
    With degree None, L is the smallest degree whose bound is at most
    half of _BOUND_TARGET, odd for m >= 3 so that angular // 2 polar
    nodes reach it.  Each term grows with t while l >= t, so the bound
    at t holds for every smaller t."""
    nu = 0.5 * (m - 2)
    t = max(float(t), 1e-8)
    count = int(1.5 * t + 2.0 * nu) + 24
    # coef_l = Gamma(nu) (t/2)^-nu (nu + l) C_l^(nu)(1), C_l^(nu)(1) = (2 nu)_l / l!,
    # at l = count; 2 for every l > 0 when m = 2
    mu = nu + count
    coef = 2.0 if nu == 0.0 else mu * math.exp(
        math.lgamma(nu) - nu * math.log(0.5 * t) + math.lgamma(2.0 * nu + count)
        - math.lgamma(2.0 * nu) - math.lgamma(count + 1.0))
    # l >= count: |J_mu(t)| <= (t/2)^mu / Gamma(mu + 1), times e^{t^2/(4(mu+1))}
    # for I, and the terms shrink at least by the ratio q from one l to the next
    first = coef * math.exp(mu * math.log(0.5 * t) - math.lgamma(mu + 1.0)
                            + (t * t / (4.0 * (mu + 1.0)) if modified else 0.0))
    q = 0.5 * t / (mu + 1.0) * (1.0 + 1.0 / mu) * max(1.0, (2.0 * nu + count) / (count + 1.0))
    if flux:
        first, q = first * (count / t + 1.0), q * (1.0 + 1.0 / count)
    tail = first / (1.0 - q)  # the sum over l > the current l
    if degree is not None and degree >= count:
        return degree, tail
    z = _miller_orders(nu, t, 1.0 if modified else -1.0, count + 1)
    found = None
    for l in range(count - 1, -1, -1):
        if l == degree:
            return degree, tail
        if degree is None and (m == 2 or l % 2):
            if tail > 0.5 * _BOUND_TARGET:
                break
            found = l, tail
        if nu:
            coef *= (nu + l) / (nu + l + 1.0) * (l + 1.0) / (2.0 * nu + l)
        elif l == 0:
            coef = 1.0
        tail += coef * ((l / t) * abs(z[l]) + abs(z[l + 1]) if flux else abs(z[l]))
    return found


@functools.cache
def _ellipse():
    """The Bernstein ellipses E_rho the Gauss bounds are minimised over,
    u = ln rho from 0.01 to 10.7 in steps of 16%, formed at first use:
    (u, sinh u, (1 + a_rho) / 2 with a_rho = cosh u, its log, and the
    part of every log bound that depends on u alone,
    ln(64/15) - ln(rho^2 - 1), with rho^2 - 1 = 2 rho sinh u)."""
    u = 0.01 * 1.16 ** np.arange(48.0)
    sinh, half = np.sinh(u), 0.5 + 0.5 * np.cosh(u)
    parts = (u, sinh, half, np.log(half), math.log(32.0 / 15.0) - u - np.log(sinh))
    for x in parts:
        x.flags.writeable = False
    return parts


def _gauss_nodes(log_bound, u, target: float) -> int:
    """The fewest Gauss nodes whose bound is at most target on some ellipse."""
    return max(math.ceil(float(np.min((log_bound - math.log(target)) / (u + u)))), 0) + 1


def _gauss_error(log_bound, u, n: int) -> float:
    """The n-point bound minimised over the ellipses."""
    return math.exp(float(np.min(log_bound - (2.0 * (n - 1)) * u)))


def _radial_bound(m: int, t: float, modified: bool = False):
    """(ln bound without its -2 (n - 1) u, u) of the ball's radial Gauss
    rule at t = k r, from (64/15) M rho^{-2(n-1)} / (rho^2 - 1):
    |a_norm(m-2, z)| <= e^{|Im z|} and |b_norm(m-2, z)| <= e^{|Re z|}."""
    u, sinh, half, log_half, base = _ellipse()
    growth = t * half if modified else (0.5 * t) * sinh
    return (base + math.log(0.5 * m)) + ((m - 1) * log_half + growth), u


def _box_bound(tau: float, modified: bool = False, others: float = 0.0):
    """(ln bound without its -2 (n - 1) u, u) of a box axis's Gauss rule,
    for the mean over [-1, 1] of e^{i tau x} (e^{tau x} when modified,
    a_rho = 2 half - 1), tau = k h_j; a modified field also carries the
    largest values of the other axes' factors, e^others."""
    u, sinh, half, _, base = _ellipse()
    growth = tau * (2.0 * half - 1.0) if modified else tau * sinh
    return base + (math.log(0.5) + others + growth), u


def _sphere_degree(m: int, angular: int) -> int:
    """The degree to which the sphere rule of _sphere_shape is exact."""
    polar = _sphere_shape(m, angular)[0] if m > 2 else angular
    return min(int(angular) - 1, 2 * polar - 1)


def _check_band(band: float) -> float:
    t = float(band)
    if not t <= RESOLUTION_CAP:
        raise ValueError(
            f"band lambda * size = {t:g} is above the resolution cap {RESOLUTION_CAP:g}"
        )
    return t


def resolution(m: int, band: float) -> tuple[int, int]:
    """(radial nodes, azimuth count) of the m-D ball rule for band =
    lambda r: the fewest nodes whose proved bound, half from the sphere
    rule and half from the radial rule, is at most 1e-14 for a unit
    plane wave at lambda.  For m >= 3 the sphere rule's degree is odd,
    so its angular // 2 polar nodes reach it.  ValueError above
    RESOLUTION_CAP."""
    t = _check_band(band)
    return _gauss_nodes(*_radial_bound(m, t), 0.5 * _BOUND_TARGET), _sphere_bound(m, t)[0] + 1


def _box_resolution(m: int, band: float) -> int:
    """Gauss nodes per axis of the m-D box rule for band = lambda times its
    longest side: the fewest whose bound is at most 1e-14 / m on the
    longest axis, so at most 1e-14 summed over the axes."""
    return _gauss_nodes(*_box_bound(0.5 * _check_band(band)), _BOUND_TARGET / m)


def _evaluation_error(u: SolutionField, center, radius: float, scale: float) -> float:
    """A bound on the error of evaluating u at a rule's points, all within
    radius of center: rounding of the point and of the argument
    k <d, x> + phase (or k |x - c'|), which grows with it, (m + 4) ulp of
    its largest value, and for the radial field a_norm's own error, at
    most 2^-52 b_norm(m-2, t) on its series region (the sum of its
    terms' magnitudes) and a few ulp past it.  scale bounds |u| there."""
    k, m = u.wavenumber, u.dimension
    source = np.asarray(u.params.get("center", np.zeros(m)), dtype=float)
    reach = float(np.linalg.norm(center)) + radius  # the largest |x|
    argument = k * (reach + float(np.linalg.norm(source))) + abs(u.params.get("phase", 0.0))
    err = _EPS * scale * (4.0 + (m + 4) * argument)
    if u.kind == "radial":
        t = k * (float(np.linalg.norm(center - source)) + radius)
        err += _EPS * b_norm(m - 2, min(t, max(_SERIES_CUTOFF, m - 2.0)))
    return err


def _rounding(nodes: int) -> float:
    """Relative rounding of a weighted sum over nodes points, against the
    sum of |w f|: numpy's pairwise sum within each block of 2^16 points,
    the blocks added in turn, the weights' own products and the final
    division."""
    return _EPS * (32 + nodes // _PRODUCT_BLOCK)


# ---------------------------------------------------------------------------
# the rules


@functools.lru_cache(maxsize=256)
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per count
    (Golub-Welsch) and kept read-only."""
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
    """Points of an m-D ball rule, or with radial = 1 of a sphere rule."""
    return radial * math.prod(_sphere_shape(m, angular))


def _sphere_shape(m: int, angular: int) -> tuple[int, ...]:
    """Axes (z_m, ..., z_3, azimuth) of the sphere rule on S^{m-1}."""
    return (max(int(angular) // 2, 4),) * (m - 2) + (int(angular),)


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
    (DifferenceRule) or MONTE_CARLO (SampleRule).  bound(u) is the
    rule's proved bound for a field u, before the rounding of its sum;
    mean(f, bound) takes that bound stated for a bare callable f.
    """

    method: str

    def mean(self, f, bound: float | None = None) -> MeanValueEstimate:
        raise NotImplementedError

    def bound(self, u: SolutionField) -> float:
        raise NotImplementedError


class ProductRule(MeanRule):
    """A ball or box product rule with one level.

    The level is rows x columns, two (nodes, weights) pairs: a ball's
    radial Gauss rule (Jacobian s^{m-1} in its weights) times the sphere
    directions, or a box's Gauss rule on axis 0 times the tensor product
    of its other axes.  place(rows, columns) maps slices of the two to
    their (rows * columns, m) points in row-major order.  Every point
    lies within radius of center.  truncation(k, modified) is the proved
    error bound for a unit plane wave of wavenumber k, and is kept per
    (k, modified) once computed.  The error bar of mean(u) is bound(u)
    plus the rounding of the weighted sum.  A ball's angular is the
    azimuth count of its sphere directions, the columns; a box's is None.
    """

    def __init__(self, method: str, place, level, center, radius: float, truncation,
                 angular: int | None = None):
        self.method, self._place, self.level = method, place, level
        self.center, self.radius = np.asarray(center, dtype=float), float(radius)
        self._truncation, self._truncations = truncation, {}
        self.nodes = math.prod(len(w) for _, w in level)
        self.angular = angular

    def bound(self, u: SolutionField) -> float:
        """The proved bound at u's wavenumber k times u's plane-wave mass
        (1 for a Helmholtz field; e^{k |center - c'|} for the modified
        radial field about c', which grows like I), plus u's evaluation
        error, relative to the largest |u| for a modified field."""
        k, modified = u.wavenumber, u.equation != HELMHOLTZ
        if (k, modified) not in self._truncations:
            self._truncations[k, modified] = self._truncation(k, modified)
        bound, scale = self._truncations[k, modified], 1.0
        if modified:
            gap = float(np.linalg.norm(self.center - np.asarray(u.params["center"])))
            bound *= math.exp(k * gap)
            scale = b_norm(u.dimension - 2, k * (gap + self.radius))  # the largest |u|
        return bound + _evaluation_error(u, self.center, self.radius, scale)

    def mean(self, f, bound: float | None = None) -> MeanValueEstimate:
        if bound is None:
            if not isinstance(f, SolutionField):
                raise TypeError("a product rule needs the error bound of a bare callable")
            bound = self.bound(f)
        value, magnitude = _level_mean(self._place, f, self.level)
        return MeanValueEstimate(value, bound + _rounding(self.nodes) * magnitude,
                                 self.method, self.nodes)


def _level_mean(place, f, level) -> tuple[float, float]:
    """sum(w f) / sum(w) and sum(w |f|) / sum(w) over a rows x columns
    level, w = w_row w_column, in blocks of 2^16 // columns whole rows,
    or one row's columns 2^16 at a time where they hold more, each freed
    once f has read it; w f and w share their blocks, so f = 1 gives
    exactly 1.0."""
    (rows, w_rows), (cols, w_cols) = level
    step = max(_PRODUCT_BLOCK // len(w_cols), 1)  # rows per block
    num = den = mag = 0.0
    for i in range(0, len(w_rows), step):
        for j in range(0, len(w_cols), _PRODUCT_BLOCK):  # one slice unless step is 1
            w = np.multiply.outer(w_rows[i : i + step], w_cols[j : j + _PRODUCT_BLOCK]).reshape(-1)
            wf = w * np.asarray(f(place(rows[i : i + step], cols[j : j + _PRODUCT_BLOCK])),
                                dtype=float)
            num += float(np.sum(wf))
            mag += float(np.sum(np.abs(wf, out=wf)))
            den += float(np.sum(w))
    return num / den, mag / den


class SampleRule(MeanRule):
    """Rejection sampling over the bounding box from one seeded draw.

    The draw is made at the first call that needs it (accepted, volume()
    or mean) and cached: it keeps the inside points, accepted, whose count
    also gives |D|, and drops the rest.  It raises EstimationError when
    the acceptance rate is below 1e-4 (bounding box too loose), so every
    use of the draw fails the same way.  A mean is the sample mean over
    the accepted points with error bar 3 sigma / sqrt(n_accepted), which
    any stated bound leaves as it is, and bound(u) is 0; f is evaluated
    over fixed blocks of 2^18 points, so it must act pointwise, and the
    reductions run over all values at once.
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

    def bound(self, u: SolutionField) -> float:
        return 0.0

    def mean(self, f, bound: float | None = None) -> MeanValueEstimate:
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
    (|a| err_a + |b| err_b) / |a \\ b|, plus a bound stated for the whole
    difference, the terms then adding only their rounding; bound(u)
    combines the terms' bounds the same way.  samples_or_nodes counts the
    terms' nodes.
    """

    method = PRODUCT_DIFFERENCE

    def __init__(self, volume_a: float, rule_a: MeanRule, volume_b: float, rule_b: MeanRule):
        self.volume = volume_a - volume_b
        if not self.volume > 0.0:
            raise ValueError(f"domain volume must be positive, got {self.volume}")
        self.volume_a, self.rule_a, self.volume_b, self.rule_b = volume_a, rule_a, volume_b, rule_b

    def _combine(self, a: float, b: float) -> float:
        return (self.volume_a * a + self.volume_b * b) / self.volume

    def bound(self, u: SolutionField) -> float:
        return self._combine(self.rule_a.bound(u), self.rule_b.bound(u))

    def mean(self, f, bound: float | None = None) -> MeanValueEstimate:
        va, vb = self.volume_a, self.volume_b
        terms = None if bound is None else 0.0
        ea, eb = self.rule_a.mean(f, terms), self.rule_b.mean(f, terms)
        return MeanValueEstimate(
            (va * ea.value - vb * eb.value) / self.volume,
            self._combine(ea.abs_error_estimate, eb.abs_error_estimate) + (bound or 0.0),
            PRODUCT_DIFFERENCE,
            ea.samples_or_nodes + eb.samples_or_nodes,
        )


def _ball_place(center):
    """place for a ball level: center + s * direction, formed as one flat
    outer product plus the center tiled along it."""
    def place(s, dirs):
        pts = np.multiply.outer(s, dirs.reshape(-1))
        pts += np.tile(center, len(dirs))
        return pts.reshape(-1, center.size)
    return place


def _ball_rule(center, r, radial_nodes, angular) -> ProductRule:
    m = center.size
    degree = _sphere_degree(m, angular)

    def truncation(k, modified):
        return (_sphere_bound(m, k * r, degree, modified)[1]
                + _gauss_error(*_radial_bound(m, k * r, modified), radial_nodes))

    s, ws = _gauss(0.0, r, radial_nodes)
    level = [(s, ws * s ** (m - 1)), _sphere_directions(m, angular)]
    return ProductRule(BALL_SPECTRAL, _ball_place(center), level, center, r, truncation, angular)


def _box_rule(low, high, nodes) -> ProductRule:
    lo = np.asarray(low, dtype=float)
    hi = np.asarray(high, dtype=float)
    if lo.shape != hi.shape or lo.ndim != 1 or not np.all(hi > lo):
        raise ValueError("box requires low < high componentwise")
    _require_counts(nodes=nodes)
    n = int(nodes)

    def place(x, cols):
        pts = np.empty((len(x),) + cols.shape)
        pts[:] = cols
        pts[..., 0] = x[:, None]
        return pts.reshape(-1, cols.shape[1])

    def truncation(k, modified):
        tau = 0.5 * k * (hi - lo)
        others = float(np.sum(tau)) - tau if modified else np.zeros_like(tau)
        return sum(_gauss_error(*_box_bound(a, modified, b), n) for a, b in zip(tau, others))

    first, *others = [_gauss(a, b, n) for a, b in zip(lo, hi)]
    # columns: the tensor product of axes 1..m-1, as points whose axis 0
    # (0 here) place fills from the rows; for m = 1 one point of weight 1
    cols = np.stack(np.meshgrid(np.zeros(1), *(x for x, _ in others), indexing="ij"), -1)
    w = functools.reduce(np.multiply.outer, [wx for _, wx in others], np.ones(1))
    level = [first, (cols.reshape(-1, lo.size), w.reshape(-1))]
    return ProductRule(BOX_GAUSS, place, level, 0.5 * (lo + hi),
                       0.5 * float(np.linalg.norm(hi - lo)), truncation)


def mean_rule(d: Domain, lam: float, samples: int = 2_000_000, seed: int = 0) -> MeanRule:
    """The most accurate rule for d's structure at wavenumber lam: a ball
    (m >= 2) or a box, up to translation, gets its product rule, sized by
    resolution(m, lam * radius) or for lam times its longest side, when
    its level holds at most _NODE_BUDGET points; a difference certified
    by geometry.certified_relation gets its terms' product rules, each
    sized from its own size, when both terms have one within
    RESOLUTION_CAP and the budget; any other domain Monte Carlo with
    (samples, seed).  The bounds grow with the wavenumber, so the rule
    serves every field up to lam."""
    rule = _product_rule(d, lam)
    return SampleRule(d, samples, seed) if rule is None else rule


def _product_rule(d: Domain, lam: float, shift=0.0) -> MeanRule | None:
    """The product rule, or signed sum of them, of d shifted by shift;
    None where only sampling serves, or where the level would hold more
    than _NODE_BUDGET points (counted before any node is built).
    ValueError for a ball or box above RESOLUTION_CAP."""
    base, inner = _unwrap(d)
    shift = shift + inner
    m = d.dimension
    if isinstance(base, Ball) and m >= 2:
        radial, angular = resolution(m, lam * base.r)
        if _ball_nodes(m, radial, angular) > _NODE_BUDGET:
            return None
        return _ball_rule(base.center + shift, base.r, radial, angular)
    if isinstance(base, Box):
        nodes = _box_resolution(m, lam * float(np.max(base.high - base.low)))
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


def ball_mean(f, center, r: float, radial_nodes: int = 64, angular_resolution: int = 64,
              bound: float | None = None) -> MeanValueEstimate:
    """Volume mean of f over B_r(center), m >= 2, on the spectral product
    rule with these counts; a bare callable f needs its bound stated."""
    center = np.asarray(center, dtype=float)
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    _require_counts(radial_nodes=radial_nodes, angular=angular_resolution)
    return _ball_rule(center, r, int(radial_nodes), int(angular_resolution)).mean(f, bound)


def box_mean(f, low, high, nodes_per_axis: int = 32,
             bound: float | None = None) -> MeanValueEstimate:
    """Tensor Gauss-Legendre mean of f over an axis-aligned box; a bare
    callable f needs its bound stated."""
    return _box_rule(low, high, nodes_per_axis).mean(f, bound)


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


def surface_flux(grad, center, r: float, angular_resolution: int = 256,
                 directions=None) -> float:
    """Outward flux int_{boundary of B_r(center)} grad . n dS of a vector
    field grad, (n, m) points to (n, m) values (a field's closed-form
    gradient gives the flux of du/dn), on the sphere-direction rule with
    this azimuth count, or on directions, the (directions, weights) a
    ball rule's level already holds.  Circles and spheres only.
    ValueError for m < 2, or for more than _NODE_BUDGET directions.
    """
    center, r = np.asarray(center, dtype=float), float(r)
    m, angular = center.size, int(angular_resolution)
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    if directions is None:
        _require_counts(angular_resolution=angular)
        if _ball_nodes(m, 1, angular) > _NODE_BUDGET:
            raise ValueError(f"surface_flux: {_ball_nodes(m, 1, angular)} directions in m = {m} "
                             f"are above the node budget {_NODE_BUDGET}")
        directions = _sphere_directions(m, angular)
    level = [(np.array([r]), np.ones(1)), directions]
    dn = lambda p: np.einsum("ij,ij->i", np.asarray(grad(p)), p - center) / r
    return m * unit_ball_volume(m) * r ** (m - 1) * _level_mean(_ball_place(center), dn, level)[0]


def surface_flux_error(u: SolutionField, center, r: float, angular_resolution: int = 256) -> float:
    """A proved bound on the error of surface_flux(u.gradient, center, r,
    angular_resolution) for a Helmholtz field u (see _flux_bound)."""
    return _flux_bound(u, center, r, angular_resolution)


def _flux_bound(u: SolutionField, center, r: float, angular: int) -> float:
    """The sphere's area times the rule's bound for the t-derivative of a
    unit plane wave, lambda T'(L, lambda r), plus u's evaluation error and
    the rounding of the sum, each scaled by |grad u . n| <= lambda."""
    center, r, angular = np.asarray(center, dtype=float), float(r), int(angular)
    m, k = center.size, u.wavenumber
    per_area = _sphere_bound(m, k * r, _sphere_degree(m, angular), flux=True)[1]
    per_area += _evaluation_error(u, center, r, 1.0)
    per_area += _rounding(_ball_nodes(m, 1, angular))
    return m * unit_ball_volume(m) * r ** (m - 1) * k * per_area
