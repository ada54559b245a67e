"""Volume means M(f, D), ball/box product rules, seeded Monte Carlo, and
sphere-surface flux integrals of closed-form gradients.

A MeanRule is M(., D) for one domain at one resolution; mean_rule picks
it from the domain's node type and sizes it for the wavenumber lambda.
Build it once and call rule.means(fields): one pass places the nodes,
evaluates every field once and reduces them all, and rule.mean(f) is
its one-field case.  ball_mean, box_mean and mc_mean are one-call
wrappers over a rule.
A difference a \\ b whose subtrahend is certified to lie inside its
minuend gets the signed sum of the two terms' rules,
(|a| M(f, a) - |b| M(f, b)) / |a \\ b|, and one whose subtrahend misses
its minuend gets the minuend's rule.

The spectral ball rule pairs Gauss-Legendre in radius (with the s^{m-1}
Jacobian folded into the weights) with a sphere rule: the periodic
trapezoid rule on the circle for m = 2, and for m >= 3 the meridian
z a + sqrt(1 - z^2) e, z the n Gauss points of _polar_gauss(n, m), for
an integrand symmetric about the line through the ball's center along
a (SolutionField.axis, or axis= for a bare callable) and a unit e
orthogonal to a, chosen from a alone.  Means are computed as
sum(w f) / sum(w), which makes M(1, D) exactly 1.0 and absorbs the
volume normalization.

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

The meridian rule keeps the sphere bound with L = 2n - 1.  On the
sphere c + s theta, e^{i k w.x} = e^{i k w.c} sum_l coef_l C_l(w.theta),
coef_l = Gamma(nu) (t/2)^{-nu} i^l (nu + l) J_{nu+l}(t), t = k s.  A
field symmetric about a equals its average over the rotations R about
a, which takes C_l(w.R theta) to C_l(w.a) C_l(a.theta) / C_l(1)
(Funk-Hecke; DLMF 18.18), so a superposition of unit plane waves of
mass at most 1 has degree-l part beta_l C_l(a.theta) / C_l(1) with
|beta_l| <= |coef_l| C_l(1).  The rule is exact for polynomials in
z = a.theta of degree <= 2n - 1, C_l has mean 0 for l >= 1, and
|C_l(z)| <= C_l(1) with weights summing to 1: the error is at most
sum_{l > 2n-1} |coef_l| C_l(1).  That covers plane waves (a = d), the
radial fields about c' (a along c' - c; with I and e^{k |c - c'|} when
modified) and the flux integrand grad u . n, the s-derivative.

A mean's error bar is that bound at the field's own wavenumber, plus
the field's own evaluation error (for a plane wave about
lambda |x| 2^-52, since cos's error grows with its argument) and the
rounding of the weighted sum.  A bare callable has no known bound: its
caller states one.  A box whose level would hold more than _NODE_BUDGET
points is sampled instead.

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
_MEAN_BLOCK = 1 << 18  # accepted points per field evaluation in a SampleRule mean
_PRODUCT_BLOCK = 1 << 16  # most points per field evaluation in _level_means

# Largest band lambda * size that resolution sizes a product rule for.
RESOLUTION_CAP = 120.0
# Proved bound every product rule is sized to, for a unit plane wave at its lambda.
_BOUND_TARGET = 1e-14
_EPS = 2.0**-52
# Most points a box rule may hold in any dimension; a larger box is sampled.
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


def _check_band(band: float) -> float:
    t = float(band)
    if not t <= RESOLUTION_CAP:
        raise ValueError(
            f"band lambda * size = {t:g} is above the resolution cap {RESOLUTION_CAP:g}"
        )
    return t


def resolution(m: int, band: float) -> tuple[int, int]:
    """(radial nodes, angular count) of the m-D ball rule for band =
    lambda r: the fewest nodes whose proved bound, half from the sphere
    rule and half from the radial rule, is at most 1e-14 for a unit
    plane wave at lambda.  For m >= 3 the sphere rule's degree is odd,
    so its angular // 2 meridian nodes reach it.  ValueError above
    RESOLUTION_CAP."""
    t = _check_band(band)
    return _gauss_nodes(*_radial_bound(m, t), 0.5 * _BOUND_TARGET), _sphere_bound(m, t)[0] + 1


def _box_resolution(m: int, band: float) -> int:
    """Gauss nodes per axis of the m-D box rule for band = lambda times its
    longest side: the fewest whose bound is at most 1e-14 / m on the
    longest axis, so at most 1e-14 summed over the axes."""
    return _gauss_nodes(*_box_bound(0.5 * _check_band(band)), _BOUND_TARGET / m)


def _norm(x: np.ndarray) -> float:
    """float(np.linalg.norm(x)) of a 1-D float array, by the same
    arithmetic, sqrt(x.dot(x)), without its overhead."""
    return math.sqrt(float(x.dot(x)))


def _evaluation_error(u: SolutionField, center, radius: float, scale: float) -> float:
    """A bound on the error of evaluating u at a rule's points, all within
    radius of center: rounding of the point and of the argument
    k <d, x> + phase (or k |x - c'|), which grows with it, (m + 4) ulp of
    its largest value, and for the radial field a_norm's own error, at
    most 2^-52 b_norm(m-2, t) on its series region (the sum of its
    terms' magnitudes) and a few ulp past it.  scale bounds |u| there."""
    k, m = u.wavenumber, u.dimension
    source = np.asarray(u.params.get("center", np.zeros(m)), dtype=float)
    reach = _norm(center) + radius  # the largest |x|
    argument = k * (reach + _norm(source)) + abs(u.params.get("phase", 0.0))
    err = _EPS * scale * (4.0 + (m + 4) * argument)
    if u.kind == "radial":
        t = k * (_norm(center - source) + radius)
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
    """Read-only meridian points (z, sqrt(1 - z^2)) and weights summing to 1
    of the Gauss rule on [-1, 1] for the weight (1 - z^2)^((k-3)/2):
    Legendre for k = 3, else Golub-Welsch on the symmetric Jacobi
    recurrence."""
    if k == 3:
        z, w = _leggauss(nodes)
        w = 0.5 * w
    else:
        a, j = 0.5 * (k - 3), np.arange(1.0, nodes)
        off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a + 1) * (2 * j + 2 * a - 1)))
        z, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        w = v[0] ** 2
    meridian = np.stack([z, np.sqrt(1.0 - z * z)], axis=1)
    meridian.flags.writeable = w.flags.writeable = False
    return meridian, w


def _sphere_rule(m: int, angular: int):
    """(points (k, 2), weights summing to 1, degree) of the sphere rule on
    S^{m-1}: for m = 2 the trapezoid rule's angular directions, exact to
    degree angular - 1; for m >= 3 the n = angular // 2 meridian points
    (z, sqrt(1 - z^2)) of _polar_gauss(n, m), for _basis to orient."""
    if m < 2:
        raise ValueError(f"the sphere rule needs m >= 2, got {m}")
    if m == 2:
        phi = 2.0 * np.pi * np.arange(angular) / angular
        circle = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return circle, np.full(angular, 1.0 / angular), angular - 1
    n = max(int(angular) // 2, 1)
    return _polar_gauss(n, m) + (2 * n - 1,)


def _basis(axis, m: int) -> np.ndarray:
    """The 2 x m matrix (a, e): a = axis / |axis| (scaled by its largest
    entry first, so a tiny axis does not underflow), e the unit part
    orthogonal to a of the first e_k with the smallest |a_k|."""
    a = np.array(axis, dtype=float).reshape(-1)
    big = float(np.max(np.abs(a))) if a.shape == (m,) else 0.0
    if not (math.isfinite(big) and big > 0.0):
        raise ValueError(f"axis must be a finite nonzero vector of length {m}, got {axis!r}")
    a /= big
    a /= _norm(a)
    k = int(np.argmin(np.abs(a)))
    basis = np.empty((2, m))
    basis[0] = a
    e = np.multiply(-a[k], a, basis[1])
    e[k] += 1.0
    e /= _norm(e)
    return basis


def _gauss(a: float, b: float, nodes: int):
    """Gauss-Legendre nodes and weights on (a, b), as fresh arrays."""
    x, w = _leggauss(int(nodes))
    return 0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w


class MeanRule:
    """The volume mean M(., D) of one domain at one resolution.

    M is linear, so its nodes or samples do not depend on the integrand
    (a ball rule's orientation in m >= 3 does): build the rule once and
    call means(fields) for a whole family, which places the rule's nodes
    once, evaluates each field once and reduces them all together.
    mean(f, bound, axis) is its one-field case, for a bare callable f
    too: it takes f's stated bound, and the direction along which f is
    symmetric about each ball's center, which ball rules in m >= 3 need.
    A SampleRule draws nothing before the first call that needs it.
    method is BALL_SPECTRAL or BOX_GAUSS (ProductRule), PRODUCT_DIFFERENCE
    (DifferenceRule) or MONTE_CARLO (SampleRule).  bound(u) is the rule's
    proved bound for a field u, before the rounding of its sum.
    """

    method: str

    def means(self, fields) -> list[MeanValueEstimate]:
        """M(u, D) for every SolutionField u in fields, in one pass."""
        fields = list(fields)
        unstated = [None] * len(fields)
        return self._means(fields, unstated, unstated)

    def mean(self, f, bound: float | None = None, axis=None) -> MeanValueEstimate:
        return self._means([f], [bound], [axis])[0]

    def _means(self, fs, bounds, axes) -> list[MeanValueEstimate]:
        raise NotImplementedError

    def bound(self, u: SolutionField) -> float:
        raise NotImplementedError


class ProductRule(MeanRule):
    """A ball or box product rule with one level.

    The level is rows x columns, two (nodes, weights) pairs: a ball's
    radial Gauss rule (Jacobian s^{m-1} in its weights) times its sphere
    rule, or a box's Gauss rule on axis 0 times the tensor product of
    its other axes.  place(rows, columns) maps slices of the two to
    their (rows * columns, m) points in row-major order.  Every point
    lies within radius of center.  An axial rule, a ball in m >= 3, has
    two-coordinate meridian points (z, sqrt(1 - z^2)) as its columns,
    turned onto each integrand's axis, so its nodes are placed once per
    distinct axis among the fields.  truncation(k, modified) is the
    proved error bound for a unit plane wave of wavenumber k, and is
    kept per (k, modified) once computed.  The error bar of a field's
    mean is bound(u) plus the rounding of the weighted sum.
    """

    def __init__(self, method: str, place, level, center, radius: float, truncation):
        self.method, self._place, self.level = method, place, level
        self.center, self.radius = np.asarray(center, dtype=float), float(radius)
        self._truncation, self._truncations = truncation, {}
        self.nodes = math.prod(len(w) for _, w in level)
        self.axial = level[1][0].shape[1] != self.center.size

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
            gap = _norm(self.center - np.asarray(u.params["center"], dtype=float))
            bound *= math.exp(k * gap)
            scale = b_norm(u.dimension - 2, k * (gap + self.radius))  # the largest |u|
        return bound + _evaluation_error(u, self.center, self.radius, scale)

    def _means(self, fs, bounds, axes) -> list[MeanValueEstimate]:
        bounds = [self._stated(f, b) for f, b in zip(fs, bounds)]
        groups = self._orient(fs, axes) if self.axial else [(self.level[1][0], range(len(fs)))]
        values, magnitudes = _level_means(self._place, fs, self.level, groups)
        rounding = _rounding(self.nodes)
        return [MeanValueEstimate(v, b + rounding * g, self.method, self.nodes)
                for v, g, b in zip(values, magnitudes, bounds)]

    def _stated(self, f, bound):
        """The bound stated for f, or a field's own bound(f)."""
        if bound is not None:
            return bound
        if not isinstance(f, SolutionField):
            raise TypeError("a product rule needs the error bound of a bare callable")
        return self.bound(f)

    def _orient(self, fs, axes):
        """(columns turned onto an axis, the indices of the fields symmetric
        about it) for each distinct axis, in order of first use."""
        turned = {}
        for i, (f, axis) in enumerate(zip(fs, axes)):
            if axis is None and isinstance(f, SolutionField):
                axis = f.axis(self.center)
            if axis is None:
                raise TypeError("a ball rule in m >= 3 needs the symmetry axis of its integrand")
            basis = _basis(axis, self.center.size)
            turned.setdefault(basis.tobytes(), (basis, []))[1].append(i)
        return [(self.level[1][0] @ basis, members) for basis, members in turned.values()]


def _level_means(place, fs, level, groups):
    """sum(w f) / sum(w) and sum(w |f|) / sum(w) for every f in fs over a
    rows x columns level, w = w_row w_column, in blocks of 2^16 // columns
    whole rows, or one row's columns 2^16 at a time where they hold more.
    groups pairs a column set with the indices of the fields that read
    it: each block's points are placed once per group and each field
    evaluated once, its w f written into one row of a (fields x points)
    array whose rows numpy sums pairwise, as it would one field's w f;
    f = 1 gives exactly 1.0."""
    (rows, w_rows), (_, w_cols) = level
    step = max(_PRODUCT_BLOCK // len(w_cols), 1)  # rows per block
    num, mag, den = [0.0] * len(fs), [0.0] * len(fs), 0.0
    for i in range(0, len(w_rows), step):
        for j in range(0, len(w_cols), _PRODUCT_BLOCK):  # one slice unless step is 1
            w = np.multiply.outer(w_rows[i : i + step], w_cols[j : j + _PRODUCT_BLOCK]).reshape(-1)
            wf = np.empty((len(fs), len(w)))
            for cols, members in groups:
                pts = place(rows[i : i + step], cols[j : j + _PRODUCT_BLOCK])
                for n in members:
                    np.multiply(w, fs[n](pts), wf[n])
            num = [a + b for a, b in zip(num, np.add.reduce(wf, 1).tolist())]
            mag = [a + b for a, b in zip(mag, np.add.reduce(np.abs(wf, wf), 1).tolist())]
            den += float(np.add.reduce(w))
    return [a / den for a in num], [a / den for a in mag]


class SampleRule(MeanRule):
    """Rejection sampling over the bounding box from one seeded draw.

    The draw is made at the first call that needs it (accepted, volume()
    or a mean) and cached: it keeps the inside points, accepted, whose
    count also gives |D|, and drops the rest.  It raises EstimationError
    when the acceptance rate is below 1e-4 (bounding box too loose), so
    every use of the draw fails the same way.  A mean is the sample mean
    over the accepted points with error bar 3 sigma / sqrt(n_accepted),
    which any stated bound leaves as it is, and bound(u) is 0; each field
    is evaluated over fixed blocks of 2^18 points, so it must act
    pointwise, and its reductions run over all its values at once.
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

    def _means(self, fs, bounds, axes) -> list[MeanValueEstimate]:
        accepted = self.accepted
        n_acc = len(accepted)
        out = []
        for f in fs:
            vals = np.empty(n_acc)
            for i in range(0, n_acc, _MEAN_BLOCK):
                vals[i : i + _MEAN_BLOCK] = f(accepted[i : i + _MEAN_BLOCK])
            out.append(MeanValueEstimate(
                value=float(np.mean(vals)),
                abs_error_estimate=3.0 * float(np.std(vals)) / math.sqrt(n_acc),
                method=MONTE_CARLO,
                samples_or_nodes=n_acc,
                seed=self.seed,
            ))
        return out


class DifferenceRule(MeanRule):
    """The mean over a \\ b, b inside a, from the terms' rules.

    A mean is (|a| M(f, a) - |b| M(f, b)) / |a \\ b| with
    |a \\ b| = |a| - |b|, so f = 1 gives exactly 1.0, and its error
    estimate is (|a| err_a + |b| err_b) / |a \\ b|, plus a bound stated
    for the whole difference, the terms then adding only their rounding;
    bound(u) combines the terms' bounds the same way.  Each term makes
    one pass over all the fields.  samples_or_nodes counts the terms'
    nodes.
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

    def _means(self, fs, bounds, axes) -> list[MeanValueEstimate]:
        va, vb = self.volume_a, self.volume_b
        terms = [None if b is None else 0.0 for b in bounds]
        pairs = zip(self.rule_a._means(fs, terms, axes), self.rule_b._means(fs, terms, axes))
        return [MeanValueEstimate(
            (va * ea.value - vb * eb.value) / self.volume,
            self._combine(ea.abs_error_estimate, eb.abs_error_estimate) + (bound or 0.0),
            PRODUCT_DIFFERENCE,
            ea.samples_or_nodes + eb.samples_or_nodes,
        ) for (ea, eb), bound in zip(pairs, bounds)]


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
    cols, w_cols, degree = _sphere_rule(m, angular)

    def truncation(k, modified):
        return (_sphere_bound(m, k * r, degree, modified)[1]
                + _gauss_error(*_radial_bound(m, k * r, modified), radial_nodes))

    s, ws = _gauss(0.0, r, radial_nodes)
    level = [(s, ws * s ** (m - 1)), (cols, w_cols)]
    return ProductRule(BALL_SPECTRAL, _ball_place(center), level, center, r, truncation)


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
    resolution(m, lam * radius) or for lam times its longest side, a box
    when its level holds at most _NODE_BUDGET points; a difference
    certified by geometry.certified_relation gets its terms' product
    rules, each sized from its own size, when both terms have one within
    RESOLUTION_CAP and the budget; any other domain Monte Carlo with
    (samples, seed), if lam times its bounding box's half-diagonal is
    within RESOLUTION_CAP (ValueError above it).  The bounds grow with the
    wavenumber, so the rule serves every field up to lam."""
    rule = _product_rule(d, lam)
    if rule is None:
        lo, hi = d.bounding_box
        _check_band(lam * 0.5 * float(np.linalg.norm(hi - lo)))
        rule = SampleRule(d, samples, seed)
    return rule


def _product_rule(d: Domain, lam: float, shift=0.0) -> MeanRule | None:
    """The product rule, or signed sum of them, of d shifted by shift;
    None where only sampling serves, or where a box's level would hold
    more than _NODE_BUDGET points (counted before any node is built).
    ValueError for a ball or box above RESOLUTION_CAP."""
    base, inner = _unwrap(d)
    shift = shift + inner
    m = d.dimension
    if isinstance(base, Ball) and m >= 2:
        return _ball_rule(base.center + shift, base.r, *resolution(m, lam * base.r))
    if isinstance(base, Box):
        nodes = _box_resolution(m, lam * float(np.max(base.high - base.low)))
        if nodes**m > _NODE_BUDGET:
            return None
        return _box_rule(base.low + shift, base.high + shift, nodes)
    relation = base.relation if isinstance(base, Difference) else None
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
              bound: float | None = None, axis=None) -> MeanValueEstimate:
    """Volume mean of f over B_r(center), m >= 2, on the spectral product
    rule with these counts; a bare callable f needs its bound stated, and
    in m >= 3 its symmetry axis through center."""
    center = np.asarray(center, dtype=float)
    r = float(r)
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    _require_counts(radial_nodes=radial_nodes, angular=angular_resolution)
    return _ball_rule(center, r, int(radial_nodes), int(angular_resolution)).mean(f, bound, axis)


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


def surface_flux(grad, center, r: float, angular_resolution: int = 256, axis=None) -> float:
    """Outward flux int_{boundary of B_r(center)} grad . n dS of a vector
    field grad, (n, m) points to (n, m) values (a field's closed-form
    gradient gives the flux of du/dn), on the sphere rule with this
    angular count: for m >= 3 its meridian turned onto axis, a direction
    along which grad . n is symmetric about center (u.axis(center) for a
    field u).  Circles and spheres only.  ValueError for m < 2, TypeError
    for m >= 3 without an axis.
    """
    center, r = np.asarray(center, dtype=float), float(r)
    m, angular = center.size, int(angular_resolution)
    if r <= 0.0:
        raise ValueError(f"ball radius must be > 0, got {r}")
    _require_counts(angular_resolution=angular)
    cols, w, _ = _sphere_rule(m, angular)
    level = [(np.array([r]), np.ones(1)), (cols, w)]
    sphere = ProductRule(BALL_SPECTRAL, _ball_place(center), level, center, r, None)
    dn = lambda p: np.einsum("ij,ij->i", np.asarray(grad(p)), p - center) / r
    return m * unit_ball_volume(m) * r ** (m - 1) * sphere.mean(dn, 0.0, axis).value


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
    _, w, degree = _sphere_rule(m, angular)
    per_area = _sphere_bound(m, k * r, degree, flux=True)[1]
    per_area += _evaluation_error(u, center, r, 1.0)
    per_area += _rounding(len(w))
    return m * unit_ball_volume(m) * r ** (m - 1) * k * per_area
