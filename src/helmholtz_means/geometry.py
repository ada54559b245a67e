"""Implicit bounded regions of R^m as a small tree of frozen nodes.

A Domain is one of Ball, Box, Difference, Translate or CustomDomain.
Each node owns its indicator, bounding box, analytic volume (None when
only sampling can give it), kind string, exact enclosing radius about a
point (None where only sampling can answer), an upper bound on that
radius (None for custom domains) and its JSON description.
Boundaries are measure zero and may be classified either way.  A
difference whose subtrahend is certified to lie inside its minuend or
to miss it (certified_relation) has the exact volume |a| - |b| or |a|;
any other composite volume is estimated by seeded Monte Carlo.  The JSON
grammar mirrors the constructors:

    {"kind": "ball", "center": [...], "r": ...}
    {"kind": "box", "low": [...], "high": [...]}
    {"kind": "difference", "a": {...}, "b": {...}}
    {"kind": "translate", "of": {...}, "by": [...]}

Custom domains, and any tree that contains one, have no description.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .specfun import gamma_fn

__all__ = [
    "Domain",
    "Ball",
    "Box",
    "Difference",
    "Translate",
    "CustomDomain",
    "EstimationError",
    "DISJOINT",
    "INSIDE",
    "certified_relation",
    "ball",
    "box",
    "difference",
    "translate",
    "custom_domain",
    "unit_ball_volume",
    "volume",
    "equivalent_radius",
    "circumradius_about",
    "exact_circumradius",
    "domain_to_json",
    "domain_from_json",
]


class EstimationError(RuntimeError):
    """A sampling-based estimate could not be formed."""


DISJOINT = "disjoint"  # b misses a
INSIDE = "inside"  # b lies in a


def _vec(x, m: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a coordinate vector, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError("coordinates must be finite")
    if m is not None and v.size != m:
        raise ValueError(f"dimension mismatch: expected {m}, got {v.size}")
    return v


def _norm(x: np.ndarray) -> float:
    """float(np.linalg.norm(x)) of a 1-D float array, by the same
    arithmetic, sqrt(x.dot(x)), without its overhead."""
    return math.sqrt(float(x.dot(x)))


class Domain:
    """Bounded implicit region of R^m: one node of the domain tree.

    indicator maps an (n, m) array of points to an (n,) boolean array; it
    is False everywhere outside bounding_box = (low, high).
    circumradius(x0) is the exact sup of |y - x0| over the closure, or
    None where only sampling can answer; circumradius_upper(x0) bounds
    it from above, or is None; analytic_volume is None where unknown,
    and a node computes it once, at first use.
    """

    analytic_volume = None

    @functools.cached_property
    def dimension(self) -> int:
        return self.bounding_box[0].size

    @property
    def description(self) -> dict | None:
        """The kind plus each field, subtrees nested; None if a subtree has none."""
        obj = {"kind": self.kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, Domain):
                v = v.description
                if v is None:
                    return None
            obj[f.name] = [float(x) for x in v] if isinstance(v, np.ndarray) else v
        return obj

    def circumradius(self, x0) -> float | None:
        return None

    def circumradius_upper(self, x0) -> float | None:
        return self.circumradius(x0)

    def contains(self, points) -> np.ndarray | bool:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.dimension:
            raise ValueError(
                f"dimension mismatch: domain is {self.dimension}-d, points are {pts.shape[-1]}-d"
            )
        inside = np.asarray(self.indicator(pts), dtype=bool)
        return bool(inside[0]) if single else inside


@dataclass(frozen=True, eq=False)
class Ball(Domain):
    """Open ball of radius r about center."""

    center: np.ndarray
    r: float
    kind = "ball"

    def indicator(self, pts):
        d = pts - self.center
        return np.einsum("ij,ij->i", d, d) < self.r * self.r

    @property
    def bounding_box(self):
        return self.center - self.r, self.center + self.r

    @functools.cached_property
    def analytic_volume(self) -> float:
        return unit_ball_volume(self.center.size) * self.r**self.center.size

    def circumradius(self, x0) -> float:
        return _norm(self.center - x0) + self.r


@dataclass(frozen=True, eq=False)
class Box(Domain):
    """Open axis-aligned box low < x < high."""

    low: np.ndarray
    high: np.ndarray
    kind = "box"

    def indicator(self, pts):
        return np.all((pts > self.low) & (pts < self.high), axis=1)

    @property
    def bounding_box(self):
        return self.low, self.high

    @functools.cached_property
    def analytic_volume(self) -> float:
        return float(np.prod(self.high - self.low))

    def circumradius(self, x0) -> float:
        corners = np.maximum(np.abs(self.low - x0), np.abs(self.high - x0))
        return _norm(corners)


@dataclass(frozen=True, eq=False)
class Difference(Domain):
    """Set difference a \\ b, boxed by a.  Its volume is |a| when b
    misses a, |a| - |b| when b lies inside a (both as certified_relation
    certifies them, both volumes analytic), and unknown otherwise; the
    relation, like the volume, is computed once, at first use."""

    a: Domain
    b: Domain
    kind = "difference"

    def indicator(self, pts):
        return self.a.indicator(pts) & ~self.b.indicator(pts)

    @property
    def bounding_box(self):
        return self.a.bounding_box

    @functools.cached_property
    def relation(self) -> str | None:
        """certified_relation(a, b), computed once."""
        return certified_relation(self.a, self.b)

    @functools.cached_property
    def analytic_volume(self) -> float | None:
        va, vb = self.a.analytic_volume, self.b.analytic_volume
        if self.relation == DISJOINT:
            return va
        if self.relation == INSIDE and va is not None and vb is not None:
            return va - vb
        return None

    def circumradius(self, x0) -> float | None:
        # closure(a \ b) = closure(a) when b misses a or closure(b) lies
        # in the open a; a shared face can take a's farthest points away
        if certified_relation(self.a, self.b, strict=True) is None:
            return None
        return self.a.circumradius(x0)

    def circumradius_upper(self, x0) -> float | None:
        return self.a.circumradius_upper(x0)  # a \ b lies inside a


@dataclass(frozen=True, eq=False)
class Translate(Domain):
    """The domain `of` shifted by the vector `by`."""

    of: Domain
    by: np.ndarray
    kind = "translate"

    def indicator(self, pts):
        return self.of.indicator(pts - self.by)

    @property
    def bounding_box(self):
        lo, hi = self.of.bounding_box
        return lo + self.by, hi + self.by

    @property
    def analytic_volume(self) -> float | None:
        return self.of.analytic_volume

    def circumradius(self, x0) -> float | None:
        return self.of.circumradius(x0 - self.by)

    def circumradius_upper(self, x0) -> float | None:
        return self.of.circumradius_upper(x0 - self.by)


@dataclass(frozen=True, eq=False)
class CustomDomain(Domain):
    """A user-supplied indicator on a bounding box; not serialisable."""

    indicator: Callable[[np.ndarray], np.ndarray]
    bounding_box: tuple[np.ndarray, np.ndarray]
    analytic_volume: float | None = None
    kind = "custom"
    description = None


def _unwrap(d: Domain) -> tuple[Domain, np.ndarray | float]:
    """The node under d's Translate layers and their summed shift (0.0 if none)."""
    shift = 0.0
    while isinstance(d, Translate):
        shift = shift + d.by
        d = d.of
    return d, shift


def certified_relation(a: Domain, b: Domain, strict: bool = False) -> str | None:
    """How b lies relative to a, when the nodes' bounds certify it.

    DISJOINT: the bounding boxes do not overlap, or a and b are balls
    (up to translation) with |c_a - c_b| >= r_a + r_b.  INSIDE: a is a
    box (up to translation) that contains b's bounding box, or a ball
    with b.circumradius_upper(c_a) <= r_a; with strict=True these
    comparisons are strict, so the closure of b lies in the open a.
    None when neither is certified.
    """
    (lo_a, hi_a), (lo_b, hi_b) = a.bounding_box, b.bounding_box
    if (hi_a <= lo_b).any() or (hi_b <= lo_a).any():
        return DISJOINT
    within = np.less if strict else np.less_equal
    base, shift = _unwrap(a)
    if isinstance(base, Box):
        return INSIDE if within(lo_a, lo_b).all() and within(hi_b, hi_a).all() else None
    if isinstance(base, Ball):
        center = base.center + shift
        b_base, b_shift = _unwrap(b)
        if (isinstance(b_base, Ball)
                and _norm(b_base.center + b_shift - center) >= base.r + b_base.r):
            return DISJOINT
        upper = b.circumradius_upper(center)
        return INSIDE if upper is not None and within(upper, base.r) else None
    return None


def unit_ball_volume(m: int) -> float:
    """Volume of the unit ball, 2 pi^{m/2} / (m Gamma(m/2))."""
    if m < 1:
        raise ValueError(f"dimension must be >= 1, got {m}")
    return 2.0 * math.pi ** (0.5 * m) / (m * gamma_fn(0.5 * m))


def ball(center, r: float) -> Ball:
    """Open ball of radius r; analytic volume unit_ball_volume(m) * r^m."""
    c = _vec(center)
    r = float(r)
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"ball radius must be finite and > 0, got {r}")
    return Ball(c, r)


def box(low, high) -> Box:
    """Open axis-aligned box with low < high componentwise."""
    lo = _vec(low)
    hi = _vec(high, lo.size)
    if not (hi > lo).all():
        raise ValueError("box requires low < high componentwise")
    return Box(lo.copy(), hi.copy())


def difference(a: Domain, b: Domain) -> Difference:
    """Set difference a \\ b; its volume is exact where certified_relation
    certifies how b lies, else estimated on demand."""
    if a.dimension != b.dimension:
        raise ValueError(f"dimension mismatch: {a.dimension} vs {b.dimension}")
    return Difference(a, b)


def translate(d: Domain, by) -> Translate:
    return Translate(d, _vec(by, d.dimension))


def custom_domain(dimension, indicator, bounding_box, analytic_volume=None) -> CustomDomain:
    lo = _vec(bounding_box[0], dimension)
    hi = _vec(bounding_box[1], dimension)
    if not (hi > lo).all():
        raise ValueError("bounding box must be nondegenerate")
    return CustomDomain(indicator, (lo, hi), analytic_volume)


def _require_counts(**counts):
    """ValueError unless every count given (samples, node counts) is >= 1."""
    for name, n in counts.items():
        if int(n) < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")


def _draw(d: Domain, samples: int, seed: int):
    """Seeded uniform points over d's bounding box and their indicator.
    A longer draw at the same seed extends the same stream."""
    _require_counts(samples=samples)
    lo, hi = d.bounding_box
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(int(samples), d.dimension))
    return pts, d.indicator(pts)


def _hit_volume(d: Domain, hits: int, samples: int) -> tuple[float, float]:
    """(volume, 3-sigma error bar) from hits inside points of a _draw of samples."""
    lo, hi = d.bounding_box
    vbox = float(np.prod(hi - lo))
    p = hits / samples
    err3 = 3.0 * vbox * math.sqrt(max(p * (1.0 - p), 0.0) / samples)
    return vbox * p, err3


def volume(d: Domain, samples: int = 2_000_000, seed: int = 0) -> tuple[float, float]:
    """(volume, error bar): analytic when available, else seeded Monte
    Carlo over the bounding box with a 3-sigma error bar."""
    if d.analytic_volume is not None:
        return float(d.analytic_volume), 0.0
    hits = _draw(d, samples, seed)[1]
    return _hit_volume(d, int(np.count_nonzero(hits)), hits.size)


def _radius_of_volume(v: float, m: int) -> float:
    """Radius r with |B_r| = v in R^m."""
    if v <= 0.0:
        raise ValueError(f"domain volume must be positive, got {v}")
    return (v / unit_ball_volume(m)) ** (1.0 / m)


def equivalent_radius(d: Domain, samples: int = 2_000_000, seed: int = 0) -> float:
    """Radius r with |B_r| = |D|, i.e. (|D| / omega_m)^(1/m)."""
    return _radius_of_volume(volume(d, samples=samples, seed=seed)[0], d.dimension)


def circumradius_about(points, x0) -> float:
    """Largest |y - x0| over given inside points, such as a SampleRule's
    accepted points: the sampled enclosing radius, which converges to the
    exact one from below as the draw grows."""
    dist = points - np.asarray(x0, dtype=float)
    return math.sqrt(float(np.max(np.einsum("ij,ij->i", dist, dist))))


def exact_circumradius(d: Domain, x0) -> float | None:
    """Exact sup of |y - x0| over the closure of a ball, a box, a
    difference whose subtrahend misses its minuend or lies strictly
    inside it, or a translate of one; None when only sampling can answer."""
    return d.circumradius(_vec(x0, d.dimension))


def domain_to_json(d: Domain) -> dict:
    if d.description is None:
        raise ValueError(f"domain of kind {d.kind!r} has no JSON description")
    return d.description


def _require_keys(obj: dict, keys: set[str], what: str = "domain"):
    extra = set(obj) - keys
    if extra:
        raise ValueError(f"unknown fields in {what} description: {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise ValueError(f"missing fields in {what} description: {sorted(missing)}")


def domain_from_json(obj: dict) -> Domain:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("domain description must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "ball":
        _require_keys(obj, {"kind", "center", "r"})
        return ball(obj["center"], obj["r"])
    if kind == "box":
        _require_keys(obj, {"kind", "low", "high"})
        return box(obj["low"], obj["high"])
    if kind == "difference":
        _require_keys(obj, {"kind", "a", "b"})
        return difference(domain_from_json(obj["a"]), domain_from_json(obj["b"]))
    if kind == "translate":
        _require_keys(obj, {"kind", "of", "by"})
        return translate(domain_from_json(obj["of"]), obj["by"])
    raise ValueError(f"unknown domain kind: {kind!r}")
