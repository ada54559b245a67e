"""Exact solution generators for the two equations in play.

Helmholtz (laplacian u + lambda^2 u = 0): plane waves, the radial field
a_norm(m-2, lambda|x - c|), and the square-membrane eigenfunctions.
Modified Helmholtz (laplacian u - mu^2 u = 0): the monotone radial field
b_norm(m-2, mu|x - c|).

Every generator returns a SolutionField that evaluates on single points
or (n, m) batches and is an entire function of R^m, so it satisfies its
equation on any dilated copy of a bounded domain without clipping; its
gradient maps (n, m) points to (n, m) values in closed form.
helmholtz_residual provides the finite-difference self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import _require_keys
from .specfun import a_norm, b_norm

HELMHOLTZ = "helmholtz"
MODIFIED_HELMHOLTZ = "modified_helmholtz"

__all__ = [
    "SolutionField",
    "plane_wave",
    "radial_solution",
    "modified_radial_solution",
    "membrane_eigenfunction",
    "helmholtz_residual",
    "solution_to_json",
    "solution_from_json",
    "HELMHOLTZ",
    "MODIFIED_HELMHOLTZ",
]


@dataclass(frozen=True, eq=False)
class SolutionField:
    dimension: int
    wavenumber: float
    equation: str  # HELMHOLTZ or MODIFIED_HELMHOLTZ
    evaluate: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]  # (n, m) points -> (n, m)
    kind: str
    params: dict = field(default_factory=dict)

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != self.dimension:
            raise ValueError(
                f"field is {self.dimension}-d, points are {pts.shape[-1]}-d"
            )
        out = self.evaluate(pts)
        return float(out[0]) if single else out

    def axis(self, center) -> np.ndarray | None:
        """A direction a such that every rotation about the line through
        center along a leaves u unchanged: a plane wave's d, a radial
        field's c' - center (e1 where they coincide), or None (a membrane
        mode, in m = 2, where no ball rule needs an axis)."""
        if "direction" in self.params:
            return np.asarray(self.params["direction"], dtype=float)
        if "center" in self.params:
            a = np.asarray(self.params["center"], dtype=float) - center
            return a if np.any(a) else np.eye(self.dimension)[0]
        return None


def _check_wavenumber(k: float, name: str) -> float:
    k = float(k)
    if not math.isfinite(k) or k <= 0.0:
        raise ValueError(f"{name} must be positive, got {k}")
    return k


def plane_wave(m: int, lam: float, direction, phase: float = 0.0) -> SolutionField:
    """u(x) = cos(lam <d, x> + phase) for a unit vector d."""
    lam = _check_wavenumber(lam, "lambda")
    d = np.asarray(direction, dtype=float)
    if d.shape != (m,):
        raise ValueError(f"direction must have shape ({m},), got {d.shape}")
    if abs(float(d @ d) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector (|d| = 1 within 1e-12)")
    phase = float(phase)

    def evaluate(pts):
        arg = pts @ d
        arg *= lam
        arg += phase
        return np.cos(arg, out=arg)

    def gradient(pts):
        return -lam * np.sin(lam * (pts @ d) + phase)[:, None] * d

    return SolutionField(
        dimension=m,
        wavenumber=lam,
        equation=HELMHOLTZ,
        evaluate=evaluate,
        gradient=gradient,
        kind="plane_wave",
        params={"lambda": lam, "direction": [float(v) for v in d], "phase": phase},
    )


def radial_solution(m: int, lam: float, center) -> SolutionField:
    """U(x) = a_norm(m-2, lam |x - center|); U(center) = 1.

    Solves the Helmholtz equation on all of R^m; decreasing while
    lam |x - center| stays below the first zero of J_{m/2}.  Its gradient
    is -(lam^2 / m) a_norm(m, lam rho) (x - center), since
    d/dt a_norm(m-2, t) = -(t / m) a_norm(m, t) (DLMF 10.6).
    """
    lam = _check_wavenumber(lam, "lambda")
    return _radial_field(m, lam, center, a_norm, -1.0, HELMHOLTZ, "radial", "lambda")


def modified_radial_solution(m: int, mu: float, center) -> SolutionField:
    """u(x) = b_norm(m-2, mu |x - center|): positive, radially increasing,
    solves the modified equation on all of R^m.  Its gradient is
    +(mu^2 / m) b_norm(m, mu rho) (x - center)."""
    mu = _check_wavenumber(mu, "mu")
    return _radial_field(m, mu, center, b_norm, 1.0, MODIFIED_HELMHOLTZ, "modified_radial", "mu")


def _radial_field(m, k, center, kernel, sign, equation, kind, name) -> SolutionField:
    """kernel(m-2, k rho), rho = |x - center|, with gradient
    sign (k^2 / m) kernel(m, k rho) (x - center)."""
    c = np.asarray(center, dtype=float)
    if c.shape != (m,):
        raise ValueError(f"center must have shape ({m},), got {c.shape}")
    if m < 2:
        raise ValueError(f"dimension must be >= 2, got {m}")

    def offsets(pts):
        d = pts - c
        return d, np.sqrt(np.einsum("ij,ij->i", d, d))

    def evaluate(pts):
        return kernel(m - 2, k * offsets(pts)[1])

    def gradient(pts):
        d, rho = offsets(pts)
        return (sign * k * k / m) * kernel(m, k * rho)[:, None] * d

    return SolutionField(
        dimension=m,
        wavenumber=k,
        equation=equation,
        evaluate=evaluate,
        gradient=gradient,
        kind=kind,
        params={name: k, "center": [float(v) for v in c]},
    )


def _sinpi(y: np.ndarray) -> np.ndarray:
    # sin(pi*y) with exact zeros at integer y; plain sin(pi*y) would
    # leave ~1e-16 residue exactly where the membrane modes must vanish.
    n = np.round(y)
    r = y - n
    sign = 1.0 - 2.0 * (np.asarray(n, dtype=np.int64) & 1)
    return sign * np.sin(np.pi * r)


def membrane_eigenfunction(i: int, j: int, a: float = 1.0) -> SolutionField:
    """Dirichlet eigenfunction sin(i pi x1 / a) sin(j pi x2 / a) of the
    square (0, a)^2, with wavenumber (pi / a) sqrt(i^2 + j^2)."""
    i, j = int(i), int(j)
    if i < 1 or j < 1:
        raise ValueError(f"mode indices must be >= 1, got ({i}, {j})")
    a = float(a)
    if a <= 0.0:
        raise ValueError(f"side length must be > 0, got {a}")
    lam = (np.pi / a) * np.sqrt(float(i * i + j * j))

    def evaluate(pts):
        return _sinpi(i * pts[:, 0] / a) * _sinpi(j * pts[:, 1] / a)

    def gradient(pts):
        x, y = i * pts[:, 0] / a, j * pts[:, 1] / a
        return (np.pi / a) * np.stack([i * np.cos(np.pi * x) * _sinpi(y),
                                       j * _sinpi(x) * np.cos(np.pi * y)], axis=1)

    return SolutionField(
        dimension=2,
        wavenumber=float(lam),
        equation=HELMHOLTZ,
        evaluate=evaluate,
        gradient=gradient,
        kind="membrane",
        params={"i": i, "j": j, "a": a},
    )


def helmholtz_residual(u: SolutionField, x, h: float = 1e-4) -> float:
    """Second-difference check of the field's PDE at a point.

    Returns laplacian(u) + k^2 u (Helmholtz) or laplacian(u) - k^2 u
    (modified); O(h^2) small for exact solutions.
    """
    if h <= 0.0:
        raise ValueError(f"step must be > 0, got {h}")
    x = np.asarray(x, dtype=float)
    m = u.dimension
    if x.shape != (m,):
        raise ValueError(f"point must have shape ({m},), got {x.shape}")
    pts = np.tile(x, (2 * m + 1, 1))
    for i in range(m):
        pts[2 * i, i] += h
        pts[2 * i + 1, i] -= h
    vals = u(pts)
    center = vals[-1]
    lap = (np.sum(vals[:-1]) - 2.0 * m * center) / (h * h)
    sign = 1.0 if u.equation == HELMHOLTZ else -1.0
    return float(lap + sign * u.wavenumber**2 * center)


def solution_to_json(u: SolutionField) -> dict:
    return {"kind": u.kind, **u.params}


def solution_from_json(obj: dict) -> SolutionField:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("solution description must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "plane_wave":
        _require_keys(obj, {"kind", "lambda", "direction", "phase"}, "solution")
        d = np.asarray(obj["direction"], dtype=float)
        return plane_wave(d.size, obj["lambda"], d, obj["phase"])
    if kind == "radial":
        _require_keys(obj, {"kind", "lambda", "center"}, "solution")
        c = np.asarray(obj["center"], dtype=float)
        return radial_solution(c.size, obj["lambda"], c)
    if kind == "modified_radial":
        _require_keys(obj, {"kind", "mu", "center"}, "solution")
        c = np.asarray(obj["center"], dtype=float)
        return modified_radial_solution(c.size, obj["mu"], c)
    if kind == "membrane":
        _require_keys(obj, {"kind", "i", "j", "a"}, "solution")
        return membrane_eigenfunction(obj["i"], obj["j"], obj["a"])
    raise ValueError(f"unknown solution kind: {kind!r}")
