"""Bessel functions of real order and the normalized mean-value kernels.

Everything in this module is self-contained (numpy only).  Evaluation
strategy for J_nu and I_nu:

* ascending power series for t <= max(12, 2*nu), in Horner form with a
  term count fixed from the largest t (the last term ratio <= 1e-20),
* beyond that, Miller-style downward recurrence with a normalizing sum
  (integer orders) or exact trigonometric / hyperbolic seed values
  (half-integer orders).

The normalized kernels are

    a_norm(m, t) = Gamma(m/2 + 1) * J_{m/2}(t) / (t/2)^{m/2}
    b_norm(m, t) = Gamma(m/2 + 1) * I_{m/2}(t) / (t/2)^{m/2}

with the removable singularity at t = 0 handled by their even power
series, so a_norm(m, 0) == b_norm(m, 0) == 1.0 exactly.  a_norm is the
ratio between a Helmholtz solution's value at a ball's center and its
volume mean over that ball; b_norm is the analogous monotone kernel for
the modified equation.

All functions accept scalar or ndarray arguments for t and are pure;
there is no shared mutable state.
"""

from __future__ import annotations

import math

import numpy as np

# Power-series term-ratio stop, its term cap and the series/recurrence switch point.
SERIES_RTOL = 1e-16
_SERIES_MAX_TERMS = 399
_SERIES_BLOCK = 32768
_SERIES_CUTOFF = 12.0
# exp(t) must stay finite with headroom for the normalizing sums.
BESSEL_I_MAX_T = 300.0
# Rescale unnormalized recurrence values above this magnitude.
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250

__all__ = [
    "gamma_fn",
    "bessel_j",
    "bessel_i",
    "a_norm",
    "b_norm",
    "bessel_zero",
    "BESSEL_I_MAX_T",
]


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0.

    Half-integer arguments (the only ones the kernels need) are computed
    by exact recurrence from Gamma(1/2) = sqrt(pi) and Gamma(1) = 1, so
    they carry only a few ulp of rounding.  Other positive arguments
    fall back to math.gamma.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    two_x = 2.0 * x
    k = round(two_x)
    if k >= 1 and abs(two_x - k) <= 1e-12 * max(1.0, two_x):
        if k % 2 == 0:
            val = 1.0  # Gamma(1)
            n = k // 2
            for j in range(1, n):
                val *= float(j)
        else:
            val = math.sqrt(math.pi)  # Gamma(1/2)
            for j in range((k - 1) // 2):
                val *= j + 0.5
        if math.isinf(val):
            raise OverflowError(f"gamma_fn overflows at x = {x}")
        return val
    return math.gamma(x)


def _as_t_array(t, name: str):
    t = np.asarray(t, dtype=float)
    if np.any(~np.isfinite(t)) or np.any(t < 0.0):
        raise ValueError(f"{name} requires finite t >= 0")
    return t


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be finite and >= 0, got {nu}")
    return nu


def _ascending_series(t: np.ndarray, nu: float, sign: float) -> np.ndarray:
    """Sum over k >= 0 of prod_{j<=k} sign (t/2)^2 / (j (j + nu)), the
    ascending series divided by its first term.

    The term count is fixed once, from the largest (t/2)^2: the first k
    whose term ratio there is at most SERIES_RTOL * 1e-4, capped at 399.
    The sum is then evaluated in nested Horner form,
    1 + c_1 q (1 + c_2 q (1 + ...)), with in-place multiply-adds over
    cache-sized blocks of points.
    """
    q = 0.25 * t * t
    q_max = float(np.max(q))
    n, ratio = 0, 1.0
    while n < _SERIES_MAX_TERMS and ratio > SERIES_RTOL * 1e-4:
        n += 1
        ratio *= q_max / (n * (n + nu))
    coeffs = [sign / (k * (k + nu)) for k in range(n, 0, -1)]
    total = np.ones_like(q)
    for i in range(0, q.size, _SERIES_BLOCK):  # blocks stay in cache across the terms
        qb, tb = q[i : i + _SERIES_BLOCK], total[i : i + _SERIES_BLOCK]
        for c in coeffs:
            tb *= qb
            tb *= c
            tb += 1.0
    return total


def _series_bessel(nu: float, t: np.ndarray, sign: float) -> np.ndarray:
    """Ascending series of J_nu (sign=-1) or I_nu (sign=+1)."""
    return (0.5 * t) ** nu / gamma_fn(nu + 1.0) * _ascending_series(t, nu, sign)


def _bessel_j_half_upward(l: int, t: np.ndarray) -> np.ndarray:
    """J_{l+1/2}(t) from exact J_{+-1/2} by upward recurrence.

    Stable here because the recurrence only runs while order < t (this
    path is used for t > max(12, 2*nu)).
    """
    c = np.sqrt(2.0 / (np.pi * t))
    prev = c * np.cos(t)  # J_{-1/2}
    cur = c * np.sin(t)  # J_{1/2}
    nu = 0.5
    for _ in range(l):
        prev, cur = cur, (2.0 * nu / t) * cur - prev
        nu += 1.0
    return cur


def _bessel_j_int_miller(n: int, t: np.ndarray) -> np.ndarray:
    """J_n(t) by downward recurrence, normalized by J_0 + 2*sum J_{2k} = 1."""
    start = int(1.2 * float(np.max(t))) + 40
    if start % 2:
        start += 1
    above = np.zeros_like(t)  # unnormalized J at order k+1
    cur = np.full_like(t, 1e-30)  # unnormalized J at order k
    norm = np.zeros_like(t)
    target = np.zeros_like(t)
    for k in range(start, 0, -1):
        above, cur = cur, (2.0 * k / t) * cur - above
        order = k - 1
        if order == n:
            target = cur.copy()
        if order > 0 and order % 2 == 0:
            norm += 2.0 * cur
        big = np.abs(cur) > _RESCALE_AT
        if np.any(big):
            for arr in (above, cur, norm, target):
                arr[big] *= _RESCALE_BY
    norm += cur  # adds unnormalized J_0
    return target / norm


def _bessel_i_miller(nu: float, t: np.ndarray) -> np.ndarray:
    """I_nu(t) by downward recurrence for integer or half-integer nu."""
    half = round(2.0 * nu) % 2 == 1
    base = 0.5 if half else 0.0
    steps = int(nu - base) + int(1.2 * float(np.max(t))) + 40
    top = base + steps
    above = np.zeros_like(t)
    cur = np.full_like(t, 1e-30)
    norm = np.zeros_like(t)
    target = np.zeros_like(t)
    order = top
    for _ in range(steps):
        above, cur = cur, above + (2.0 * order / t) * cur
        order -= 1.0
        if order == nu:
            target = cur.copy()
        if not half and order >= 1.0:
            norm += 2.0 * cur
        big = np.abs(cur) > _RESCALE_AT
        if np.any(big):
            for arr in (above, cur, norm, target):
                arr[big] *= _RESCALE_BY
    if half:
        # cur is the unnormalized I_{1/2}; pin it to the exact value.
        exact = np.sqrt(2.0 / (np.pi * t)) * np.sinh(t)
        return target * (exact / cur)
    norm += cur  # adds unnormalized I_0; e^t = I_0 + 2*sum_{k>=1} I_k
    return target * (np.exp(t) / norm)


def _half_integer_split(nu: float):
    """Return (is_supported, is_half, l) for the large-t recurrence paths."""
    two_nu = 2.0 * nu
    k = round(two_nu)
    if abs(two_nu - k) > 1e-9:
        return False, False, 0
    return True, k % 2 == 1, (k - 1) // 2


def _dispatch_bessel(nu: float, t, kind: str):
    nu = _check_order(nu)
    tt = _as_t_array(t, f"bessel_{kind}")
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt).astype(float)
    if kind == "i" and np.any(tt > BESSEL_I_MAX_T):
        raise ValueError(f"bessel_i is limited to t <= {BESSEL_I_MAX_T} (overflow guard)")
    cutoff = max(_SERIES_CUTOFF, 2.0 * nu)
    out = np.empty_like(tt)
    small = tt <= cutoff
    if np.any(small):
        out[small] = _series_bessel(nu, tt[small], -1.0 if kind == "j" else 1.0)
    if np.any(~small):
        ok, half, l = _half_integer_split(nu)
        if not ok:
            raise ValueError(
                f"bessel_{kind}: order {nu} not supported for t > {cutoff} "
                "(only integer and half-integer orders)"
            )
        tl = tt[~small]
        if kind == "j":
            out[~small] = _bessel_j_half_upward(l, tl) if half else _bessel_j_int_miller(int(nu), tl)
        else:
            out[~small] = _bessel_i_miller(nu, tl)
    return float(out[0]) if scalar else out


def bessel_j(nu: float, t):
    """Bessel function of the first kind J_nu(t), t >= 0, nu >= 0.

    Absolute error <= 1e-11 for t <= 50 and nu <= 6.  For t past the
    series cutoff only integer and half-integer orders are supported.
    """
    return _dispatch_bessel(nu, t, "j")


def bessel_i(nu: float, t):
    """Modified Bessel function I_nu(t), 0 <= t <= 300, nu >= 0.

    Relative error <= 1e-11 for t <= 50; the cap on t guards the exp(t)
    normalization against overflow.
    """
    return _dispatch_bessel(nu, t, "i")


def _norm_kernel(m: int, t, sign: float, kind: str):
    if m != int(m) or m < 0:
        raise ValueError(f"{kind}_norm requires integer m >= 0, got {m}")
    m = int(m)
    tt = _as_t_array(t, f"{kind}_norm")
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt).astype(float)
    cutoff = max(_SERIES_CUTOFF, float(m))  # 2*nu = m
    out = np.empty_like(tt)
    small = tt <= cutoff
    if np.any(small):
        # Normalized even series: c_0 = 1, c_{k+1} = c_k * sign*(t/2)^2 / ((k+1)(k+1+m/2)).
        # Exact 1.0 at t = 0 and free of the 0/0 of the quotient form.
        ts = tt[small]
        out[small] = _ascending_series(ts, 0.5 * m, sign)
    if np.any(~small):
        tl = tt[~small]
        f = bessel_j if kind == "a" else bessel_i
        out[~small] = gamma_fn(0.5 * m + 1.0) * f(0.5 * m, tl) / (0.5 * tl) ** (0.5 * m)
    return float(out[0]) if scalar else out


def a_norm(m: int, t):
    """Oscillatory mean-value kernel Gamma(m/2+1) J_{m/2}(t) / (t/2)^{m/2}.

    a_norm(m, 0) == 1.0 exactly; first sign change at the first positive
    zero of J_{m/2}.  Defined for all integer m >= 0 (m = 0 gives J_0,
    m = 1 gives sin t / t).
    """
    return _norm_kernel(m, t, -1.0, "a")


def b_norm(m: int, t):
    """Monotone kernel Gamma(m/2+1) I_{m/2}(t) / (t/2)^{m/2}.

    b_norm(m, 0) == 1.0 exactly and the function is strictly increasing
    and >= 1 for t >= 0.
    """
    return _norm_kernel(m, t, 1.0, "b")


def _brent(f, a: float, b: float, xtol: float = 1e-13, maxiter: int = 200) -> float:
    """Brent root refinement on a sign-change bracket [a, b]."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise ValueError("bracket endpoints must have opposite signs")
    c, fc = a, fa
    d = e = b - a
    for _ in range(maxiter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * xtol
        mid = 0.5 * (c - b)
        if abs(mid) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * mid * s, 1.0 - s
            else:
                qq, r = fa / fc, fb / fc
                p = s * (2.0 * mid * qq * (qq - r) - (b - a) * (r - 1.0))
                q = (qq - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * mid * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = mid
        else:
            d = e = mid
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, mid)
        fb = f(b)
    return b


def bessel_zero(nu: float, n: int) -> float:
    """n-th positive zero j_{nu,n} of J_nu, for 0 <= nu <= 6, n >= 1.

    Starts from the McMahon asymptotic guess (with its first 1/t
    correction), scans a +-1.5 window on a fine grid for the sign
    change, and refines with Brent.  Absolute error <= 1e-9.
    """
    nu = _check_order(nu)
    if nu > 6.0:
        raise ValueError(f"bessel_zero supports orders nu <= 6, got {nu}")
    n = int(n)
    if n < 1:
        raise ValueError(f"bessel_zero requires n >= 1, got {n}")
    guess = (n + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    guess -= (mu - 1.0) / (8.0 * guess)

    def f(t):
        return bessel_j(nu, t)

    half_width = 1.5
    for _ in range(5):
        lo = max(guess - half_width, 0.05)
        hi = guess + half_width
        # Zeros of J_nu are > 3 apart for nu <= 6, so a 0.25 grid cannot
        # straddle two of them within one step.
        grid = np.linspace(lo, hi, max(int((hi - lo) / 0.25) + 2, 8))
        vals = f(grid)
        signs = np.sign(vals)
        flips = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
        if flips.size:
            mids = 0.5 * (grid[flips] + grid[flips + 1])
            i = flips[np.argmin(np.abs(mids - guess))]
            return _brent(f, float(grid[i]), float(grid[i + 1]))
        exact = np.nonzero(vals == 0.0)[0]
        if exact.size:
            return float(grid[exact[0]])
        half_width += 1.5
    raise RuntimeError(f"bessel_zero failed to bracket j_({nu},{n}) near {guess:.3f}")
