"""Bessel functions of real order and the normalized mean-value kernels.

Everything in this module is self-contained (numpy only).  Evaluation
strategy for J_nu and I_nu:

* ascending power series for t <= max(12, 2*nu), in Horner form with a
  term count fixed from the largest t (the last term ratio <= 1e-20);
  where J's terms cancel past 1e-11, which only orders above 6 reach,
  its integer and half-integer orders take Miller's downward recurrence
  instead, and other orders are refused,
* beyond that, Miller's downward recurrence for I and for integer-order
  J, and upward recurrence from the closed forms for half-integer-order
  J; other orders are refused there, and J's downward pass past
  t = BESSEL_J_MAX_T, as it runs 1.2 t steps.

The normalized kernels are

    a_norm(m, t) = Gamma(m/2 + 1) * J_{m/2}(t) / (t/2)^{m/2}
    b_norm(m, t) = Gamma(m/2 + 1) * I_{m/2}(t) / (t/2)^{m/2}

with the removable singularity at t = 0 handled by their even power
series, so a_norm(m, 0) == b_norm(m, 0) == 1.0 exactly.  Past the
series region, and in the series of J and I, the factor
Gamma(nu + 1) / (t/2)^nu or its reciprocal is formed in log form, so a
finite value is returned finite at any order.  a_norm is the
ratio between a Helmholtz solution's value at a ball's center and its
volume mean over that ball; b_norm is the analogous monotone kernel for
the modified equation.

The zeros j_{nu,n} come from a symmetric tridiagonal eigenproblem (see
bessel_zero), independent of the evaluation code above.

All functions accept scalar or ndarray arguments for t.  The one piece
of state is a per-process cache of zeros: each (order, truncation size)
eigenproblem is solved once and its zeros are kept read-only.  a_norm
and b_norm at one float point, or a one-point array, run the array
path's Horner steps, or past the series region its recurrence, on
Python floats, so they return the same bits without array overhead.
_miller_orders gives J or I at every order nu + l from one downward
pass, for quadrature's error bounds.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Power-series term-ratio stop, its term cap and the series/recurrence switch point.
SERIES_RTOL = 1e-16
# Largest rounding bound, absolute for J and relative to a_norm's scale, a J series may carry.
SERIES_ATOL = 1e-11
_SERIES_MAX_TERMS = 399
_SERIES_BLOCK = 32768
_SERIES_CUTOFF = 12.0
# exp(t) must stay finite with headroom for the normalizing sums.
BESSEL_I_MAX_T = 300.0
# Miller's pass for integer-order J runs about 1.2 t steps: 12,040 here.
BESSEL_J_MAX_T = 1e4
# Rescale unnormalized recurrence values above this magnitude.
_RESCALE_AT = 1e250
_RESCALE_BY = 1e-250
# Largest zero index bessel_zero serves (a 1024 x 1024 eigenproblem).
_MAX_ZERO_INDEX = 200

__all__ = [
    "gamma_fn",
    "bessel_j",
    "bessel_i",
    "a_norm",
    "b_norm",
    "bessel_zero",
    "BESSEL_I_MAX_T",
    "BESSEL_J_MAX_T",
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
    if (~np.isfinite(t)).any() or (t < 0.0).any():
        raise ValueError(f"{name} requires finite t >= 0")
    return t


def _check_order(nu: float) -> float:
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be finite and >= 0, got {nu}")
    return nu


def _series_coeffs(q_max: float, nu: float, sign: float) -> list[float]:
    """Horner coefficients of the ascending series, innermost first.

    The term count is fixed from the largest q = (t/2)^2: the first k
    whose term ratio there is at most SERIES_RTOL * 1e-4, capped at 399.
    """
    n, ratio = 0, 1.0
    while n < _SERIES_MAX_TERMS and ratio > SERIES_RTOL * 1e-4:
        n += 1
        ratio *= q_max / (n * (n + nu))
    return [sign / (k * (k + nu)) for k in range(n, 0, -1)]


def _ascending_series(t: np.ndarray, nu: float, sign: float) -> np.ndarray:
    """Sum over k >= 0 of prod_{j<=k} sign (t/2)^2 / (j (j + nu)), the
    ascending series divided by its first term.

    The sum is evaluated in nested Horner form,
    1 + c_1 q (1 + c_2 q (1 + ...)), with in-place multiply-adds over
    cache-sized blocks of points.
    """
    q = 0.25 * t * t
    coeffs = _series_coeffs(float(np.max(q)), nu, sign)
    total = np.ones_like(q)
    for i in range(0, q.size, _SERIES_BLOCK):  # blocks stay in cache across the terms
        qb, tb = q[i : i + _SERIES_BLOCK], total[i : i + _SERIES_BLOCK]
        for c in coeffs:
            tb *= qb
            tb *= c
            tb += 1.0
    return total


def _float_series(t: float, nu: float, sign: float) -> float:
    """_ascending_series at one float t: its Horner steps, in the same
    order, on Python floats, so it gives the same bits."""
    q = 0.25 * t * t
    total = 1.0
    for c in _series_coeffs(q, nu, sign):
        total = total * q * c + 1.0
    return total


def _series_refused(nu: float, t: float, absolute: bool) -> bool:
    """Whether the alternating series of J_nu may lose more than
    SERIES_ATOL at t: the rounding of its sum is at most 2^-52 times the
    sum of its terms' magnitudes, which is the same series with sign +1
    and grows with t.  That bound is taken in J's absolute scale, times
    (t/2)^nu / Gamma(nu + 1), when absolute, else in a_norm's
    normalization.  Only orders above 6 carry the series past t = 12;
    below, no call pays for the check."""
    if t <= _SERIES_CUTOFF:
        return False
    log_bound = math.log(_float_series(t, nu, 1.0)) - 52.0 * math.log(2.0)
    if absolute:
        log_bound += nu * math.log(0.5 * t) - math.lgamma(nu + 1.0)
    return log_bound > math.log(SERIES_ATOL)


def _series_points(name: str, nu: float, t: np.ndarray, absolute: bool) -> np.ndarray:
    """The mask of the points t, all in J's series region, whose series
    _series_refused accepts: every point when it accepts their largest,
    else, for an integer or half-integer order, those up to the largest
    t it accepts (found by bisection, as the bound grows with t), the
    rest being left to the downward recurrence.  For any other order a
    refused series raises ValueError."""
    top = float(t.max())
    if not _series_refused(nu, top, absolute):
        return np.ones(t.shape, dtype=bool)
    if not (2.0 * nu).is_integer():
        raise ValueError(f"{name}: the ascending series cancels at t = {top:g} for order "
                         f"{nu:g}: its rounding bound is above {SERIES_ATOL:g}")
    ts = np.unique(t[t > _SERIES_CUTOFF])  # sorted; its last is refused
    accepted, refused = -1, len(ts) - 1
    while refused - accepted > 1:
        mid = (accepted + refused) // 2
        if _series_refused(nu, float(ts[mid]), absolute):
            refused = mid
        else:
            accepted = mid
    return t <= (ts[accepted] if accepted >= 0 else _SERIES_CUTOFF)


def _power_over_gamma(nu: float, t, sign: float = 1.0):
    """(t/2)^nu / Gamma(nu + 1), or with sign = -1 its reciprocal, in log
    form, so neither factor overflows on its own; numpy's log and exp
    give a float and a one-point array the same bits."""
    if nu == 0.0:
        return np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    with np.errstate(divide="ignore"):  # t = 0: (t/2)^nu = 0
        return np.exp(sign * (nu * np.log(0.5 * t) - math.lgamma(nu + 1.0)))


def _series_bessel(nu: float, t: np.ndarray, sign: float) -> np.ndarray:
    """Ascending series of J_nu (sign=-1) or I_nu (sign=+1)."""
    return _power_over_gamma(nu, t) * _ascending_series(t, nu, sign)


def _upward(l: int, t: np.ndarray) -> np.ndarray:
    """J_{l+1/2} upward from the exact J_{-1/2}, J_{1/2} = sqrt(2/(pi t)) (cos t, sin t).

    Stable because this path only runs for t > max(12, 2*nu), so order < t.  Never
    used for I: upward, I is the recessive solution and rounding grows like K.
    """
    c = np.sqrt(2.0 / (np.pi * t))
    prev = c * np.cos(t)  # J_{-1/2}
    cur = c * np.sin(t)  # J_{1/2}
    nu = 0.5
    for _ in range(l):
        prev, cur = cur, (2.0 * nu / t) * cur - prev
        nu += 1.0
    return cur


def _miller_start(t: float, sign: float) -> int:
    """Where a downward pass at t starts; ValueError for J past BESSEL_J_MAX_T."""
    if sign < 0 and not t <= BESSEL_J_MAX_T:
        raise ValueError(f"bessel_j is limited to t <= {BESSEL_J_MAX_T:g} on its downward "
                         "recurrence (recurrence length guard)")
    return int(1.2 * t) + 40


def _rescale_every(start: int, t: float) -> int:
    """Steps between a downward pass's rescale checks.  One step from
    order k multiplies a value by at most 2 k / t + 1 <= 2 start / t + 1;
    where that is below 2100, 8 steps take a value below 1e250 to below
    1e250 * 2100^8 < 4e276, so checking every 8 steps keeps it finite.
    Past the series cutoff t > 12 and start <= 1.2 * 10^4 + 42, so the
    growth is below 2100 and every pass there checks every 8 steps;
    otherwise (small t, where the growth is large) every step."""
    return 8 if 2.0 * start / t + 1.0 < 2100.0 else 1


def _miller(nu: float, t: np.ndarray, sign: float) -> np.ndarray:
    """J_nu (sign=-1) or I_nu (sign=+1), integer or half-integer nu, by
    Miller's downward recurrence from at least 10 orders above nu,
    normalized by J_0 + 2*sum J_{2k} = 1, I_0 + 2*sum I_k = e^t, the
    exact I_{1/2} = sqrt(2/(pi t)) sinh t, or for half-integer J the
    larger of the exact J_{-1/2}, J_{1/2} = sqrt(2/(pi t)) (cos t, sin t)
    at each point.  Each step is three in-place ufunc calls on reused
    buffers; values are rescaled where they pass 1e250, checked at the
    cadence _rescale_every gives, and the normalizing sum is accumulated
    undoubled and doubled once, which is exact.  _miller_orders repeats
    it on one float."""
    base = nu % 1  # 0 or 1/2: the recurrence ends at this order
    start = max(_miller_start(float(np.max(t)), sign), int(nu) + 11)
    if start % 2:
        start += 1
    every = _rescale_every(start, float(np.min(t)))
    above = np.zeros_like(t)  # unnormalized value at order k+1
    cur = np.full_like(t, 1e-30)  # unnormalized value at order k
    coef = np.empty_like(t)
    norm = np.zeros_like(t)  # half the normalizing sum, without order 0
    target = np.zeros_like(t)
    combine = np.subtract if sign < 0 else np.add
    for k in range(start, 0, -1):
        np.divide(2.0 * (k + base), t, out=coef)
        coef *= cur
        above, cur = cur, combine(coef, above, out=above)
        order = k - 1
        if order + base == nu:
            target = cur.copy()
        if not base and order > 0 and (sign > 0 or order % 2 == 0):
            norm += cur
        if k % every == 0:
            big = np.abs(cur) > _RESCALE_AT
            if big.any():
                for arr in (above, cur, norm, target):
                    arr[big] *= _RESCALE_BY
    if base and sign > 0:
        return target * (np.sqrt(2.0 / (np.pi * t)) * np.sinh(t) / cur)
    if base:  # cur is J_{1/2}, and one more step gives J_{-1/2}, unnormalized
        c, lower = np.sqrt(2.0 / (np.pi * t)), cur / t - above
        cos_t, sin_t = np.cos(t), np.sin(t)
        return target * np.where(np.abs(cos_t) > np.abs(sin_t), c * cos_t / lower, c * sin_t / cur)
    norm *= 2.0
    norm += cur  # adds the unnormalized order 0
    return target / norm if sign < 0 else target * (np.exp(t) / norm)


def _miller_orders(nu: float, t: float, sign: float, count: int = 1) -> list[float]:
    """J_{nu+l}(t) (sign=-1) or I_{nu+l}(t) (sign=+1) for l = 0..count-1,
    nu integer or half-integer, at one float t > 0, by one downward pass
    on Python floats.  The pass starts at least 10 orders above the
    highest returned, and otherwise where _miller starts, so with
    count = 1 it repeats _miller's steps, rescale checks, rescalings and
    normalization and gives its one-point value bit for bit.
    Half-integer J takes one more step to order -1/2 and is normalized
    by the larger of J_{-1/2}, J_{1/2} = sqrt(2/(pi t)) (cos t, sin t)."""
    base = nu % 1
    start = max(_miller_start(t, sign), int(nu) + count + 10)
    if start % 2:
        start += 1
    every = _rescale_every(start, t)
    low = int(nu) + 1  # the step to order nu
    high, big = low + count - 1, _RESCALE_AT
    summed = 0 if base else (1 if sign > 0 else 2)  # orders in the normalizing sum
    above, cur, norm = 0.0, 1e-30, 0.0
    out = []  # unnormalized values, highest order first
    for k in range(start, 0, -1):
        above, cur = cur, (2.0 * (k + base) / t) * cur + sign * above
        if low <= k <= high:
            out.append(cur)
        if summed and k > 1 and (summed == 1 or k % 2):
            norm += cur
        if (cur > big or -cur > big) and k % every == 0:
            above, cur, norm = above * _RESCALE_BY, cur * _RESCALE_BY, norm * _RESCALE_BY
            out = [v * _RESCALE_BY for v in out]
    out.reverse()
    if base and sign > 0:
        scale = np.sqrt(2.0 / (np.pi * t)) * np.sinh(t) / cur
    elif base:
        c, lower = np.sqrt(2.0 / (np.pi * t)), cur / t - above  # J_{-1/2}, unnormalized
        cos_t, sin_t = np.cos(t), np.sin(t)
        scale = c * cos_t / lower if abs(cos_t) > abs(sin_t) else c * sin_t / cur
    elif sign < 0:
        norm = 2.0 * norm + cur
        return [v / norm for v in out]
    else:
        norm = 2.0 * norm + cur
        scale = np.exp(t) / norm
    return [float(v * scale) for v in out]


def _dispatch_bessel(nu: float, t, kind: str):
    nu = _check_order(nu)
    tt = _as_t_array(t, f"bessel_{kind}")
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt).astype(float)
    if kind == "i" and (tt > BESSEL_I_MAX_T).any():
        raise ValueError(f"bessel_i is limited to t <= {BESSEL_I_MAX_T} (overflow guard)")
    sign = -1.0 if kind == "j" else 1.0
    cutoff = max(_SERIES_CUTOFF, 2.0 * nu)
    out = np.empty_like(tt)
    small = tt <= cutoff
    if sign < 0 and nu > 6.0 and small.any():
        small[small] = _series_points("bessel_j", nu, tt[small], absolute=True)
    if small.any():
        out[small] = _series_bessel(nu, tt[small], sign)
    if (~small).any():
        if not (2.0 * nu).is_integer():
            raise ValueError(
                f"bessel_{kind}: order {nu} not supported for t > {cutoff} "
                "(only integer and half-integer orders)"
            )
        down = ~small
        if nu % 1 and sign < 0:  # half-integer J past the cutoff, where nu < t: upward
            up = tt > cutoff
            if up.any():
                out[up] = _upward(int(nu), tt[up])
            down &= ~up
        if down.any():
            out[down] = _miller(nu, tt[down], sign)
    return float(out[0]) if scalar else out


def bessel_j(nu: float, t):
    """Bessel function of the first kind J_nu(t), t >= 0, nu >= 0.

    Absolute error <= 1e-11 for t <= 50 and nu <= 6.  Above order 6 the
    series runs past t = 12, where its alternating terms cancel: at the
    points where the rounding bound 2^-52 sum |terms| exceeds
    SERIES_ATOL = 1e-11, an integer or half-integer order takes Miller's
    downward recurrence from at least 10 orders above nu (absolute error
    within 1e-11 there, about 1e-15 in tests against scipy), and any
    other order raises ValueError.  For t past the series cutoff only
    integer and half-integer orders are supported, and the downward
    pass up to t = BESSEL_J_MAX_T.
    """
    return _dispatch_bessel(nu, t, "j")


def bessel_i(nu: float, t):
    """Modified Bessel function I_nu(t), 0 <= t <= 300, nu >= 0.

    Relative error <= 1e-11 for t <= 50 at any order, and to t = 300 for
    integer and half-integer orders nu <= 120; the cap guards the exp(t)
    normalization against overflow.  Past the series cutoff only integer
    and half-integer orders are supported.
    """
    return _dispatch_bessel(nu, t, "i")


def _norm_kernel(m: int, t, sign: float, kind: str):
    if m != int(m) or m < 0:
        raise ValueError(f"{kind}_norm requires integer m >= 0, got {m}")
    m = int(m)
    cutoff = max(_SERIES_CUTOFF, float(m))  # 2*nu = m
    nu = 0.5 * m
    if isinstance(t, np.ndarray) and t.shape == (1,):
        # One point in an array: the float paths below give its bits
        return np.array([_norm_kernel(m, float(t[0]), sign, kind)])
    if isinstance(t, float) and 0.0 <= t <= cutoff and not (
            sign < 0 and nu > 6.0 and _series_refused(nu, t, absolute=False)):
        # One point in the series region, on Python floats.  NaN, inf and
        # t < 0 fail the test and raise on the array path.
        return _float_series(float(t), nu, sign)
    if isinstance(t, float) and _SERIES_CUTOFF < t < math.inf and (
            sign < 0 or t <= BESSEL_I_MAX_T):
        # One point past the series, past the cutoff or where J's series
        # is refused: the array path's recurrence on floats
        t = float(t)
        z = (_upward(int(nu), t) if nu % 1 and sign < 0 and t > cutoff
             else _miller_orders(nu, t, sign)[0])
        return float(_power_over_gamma(nu, t, -1.0) * z)
    tt = _as_t_array(t, f"{kind}_norm")
    scalar = tt.ndim == 0
    tt = np.atleast_1d(tt).astype(float)
    out = np.empty_like(tt)
    small = tt <= cutoff
    refused = np.zeros_like(small)  # series-region points J's series leaves to _miller
    if sign < 0 and nu > 6.0 and small.any():
        refused[small] = ~_series_points(f"a_norm(m = {m})", nu, tt[small], absolute=False)
        small &= ~refused
    if small.any():
        # Normalized even series: c_0 = 1, c_{k+1} = c_k * sign*(t/2)^2 / ((k+1)(k+1+m/2)).
        # Exact 1.0 at t = 0 and free of the 0/0 of the quotient form.
        out[small] = _ascending_series(tt[small], nu, sign)
    if refused.any():
        tr = tt[refused]
        out[refused] = _power_over_gamma(nu, tr, -1.0) * _miller(nu, tr, sign)
    past = tt > cutoff
    if past.any():
        tl = tt[past]
        f = bessel_j if kind == "a" else bessel_i
        out[past] = _power_over_gamma(nu, tl, -1.0) * f(nu, tl)
    return float(out[0]) if scalar else out


def a_norm(m: int, t):
    """Oscillatory mean-value kernel Gamma(m/2+1) J_{m/2}(t) / (t/2)^{m/2}.

    a_norm(m, 0) == 1.0 exactly; first sign change at the first positive
    zero of J_{m/2}.  Defined for all integer m >= 0 (m = 0 gives J_0,
    m = 1 gives sin t / t).  For m > 12 the series runs past t = 12,
    where its alternating terms cancel: at the points where the rounding
    bound 2^-52 sum |terms| exceeds 1e-11 (in this normalization,
    b_norm(m, t) 2^-52), J_{m/2} comes from Miller's downward recurrence
    instead, as m/2 is an integer or half-integer, so the absolute error
    stays within 1e-11 up to the length guard BESSEL_J_MAX_T.  A float t
    and a one-point array give the same bits.
    """
    return _norm_kernel(m, t, -1.0, "a")


def b_norm(m: int, t):
    """Monotone kernel Gamma(m/2+1) I_{m/2}(t) / (t/2)^{m/2}.

    b_norm(m, 0) == 1.0 exactly and the function is strictly increasing
    and >= 1 for t >= 0.
    """
    return _norm_kernel(m, t, 1.0, "b")


def bessel_zero(nu: float, n: int) -> float:
    """n-th positive zero j_{nu,n} of J_nu, for 0 <= nu <= 6, integer 1 <= n <= 200.

    The zeros are the reciprocals of the positive eigenvalues of the
    symmetric tridiagonal matrix with zero diagonal and off-diagonal
    1 / (2 sqrt((nu + k)(nu + k + 1))), k = 1, 2, ... (Ikebe, Kikuchi &
    Fujishiro, J. Comput. Appl. Math. 38 (1991)), truncated to the least
    power of two >= 4n + 64 rows.  The truncation depends on n alone, so
    each zero depends only on (nu, n).  Absolute error <= 1e-11; no
    Bessel function is evaluated.  The order limit bounds the size
    condition lambda r0 = j_{m/2,1} to dimensions m <= 12.
    """
    nu = _check_order(nu)
    if nu > 6.0:
        raise ValueError(f"bessel_zero supports orders nu <= 6, got {nu}")
    if not float(n).is_integer():
        raise ValueError(f"bessel_zero requires an integer index n, got {n}")
    n = int(n)
    if not 1 <= n <= _MAX_ZERO_INDEX:
        raise ValueError(f"bessel_zero requires 1 <= n <= {_MAX_ZERO_INDEX}, got {n}")
    size = 64
    while size < 4 * n + 64:
        size *= 2
    return float(_zeros(nu, size)[n - 1])


@functools.lru_cache(maxsize=None)
def _zeros(nu: float, size: int) -> np.ndarray:
    """j_{nu,1}, j_{nu,2}, ... from the size x size truncated matrix,
    solved once per (nu, size) and kept read-only."""
    k = np.arange(1.0, size)
    off = 0.5 / np.sqrt((nu + k) * (nu + k + 1.0))
    eig = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    zeros = 1.0 / eig[size // 2 :][::-1]  # the positive half, largest first
    zeros.flags.writeable = False
    return zeros
