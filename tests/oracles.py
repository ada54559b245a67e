"""Test-only oracles that share no code path with the library."""

import math

import numpy as np

from helmholtz_means.geometry import EstimationError


def poisson_eval(m: int, lam: float, rho, nodes: int = 160):
    """Radial field a_norm(m - 2, lam rho) via the Poisson-type integral

        c_m * int_0^1 (1 - s^2)^{(m-3)/2} cos(lam rho s) ds,
        c_m = 2 Gamma(m/2) / (sqrt(pi) Gamma((m-1)/2)).

    The substitution s = sin(theta) removes the m = 2 endpoint
    singularity and makes the integrand entire, so Gauss-Legendre in
    theta converges spectrally.  No Bessel series is summed, so it
    cross-validates radial_solution.  EstimationError when the rule at
    half the nodes differs by more than 1e-9.
    """
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    c_m = 2.0 * math.gamma(0.5 * m) / (math.sqrt(math.pi) * math.gamma(0.5 * (m - 1)))

    def rule(n):
        # int_0^1 (1-s^2)^{(m-3)/2} f(s) ds
        #   = int_0^{pi/2} cos(theta)^{m-2} f(sin theta) d(theta)
        x, wx = np.polynomial.legendre.leggauss(int(n))
        theta = 0.25 * np.pi * (x + 1.0)
        w = 0.25 * np.pi * wx * np.cos(theta) ** (m - 2)
        return c_m * (w @ np.cos(lam * np.outer(np.sin(theta), rho_arr)))

    vals = rule(nodes)
    gap = float(np.max(np.abs(vals - rule(max(int(nodes) // 2, 8)))))
    if gap > 1e-9:
        raise EstimationError(
            f"Poisson-integral quadrature not converged at {nodes} nodes "
            f"(refinement gap {gap:.1e}); raise `nodes` for this lam*rho"
        )
    return float(vals[0]) if np.ndim(rho) == 0 else vals
