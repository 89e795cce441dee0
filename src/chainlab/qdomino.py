"""Closed-form Quantum Domino dynamics.

Single-island Green functions for the finite and the semi-infinite chain,
flip probabilities at the measured site, and the t^-3 envelope asymptotics
of the residual.
"""

from __future__ import annotations

import numpy as np

from . import DomainError
from .specfun import bessel_j, bessel_ratio_table, finite_kernel

__all__ = [
    "green_finite",
    "green_infinite",
    "flip_probability",
    "flip_residual",
    "envelope_slope",
    "asymptotic_exponent",
]


def green_finite(n: int, m: int, N: int, t):
    """<n|exp(-itH_N)|m> for the N-site island, via the finite kernel; scalar or array t."""
    if not (1 <= n <= N and 1 <= m <= N):
        raise ValueError("site indices must lie in 1..N")
    t = np.asarray(t, dtype=float)
    return (-1j) ** (n - m) * finite_kernel(n - m, N, 2.0 * t) - (
        -1j
    ) ** (n + m) * finite_kernel(n + m, N, 2.0 * t)


def green_infinite(n: int, m: int, t):
    """Semi-infinite chain Green function <n|exp(-itH)|m>; scalar or array t."""
    if n < 1 or m < 1:
        raise ValueError("site indices must be >= 1")
    d, s = n - m, n + m
    t = np.asarray(t, dtype=float)
    return (-1j) ** d * bessel_j(d, 2.0 * t) - (-1j) ** s * bessel_j(s, 2.0 * t)


def flip_residual(j: int, t):
    """1 - flip_probability(j, t) = sum_{m=1}^{j-1} [m J_m(2t)/t]^2.

    `t` may be an array (one Bessel table serves every time); a scalar t
    returns a float.  At t = 0, m J_m(2t)/t -> delta_{m,1}.
    """
    if j < 1:
        raise DomainError(f"site index j = {j} must be >= 1")
    return np.sum(bessel_ratio_table(j - 1, t) ** 2, axis=0)


def flip_probability(j: int, t):
    """Probability that site j has flipped up at time t (site 1 initially up).

    Scalar or array `t`, as for flip_residual; clipped to [0, 1] against
    rounding where the residual is within an ulp of 1.
    """
    return np.clip(1.0 - flip_residual(j, t), 0.0, 1.0)


def envelope_slope(t: np.ndarray, values: np.ndarray) -> float:
    """Log-log slope fitted on the upper envelope (local maxima) of a series."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("t and values must be 1d arrays of equal length")
    interior = (v[1:-1] > v[:-2]) & (v[1:-1] >= v[2:])
    idx = np.where(interior)[0] + 1
    idx = idx[v[idx] > 0]
    if idx.size < 5:
        raise ValueError("fewer than 5 envelope points; cannot fit")
    x = np.log(t[idx])
    y = np.log(v[idx])
    if np.ptp(x) < 1e-12 or np.ptp(y) < 1e-12:
        raise ValueError("degenerate envelope; cannot fit")
    return float(np.polyfit(x, y, 1)[0])


def asymptotic_exponent(j: int, t_grid: np.ndarray) -> float:
    """Envelope decay exponent of 1 - flip_probability(j, .) on t_grid.

    The residual oscillates under a const/t^3 envelope; the fit runs over
    its local maxima only.
    """
    if j < 2:
        raise ValueError("need j >= 2 (site 1 never has a residual)")
    return envelope_slope(t_grid, flip_residual(j, t_grid))
