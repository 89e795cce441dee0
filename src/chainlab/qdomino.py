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


def _sites(j, lowest: int) -> np.ndarray:
    """The int or array of sites j as an integer array; empty, non-integer or below `lowest` raises DomainError."""
    js = np.asarray(j)
    if js.size == 0 or not np.issubdtype(js.dtype, np.integer) or np.any(js < lowest):
        raise DomainError(f"site indices {j!r} must be a nonempty set of integers >= {lowest}")
    return js


def flip_residual(j, t):
    """1 - flip_probability(j, t) = sum_{m=1}^{j-1} [m J_m(2t)/t]^2.

    `j` may be an int or an array of sites >= 1 and `t` a time or an
    array of times: one Bessel table, to the largest order the sites
    need, serves them all, and the result has shape np.shape(j) +
    np.shape(t) (a float for scalar j and t).  At t = 0, m J_m(2t)/t ->
    delta_{m,1}.
    """
    js = _sites(j, 1)
    sq = bessel_ratio_table(int(js.max()) - 1, t) ** 2
    # each site sums its own rows, so its value does not depend on the other sites
    sums = [np.sum(sq[: k - 1], axis=0) for k in js.ravel().tolist()]
    return np.array(sums).reshape(js.shape + sq.shape[1:])[()]


def flip_probability(j, t):
    """Probability that site j has flipped up at time t (site 1 initially up).

    Sites and times as for flip_residual; clipped to [0, 1] against
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


def asymptotic_exponent(j, t_grid: np.ndarray):
    """Envelope decay exponent of 1 - flip_probability(j, .) on t_grid.

    `j` may be an int or an array of sites >= 2 (site 1 never has a
    residual), served by one flip_residual call; the result has shape
    np.shape(j).  The residual oscillates under a const/t^3 envelope; the
    fit runs over its local maxima only.
    """
    js = _sites(j, 2)
    rows = np.reshape(flip_residual(js, t_grid), (-1,) + np.shape(t_grid))
    return np.array([envelope_slope(t_grid, r) for r in rows]).reshape(js.shape)[()]
