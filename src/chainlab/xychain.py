"""X-Y chain as a measuring device.

One-particle hopping evolution of the infinite X-Y chain in the
free-fermion picture, with the Taylor coefficients of its propagator, and
site occupation dynamics starting from the half-filled step state (spins
up at j <= -1, down at j >= 0).
"""

from __future__ import annotations

import math

import numpy as np

from . import DomainError
from .specfun import bessel_j, bessel_table

__all__ = [
    "recurrence_coefficients",
    "evolution_coefficient",
    "occupation",
]


def recurrence_coefficients(m_max: int, kappa: float) -> np.ndarray:
    """Taylor coefficients c^(m)(p) of the hopping propagator, as c[m, p + m_max] for m = 0..m_max.

    c^(0)(p) = delta_{0p}; c^(m+1)(p) = -(kappa/2)(c^(m)(p-1) + c^(m)(p+1)), so c^(m) vanishes
    outside |p| <= m.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    c = np.zeros((m_max + 1, 2 * m_max + 1))
    c[0, m_max] = 1.0
    for m in range(m_max):
        c[m + 1, 1:] = c[m, :-1]
        c[m + 1, :-1] += c[m, 1:]
        c[m + 1] *= -0.5 * kappa
    return c


def evolution_coefficient(r: int, t, kappa: float):
    """One-particle propagator C_t(r) = (-i)^|r| J_|r|(kappa t); scalar or array t."""
    r = abs(r)
    return (-1j) ** r * bessel_j(r, kappa * np.asarray(t, dtype=float))


def occupation(j, t, kappa: float):
    """Site-j occupation at time t from the step initial state.

    sum_{r>=1} J_{|j+r|}^2(kappa t) from one table J_k, k = 0..K, with
    K = max |j| + ceil(max |kappa t|) + 40; the tail beyond K is added
    exactly through the normalization identity
    sum_{k>K} J_k^2 = (1 - J_0^2 - 2 sum_{k<=K} J_k^2) / 2.
    `j` may be an int or an array of sites and `t` a time or an array of
    times; the one table serves them all, and the result has shape
    np.shape(j) + np.shape(t) (a float for scalar j and t).
    """
    js = np.asarray(j)
    if js.size == 0 or not np.issubdtype(js.dtype, np.integer):
        raise DomainError(f"site indices {j!r} must be a nonempty set of integers")
    x = kappa * np.asarray(t, dtype=float)
    xmax = float(np.max(np.abs(x), initial=0.0))
    if not math.isfinite(xmax):
        raise DomainError(f"occupation needs a finite kappa t, got |kappa t| up to {xmax}")
    K = int(np.max(np.abs(js))) + math.ceil(xmax) + 40
    sq = bessel_table(K, x) ** 2
    half_tail = 0.5 * (1.0 - sq[0] - 2.0 * np.sum(sq[1:], axis=0))

    def site(k):
        # for k >= 0 the indices |k+r| run k+1, k+2, ...;
        # for k = -q <= -1 they run q-1, ..., 1, 0, 1, 2, ... so the sum is
        # (1 + J_0^2)/2 + sum_{i=1}^{q-1} J_i^2
        if k >= 0:
            return np.sum(sq[k + 1 :], axis=0) + half_tail
        return 0.5 * (1.0 + sq[0]) + np.sum(sq[1:-k], axis=0)

    vals = np.array([site(k) for k in js.ravel().tolist()]).reshape(js.shape + x.shape)
    return np.clip(vals, 0.0, 1.0)[()]
