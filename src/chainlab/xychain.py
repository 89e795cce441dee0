"""X-Y chain as a measuring device.

One-particle hopping evolution of the infinite X-Y chain in the
free-fermion picture, site occupation dynamics starting from the
half-filled step state (spins up at j <= -1, down at j >= 0), and the
incoherent measurement mixture with its macroscopic occupation value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .specfun import bessel_j, bessel_table

__all__ = [
    "HoppingCoefficients",
    "recurrence_coefficients",
    "evolution_coefficient",
    "occupation",
    "measurement_occupation",
    "macro_observable",
]


@dataclass(frozen=True)
class HoppingCoefficients:
    """Taylor coefficients c^(m)(p) of the one-particle hopping evolution.

    coeffs[m] is an array over p = -m..m (length 2m + 1).
    """

    kappa: float
    coeffs: list = field(default_factory=list)

    def value(self, m: int, p: int) -> float:
        if m >= len(self.coeffs) or abs(p) > m:
            return 0.0
        return float(self.coeffs[m][p + m])


def recurrence_coefficients(m_max: int, kappa: float) -> HoppingCoefficients:
    """c^(0)(p) = delta_{0p}; c^(m+1)(p) = -(kappa/2)(c^(m)(p-1) + c^(m)(p+1))."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    coeffs = [np.array([1.0])]
    for m in range(m_max):
        prev = coeffs[m]
        nxt = np.zeros(2 * (m + 1) + 1)
        # shift prev (support -m..m) into slots p-1 and p+1 of -m-1..m+1
        nxt[:-2] += prev
        nxt[2:] += prev
        coeffs.append(-0.5 * kappa * nxt)
    return HoppingCoefficients(kappa=kappa, coeffs=coeffs)


def evolution_coefficient(r: int, t, kappa: float):
    """One-particle propagator C_t(r) = (-i)^|r| J_|r|(kappa t); scalar or array t."""
    r = abs(int(r))
    return (-1j) ** r * bessel_j(r, kappa * np.asarray(t, dtype=float))


def occupation(j: int, t, kappa: float):
    """Site-j occupation at time t from the step initial state.

    sum_{r>=1} J_{|j+r|}^2(kappa t) from one table J_k, k = 0..K, with
    K = |j| + ceil(max |kappa t|) + 40; the tail beyond K is added
    exactly through the normalization identity
    sum_{k>K} J_k^2 = (1 - J_0^2 - 2 sum_{k<=K} J_k^2) / 2.
    `t` may be an array; a scalar t returns a float.
    """
    x = kappa * np.asarray(t, dtype=float)
    K = abs(j) + int(np.ceil(np.max(np.abs(x), initial=0.0))) + 40
    sq = bessel_table(K, x) ** 2
    # for j >= 0 the indices |j+r| run j+1, j+2, ...;
    # for j = -q <= -1 they run q-1, ..., 1, 0, 1, 2, ... so the sum is
    # (1 + J_0^2)/2 + sum_{k=1}^{q-1} J_k^2
    if j >= 0:
        half_tail = 0.5 * (1.0 - sq[0] - 2.0 * np.sum(sq[1:], axis=0))
        val = np.sum(sq[j + 1 :], axis=0) + half_tail
    else:
        val = 0.5 * (1.0 + sq[0]) + np.sum(sq[1:-j], axis=0)
    val = np.clip(val, 0.0, 1.0)
    return float(val) if x.ndim == 0 else val


def measurement_occupation(j: int, t: float, kappa: float, c_plus: complex, c_minus: complex) -> float:
    """Occupation under the post-measurement mixture.

    |c_+|^2 branches switch the detector coupling on (dynamical profile);
    |c_-|^2 branches keep the static step profile.
    """
    w_plus = abs(c_plus) ** 2
    w_minus = abs(c_minus) ** 2
    if abs(w_plus + w_minus - 1.0) > 1e-10:
        raise ValueError("input amplitudes must be normalized")
    static = 1.0 if j <= -1 else 0.0
    return w_plus * occupation(j, t, kappa) + w_minus * static


def macro_observable(state: str, c_plus: complex = 1.0) -> float:
    """Macroscopic mean-occupation pointer value.

    'initial' -> 0; 'final' -> |c_+|^2 * 1/2 (the relaxed profile carries
    mean occupation 1/2, the static one 0).
    """
    if state == "initial":
        return 0.0
    if state == "final":
        return 0.5 * abs(c_plus) ** 2
    raise ValueError("state must be 'initial' or 'final'")
