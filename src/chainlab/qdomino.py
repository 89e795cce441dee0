"""Closed-form Quantum Domino dynamics.

Single-island Green functions for the finite and the semi-infinite chain,
flip probabilities at the measured site, the t^-3 envelope asymptotics of
the residual, and the ideal-measurement mixture with its macroscopic
pointer value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .specfun import bessel_j, bessel_table, finite_kernel

__all__ = [
    "EigenSystem",
    "MacroMixture",
    "eigensystem",
    "green_finite",
    "green_infinite",
    "flip_probability",
    "flip_residual",
    "envelope_slope",
    "asymptotic_exponent",
    "measurement_mixture",
]


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of the N-site island Hamiltonian.

    energies[j] = 2 cos((j+1) pi / (N+1)),
    amplitudes[m, j] = sqrt(2/(N+1)) sin((j+1)(m+1) pi / (N+1)).
    """

    N: int
    energies: np.ndarray
    amplitudes: np.ndarray

    def green(self, n: int, m: int, t: float) -> complex:
        """Green function <n|exp(-itH)|m> from the eigen-expansion."""
        ph = np.exp(-1j * t * self.energies)
        return complex(np.sum(self.amplitudes[n - 1] * self.amplitudes[m - 1] * ph))


def eigensystem(N: int) -> EigenSystem:
    if N < 1:
        raise ValueError("chain length must be >= 1")
    j = np.arange(1, N + 1)
    theta = j * np.pi / (N + 1)
    energies = 2.0 * np.cos(theta)
    m = np.arange(1, N + 1)[:, None]
    amplitudes = np.sqrt(2.0 / (N + 1)) * np.sin(m * theta[None, :])
    return EigenSystem(N, energies, amplitudes)


def green_finite(n: int, m: int, N: int, t: float) -> complex:
    """<n|exp(-itH_N)|m> for the N-site island, via the finite kernel."""
    if not (1 <= n <= N and 1 <= m <= N):
        raise ValueError("site indices must lie in 1..N")
    return (-1j) ** (n - m) * finite_kernel(n - m, N, 2.0 * t) - (
        -1j
    ) ** (n + m) * finite_kernel(n + m, N, 2.0 * t)


def green_infinite(n: int, m: int, t: float) -> complex:
    """Semi-infinite chain Green function <n|exp(-itH)|m>."""
    if n < 1 or m < 1:
        raise ValueError("site indices must be >= 1")
    d, s = n - m, n + m
    jd = bessel_j(abs(d), 2.0 * t) * (-1.0 if (d < 0 and d % 2) else 1.0)
    return (-1j) ** d * jd - (-1j) ** s * bessel_j(s, 2.0 * t)


def flip_residual(j: int, t):
    """1 - flip_probability(j, t) = sum_{m=1}^{j-1} [m J_m(2t)/t]^2.

    `t` may be an array (one Bessel table serves every time); a scalar t
    returns a float.  At t = 0, m J_m(2t)/t -> delta_{m,1}.
    """
    if j < 1:
        raise ValueError("site index must be >= 1")
    t = np.asarray(t, dtype=float)
    zero = t == 0.0
    tab = bessel_table(j - 1, 2.0 * t)
    m = np.arange(1, j).reshape((-1,) + (1,) * t.ndim)
    res = np.sum((m * tab[1:j] / np.where(zero, 1.0, t)) ** 2, axis=0)
    res = np.where(zero, float(j > 1), res)
    return float(res) if t.ndim == 0 else res


def flip_probability(j: int, t):
    """Probability that site j has flipped up at time t (site 1 initially up).

    Scalar or array `t`, as for flip_residual.
    """
    return 1.0 - flip_residual(j, t)


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


@dataclass(frozen=True)
class MacroMixture:
    """Ideal-measurement mixture and pointer (mean half-chain occupation) values."""

    p_down: float
    p_up: float
    gamma_down: float
    gamma_up: float


def measurement_mixture(c_down: complex, c_up: complex, two_sided: bool = False) -> MacroMixture:
    """Post-measurement mixture for the measured spin state c_down|v> + c_up|^>.

    The pointer observable is the mean occupation of the flipped half-chain
    (values 0/1); with two_sided=True it is averaged over both directions
    (values 0/1/2).
    """
    p_down = abs(c_down) ** 2
    p_up = abs(c_up) ** 2
    if abs(p_down + p_up - 1.0) > 1e-10:
        raise ValueError("input amplitudes must be normalized")
    gamma_up = 0.5 if two_sided else 1.0
    return MacroMixture(p_down=p_down, p_up=p_up, gamma_down=0.0, gamma_up=gamma_up)
