"""Classical projections of quantum dynamics on coherent-state orbits.

Smeared potentials (packet-averaged potentials entering the projected
classical Hamiltonian) and the quantum-vs-classical circle comparison for
the rank-one projector Hamiltonian on the oscillator orbit, with closed
forms for both trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from . import DomainError

__all__ = [
    "SmearingPacket",
    "gaussian_packet",
    "smeared_potential",
    "renormalization_f",
    "quantum_trajectory",
    "classical_trajectory",
    "quantum_period",
    "classical_period",
]


@dataclass(frozen=True)
class SmearingPacket:
    """1d packet |phi(q)|^2 sampled on a uniform grid, trapezoid-normalized."""

    grid: np.ndarray
    density: np.ndarray

    def __post_init__(self):
        w = np.trapezoid(self.density, self.grid)
        if abs(w - 1.0) > 1e-10:
            raise ValueError("packet density must be normalized")
        if np.any(self.density < 0):
            raise ValueError("packet density must be nonnegative")


def gaussian_packet(width: float) -> SmearingPacket:
    """Normalized Gaussian |phi|^2 of standard deviation `width`, on 2001 points over +-10 widths."""
    q = np.linspace(-10.0 * width, 10.0 * width, 2001)
    d = np.exp(-0.5 * (q / width) ** 2) / (width * np.sqrt(2.0 * pi))
    d /= np.trapezoid(d, q)
    return SmearingPacket(q, d)


def smeared_potential(V, packet: SmearingPacket, q):
    """V_phi(q) = int |phi(q')|^2 V(q + q') dq' by trapezoid quadrature; scalar or array q, vectorized V."""
    q = np.asarray(q, dtype=float)
    val = np.trapezoid(packet.density * V(np.add.outer(q, packet.grid)), packet.grid)
    return float(val) if q.ndim == 0 else val


def renormalization_f(z: complex, lam: float, a: float) -> float:
    """f(z) = a exp(-|z|^2 / (2 lam^2)), the projected Hamiltonian value."""
    if lam == 0:
        raise DomainError(f"lam = {lam:g} must be nonzero")
    return a * np.exp(-abs(z) ** 2 / (2.0 * lam**2))


def quantum_trajectory(z0: complex, lam: float, t, a: float) -> np.ndarray:
    """Projected quantum motion: circle about (1 - f/a) z0 at frequency a/lam^2."""
    if a == 0:
        raise DomainError("renormalization constant a must be nonzero")
    t = np.asarray(t, dtype=float)
    f = renormalization_f(z0, lam, a)
    return (1.0 - f / a) * z0 + (f / a) * np.exp(-1j * t * a / lam**2) * z0


def classical_trajectory(z0: complex, lam: float, t, a: float) -> np.ndarray:
    """Projected classical motion: circle about 0 at frequency f(z0)/lam^2."""
    t = np.asarray(t, dtype=float)
    f = renormalization_f(z0, lam, a)
    return np.exp(-1j * t * f / lam**2) * z0


def quantum_period(lam: float, a: float) -> float:
    return 2.0 * pi * lam**2 / a


def classical_period(z0: complex, lam: float, a: float) -> float:
    return 2.0 * pi * lam**2 / renormalization_f(z0, lam, a)
