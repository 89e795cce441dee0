"""Classical projections of quantum dynamics on coherent-state orbits.

Smeared potentials (packet-averaged potentials entering the projected
classical Hamiltonian) and the quantum-vs-classical circle comparison for
the rank-one projector Hamiltonian on the oscillator orbit, with closed
forms for both trajectories.
"""

from __future__ import annotations

from math import pi

import numpy as np

from . import DomainError

__all__ = [
    "smeared_potential",
    "renormalization_f",
    "quantum_trajectory",
    "classical_trajectory",
]


def smeared_potential(V, width: float, q):
    """V_phi(q) = int |phi(q')|^2 V(q + q') dq' for the Gaussian |phi|^2 of standard deviation `width`.

    |phi|^2 is sampled on 2001 points over +-10 widths and trapezoid-normalized;
    the integral is the trapezoid rule on that grid.  Scalar or array q, vectorized V.
    """
    if not 0.0 < width < np.inf:
        raise DomainError(f"packet width {width!r} must be positive and finite")
    grid = np.linspace(-10.0 * width, 10.0 * width, 2001)
    density = np.exp(-0.5 * (grid / width) ** 2) / (width * np.sqrt(2.0 * pi))
    density /= np.trapezoid(density, grid)
    q = np.asarray(q, dtype=float)
    return np.trapezoid(density * V(np.add.outer(q, grid)), grid)


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
