"""Rotationally symmetric momentum-space wave packets.

Packets are stored as radial amplitudes on a shared composite
Gauss-Legendre grid with the 3d radial measure 4 pi p^2 dp.  Gaussian and
compactly supported bump profiles are provided; position-space L1 norms
and the spectral weight of the packet (needed by the detector formulas)
are computed by quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from .specfun import gauss_legendre, phase_blocks

__all__ = [
    "MomentumGrid",
    "RadialPacket",
    "default_grid",
    "gaussian_packet",
    "bump_packet",
    "overlap",
    "ghat_radial",
]


@dataclass(frozen=True)
class MomentumGrid:
    """Composite Gauss-Legendre nodes and weights on [0, p_max]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def p_max(self) -> float:
        return float(self.nodes[-1])

    def integrate(self, values):
        """Quadrature over the nodes, along the last axis of values."""
        return np.sum(self.weights * values, axis=-1)


def default_grid(p_max: float = 10.0, panels: int = 40, order: int = 12) -> MomentumGrid:
    return MomentumGrid(*gauss_legendre(0.0, p_max, order, panels))


@dataclass(frozen=True)
class RadialPacket:
    """Radial amplitude phi(p) with unit 3d norm: int 4 pi p^2 |phi|^2 dp = 1.

    `profile` evaluates the unnormalized amplitude at arbitrary p (times
    `scale` it matches `amplitude`); quadratures finer than the stored
    grid use it.
    """

    grid: MomentumGrid
    amplitude: np.ndarray
    profile: object
    scale: float = 1.0

    def __post_init__(self):
        if self.amplitude.shape != self.grid.nodes.shape:
            raise ValueError("amplitude must be sampled on the grid")

    def amplitude_at(self, p) -> np.ndarray:
        return self.scale * np.asarray(self.profile(np.asarray(p, dtype=float)), dtype=complex)

    def check_normalized(self) -> None:
        if abs(overlap(self, self) - 1.0) > 1e-8:
            raise ValueError("packet density must integrate to 1")


def _normalized(grid: MomentumGrid, amp: np.ndarray, profile) -> RadialPacket:
    nrm = np.sqrt(np.sum(grid.weights * 4.0 * pi * grid.nodes**2 * np.abs(amp) ** 2))
    return RadialPacket(grid, amp / nrm, profile=profile, scale=1.0 / nrm)


def gaussian_packet(grid: MomentumGrid, width: float) -> RadialPacket:
    """Radial Gaussian exp(-p^2 / (2 width^2)), normalized.

    width is the momentum-space scale s; the survival amplitude has the
    closed form (1 + i t s^2)^(-3/2).
    """
    if width <= 0:
        raise ValueError("width must be positive")
    def prof(p):
        return np.exp(-(np.asarray(p, dtype=float) ** 2) / (2.0 * width**2)).astype(complex)

    return _normalized(grid, prof(grid.nodes), profile=prof)


def bump_packet(grid: MomentumGrid) -> RadialPacket:
    """Packet whose position profile is the compact bump exp(-1/(1 - |x|^2/R^2)) of radius R = 2.

    The radial momentum amplitude is the numerical sine transform
    phi(p) = sqrt(2/pi) (1/p) int_0^R r sin(p r) b(r) dr, then normalized.
    """
    R = 2.0
    r = np.linspace(0.0, R, 4001)[:-1] + R / 8000.0  # cell midpoints, open at R
    dr = R / 4000.0
    b = np.exp(-1.0 / np.maximum(1.0 - (r / R) ** 2, 1e-300))
    w = np.sqrt(2.0 / pi) * r * b * dr
    def prof(p):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        flat = p.reshape(-1)
        s = np.empty(flat.size)
        # sin(p r_j) = Im e^{i p r_0} e^{i p j dr}, and e^{i p j dr} are the rows of `phase_blocks` at
        # the nodes -p and the step dr; 1024 points at a time bound each block to ~1 MB
        for i in range(0, flat.size, 1024):
            rows = flat[i : i + 1024]
            acc = sum((w[j : j + len(base)] @ base) * phase for j, base, phase in phase_blocks(-rows, dr, r.size))
            s[i : i + 1024] = (np.exp(1j * r[0] * rows) * acc).imag
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(flat == 0.0, np.sqrt(2.0 / pi) * np.sum(r**2 * b) * dr, s / np.where(flat == 0.0, 1.0, flat))
        return out.reshape(p.shape).astype(complex)

    return _normalized(grid, prof(grid.nodes), profile=prof)


def overlap(a: RadialPacket, b: RadialPacket) -> complex:
    """(a, b) in the 3d radial measure."""
    if a.grid is not b.grid and not np.array_equal(a.grid.nodes, b.grid.nodes):
        raise ValueError("packets must share a grid")
    return complex(a.grid.integrate(np.conj(a.amplitude) * b.amplitude * 4.0 * pi * a.grid.nodes**2))


def ghat_radial(packet: RadialPacket, u) -> np.ndarray:
    """Spectral density of the free survival amplitude of the packet.

    ghat(u) = theta(-u) sqrt(pi/2) sqrt(-u) 4 pi |phi(sqrt(-u))|^2 in the
    1/sqrt(2 pi), e^{-i t u} transform convention (support on u <= 0
    because the kinetic energy p^2 enters as e^{-i t p^2}).
    """
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    neg = u < 0
    pv = np.sqrt(-u[neg])
    amp = np.interp(pv, packet.grid.nodes, np.abs(packet.amplitude) ** 2, right=0.0)
    out[neg] = np.sqrt(pi / 2.0) * pv * 4.0 * pi * amp
    return out
