"""Radiating finite chain coupled to a discretized Fermi continuum.

The end of a finite domino chain couples to a continuum of field modes;
the continuum is replaced by Gauss-Legendre quadrature nodes, giving a
finite Hamiltonian on the minimal invariant subspace.  Decay toward the
radiated sector is fast and near-complete before the discretization
recurrence time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi

import numpy as np

from . import DomainError
from .dense_oracle import DenseOperator, Propagator, build_island_hamiltonian, check_dense_dimension
from .specfun import phase_sum

__all__ = [
    "RadiatingParams",
    "ContinuumModes",
    "default_params",
    "sigma_profile_default",
    "spectral_density",
    "build_modes",
    "build_minimal_hamiltonian",
    "decay_series",
    "recurrence_time",
    "resolvent_check",
    "resolvent_equation_residual",
]


# infrared cutoff b of the form factor; with the dispersion lambda = p^2 the continuum starts at b^2
_CUTOFF = 0.5


def sigma_profile_default(p):
    """Smooth ramp form factor theta(p - b) (p - b)^2 exp(-alpha p^2), b = _CUTOFF.

    The infrared cutoff b keeps the mode density vanishing below b^2.
    The profile is L2-normalized in 3d and then multiplied by scale;
    alpha = 0.6 and scale = 2 set how much spectral weight sits under
    the emission window, which controls the decay rate of the chain.
    """
    alpha, scale, b = 0.6, 2.0, _CUTOFF
    p = np.asarray(p, dtype=float)
    raw = np.where(p > b, (p - b) ** 2 * np.exp(-alpha * p**2), 0.0)
    # normalize int 4 pi p^2 |sigma|^2 dp = 1 on a fixed fine grid
    pg = np.linspace(b, b + 16.0, 20001)
    nrm = np.sqrt(
        np.trapezoid(4.0 * pi * pg**2 * ((pg - b) ** 2 * np.exp(-alpha * pg**2)) ** 2, pg)
    )
    return scale * raw / nrm


@dataclass(frozen=True)
class RadiatingParams:
    N: int
    eps0: float
    v: float

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("chain length must be >= 1")
        if self.eps0 <= _CUTOFF**2 + 2.0:
            raise ValueError("level shift must exceed b^2 + 2")


def spectral_density(lam):
    """rho(lambda) = 2 pi sqrt(lambda) |sigma(sqrt(lambda))|^2 for the dispersion lambda = p^2, sigma = sigma_profile_default."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    return 2.0 * pi * np.sqrt(lam) * np.abs(sigma_profile_default(np.sqrt(lam))) ** 2


@dataclass(frozen=True)
class ContinuumModes:
    energies: np.ndarray    # lambda_k, strictly increasing
    couplings: np.ndarray   # g_k = sqrt(w_k rho(lambda_k)), weights absorbed

    @property
    def count(self) -> int:
        return self.energies.size


def build_modes(params: RadiatingParams, M: int = 400) -> ContinuumModes:
    """Gauss-Legendre discretization of the mode continuum on [b^2, 14], b = _CUTOFF.

    An N + M too large to propagate is refused before leggauss's dense M x M eigenproblem.
    """
    if M < 2:
        raise DomainError("need at least 2 modes")
    check_dense_dimension(params.N + M)
    lo, hi = _CUTOFF**2, 14.0
    x, w = np.polynomial.legendre.leggauss(M)
    lam = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
    wts = 0.5 * (hi - lo) * w
    g = np.sqrt(wts * spectral_density(lam))
    return ContinuumModes(lam, g)


def build_minimal_hamiltonian(params: RadiatingParams, modes: ContinuumModes) -> DenseOperator:
    """Hamiltonian on the minimal subspace: chain states then radiated modes.

    Chain block: nearest-neighbor hopping 1 over the N island states.
    Radiated block: diagonal -eps0 + lambda_k.  The last chain state
    couples to mode k with element v^2 g_k.
    """
    N, M = params.N, modes.count
    dim = N + M
    check_dense_dimension(dim)
    H = np.zeros((dim, dim))
    H[:N, :N] = build_island_hamiltonian(N).mat
    k = np.arange(M)
    H[N + k, N + k] = -params.eps0 + modes.energies
    H[N - 1, N + k] = params.v**2 * modes.couplings
    H[N + k, N - 1] = params.v**2 * modes.couplings
    return DenseOperator(H)


def recurrence_time(modes: ContinuumModes) -> float:
    """2 pi over the mean node spacing: the discretization revival scale."""
    dl = np.diff(modes.energies)
    return 2.0 * pi / float(np.mean(dl))


def decay_series(params: RadiatingParams, modes: ContinuumModes, t_grid) -> np.ndarray:
    """Radiated-sector weight at each t for the chain started in its first state."""
    H = build_minimal_hamiltonian(params, modes)
    prop = Propagator(H)
    psi0 = np.zeros(H.dim, dtype=complex)
    psi0[0] = 1.0
    psi_t = prop.apply(psi0, np.asarray(t_grid, dtype=float))
    return np.sum(np.abs(psi_t[:, params.N :]) ** 2, axis=1)


def default_params(N: int = 6, v: float = 0.7) -> RadiatingParams:
    """Defaults with the level shift set from the self-energy integral condition.

    With b = _CUTOFF, eps0 exceeds
    b^2 + 2 + 2 v^2 int rho(lambda)/(lambda - b^2) dlambda by a margin of 0.25.
    """
    lo, margin = _CUTOFF**2, 0.25
    lam = np.linspace(lo + 1e-9, 40.0, 80001)
    integ = np.trapezoid(spectral_density(lam) / (lam - lo), lam)
    return RadiatingParams(N=N, eps0=lo + 2.0 + 2.0 * v**2 * integ + margin, v=v)


def resolvent_check(params: RadiatingParams, modes: ContinuumModes, xi: complex) -> tuple[complex, complex]:
    """Resolvent matrix element of the first chain state against the half-line transform of the evolution.

    Returns ((i/sqrt(2 pi)) <beta_0|(H - xi)^-1|beta_0>,
             (1/sqrt(2 pi)) int_0^T e^{-i t xi} <beta_0|e^{itH}|beta_0> dt),
    which agree for Im xi < 0 up to the e^{T Im xi} truncation tail;
    T = 120, sampled with step dt = 0.005.
    """
    if xi.imag >= 0:
        raise ValueError("need Im xi < 0")
    H = build_minimal_hamiltonian(params, modes)
    dim = H.dim
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    sol = np.linalg.solve(H.mat - xi * np.eye(dim), e0)
    lhs = 1j / np.sqrt(2.0 * pi) * complex(sol[0])
    prop = Propagator(H)
    T, dt = 120.0, 0.005
    t = np.arange(0.0, T + 0.5 * dt, dt)
    v = prop.modes[0] * (prop.modes.conj().T @ e0)
    amp = phase_sum(v[:, None], -prop.energies, dt, t.size)[:, 0]
    rhs = complex(np.trapezoid(np.exp(-1j * t * xi) * amp, dx=dt)) / np.sqrt(2.0 * pi)
    return lhs, rhs


def resolvent_equation_residual(params: RadiatingParams, modes: ContinuumModes, xi: complex) -> float:
    """Operator-norm residual of R_H = R_H0 (I - V R_H).

    H0 is the uncoupled chain-plus-modes block diagonal, V the chain-end
    coupling; xi must avoid both spectra.
    """
    H = build_minimal_hamiltonian(params, modes).mat
    N = params.N
    V = np.zeros_like(H)
    V[:N, N:] = H[:N, N:]
    V[N:, :N] = H[N:, :N]
    H0 = H - V
    I = np.eye(H.shape[0])
    RH = np.linalg.solve(H - xi * I, I)
    RH0 = np.linalg.solve(H0 - xi * I, I)
    return float(np.linalg.norm(RH - RH0 @ (I - V @ RH), 2))
