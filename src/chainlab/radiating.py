"""Radiating finite chain coupled to a Fermi continuum, discretized and exact.

The end of a finite domino chain couples to a continuum of field modes.
The dense route replaces the continuum by Gauss-Legendre quadrature
nodes, giving a finite Hamiltonian on the minimal invariant subspace
(build_modes, RadiatingChain).  Decay toward the radiated sector is fast
and near-complete before the discretization recurrence time.  The
continuum route (continuum_decay) keeps the continuum: the chain's
Green function with the exact self-energy of the last site, transformed
to time, needs no modes and no eigendecomposition, and the dense route
converges to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import ceil, pi

import numpy as np

from . import DomainError
from .dense_oracle import DenseOperator, Propagator, build_island_hamiltonian, check_dense_dimension
from .specfun import check_held, gauss_legendre, phase_sum

__all__ = [
    "RadiatingParams",
    "RadiatingChain",
    "default_params",
    "sigma_profile_default",
    "spectral_density",
    "build_modes",
    "decay_series",
    "continuum_decay",
    "recurrence_time",
    "resolvent_check",
    "resolvent_equation_residual",
]


# infrared cutoff b of the form factor; with the dispersion lambda = p^2 the continuum starts at b^2
_CUTOFF = 0.5
# upper edge of the mode band [b^2, _BAND_TOP] in both routes
_BAND_TOP = 14.0
# continuum_decay: Gauss-Legendre nodes of the principal value, energies per block of its
# energy x node array, and the time by which its energy grid's alias period 2 pi / dE clears the
# last time, over which the default chain's amplitudes fall to rounding; chosen by measurement
# (CHANGES.md)
_PV_NODES = 250
_PV_BLOCK = 500
_ALIAS_CLEARANCE = 1700.0
# largest |sum rule - 1| continuum_decay accepts
_SUM_RULE_TOL = 1e-10
# sigma_profile_default's decay rate alpha, and its ramp's 3d L2 norm on a fixed fine grid, computed once
_ALPHA = 0.6
_PG = np.linspace(_CUTOFF, _CUTOFF + 16.0, 20001)
_SIGMA_NORM = np.sqrt(np.trapezoid(4.0 * pi * _PG**2 * ((_PG - _CUTOFF) ** 2 * np.exp(-_ALPHA * _PG**2)) ** 2, _PG))
del _PG


def sigma_profile_default(p):
    """Smooth ramp form factor theta(p - b) (p - b)^2 exp(-alpha p^2), b = _CUTOFF.

    The infrared cutoff b keeps the mode density vanishing below b^2.
    The profile is L2-normalized in 3d and then multiplied by scale;
    alpha = 0.6 and scale = 2 set how much spectral weight sits under
    the emission window, which controls the decay rate of the chain.
    """
    p = np.asarray(p, dtype=float)
    raw = np.where(p > _CUTOFF, (p - _CUTOFF) ** 2 * np.exp(-_ALPHA * p**2), 0.0)
    return 2.0 * raw / _SIGMA_NORM


@dataclass(frozen=True)
class RadiatingParams:
    N: int
    eps0: float
    v: float

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("chain length must be >= 1")
        if self.eps0 <= _CUTOFF**2 + 2.0:
            raise DomainError("level shift must exceed b^2 + 2")


def spectral_density(lam):
    """rho(lambda) = 2 pi sqrt(lambda) |sigma(sqrt(lambda))|^2 for the dispersion lambda = p^2, sigma = sigma_profile_default."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("lambda must be positive")
    return 2.0 * pi * np.sqrt(lam) * np.abs(sigma_profile_default(np.sqrt(lam))) ** 2


@dataclass(frozen=True)
class RadiatingChain:
    """The chain of params coupled to M continuum modes; H and its eigendecomposition are built once, read-only."""

    params: RadiatingParams
    energies: np.ndarray    # lambda_k, strictly increasing
    couplings: np.ndarray   # g_k = sqrt(w_k rho(lambda_k)), weights absorbed

    @cached_property
    def hamiltonian(self) -> DenseOperator:
        """Hamiltonian on the minimal subspace: chain states then radiated modes.

        Chain block: nearest-neighbor hopping 1 over the N island states.
        Radiated block: diagonal -eps0 + lambda_k.  The last chain state
        couples to mode k with element v^2 g_k.
        """
        N, M = self.params.N, self.energies.size
        dim = N + M
        check_dense_dimension(dim)
        H = np.zeros((dim, dim))
        H[:N, :N] = build_island_hamiltonian(N).mat
        k = np.arange(M)
        H[N + k, N + k] = -self.params.eps0 + self.energies
        H[N - 1, N + k] = self.params.v**2 * self.couplings
        H[N + k, N - 1] = self.params.v**2 * self.couplings
        H.flags.writeable = False
        return DenseOperator(H)

    @cached_property
    def propagator(self) -> Propagator:
        """exp(-itH) through the eigendecomposition of H, computed on first use."""
        return Propagator(self.hamiltonian)

    def initial_state(self) -> np.ndarray:
        """The first chain state as a complex vector over the whole basis."""
        psi0 = np.zeros(self.hamiltonian.dim, dtype=complex)
        psi0[0] = 1.0
        return psi0

    def evolve(self, t) -> np.ndarray:
        """exp(-itH) applied to the first chain state; shape (dim,) for scalar t, (len(t), dim) for an array."""
        return self.propagator.apply(self.initial_state(), t)


def build_modes(params: RadiatingParams, M: int = 400) -> RadiatingChain:
    """The chain of params with the mode continuum on [b^2, 14], b = _CUTOFF, at M Gauss-Legendre nodes.

    An N + M too large to propagate is refused before leggauss's dense M x M eigenproblem.
    """
    if M < 2:
        raise DomainError("need at least 2 modes")
    check_dense_dimension(params.N + M)
    lam, wts = gauss_legendre(_CUTOFF**2, _BAND_TOP, M)
    g = np.sqrt(wts * spectral_density(lam))
    # read-only like the cached H they are built into, so that H0 and V cannot drift from it
    lam.flags.writeable = g.flags.writeable = False
    return RadiatingChain(params, lam, g)


def recurrence_time(chain: RadiatingChain) -> float:
    """2 pi over the mean node spacing: the discretization revival scale."""
    dl = np.diff(chain.energies)
    return 2.0 * pi / float(np.mean(dl))


def decay_series(chain: RadiatingChain, t_grid) -> np.ndarray:
    """Radiated-sector weight at each t for the chain started in its first state.

    Each block of Propagator.blocks is reduced to its weights as soon as it is formed, in the one buffer
    the blocks share, so neither the whole (times x states) evolution nor the complex modes are held.
    """
    blocks = chain.propagator.blocks(chain.initial_state(), t_grid)
    series = np.empty(np.size(t_grid))
    for i, psi in blocks:
        series[i : i + len(psi)] = np.sum(np.abs(psi[:, chain.params.N :]) ** 2, axis=1)
    return series


def continuum_decay(params: RadiatingParams, dt: float, n: int) -> np.ndarray:
    """Radiated weight 1 - sum_n |a_n(t_k)|^2 at t_k = k dt, k = 0..n-1, with the chain coupled to the true continuum.

    Uses the model alone (spectral_density on [b^2, _BAND_TOP], eps0, v, N):
    no modes, no eigendecomposition.  The self-energy of the last chain site is
    Sigma(E + i0) = v^4 [PV int rho(lambda) / (E + eps0 - lambda) dlambda - i pi rho(E + eps0)];
    the principal value subtracts rho(E + eps0), which it adds back as
    rho(E + eps0) log((E + eps0 - b^2) / (_BAND_TOP - E - eps0)), and takes the rest on
    _PV_NODES Gauss-Legendre nodes.  The column G_n1 of (E - H_chain - Sigma(E) e_N e_N^T)^-1
    gives a_n(t) = -(1/pi) int Im G_n1(E + i0) e^{-iEt} dE, summed by the midpoint rule
    over the band E in [b^2 - eps0, _BAND_TOP - eps0] with as many energies as put the
    sum's alias period 2 pi / dE at the last time plus _ALIAS_CLEARANCE.

    Raises DomainError before anything is allocated when the arrays exceed the byte
    budget, and after the solve when the first state's weight in the band,
    sum_E -(dE/pi) Im G_11(E), misses 1 by more than _SUM_RULE_TOL: a bound state
    outside the band, or an energy grid too coarse for the decay.
    """
    if n < 1 or not (dt >= 0.0 and np.isfinite((n - 1) * dt)):
        raise DomainError(f"need at least one time, a step dt >= 0 and a finite last time, got n = {n}, dt = {dt!r}")
    N, lo, hi, nq = params.N, _CUTOFF**2, _BAND_TOP, _PV_NODES
    nE = ceil((hi - lo) * ((n - 1) * dt + _ALIAS_CLEARANCE) / (2.0 * pi))
    # the largest of the stages that run one after another: leggauss's companion matrix with its
    # eigenvalue work, one principal-value block with its temporaries, the batched solve's matrices
    # with its solution, and phase_sum's base block (64 rows at most) with its real factor; besides
    # them, the arrays over the energies and the amplitudes
    stage = max(3 * nq * nq, 3 * _PV_BLOCK * nq, 2 * nE * N * (N + 2), 3 * min(64, n) * nE)
    held = 8 * (stage + (N + 12) * nE + 4 * n * N)
    check_held(held, f"continuum decay of {N} chain states over {nE} energies and {n} times")

    lam, wq = gauss_legendre(lo, hi, nq)
    rho_q = spectral_density(lam)
    dE = (hi - lo) / nE
    u = lo + dE * (np.arange(nE) + 0.5)   # E + eps0 at the midpoints
    rho_u = spectral_density(u)
    pv = rho_u * np.log((u - lo) / (hi - u))
    for i in range(0, nE, _PV_BLOCK):
        b = slice(i, i + _PV_BLOCK)
        pv[b] += ((rho_q - rho_u[b, None]) / (u[b, None] - lam)) @ wq
    sigma = params.v**4 * (pv - 1j * pi * rho_u)

    E = u - params.eps0
    A = np.empty((nE, N, N), dtype=complex)
    A[:] = -build_island_hamiltonian(N).mat
    diag = np.arange(N)
    A[:, diag, diag] += E[:, None]
    A[:, N - 1, N - 1] -= sigma
    e1 = np.zeros((N, 1))
    e1[0] = 1.0
    C = (-dE / pi) * np.linalg.solve(A, e1)[:, :, 0].imag
    del A
    weight = float(np.sum(C[:, 0]))
    if not abs(weight - 1.0) <= _SUM_RULE_TOL:
        raise DomainError(f"the first chain state has weight {weight:.12g} in the continuum, not 1: a bound state, "
                          f"or {nE} energies too few for the decay")
    a = phase_sum(C, E, dt, n)
    return 1.0 - np.sum(np.abs(a) ** 2, axis=1)


def default_params(N: int = 6, v: float = 0.7) -> RadiatingParams:
    """Defaults with the level shift set from the self-energy integral condition.

    With b = _CUTOFF, eps0 exceeds
    b^2 + 2 + 2 v^2 int rho(lambda)/(lambda - b^2) dlambda by a margin of 0.25.
    """
    lo, margin = _CUTOFF**2, 0.25
    lam = np.linspace(lo + 1e-9, 40.0, 80001)
    integ = np.trapezoid(spectral_density(lam) / (lam - lo), lam)
    return RadiatingParams(N=N, eps0=lo + 2.0 + 2.0 * v**2 * integ + margin, v=v)


def resolvent_check(chain: RadiatingChain, xi: complex) -> tuple[complex, complex]:
    """Resolvent matrix element of the first chain state against the half-line transform of the evolution.

    Returns ((i/sqrt(2 pi)) <beta_0|(H - xi)^-1|beta_0>,
             (1/sqrt(2 pi)) int_0^T e^{-i t xi} <beta_0|e^{itH}|beta_0> dt),
    which agree for Im xi < 0 up to the e^{T Im xi} truncation tail;
    T = 120, sampled with step dt = 0.005.
    """
    if xi.imag >= 0:
        raise ValueError("need Im xi < 0")
    H, e0 = chain.hamiltonian, chain.initial_state()
    sol = np.linalg.solve(_shifted(H.mat, xi), e0)
    lhs = 1j / np.sqrt(2.0 * pi) * complex(sol[0])
    prop = chain.propagator
    T, dt = 120.0, 0.005
    t = np.arange(0.0, T + 0.5 * dt, dt)
    v = prop.modes[0] ** 2  # |<mode|beta_0>|^2: the eigenvectors are real
    amp = phase_sum(v[:, None], -prop.energies, dt, t.size)[:, 0]
    rhs = complex(np.trapezoid(np.exp(-1j * t * xi) * amp, dx=dt)) / np.sqrt(2.0 * pi)
    return lhs, rhs


def resolvent_equation_residual(chain: RadiatingChain, xi: complex) -> float:
    """Operator-norm residual of the second resolvent equation R_H = R_H0 (I - V R_H).

    H0 and V come from the model, not from H: H0 is the island Hamiltonian
    plus the mode energies -eps0 + lambda_k, V couples the last chain state
    to mode k with c_k = v^2 g_k.  So the residual stays at rounding only if
    chain.hamiltonian is H0 + V.  xi must avoid the spectra of H and H0.
    """
    p = chain.params
    N = p.N
    dim = N + chain.energies.size
    # besides H, the inverse holds H - xi, R_H and LAPACK's two work copies (which tracemalloc does not
    # see), and forming X (R_H, X and the outer product) traces a little over three complex (dim, dim)
    # arrays; counted as four
    check_held(4 * 16 * dim * dim, f"resolvent equation at dimension {dim}")
    RH = np.linalg.inv(_shifted(chain.hamiltonian.mat, xi))
    # X = I - V R_H: row N - 1 of V R_H is c R_H[N:], row N + k is c_k R_H[N - 1], the others are zero
    c = p.v**2 * chain.couplings
    X = np.eye(dim, dtype=complex)
    X[N - 1] -= c @ RH[N:]
    X[N:] -= np.outer(c, RH[N - 1])
    # R_H0 X: the chain rows by one N x N solve, the mode rows divided by -eps0 + lambda_k - xi
    X[:N] = np.linalg.solve(_shifted(build_island_hamiltonian(N).mat, xi), X[:N])
    X[N:] /= (-p.eps0 + chain.energies - xi)[:, None]
    np.subtract(RH, X, out=X)
    del RH  # before the norm's SVD allocates its work arrays
    return float(np.linalg.norm(X, 2))


def _shifted(H: np.ndarray, xi: complex) -> np.ndarray:
    """H - xi I as a new complex array, with no identity matrix formed."""
    A = H.astype(complex)
    A.flat[:: A.shape[0] + 1] -= xi
    return A
