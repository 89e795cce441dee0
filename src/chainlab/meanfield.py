"""Mean-field BCS dynamics and thermodynamics on su(2)*.

Lie-Poisson (Berezin) brackets, the exactly solvable BCS classical flow
and its SU(2) cocycle, Gibbs expectations, gap equation, critical
temperature, ground-state classification, and the closed-form SO(3)
rotation of a classical spin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DomainError

__all__ = [
    "BCSParams",
    "StructureConstants",
    "su2_constants",
    "so3_constants",
    "berezin_bracket",
    "bracket_flow_rhs",
    "bcs_gradient",
    "bcs_flow_exact",
    "flow_rk4",
    "cocycle_evolve",
    "gap_value",
    "direction_field",
    "gibbs_expectations",
    "solve_gap_equation",
    "critical_temperature",
    "ground_states",
    "so3_rotate",
]

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_i, _k, _j] = -1.0


@dataclass(frozen=True)
class BCSParams:
    eps: float
    lam: float
    T: float = 0.0

    def __post_init__(self):
        if self.eps <= 0 or self.lam <= 0:
            raise DomainError("eps and lam must be positive")


@dataclass(frozen=True)
class StructureConstants:
    """c[j, k, l] = c^j_{kl} with [xi_k, xi_l] = c^j_{kl} xi_j."""

    c: np.ndarray

    def jacobi_residual(self) -> float:
        c = self.c
        r = (
            np.einsum("mjk,lmi->lijk", c, c)
            + np.einsum("mki,lmj->lijk", c, c)
            + np.einsum("mij,lmk->lijk", c, c)
        )
        return float(np.max(np.abs(r)))


def su2_constants() -> StructureConstants:
    return StructureConstants(_EPS3.copy())


# so(3) and su(2) share the structure constants eps_jkl
so3_constants = su2_constants


def berezin_bracket(gradQ1, gradQ2, F) -> float:
    """Lie-Poisson bracket {Q1, Q2}(F) = -c^j_{km} d_k Q1 d_m Q2 F_j on su(2)*."""
    g1 = np.asarray(gradQ1, dtype=float)
    g2 = np.asarray(gradQ2, dtype=float)
    F = np.asarray(F, dtype=float)
    return float(-np.einsum("jkm,k,m,j->", _EPS3, g1, g2, F))


def bracket_flow_rhs(gradQ, F) -> np.ndarray:
    """dF_j/dt = {Q, F_j}(F) for every coordinate function F_j."""
    g = np.asarray(gradQ, dtype=float)
    F = np.asarray(F, dtype=float)
    # {Q, F_j} = -c^l_{kj} d_k Q F_l
    return -np.einsum("lkj,k,l->j", _EPS3, g, F)


def bcs_gradient(F, p: BCSParams) -> np.ndarray:
    """Gradient of the BCS Hamiltonian Q = -2 eps F3 - lam (F1^2 + F2^2)."""
    F = np.asarray(F, dtype=float)
    return np.array([-2.0 * p.lam * F[0], -2.0 * p.lam * F[1], -2.0 * p.eps])


def bcs_flow_exact(F0, t: float, p: BCSParams) -> np.ndarray:
    """Closed-form BCS flow: F3 constant, F+- rotating at 2(eps - lam F3)."""
    F0 = np.asarray(F0, dtype=float)
    omega = 2.0 * (p.eps - p.lam * F0[2])
    fp = (F0[0] + 1j * F0[1]) * np.exp(-1j * omega * t)
    return np.array([fp.real, fp.imag, F0[2]])


def _rk4(rhs, y0, t: float, dt: float):
    """Classical RK4 for dy/ds = rhs(s, y) from s = 0 to t in round(t/dt) equal steps."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    y = y0
    n = int(round(t / dt))
    h = t / n if n else 0.0
    for k in range(n):
        s = k * h
        k1 = rhs(s, y)
        k2 = rhs(s + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(s + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(s + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def flow_rk4(gradQ, F0, t: float, dt: float) -> np.ndarray:
    """RK4 integration of the Lie-Poisson flow of a Hamiltonian with gradient gradQ."""
    F0 = np.asarray(F0, dtype=float)
    return _rk4(lambda s, F: bracket_flow_rhs(gradQ(F), F), F0, t, dt)


def cocycle_evolve(F0, t: float, dt: float, p: BCSParams) -> np.ndarray:
    """SU(2) cocycle solving i dU/dt = X(F(t)) U, U(0) = 1.

    X(F) = -eps sigma3 - lam (F1 sigma1 + F2 sigma2) along the exact
    classical flow through F0; plain RK4, whose unitarity defect stays
    at rounding level for the step sizes used here.
    """

    def X(s):
        F = bcs_flow_exact(F0, s, p)
        return -p.eps * SIGMA[2] - p.lam * (F[0] * SIGMA[0] + F[1] * SIGMA[1])

    return _rk4(lambda s, U: -1j * (X(s) @ U), np.eye(2, dtype=complex), t, dt)


def gap_value(F, p: BCSParams) -> float:
    """a(F) = sqrt(eps^2 + lam^2 (F1^2 + F2^2))."""
    F = np.asarray(F, dtype=float)
    return float(np.sqrt(p.eps**2 + p.lam**2 * (F[0] ** 2 + F[1] ** 2)))


def direction_field(F, p: BCSParams) -> np.ndarray:
    """Unit vector n(F) = (lam F1, lam F2, eps) / a(F)."""
    F = np.asarray(F, dtype=float)
    a = gap_value(F, p)
    return np.array([p.lam * F[0], p.lam * F[1], p.eps]) / a


def gibbs_expectations(F, p: BCSParams) -> np.ndarray:
    """Effective one-site Gibbs expectations s_j = n_j(F) tanh(a(F)/T)."""
    if p.T <= 0:
        raise ValueError("T must be positive")
    return direction_field(F, p) * np.tanh(gap_value(F, p) / p.T)


def critical_temperature(p: BCSParams) -> float:
    """T_c = eps / atanh(2 eps / lam), defined when 0 < 2 eps < lam."""
    if 2.0 * p.eps >= p.lam:
        raise ValueError("no superconducting phase: need 2 eps < lam")
    return p.eps / np.arctanh(2.0 * p.eps / p.lam)


@dataclass(frozen=True)
class GapSolution:
    kind: str                 # "normal" | "superconducting"
    F: np.ndarray             # representative point (phase at F2 = 0)
    a: float                  # gap a(F)
    residual: float           # self-consistency residual in a


def solve_gap_equation(p: BCSParams) -> list[GapSolution]:
    """Self-consistent equilibrium points at temperature T.

    Always the normal solution F = (0, 0, tanh(eps/T)/2); for 0 < 2 eps <
    lam and T < T_c also the superconducting circle F3 = eps/lam with the
    gap a solving 2a = lam tanh(a/T) (bisection on (eps, lam/2] to a
    bracket of 1e-12).  One representative phase is returned; the rest of
    the circle follows by gauge rotation about the 3-axis.
    """
    if not p.T > 0:
        raise DomainError(f"temperature T = {p.T:g} must be positive")
    out = []
    Fn = np.array([0.0, 0.0, 0.5 * np.tanh(p.eps / p.T)])
    out.append(GapSolution("normal", Fn, p.eps, 0.0))
    if 2.0 * p.eps < p.lam and p.T < critical_temperature(p):
        lo, hi = p.eps, 0.5 * p.lam

        def h(a):
            return 2.0 * a - p.lam * np.tanh(a / p.T)

        # h(eps) < 0 below T_c, h(lam/2) >= 0
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if h(mid) > 0:
                hi = mid
            else:
                lo = mid
        a = 0.5 * (lo + hi)
        fperp = np.sqrt(a**2 - p.eps**2) / p.lam
        Fs = np.array([fperp, 0.0, p.eps / p.lam])
        out.append(GapSolution("superconducting", Fs, a, abs(h(a))))
    return out


def _top_eigvec(M: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(M)
    return v[:, -1]


@dataclass(frozen=True)
class GroundState:
    kind: str          # "normal" | "superconducting"
    F: np.ndarray
    chi: np.ndarray    # C^2 vector with <chi| sigma_j/2 |chi> = F_j
    radius: float      # radius of the F1-F2 circle (0 for the normal point)


def ground_states(p: BCSParams) -> list[GroundState]:
    """Zero-temperature equilibrium points with their 2-level vectors.

    Always F = (0, 0, 1/2); when 0 < 2 eps < lam also 8 samples of
    the circle F3 = eps/lam, F1^2 + F2^2 = 1/4 - (eps/lam)^2.  chi(F) is
    the top eigenvector of n(F).sigma.
    """
    out = []
    Fn = np.array([0.0, 0.0, 0.5])
    out.append(GroundState("normal", Fn, np.array([1.0, 0.0], dtype=complex), 0.0))
    if 2.0 * p.eps < p.lam:
        r = np.sqrt(0.25 - (p.eps / p.lam) ** 2)
        for phi in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            F = np.array([r * np.cos(phi), r * np.sin(phi), p.eps / p.lam])
            n = direction_field(F, p)
            chi = _top_eigvec(n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2])
            out.append(GroundState("superconducting", F, chi, r))
    return out


def so3_rotate(y, tau, t: float) -> np.ndarray:
    """Rotation of y about the unit axis tau by angle t, closed form."""
    y = np.asarray(y, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if abs(np.linalg.norm(tau) - 1.0) > 1e-12:
        raise ValueError("tau must be a unit vector")
    cross = np.cross(tau, y)
    return y * np.cos(t) + cross * np.sin(t) + 2.0 * tau * np.dot(tau, y) * np.sin(0.5 * t) ** 2
