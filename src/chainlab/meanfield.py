"""Mean-field BCS dynamics and thermodynamics on su(2)*.

Lie-Poisson (Berezin) brackets, the exactly solvable BCS classical flow
and its SU(2) cocycle, Gibbs expectations, gap equation, critical
temperature, ground-state classification, and the closed-form SO(3)
rotation of a classical spin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
            raise ValueError("eps and lam must be positive")


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


def berezin_bracket(gradQ1, gradQ2, F, c: StructureConstants | None = None) -> float:
    """Lie-Poisson bracket {Q1, Q2}(F) = -c^j_{km} d_k Q1 d_m Q2 F_j."""
    if c is None:
        c = su2_constants()
    g1 = np.asarray(gradQ1, dtype=float)
    g2 = np.asarray(gradQ2, dtype=float)
    F = np.asarray(F, dtype=float)
    return float(-np.einsum("jkm,k,m,j->", c.c, g1, g2, F))


def bracket_flow_rhs(gradQ, F, c: StructureConstants | None = None) -> np.ndarray:
    """dF_j/dt = {Q, F_j}(F) for every coordinate function F_j."""
    if c is None:
        c = su2_constants()
    g = np.asarray(gradQ, dtype=float)
    F = np.asarray(F, dtype=float)
    # {Q, F_j} = -c^l_{kj} d_k Q F_l
    return -np.einsum("lkj,k,l->j", c.c, g, F)


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


def flow_rk4(gradQ, F0, t: float, dt: float, c: StructureConstants | None = None) -> np.ndarray:
    """RK4 integration of the Lie-Poisson flow of a Hamiltonian with gradient gradQ."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    F = np.asarray(F0, dtype=float).copy()
    n = int(round(t / dt))
    h = t / n if n else 0.0

    def rhs(x):
        return bracket_flow_rhs(gradQ(x), x, c)

    for _ in range(n):
        k1 = rhs(F)
        k2 = rhs(F + 0.5 * h * k1)
        k3 = rhs(F + 0.5 * h * k2)
        k4 = rhs(F + h * k3)
        F = F + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return F


def _polar_su2(U: np.ndarray) -> np.ndarray:
    # closest unitary, then strip the determinant phase
    w, s, vh = np.linalg.svd(U)
    V = w @ vh
    d = np.linalg.det(V)
    return V / np.sqrt(d)


def cocycle_evolve(F0, t: float, dt: float, p: BCSParams) -> np.ndarray:
    """SU(2) cocycle solving i dU/dt = X(F(t)) U, U(0) = 1.

    X(F) = -eps sigma3 - lam (F1 sigma1 + F2 sigma2) along the exact
    classical flow through F0; RK4 with polar re-unitarization per step.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(round(t / dt))
    h = t / n if n else 0.0
    U = np.eye(2, dtype=complex)

    def X(s):
        F = bcs_flow_exact(F0, s, p)
        return -p.eps * SIGMA[2] - p.lam * (F[0] * SIGMA[0] + F[1] * SIGMA[1])

    for k in range(n):
        s = k * h
        X1 = X(s)
        X2 = X(s + 0.5 * h)
        X3 = X(s + h)

        def rhs(M, Xs):
            return -1j * (Xs @ M)

        k1 = rhs(U, X1)
        k2 = rhs(U + 0.5 * h * k1, X2)
        k3 = rhs(U + 0.5 * h * k2, X2)
        k4 = rhs(U + h * k3, X3)
        U = U + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        U = _polar_su2(U)
    return U


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


def solve_gap_equation(p: BCSParams, tol: float = 1e-12) -> list[GapSolution]:
    """Self-consistent equilibrium points at temperature T.

    Always the normal solution F = (0, 0, tanh(eps/T)/2); for
    0 < 2 eps < lam and T < T_c additionally the superconducting circle
    F3 = eps/lam with the gap a solving 2a = lam tanh(a/T) (bisection on
    (eps, lam/2]).  One representative phase is returned; the rest of the
    circle follows by gauge rotation about the 3-axis.
    """
    if p.T <= 0:
        raise ValueError("T must be positive")
    out = []
    Fn = np.array([0.0, 0.0, 0.5 * np.tanh(p.eps / p.T)])
    out.append(GapSolution("normal", Fn, p.eps, 0.0))
    if 2.0 * p.eps < p.lam and p.T < critical_temperature(p):
        lo, hi = p.eps, 0.5 * p.lam

        def h(a):
            return 2.0 * a - p.lam * np.tanh(a / p.T)

        # h(eps) < 0 below T_c, h(lam/2) >= 0
        while hi - lo > tol:
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


def ground_states(p: BCSParams, n_circle: int = 8) -> list[GroundState]:
    """Zero-temperature equilibrium points with their 2-level vectors.

    Always F = (0, 0, 1/2); when 0 < 2 eps < lam also n_circle samples of
    the circle F3 = eps/lam, F1^2 + F2^2 = 1/4 - (eps/lam)^2.  chi(F) is
    the top eigenvector of n(F).sigma.
    """
    out = []
    Fn = np.array([0.0, 0.0, 0.5])
    out.append(GroundState("normal", Fn, np.array([1.0, 0.0], dtype=complex), 0.0))
    if 2.0 * p.eps < p.lam:
        r = np.sqrt(0.25 - (p.eps / p.lam) ** 2)
        for phi in np.linspace(0.0, 2.0 * np.pi, n_circle, endpoint=False):
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
