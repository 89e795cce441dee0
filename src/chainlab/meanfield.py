"""Mean-field BCS dynamics and thermodynamics on su(2)*.

Lie-Poisson (Berezin) brackets, the exactly solvable BCS classical flow
and its SU(2) cocycle, Gibbs expectations, gap equation, critical
temperature, and ground-state classification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DomainError
from .specfun import check_held

__all__ = [
    "BCSParams",
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
]

# bytes one RK4 step holds in _rk4's stage arrays and their lists, cocycle_evolve's coefficient table
# included (traced: CHANGES.md)
_RK4_STEP_BYTES = 600

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
SIGMA.flags.writeable = False  # criteria 13 and 14 read it: no caller may change it


@dataclass(frozen=True)
class BCSParams:
    eps: float
    lam: float
    T: float = 0.0

    def __post_init__(self):
        if self.eps <= 0 or self.lam <= 0:
            raise DomainError("eps and lam must be positive")


def _cross(a, b) -> tuple:
    """a x b of two 3-vectors, by components (np.cross costs more per call on 3-vectors)."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def berezin_bracket(gradQ1, gradQ2, F) -> float:
    """Lie-Poisson bracket {Q1, Q2}(F) = -F . (grad Q1 x grad Q2) on su(2)* = so(3)*."""
    g1 = np.asarray(gradQ1, dtype=float)
    g2 = np.asarray(gradQ2, dtype=float)
    return float(-np.dot(np.asarray(F, dtype=float), _cross(g1, g2)))


def bracket_flow_rhs(gradQ, F) -> tuple:
    """dF_j/dt = {Q, F_j}(F) for every coordinate function F_j: grad Q x F, as a 3-tuple."""
    return _cross(gradQ, F)


def bcs_gradient(F, p: BCSParams) -> tuple:
    """Gradient of the BCS Hamiltonian Q = -2 eps F3 - lam (F1^2 + F2^2), as a 3-tuple."""
    return (-2.0 * p.lam * F[0], -2.0 * p.lam * F[1], -2.0 * p.eps)


def bcs_flow_exact(F0, t, p: BCSParams) -> np.ndarray:
    """Closed-form BCS flow: F3 constant, F+- rotating at 2(eps - lam F3); rows stack a 1-d array t."""
    F0 = np.asarray(F0, dtype=float)
    omega = 2.0 * (p.eps - p.lam * F0[2])
    fp = (F0[0] + 1j * F0[1]) * np.exp(-1j * omega * np.asarray(t, dtype=float))
    return np.array([fp.real, fp.imag, F0[2] + 0.0 * fp.real]).T  # F3 takes the shape of t


def _rk4(rhs, y0, t, dt: float, coef=None):
    """Classical RK4 for dy/ds = rhs(c, y) from s = 0, sampled at the nondecreasing finite times t >= 0.

    The state is a list of Python floats or complex numbers, and rhs(c, y) returns a sequence of the
    same length, so a step makes no numpy call.  Each interval between times takes round(length/dt)
    equal steps, and at least one; an array t stacks its states on axis 0, each a row of len(y0).
    The stage coefficient c is the stage time s, or coef(S)[k][j] when coef maps the interval's (steps, 3)
    array S of stage times s, s + h/2, s + h in one call.  The stage arrays and lists of the longest
    interval are counted through check_held before any is built.
    """
    if not dt > 0:
        raise DomainError(f"dt = {dt} must be positive")
    times = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite or NaN step count fails the test below
        lengths = np.diff(times.ravel(), prepend=0.0)
        steps = lengths / dt
    if not np.all((lengths >= 0) & np.isfinite(steps)):  # also catches NaN and infinite times
        raise DomainError("times must be finite, >= 0 and nondecreasing, each a finite number of steps dt apart")
    # an interval shorter than dt/2 rounds to no step, but any positive interval takes one
    counts = [max(round(q), int(d > 0)) for d, q in zip(lengths.tolist(), steps.tolist())]
    longest = max(counts, default=0)
    check_held(_RK4_STEP_BYTES * longest, f"RK4 interval of {longest} steps")
    y, s0, out = list(y0), 0.0, []
    for t1, n in zip(times.ravel().tolist(), counts):
        h = (t1 - s0) / n if n else 0.0
        half, sixth = 0.5 * h, h / 6.0
        stages = (s0 + np.arange(n) * h)[:, None] + np.array([0.0, half, h])
        for c0, c1, c2 in (stages if coef is None else coef(stages)).tolist():
            k1 = rhs(c0, y)
            k2 = rhs(c1, [a + half * b for a, b in zip(y, k1)])
            k3 = rhs(c1, [a + half * b for a, b in zip(y, k2)])
            k4 = rhs(c2, [a + h * b for a, b in zip(y, k3)])
            y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        out.append(y)
        s0 = t1
    return np.array(out).reshape(times.shape + (len(y0),))


def flow_rk4(F0, t, dt: float, p: BCSParams) -> np.ndarray:
    """RK4 integration of the Lie-Poisson flow of the mean-field Hamiltonian of p, at a time or times t."""
    return _rk4(lambda s, F: bracket_flow_rhs(bcs_gradient(F, p), F), np.asarray(F0, dtype=float).tolist(), t, dt)


def cocycle_evolve(F0, t, dt: float, p: BCSParams) -> np.ndarray:
    """SU(2) cocycle solving i dU/dt = X(F(t)) U, U(0) = 1, at a time or times t.

    X(F) = -eps sigma3 - lam (F1 sigma1 + F2 sigma2) along the exact
    classical flow through F0; plain RK4, whose unitarity defect stays
    at rounding level for the step sizes used here.  The flow is taken
    at all stage times of an interval in one `bcs_flow_exact` call.
    """

    def F12(stages):
        return bcs_flow_exact(F0, stages.ravel(), p)[:, :2].reshape(stages.shape + (2,))

    eps, lam = p.eps, p.lam

    def rhs(F, U):
        # -i X U on U = (u00, u01, u10, u11), with X = [[-eps, x01], [x10, eps]] written out
        x01 = complex(-lam * F[0], lam * F[1])
        x10 = complex(-lam * F[0], -lam * F[1])
        u00, u01, u10, u11 = U
        return (-1j * (-eps * u00 + x01 * u10), -1j * (-eps * u01 + x01 * u11),
                -1j * (x10 * u00 + eps * u10), -1j * (x10 * u01 + eps * u11))

    return _rk4(rhs, [1.0 + 0j, 0j, 0j, 1.0 + 0j], t, dt, F12).reshape(np.shape(t) + (2, 2))


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
            chi = np.linalg.eigh(n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2])[1][:, -1]
            out.append(GroundState("superconducting", F, chi, r))
    return out
