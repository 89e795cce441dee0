"""Mean-field BCS dynamics and thermodynamics on su(2)*.

Lie-Poisson (Berezin) brackets, the exactly solvable BCS classical flow
and its SU(2) cocycle, Gibbs expectations, gap equation, critical
temperature, and ground-state classification.  The flow is integrated by
RK4 on Python floats; the cocycle's equation is linear, so its RK4 steps
are 2x2 matrices, built at once and multiplied in a pairwise tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

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

# bytes one step holds at the traced peak, besides check_held's fixed work buffers: in _rk4 the stage
# arrays and their lists (194-199 per step at 1000-6000 steps), in cocycle_evolve the stage times
# and the RK4 stage matrices (574-619 per step), which the levels of its products never exceed
_RK4_STEP_BYTES = 240
_COCYCLE_STEP_BYTES = 640

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


def _step_counts(t, dt: float):
    """The times t as an array and the step count of each interval between them, from s = 0.

    The times must be finite, >= 0 and nondecreasing.  Each interval takes round(length/dt)
    equal steps, and at least one when it is positive.
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
    return times, [max(round(q), int(d > 0)) for d, q in zip(lengths.tolist(), steps.tolist())]


def _stage_times(times, counts) -> tuple[np.ndarray, np.ndarray]:
    """The (steps, 3) stage times s, s + h/2, s + h of every step over the intervals, and each step's h."""
    stages, hs, s0 = [np.empty((0, 3))], [np.empty(0)], 0.0
    for t1, n in zip(times.ravel().tolist(), counts):
        h = (t1 - s0) / n if n else 0.0
        stages.append((s0 + np.arange(n) * h)[:, None] + np.array([0.0, 0.5 * h, h]))
        hs.append(np.full(n, h))
        s0 = t1
    return np.concatenate(stages), np.concatenate(hs)


def _rk4(rhs, y0, t, dt: float):
    """Classical RK4 for dy/ds = rhs(s, y) from s = 0, sampled at the nondecreasing finite times t >= 0.

    The state is a list of Python floats, and rhs(s, y) returns a sequence of the same length, so a
    step makes no numpy call.  The steps are those of `_stage_times`; an array t stacks its states on
    axis 0, each a row of len(y0).  The stage arrays and their lists are counted through check_held
    before any is built.
    """
    times, counts = _step_counts(t, dt)
    total = sum(counts)
    check_held(_RK4_STEP_BYTES * total, f"RK4 integration of {total} steps")
    stages, hs = _stage_times(times, counts)
    y, out, rows, start = list(y0), [], stages.tolist(), 0
    for end in np.cumsum(counts, dtype=int).tolist():
        h = float(hs[start]) if end > start else 0.0  # one h per interval
        half, sixth = 0.5 * h, h / 6.0
        for c0, c1, c2 in rows[start:end]:
            k1 = rhs(c0, y)
            k2 = rhs(c1, [a + half * b for a, b in zip(y, k1)])
            k3 = rhs(c1, [a + half * b for a, b in zip(y, k2)])
            k4 = rhs(c2, [a + h * b for a, b in zip(y, k3)])
            y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        out.append(y)
        start = end
    return np.array(out).reshape(times.shape + (len(y0),))


def flow_rk4(F0, t, dt: float, p: BCSParams) -> np.ndarray:
    """RK4 integration of the Lie-Poisson flow of the mean-field Hamiltonian of p, at a time or times t."""
    return _rk4(lambda s, F: bracket_flow_rhs(bcs_gradient(F, p), F), np.asarray(F0, dtype=float).tolist(), t, dt)


def _mul(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """ba over stacks of 2x2 matrices, written out: a stacked matmul takes 3-5 times longer at 100-6000 of them."""
    return b[..., :, 0, None] * a[..., None, 0, :] + b[..., :, 1, None] * a[..., None, 1, :]


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(I + b)(I + a) - I = a + b + ba over stacks of 2x2 matrices: I + a acts first, and I is never rounded."""
    return a + b + _mul(b, a)


def _generators(F0, stages: np.ndarray, p: BCSParams) -> np.ndarray:
    """A = -i X(F(s)) at each stage time s, F on the exact flow through F0: shape stages.shape + (2, 2)."""
    lamF = p.lam * bcs_flow_exact(F0, stages.ravel(), p)[:, :2]
    A = np.empty((lamF.shape[0], 2, 2), dtype=complex)
    A[:, 0, 0], A[:, 1, 1] = 1j * p.eps, -1j * p.eps
    A[:, 0, 1].real, A[:, 0, 1].imag = lamF[:, 1], lamF[:, 0]
    A[:, 1, 0].real, A[:, 1, 0].imag = -lamF[:, 1], lamF[:, 0]
    return A.reshape(stages.shape + (2, 2))


def _rk4_matrices(A: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """The RK4 step of dU/ds = A(s) U as the matrix I + D, for the (steps, 3, 2, 2) stage generators A: the stack D."""
    A0, Ah, A1 = A[:, 0], A[:, 1], A[:, 2]
    h = hs[:, None, None]
    K2 = Ah + 0.5 * h * _mul(Ah, A0)
    K3 = Ah + 0.5 * h * _mul(Ah, K2)
    K4 = A1 + h * _mul(A1, K3)
    return h / 6.0 * (A0 + 2.0 * K2 + 2.0 * K3 + K4)


def cocycle_evolve(F0, t, dt: float, p: BCSParams) -> np.ndarray:
    """SU(2) cocycle solving i dU/dt = X(F(t)) U, U(0) = 1, at a time or times t.

    X(F) = -eps sigma3 - lam (F1 sigma1 + F2 sigma2) along the exact classical flow through F0,
    taken at every stage time in one `bcs_flow_exact` call.  The equation is linear in U, so a
    plain RK4 step is a 2x2 matrix I + D, built for all steps at once (`_stage_times` gives the
    stage times of `_rk4`).  U at a time is the ordered product of its steps, kept in D form
    (`_compose`): each level of a pairwise tree holds the products of aligned blocks of 2^l steps,
    and a time's prefix of N steps joins the blocks of the binary digits of N.  The product thus
    depends on N alone, so a row of an array t equals the call at its time to the bit, and its
    unitarity defect stays at rounding level for the step sizes used here.
    """
    times, counts = _step_counts(t, dt)
    total = sum(counts)
    check_held(_COCYCLE_STEP_BYTES * total, f"cocycle of {total} RK4 steps")
    stages, hs = _stage_times(times, counts)
    levels = [_rk4_matrices(_generators(F0, stages, p), hs)]
    while levels[-1].shape[0] > 1:
        D = levels[-1]
        m = D.shape[0] // 2 * 2
        levels.append(_compose(D[0:m:2], D[1:m:2]))
    out = np.zeros((len(counts), 2, 2), dtype=complex)
    for row, n in zip(out, np.cumsum(counts, dtype=int).tolist()):
        # the blocks of the prefix of n steps, the last and smallest first: bit b of n is the block
        # of 2^b steps that starts after the blocks of the higher bits
        blocks = [levels[b][(n >> b) - 1] for b in range(n.bit_length()) if n >> b & 1]
        if blocks:
            row[...] = reduce(lambda later, earlier: _compose(earlier, later), blocks)
    out += np.eye(2)
    return out.reshape(np.shape(t) + (2, 2))


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
