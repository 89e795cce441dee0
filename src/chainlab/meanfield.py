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

# flow_rk4's steps hold nothing, so its step count is bounded by time: about 1 us a step, 10 s at most
_MAX_RK4_STEPS = 10**7
# bytes at the traced peak, besides check_held's fixed work buffers: per time of flow_rk4 its output
# row, its step count and the times' lists (197-245 per time at 1000-20000 times), and per step of
# cocycle_evolve the stage times and the RK4 stage matrices (574-619 per step), which the levels of
# its products never exceed
_RK4_TIME_BYTES = 256
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


def _intervals(times, counts):
    """(s0, h, n) of each interval: its start, its step size and its step count."""
    s0 = 0.0
    for t1, n in zip(times.ravel().tolist(), counts):
        yield s0, (t1 - s0) / n if n else 0.0, n
        s0 = t1


def _stage_times(times, counts) -> tuple[np.ndarray, np.ndarray]:
    """The (steps, 3) stage times s, s + h/2, s + h of every step over the intervals, and each step's h."""
    stages, hs = [np.empty((0, 3))], [np.empty(0)]
    for s0, h, n in _intervals(times, counts):
        stages.append((s0 + np.arange(n) * h)[:, None] + np.array([0.0, 0.5 * h, h]))
        hs.append(np.full(n, h))
    return np.concatenate(stages), np.concatenate(hs)


def _initial_state(F0) -> np.ndarray:
    """F0 as a float array; DomainError unless it is a 3-vector of finite entries."""
    F0 = np.asarray(F0, dtype=float)
    if F0.shape != (3,):
        raise DomainError(f"F0 must be a 3-vector, got shape {F0.shape}")
    if not np.all(np.isfinite(F0)):
        raise DomainError(f"F0 = {F0.tolist()} must be finite")
    return F0


def flow_rk4(F0, t, dt: float, p: BCSParams) -> np.ndarray:
    """RK4 integration of the Lie-Poisson flow of the mean-field Hamiltonian of p, at a time or times t.

    A step is written out on three Python floats, with the arithmetic of
    bracket_flow_rhs(bcs_gradient(F, p), F) in its order, so it makes no call and holds nothing.
    The steps are those of `_intervals`; an array t stacks its states on axis 0.  More than
    _MAX_RK4_STEPS steps are refused before the first, and the output rows are counted through
    check_held.
    """
    x, y, z = _initial_state(F0).tolist()
    times, counts = _step_counts(t, dt)
    total = sum(counts)
    if total > _MAX_RK4_STEPS:
        raise DomainError(f"RK4 integration of {total} steps > {_MAX_RK4_STEPS} steps")
    check_held(_RK4_TIME_BYTES * len(counts), f"RK4 integration at {len(counts)} times")
    lam2, g2 = -2.0 * p.lam, -2.0 * p.eps  # grad Q = (lam2 x, lam2 y, g2)
    out = []
    for _, h, n in _intervals(times, counts):
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(n):
            g0, g1 = lam2 * x, lam2 * y
            a1, b1, c1 = g1 * z - g2 * y, g2 * x - g0 * z, g0 * y - g1 * x
            x2, y2, z2 = x + half * a1, y + half * b1, z + half * c1
            g0, g1 = lam2 * x2, lam2 * y2
            a2, b2, c2 = g1 * z2 - g2 * y2, g2 * x2 - g0 * z2, g0 * y2 - g1 * x2
            x3, y3, z3 = x + half * a2, y + half * b2, z + half * c2
            g0, g1 = lam2 * x3, lam2 * y3
            a3, b3, c3 = g1 * z3 - g2 * y3, g2 * x3 - g0 * z3, g0 * y3 - g1 * x3
            x4, y4, z4 = x + h * a3, y + h * b3, z + h * c3
            g0, g1 = lam2 * x4, lam2 * y4
            a4, b4, c4 = g1 * z4 - g2 * y4, g2 * x4 - g0 * z4, g0 * y4 - g1 * x4
            x = x + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            y = y + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            z = z + sixth * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        out.append((x, y, z))
    return np.array(out).reshape(times.shape + (3,))


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
    stage times of the steps of `_intervals`, which `flow_rk4` takes).  U at a time is the ordered
    product of its steps, kept in D form (`_compose`): each level of a pairwise tree holds the
    products of aligned blocks of 2^l steps, and a time's prefix of N steps joins the blocks of the
    binary digits of N.  The product thus depends on N alone, so a row of an array t equals the
    call at its time to the bit, and its unitarity defect stays at rounding level for the step
    sizes used here.  F0 must be a 3-vector of finite entries.
    """
    F0 = _initial_state(F0)
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
    if not p.T > 0:
        raise DomainError(f"temperature T = {p.T:g} must be positive")
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
