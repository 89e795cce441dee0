"""Acceptance suite: one check per numbered criterion.

Each criterion is a function of the shared inputs it reads, named as its
parameters (`detector_run`, `radiating_chain`; most take none), and returns
(name, checks).  run_all numbers it by its position in CRITERIA, builds each
input of INPUTS on first use and drops it after its last selected user, and
keeps the checks in a CriterionResult, which forms the verdict: `passed`
holds when every check's value lies strictly between its bounds (NaN never
does), and `detail` joins the checks' texts.  The checks run in seconds each.
"""

from __future__ import annotations

import filecmp
import inspect
import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import dense_oracle, detector, meanfield, projection, qdomino, radiating, xychain
from .packets import bump_packet, default_grid, gaussian_packet
from .specfun import bessel_table

__all__ = ["Check", "CriterionResult", "INPUTS", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class Check:
    """One condition of a criterion, lo < value < hi, and its text in the line ("": checked, not printed)."""
    text: str
    value: float
    lo: float = -math.inf
    hi: float = math.inf


@dataclass(frozen=True)
class CriterionResult:
    """A numbered criterion's checks, from which its verdict and its line follow."""
    number: int
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        """Every check's value lies strictly between its bounds; a Python bool, and NaN lies within no bounds."""
        return all(c.lo < c.value < c.hi for c in self.checks)

    @property
    def detail(self) -> str:
        return ", ".join(c.text for c in self.checks if c.text)

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {status}  {self.name}: {self.detail}"


# the builder of each input that several criteria read, by the parameter name that asks for it: the default
# detector run (gamma = 0.5, dt = 0.02, T = 200) and the default radiating chain at M = 400 modes.  Each build
# is deterministic, so a criterion run alone prints the line it prints in a full run.
INPUTS = {
    "detector_run": lambda: detector.DetectorRun(gamma=0.5),
    "radiating_chain": lambda: radiating.build_modes(radiating.default_params(), M=400),
}


def criterion_01() -> tuple[str, list[Check]]:
    ts = np.arange(0.5, 10.0 + 1e-9, 0.5)
    prop = dense_oracle.Propagator(dense_oracle.build_island_hamiltonian(8))
    # U[k, n, m] = <n|exp(-i ts[k] H)|m>: column m evolves e_m
    U = np.stack([prop.apply(e_m, ts) for e_m in np.eye(8)], axis=2)
    # G[n, m, k] = green_finite(n + 1, m + 1, 8, ts[k])
    G = np.array([[qdomino.green_finite(n, m, 8, ts) for m in range(1, 9)] for n in range(1, 9)])
    worst = float(np.max(np.abs(np.moveaxis(G, 2, 0) - U)))
    return "domino Green function vs dense oracle", [Check(f"max |diff| = {worst:.3e}", worst, hi=1e-10)]


def criterion_02() -> tuple[str, list[Check]]:
    t = np.linspace(50.0, 500.0, 2000)
    slopes = qdomino.asymptotic_exponent([2, 3, 5], t)
    return "domino envelope decay exponent -3", [
        Check(("slopes " if k == 0 else "") + f"{s:.3f}", abs(s + 3.0), hi=0.2) for k, s in enumerate(slopes)]


def criterion_03() -> tuple[str, list[Check]]:
    low = float(np.min(qdomino.flip_probability(np.arange(1, 6), 1e3)))
    return "domino flip probability -> 1", [Check(f"min = {low:.6f}", low, lo=0.999)]


def _bessel_integral(n, x) -> np.ndarray:
    """J_n(x) from Bessel's integral (1/M) sum_m cos(n tau_m - x sin tau_m), tau_m = 2 pi m / M, M = 512.

    A full-period trapezoid, so it converges spectrally while n + |x| stays well
    below M; independent of specfun's recurrence.  Broadcasts n against x.
    """
    tau = 2.0 * np.pi * np.arange(512) / 512
    n = np.asarray(n, dtype=float)[..., None]
    x = np.asarray(x, dtype=float)[..., None]
    return np.mean(np.cos(n * tau - x * np.sin(tau)), axis=-1)


def criterion_04() -> tuple[str, list[Check]]:
    worst = dev = 0.0
    for x in (1.0, 5.0, 10.0, 25.0, 50.0):
        n_max = int(2 * x) + 60
        tab = bessel_table(n_max, x)
        worst = max(worst, abs(tab[0] ** 2 + 2.0 * np.sum(tab[1:] ** 2) - 1.0))
        dev = max(dev, float(np.max(np.abs(tab - _bessel_integral(np.arange(n_max + 1), x)))))
    return "Bessel quadratic normalization", [
        Check(f"max residual = {worst:.3e}", worst, hi=1e-12), Check(f"integral dev = {dev:.3e}", dev, hi=1e-12)]


def criterion_05() -> tuple[str, list[Check]]:
    lim = float(np.max(np.abs(xychain.occupation(np.arange(-3, 4), 1e3, 1.0) - 0.5)))
    # sites 2 and -3 summed term by term, sum_{r=1..99} J_{|j+r|}^2(t), with no normalization identity
    ts = np.array([1.0, 5.0, 10.0, 37.0])
    sq = _bessel_integral(np.arange(103)[:, None], ts) ** 2
    js = np.array([2, -3])
    direct = np.sum(sq[np.abs(js[:, None] + np.arange(1, 100))], axis=1)
    site = float(np.max(np.abs(xychain.occupation(js, ts, 1.0) - direct)))
    return "xy occupation limit and site sums", [
        Check(f"limit dev {lim:.2e}", lim, hi=1e-3), Check(f"site dev {site:.2e}", site, hi=1e-10)]


def criterion_06() -> tuple[str, list[Check]]:
    # right half of the 10-site flip-flop chain occupied; reflection maps
    # it onto the infinite left-occupied formula: site s is j = 4 - s.  The
    # flip-flop conserves the 5 up spins, so the oracle runs in that sector.
    times = np.array([1.0, 2.0])
    H = dense_oracle.build_flip_flop_hamiltonian(10, n_up=5)
    psi_t = dense_oracle.Propagator(H).apply(dense_oracle.basis_state([0] * 5 + [1] * 5, n_up=5), times)
    sites = np.array([4, 5, 6])
    dense = np.array([dense_oracle.expectation(psi_t, dense_oracle.site_number_op(10, s, n_up=5)).real for s in sites])
    worst = float(np.max(np.abs(dense - xychain.occupation(4 - sites, times, 1.0))))
    return "xy 10-site dense oracle", [Check(f"max |diff| = {worst:.3e}", worst, hi=1e-3)]


def criterion_07(detector_run) -> tuple[str, list[Check]]:
    l1 = detector_run.gamma_g_l1()
    Fm = detector_run.solve_marching()
    Fn = detector_run.solve_neumann()
    Ff = detector_run.solution  # solve_fourier's F, solved once for criteria 07 and 08
    dt = detector_run.dt

    def l2(x, y):
        return float(np.sqrt(dt * np.sum(np.abs(x - y) ** 2)))

    dev = max(l2(Fm, Fn), l2(Fm, Ff), l2(Fn, Ff))
    return "detector solver equivalence", [
        Check(f"max L2 dev {dev:.3e}", dev, hi=1e-5), Check(f"||gamma g||_1 = {l1:.3f}", l1, hi=2.0)]


def criterion_08(detector_run) -> tuple[str, list[Check]]:
    # fine grid for the tight bound: conservation error is O(dt^2)
    run = detector.DetectorRun(gamma=0.5, dt=0.004, T=20.0)
    ts = np.array([2.0, 5.0, 10.0, 20.0])
    p0 = run.p0_series(ts)
    dev = float(np.max(np.abs(run.occupations_at(ts).sum(axis=1) + p0 - 1.0)))
    w = detector_run.detection_w()
    p0_T = detector_run.p0_series(detector_run.T)
    dev_T = abs(p0_T + w - 1.0)
    return "detector probability conservation", [
        Check(f"sampled dev {dev:.3e}", dev, hi=1e-6), Check(f"T=200 dev {dev_T:.3e}", dev_T, hi=1e-3)]


def criterion_09() -> tuple[str, list[Check]]:
    g = default_grid()
    psis = [gaussian_packet(g, 0.6), gaussian_packet(g, 1.0), gaussian_packet(g, 1.6), bump_packet(g)]
    W, ev = detector.povm_matrix(psis, 0.5, T=60.0)
    nonproj = float(np.linalg.norm(W @ W - W, 2))
    return "POVM element nonprojection", [  # every eigenvalue in (0, 1), and W is no projection
        Check(f"eigs [{ev.min():.2e}", ev.min(), lo=0.0), Check(f"{ev.max():.2e}]", ev.max(), hi=1.0),
        Check(f"||W^2-W|| = {nonproj:.3f}", nonproj, lo=1e-3)]


def criterion_10(radiating_chain) -> tuple[str, list[Check]]:
    t_rec = radiating.recurrence_time(radiating_chain)
    t_grid = np.linspace(0.0, 0.5 * t_rec, 400)
    series = radiating.decay_series(radiating_chain, t_grid)
    # the continuum route from the model alone: t_grid is k dt, k = 0..399
    cont = float(np.max(np.abs(series - radiating.continuum_decay(radiating_chain.params, t_grid[1], t_grid.size))))
    peak = float(np.max(series))
    psi = radiating_chain.evolve(0.5 * t_rec)
    unit = abs(np.vdot(psi, psi).real - 1.0)
    return "radiating chain decay", [
        Check(f"peak {peak:.4f}", peak, lo=0.95), Check(f"continuum dev {cont:.2e}", cont, hi=1e-12),
        Check(f"unitarity {unit:.2e}", unit, hi=1e-10)]


def criterion_11(radiating_chain) -> tuple[str, list[Check]]:
    # the residual before the transform pair: run alone, the chain decomposes only after the residual
    # has freed its resolvents; after criterion 10 it already holds its eigenvectors
    res = radiating.resolvent_equation_residual(radiating_chain, 1.0 - 0.2j)
    lhs, rhs = radiating.resolvent_check(radiating_chain, 1.0 - 0.2j)
    dev = abs(lhs - rhs)
    return "resolvent identities", [
        Check(f"transform pair dev {dev:.2e}", dev, hi=1e-4), Check(f"operator residual {res:.2e}", res, hi=1e-8)]


# the mean-field model of criteria 12-14, below its critical temperature
_BCS = meanfield.BCSParams(eps=0.25, lam=1.0, T=0.2)


def criterion_12() -> tuple[str, list[Check]]:
    sols = meanfield.solve_gap_equation(_BCS)
    sc = [s for s in sols if s.kind == "superconducting"]
    res = sc[0].residual if sc else np.inf
    tc = meanfield.critical_temperature(_BCS)
    tc_res = abs(2.0 * _BCS.eps - _BCS.lam * math.tanh(_BCS.eps / tc))  # T_c's defining equation, not its closed form
    # above T_c the normal solution is the only one
    warm = sum(s.kind != "normal" for s in meanfield.solve_gap_equation(replace(_BCS, T=0.6)))
    return "BCS gap self-consistency", [Check(f"residual {res:.2e}", res, hi=1e-10), Check(f"T_c = {tc:.7f}", tc),
                                        Check("", tc_res, hi=1e-12), Check("", warm, hi=1)]


def criterion_13() -> tuple[str, list[Check]]:
    F0 = np.array([0.3, -0.1, 0.2])
    F3, F10 = meanfield.flow_rk4(F0, [3.0, 10.0], 0.001, _BCS)
    drift = abs(np.dot(F10, F10) - np.dot(F0, F0))
    exact = meanfield.bcs_flow_exact(F0, 3.0, _BCS)
    U = meanfield.cocycle_evolve(F0, 3.0, 0.0005, _BCS)
    M0 = sum(F0[j] * meanfield.SIGMA[j] for j in range(3))
    Mt = sum(exact[j] * meanfield.SIGMA[j] for j in range(3))
    coc = float(np.max(np.abs(U @ M0 @ U.conj().T - Mt)))
    rk = float(np.max(np.abs(F3 - exact)))
    return "mean-field flow geometry", [
        Check(f"Casimir drift {drift:.2e}", drift, hi=1e-8), Check(f"cocycle dev {coc:.2e}", coc, hi=1e-6),
        Check(f"transport dev {rk:.2e}", rk, hi=1e-6)]


def criterion_14() -> tuple[str, list[Check]]:
    states = meanfield.ground_states(_BCS)
    dev = 0.0
    for st in states:
        for j in range(3):
            val = np.vdot(st.chi, meanfield.SIGMA[j] @ st.chi).real * 0.5
            dev = max(dev, abs(val - st.F[j]))
    radius = max(st.radius for st in states)
    return "ground-state circle", [
        Check(f"expectation dev {dev:.2e}", dev, hi=1e-12), Check(f"radius {radius:.12f}", radius),
        Check("", abs(radius - math.sqrt(3.0) / 4.0), hi=1e-12)]


def criterion_15() -> tuple[str, list[Check]]:
    lam, a = 1.0, 1.0
    z0 = 1.2 - 0.4j
    # truncated-Fock oracle for the quantum circle
    alpha = np.conj(z0) / (lam * np.sqrt(2.0))
    n_f = 40
    fact = np.array([math.factorial(k) for k in range(n_f)], dtype=float)
    psi = np.exp(-abs(alpha) ** 2 / 2.0) * alpha ** np.arange(n_f) / np.sqrt(fact)
    Hf = np.zeros((n_f, n_f))
    Hf[0, 0] = a
    am = np.diag(np.sqrt(np.arange(1.0, n_f)), 1)
    ts = np.array([0.5, 3.0, 8.0])
    psi_t = dense_oracle.Propagator(dense_oracle.DenseOperator(Hf)).apply(psi, ts / lam**2)
    z_or = lam * np.sqrt(2.0) * np.conj(dense_oracle.expectation(psi_t, dense_oracle.DenseOperator(am)))
    fock = float(np.max(np.abs(projection.quantum_trajectory(z0, lam, ts, a) - z_or)))
    # the packet of width w smears cos q to exactly e^(-w^2/2) cos q; measured 2.2e-16, and a width
    # slip of 0.1% reads 1.0e-7, so 1e-13 leaves 450 times the rounding and still sees it
    qs, w = np.array([0.0, 0.7, 2.1]), 1e-2
    sm = float(np.max(np.abs(projection.smeared_potential(np.cos, w, qs) - np.exp(-0.5 * w**2) * np.cos(qs))))
    return "classical projection circles", [
        Check(f"Fock dev {fock:.2e}", fock, hi=1e-6), Check(f"smearing dev {sm:.2e}", sm, hi=1e-13)]


def criterion_16() -> tuple[str, list[Check]]:
    from .cli import main

    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
        for d in (d1, d2):
            code = main(["domino", "--j", "2..4", "--t", "0..10", "--steps", "21", "--out", d])
            if code != 0:
                return "deterministic CSV output", [Check(f"runner exit code {code}", code, lo=-1, hi=1)]
        f1 = sorted(Path(d1).glob("*.csv"))
        f2 = sorted(Path(d2).glob("*.csv"))
        unequal = abs(len(f1) - len(f2)) + sum(not filecmp.cmp(a, b, shallow=False) for a, b in zip(f1, f2))
    return "deterministic CSV output", [  # at least one file compared, and none differs or lacks its twin
        Check(f"{len(f1)} file(s) byte-compared", len(f1), lo=0), Check("", unequal, hi=1)]


CRITERIA = [
    criterion_01, criterion_02, criterion_03, criterion_04,
    criterion_05, criterion_06, criterion_07, criterion_08,
    criterion_09, criterion_10, criterion_11, criterion_12,
    criterion_13, criterion_14, criterion_15, criterion_16,
]


def run_all(numbers=None) -> list[CriterionResult]:
    chosen = [i for i in range(1, len(CRITERIA) + 1) if not numbers or i in numbers]
    # the inputs each criterion reads, by its parameter names (a wrapper that sets __wrapped__ keeps them)
    reads = {i: list(inspect.signature(CRITERIA[i - 1]).parameters) for i in chosen}
    last_user = {key: i for i in chosen for key in reads[i]}
    inputs, out = {}, []
    for i in chosen:
        inputs.update({key: INPUTS[key]() for key in reads[i] if key not in inputs})
        name, checks = CRITERIA[i - 1](**{key: inputs[key] for key in reads[i]})
        inputs = {key: val for key, val in inputs.items() if last_user[key] > i}  # drop what has no user left
        out.append(CriterionResult(i, name, tuple(checks)))
    return out
