"""Acceptance suite: one check per numbered criterion.

Each criterion function recomputes its claim from inputs that `run_all`
shares for one run (`Shared`) and returns (name, passed, detail); run_all
numbers it by its position in CRITERIA and builds its CriterionResult.  The
checks run in seconds each.
"""

from __future__ import annotations

import filecmp
import math
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import dense_oracle, detector, meanfield, projection, qdomino, radiating, xychain
from .packets import bump_packet, default_grid, gaussian_packet
from .specfun import bessel_table

__all__ = ["CriterionResult", "Shared", "run_all", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {status}  {self.name}: {self.detail}"


class Shared:
    """The inputs of one run that several criteria use, each built on first use.

    run_all makes one per call and drops an input after the last selected
    criterion that uses it (_USERS).  A criterion given a fresh Shared builds
    its own input; every cached step of DetectorRun and RadiatingChain is
    deterministic, so its line is the same either way.
    """

    @cached_property
    def detector_run(self) -> detector.DetectorRun:
        """The default detector run (gamma = 0.5, dt = 0.02, T = 200): criterion 07 and criterion 08's T = 200 part."""
        return detector.DetectorRun(detector.DetectorConfig(gamma=0.5))

    @cached_property
    def radiating_chain(self) -> radiating.RadiatingChain:
        """The default radiating chain at M = 400 modes: criteria 10 and 11."""
        return radiating.build_modes(radiating.default_params(), M=400)


# the criteria that use each input of Shared
_USERS = {"detector_run": (7, 8), "radiating_chain": (10, 11)}


def criterion_01(shared: Shared) -> tuple[str, bool, str]:
    ts = np.arange(0.5, 10.0 + 1e-9, 0.5)
    prop = dense_oracle.Propagator(dense_oracle.build_island_hamiltonian(8))
    # U[k, n, m] = <n|exp(-i ts[k] H)|m>: column m evolves e_m
    U = np.stack([prop.apply(e_m, ts) for e_m in np.eye(8)], axis=2)
    # G[n, m, k] = green_finite(n + 1, m + 1, 8, ts[k])
    G = np.array([[qdomino.green_finite(n, m, 8, ts) for m in range(1, 9)] for n in range(1, 9)])
    worst = float(np.max(np.abs(np.moveaxis(G, 2, 0) - U)))
    return "domino Green function vs dense oracle", worst < 1e-10, f"max |diff| = {worst:.3e}"


def criterion_02(shared: Shared) -> tuple[str, bool, str]:
    t = np.linspace(50.0, 500.0, 2000)
    slopes = qdomino.asymptotic_exponent([2, 3, 5], t)
    ok = all(abs(s + 3.0) < 0.2 for s in slopes)
    return "domino envelope decay exponent -3", ok, "slopes " + ", ".join(f"{s:.3f}" for s in slopes)


def criterion_03(shared: Shared) -> tuple[str, bool, str]:
    vals = qdomino.flip_probability(np.arange(1, 6), 1e3)
    ok = all(v > 0.999 for v in vals)
    return "domino flip probability -> 1", ok, "min = " + f"{min(vals):.6f}"


def _bessel_integral(n, x) -> np.ndarray:
    """J_n(x) from Bessel's integral (1/M) sum_m cos(n tau_m - x sin tau_m), tau_m = 2 pi m / M, M = 512.

    A full-period trapezoid, so it converges spectrally while n + |x| stays well
    below M; independent of specfun's recurrence.  Broadcasts n against x.
    """
    tau = 2.0 * np.pi * np.arange(512) / 512
    n = np.asarray(n, dtype=float)[..., None]
    x = np.asarray(x, dtype=float)[..., None]
    return np.mean(np.cos(n * tau - x * np.sin(tau)), axis=-1)


def criterion_04(shared: Shared) -> tuple[str, bool, str]:
    worst = dev = 0.0
    for x in (1.0, 5.0, 10.0, 25.0, 50.0):
        n_max = int(2 * x) + 60
        tab = bessel_table(n_max, x)
        worst = max(worst, abs(tab[0] ** 2 + 2.0 * np.sum(tab[1:] ** 2) - 1.0))
        dev = max(dev, float(np.max(np.abs(tab - _bessel_integral(np.arange(n_max + 1), x)))))
    ok = worst < 1e-12 and dev < 1e-12
    return "Bessel quadratic normalization", ok, f"max residual = {worst:.3e}, integral dev = {dev:.3e}"


def criterion_05(shared: Shared) -> tuple[str, bool, str]:
    lim = float(np.max(np.abs(xychain.occupation(np.arange(-3, 4), 1e3, 1.0) - 0.5)))
    # sites 2 and -3 summed term by term, sum_{r=1..99} J_{|j+r|}^2(t), with no normalization identity
    ts = np.array([1.0, 5.0, 10.0, 37.0])
    sq = _bessel_integral(np.arange(103)[:, None], ts) ** 2
    js = np.array([2, -3])
    direct = np.sum(sq[np.abs(js[:, None] + np.arange(1, 100))], axis=1)
    site = float(np.max(np.abs(xychain.occupation(js, ts, 1.0) - direct)))
    ok = lim < 1e-3 and site < 1e-10
    return "xy occupation limit and site sums", ok, f"limit dev {lim:.2e}, site dev {site:.2e}"


def criterion_06(shared: Shared) -> tuple[str, bool, str]:
    # right half of the 10-site flip-flop chain occupied; reflection maps
    # it onto the infinite left-occupied formula: site s is j = 4 - s.  The
    # flip-flop conserves the 5 up spins, so the oracle runs in that sector.
    times = np.array([1.0, 2.0])
    H = dense_oracle.build_flip_flop_hamiltonian(10, n_up=5)
    psi_t = dense_oracle.Propagator(H).apply(dense_oracle.basis_state([0] * 5 + [1] * 5, n_up=5), times)
    sites = np.array([4, 5, 6])
    dense = np.array([dense_oracle.expectation(psi_t, dense_oracle.site_number_op(10, s, n_up=5)) for s in sites])
    worst = float(np.max(np.abs(dense - xychain.occupation(4 - sites, times, 1.0))))
    return "xy 10-site dense oracle", worst < 1e-3, f"max |diff| = {worst:.3e}"


def criterion_07(shared: Shared) -> tuple[str, bool, str]:
    run = shared.detector_run
    l1 = run.gamma_g_l1()
    Fm = run.solve_marching()
    Fn = run.solve_neumann()
    Ff = run.solve_fourier()
    dt = run.cfg.dt

    def l2(x, y):
        return float(np.sqrt(dt * np.sum(np.abs(x - y) ** 2)))

    dev = max(l2(Fm, Fn), l2(Fm, Ff), l2(Fn, Ff))
    ok = dev < 1e-5 and l1 < 2.0
    return "detector solver equivalence", ok, f"max L2 dev {dev:.3e}, ||gamma g||_1 = {l1:.3f}"


def criterion_08(shared: Shared) -> tuple[str, bool, str]:
    # fine grid for the tight bound: conservation error is O(dt^2)
    cfg = detector.DetectorConfig(gamma=0.5, dt=0.004, T=20.0)
    run = detector.DetectorRun(cfg)
    ts = np.array([2.0, 5.0, 10.0, 20.0])
    p0 = run.p0_series(ts)
    dev = float(np.max(np.abs(run.occupations_at(ts).sum(axis=1) + p0 - 1.0)))
    big = shared.detector_run
    w = big.detection_w()
    p0_T = big.p0_series(big.cfg.T)
    dev_T = abs(p0_T + w - 1.0)
    ok = dev < 1e-6 and dev_T < 1e-3
    return "detector probability conservation", ok, f"sampled dev {dev:.3e}, T=200 dev {dev_T:.3e}"


def criterion_09(shared: Shared) -> tuple[str, bool, str]:
    g = default_grid()
    psis = [gaussian_packet(g, 0.6), gaussian_packet(g, 1.0), gaussian_packet(g, 1.6), bump_packet(g)]
    W, ev = detector.povm_matrix(psis, 0.5, T=60.0)
    nonproj = float(np.linalg.norm(W @ W - W, 2))
    ok = bool(np.all(ev > 0.0) and np.all(ev < 1.0) and nonproj > 1e-3)
    return "POVM element nonprojection", ok, f"eigs [{ev.min():.2e}, {ev.max():.2e}], ||W^2-W|| = {nonproj:.3f}"


def criterion_10(shared: Shared) -> tuple[str, bool, str]:
    chain = shared.radiating_chain
    p = chain.params
    t_rec = radiating.recurrence_time(chain)
    t_grid = np.linspace(0.0, 0.5 * t_rec, 400)
    series = radiating.decay_series(chain, t_grid)
    # the continuum route from the model alone: t_grid is k dt, k = 0..399
    cont = float(np.max(np.abs(series - radiating.continuum_decay(p, t_grid[1], t_grid.size))))
    peak = float(np.max(series))
    psi = chain.evolve(0.5 * t_rec)
    unit = abs(np.vdot(psi, psi).real - 1.0)
    ok = peak > 0.95 and cont < 1e-12 and unit < 1e-10
    return "radiating chain decay", ok, f"peak {peak:.4f}, continuum dev {cont:.2e}, unitarity {unit:.2e}"


def criterion_11(shared: Shared) -> tuple[str, bool, str]:
    chain = shared.radiating_chain
    # the residual before the transform pair: run alone, the chain decomposes only after the residual
    # has freed its resolvents; after criterion 10 it already holds its eigenvectors
    res = radiating.resolvent_equation_residual(chain, 1.0 - 0.2j)
    lhs, rhs = radiating.resolvent_check(chain, 1.0 - 0.2j)
    dev = abs(lhs - rhs)
    ok = dev < 1e-4 and res < 1e-8
    return "resolvent identities", ok, f"transform pair dev {dev:.2e}, operator residual {res:.2e}"


# the mean-field model of criteria 12-14, below its critical temperature
_BCS = meanfield.BCSParams(eps=0.25, lam=1.0, T=0.2)


def criterion_12(shared: Shared) -> tuple[str, bool, str]:
    sols = meanfield.solve_gap_equation(_BCS)
    sc = [s for s in sols if s.kind == "superconducting"]
    res = sc[0].residual if sc else np.inf
    tc = meanfield.critical_temperature(_BCS)
    tc_res = abs(2.0 * _BCS.eps - _BCS.lam * math.tanh(_BCS.eps / tc))  # T_c's defining equation, not its closed form
    warm = meanfield.solve_gap_equation(replace(_BCS, T=0.6))
    no_branch = all(s.kind == "normal" for s in warm)
    ok = res < 1e-10 and tc_res < 1e-12 and no_branch
    return "BCS gap self-consistency", ok, f"residual {res:.2e}, T_c = {tc:.7f}"


def criterion_13(shared: Shared) -> tuple[str, bool, str]:
    F0 = np.array([0.3, -0.1, 0.2])
    F3, F10 = meanfield.flow_rk4(F0, [3.0, 10.0], 0.001, _BCS)
    drift = abs(np.dot(F10, F10) - np.dot(F0, F0))
    exact = meanfield.bcs_flow_exact(F0, 3.0, _BCS)
    U = meanfield.cocycle_evolve(F0, 3.0, 0.0005, _BCS)
    M0 = sum(F0[j] * meanfield.SIGMA[j] for j in range(3))
    Mt = sum(exact[j] * meanfield.SIGMA[j] for j in range(3))
    coc = float(np.max(np.abs(U @ M0 @ U.conj().T - Mt)))
    rk = float(np.max(np.abs(F3 - exact)))
    ok = drift < 1e-8 and coc < 1e-6 and rk < 1e-6
    return "mean-field flow geometry", ok, f"Casimir drift {drift:.2e}, cocycle dev {coc:.2e}, transport dev {rk:.2e}"


def criterion_14(shared: Shared) -> tuple[str, bool, str]:
    states = meanfield.ground_states(_BCS)
    dev = 0.0
    for st in states:
        for j in range(3):
            val = np.vdot(st.chi, meanfield.SIGMA[j] @ st.chi).real * 0.5
            dev = max(dev, abs(val - st.F[j]))
    radius = max(st.radius for st in states)
    ok = dev < 1e-12 and abs(radius - math.sqrt(3.0) / 4.0) < 1e-12
    return "ground-state circle", ok, f"expectation dev {dev:.2e}, radius {radius:.12f}"


def criterion_15(shared: Shared) -> tuple[str, bool, str]:
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
    ok = fock < 1e-6 and sm < 1e-13
    return "classical projection circles", ok, f"Fock dev {fock:.2e}, smearing dev {sm:.2e}"


def criterion_16(shared: Shared) -> tuple[str, bool, str]:
    from .cli import main

    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
        for d in (d1, d2):
            code = main(["domino", "--j", "2..4", "--t", "0..10", "--steps", "21", "--out", d])
            if code != 0:
                return "deterministic CSV output", False, f"runner exit code {code}"
        f1 = sorted(Path(d1).glob("*.csv"))
        f2 = sorted(Path(d2).glob("*.csv"))
        same = len(f1) == len(f2) and all(filecmp.cmp(a, b, shallow=False) for a, b in zip(f1, f2))
    return "deterministic CSV output", same, f"{len(f1)} file(s) byte-compared"


CRITERIA = [
    criterion_01, criterion_02, criterion_03, criterion_04,
    criterion_05, criterion_06, criterion_07, criterion_08,
    criterion_09, criterion_10, criterion_11, criterion_12,
    criterion_13, criterion_14, criterion_15, criterion_16,
]


def run_all(numbers=None) -> list[CriterionResult]:
    chosen = [i for i in range(1, len(CRITERIA) + 1) if not numbers or i in numbers]
    shared = Shared()
    out = []
    for i in chosen:
        name, passed, detail = CRITERIA[i - 1](shared)
        out.append(CriterionResult(i, name, bool(passed), detail))
        for attr, users in _USERS.items():
            if i in users and not any(j in chosen for j in users if j > i):
                vars(shared).pop(attr, None)  # its last user has run
    return out
