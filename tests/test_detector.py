import numpy as np
import pytest

from chainlab.detector import (
    DetectorConfig,
    DetectorRun,
    amplitude_free,
    default_config,
    detection_probability,
    f_kernel,
    occupation_series,
    povm_matrix,
    semicircle_kernel,
    solve_fourier,
    solve_volterra,
)
from chainlab.packets import bump_packet, default_grid, gaussian_packet, overlap


@pytest.fixture(scope="module")
def short_run():
    # T = 40 keeps the free-series quadrature cheap; physics is unchanged
    return DetectorRun(default_config(gamma=0.5, T=40.0))


def test_semicircle_kernel_shape():
    u = np.array([-3.0, -2.0, 0.0, 1.0, 2.5])
    vals = semicircle_kernel(u)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[2] == pytest.approx(2.0 / np.sqrt(2.0 * np.pi))
    # even, compact support, integrates to f(0) = 1 in the transform convention
    fine = np.linspace(-2.0, 2.0, 200001)
    # trapezoid loses accuracy at the sqrt endpoints; O(h^1.5) residual
    assert np.trapezoid(semicircle_kernel(fine), fine) / np.sqrt(2.0 * np.pi) == pytest.approx(1.0, abs=1e-7)


def test_f_kernel_limit_at_zero():
    g = np.array([1.0 + 0.0j, 0.5])
    vals = f_kernel(np.array([0.0, 1.0]), g)
    assert vals[0] == pytest.approx(1.0)


def test_amplitude_free_gaussian_closed_form():
    ga = gaussian_packet(default_grid(), 2.0)
    for t in (0.0, 0.5, 3.0, 20.0):
        assert amplitude_free(ga, ga, t) == pytest.approx((1.0 + 4.0j * t) ** -1.5, abs=1e-9)


def test_free_series_matches_quadrature(short_run):
    F0 = short_run.free_series()
    for i in (0, 100, 2000):
        ref = amplitude_free(short_run.cfg.phi, short_run.cfg.psi, short_run.t[i])
        assert F0[i] == pytest.approx(ref, abs=1e-8)


def test_weak_coupling_norm(short_run):
    l1 = short_run.gamma_g_l1()
    assert 0.0 < l1 < 2.0
    # closed form ||g||_1 = int (1 + t^2 s^4)^(-3/4) dt with s = 2
    t = np.linspace(0.0, 4000.0, 4000001)
    ref = 2.0 * np.trapezoid((1.0 + 16.0 * t**2) ** -0.75, t)
    assert l1 / 0.5 == pytest.approx(ref, rel=1e-2)


def test_solvers_agree_pairwise(short_run):
    Fm = short_run.solve_marching()
    Fn = short_run.solve_neumann()
    Ff = short_run.solve_fourier()
    dt = short_run.cfg.dt
    for a, b in ((Fm, Fn), (Fm, Ff), (Fn, Ff)):
        assert np.sqrt(dt * np.sum(np.abs(a - b) ** 2)) < 1e-10


def test_solver_wrappers():
    cfg = default_config(gamma=0.4, T=10.0)
    Fm, Fn = solve_volterra(cfg)
    Ff = solve_fourier(cfg)
    assert np.max(np.abs(Fm - Ff)) < 1e-10
    assert np.max(np.abs(Fn - Ff)) < 1e-10


def test_gamma_zero_reduces_to_free(short_run):
    cfg = default_config(gamma=0.0, T=40.0)
    run = DetectorRun(cfg)
    assert np.max(np.abs(run.solve_fourier() - run.free_series())) < 1e-12


def test_detection_probability_routes_agree(short_run):
    w_time = short_run.detection_w()
    w_spec = short_run.detection_w_spectral()
    assert 0.0 < w_time < 1.0
    assert abs(w_time - w_spec) < 1e-6


def test_detection_probability_frozen_value(short_run):
    # regression: frozen from this discretization (gamma 0.5, dt 0.02, T 40)
    assert short_run.detection_w() == pytest.approx(0.034695909649, abs=1e-9)


def test_detection_probability_zero_coupling():
    assert detection_probability(default_config(gamma=0.0, T=5.0)) == 0.0


def test_occupations_sum_to_detection_probability(short_run):
    # at large t every chain-site contribution has converged to its limit
    occ = short_run.occupations_at(40.0)
    assert occ.min() >= 0.0
    assert occ.sum() == pytest.approx(short_run.detection_w(), abs=1e-10)


def test_probability_conservation_on_fine_grid():
    cfg = default_config(gamma=0.5, dt=0.004, T=10.0)
    run = DetectorRun(cfg)
    p0 = run.p0_series()
    for t in (2.0, 10.0):
        n = int(round(t / cfg.dt))
        assert abs(run.occupations_at(t).sum() + p0[n] - 1.0) < 1e-6


def test_occupation_series_wrapper():
    cfg = default_config(gamma=0.5, T=10.0)
    times, vals = occupation_series(cfg, 1, times=[0.0, 5.0, 10.0])
    assert vals[0] == 0.0
    assert np.all(vals >= 0.0)
    with pytest.raises(ValueError):
        occupation_series(cfg, 0)


def test_povm_eigenvalues_and_nonprojection():
    g = default_grid()
    psis = [gaussian_packet(g, 0.8), gaussian_packet(g, 1.5), bump_packet(g, 2.0)]
    W, ev = povm_matrix(psis, 0.5, dt=0.02, T=40.0)
    assert np.max(np.abs(W - W.conj().T)) < 1e-12
    assert np.all(ev > 0.0) and np.all(ev < 1.0)
    assert np.linalg.norm(W @ W - W, 2) > 1e-3


def test_povm_matrix_matches_polarized_detection_w():
    # the sesquilinear form behind W, recovered from the quadratic form w alone
    g = default_grid()
    psis = [gaussian_packet(g, 0.8), bump_packet(g, 2.0)]
    W, _ = povm_matrix(psis, 0.5, dt=0.02, T=40.0)
    phi = gaussian_packet(g, 2.0)
    run = DetectorRun(DetectorConfig(gamma=0.5, phi=phi, psi=psis[0], dt=0.02, T=40.0))
    F = [run.solve_fourier(run.free_series(phi, psi)) for psi in psis]
    raw = np.empty((2, 2), dtype=complex)
    raw[0, 0] = run.detection_w(F[0])
    raw[1, 1] = run.detection_w(F[1])
    raw[0, 1] = 0.25 * sum(a * run.detection_w(a * F[0] + F[1]) for a in (1.0, -1.0, 1.0j, -1.0j))
    raw[1, 0] = np.conj(raw[0, 1])
    S = np.array([[overlap(a, b) for b in psis] for a in psis])
    sw, sv = np.linalg.eigh(S)
    S_inv_half = sv @ np.diag(sw**-0.5) @ sv.conj().T
    assert abs(raw[0, 1]) > 1e-3
    assert np.max(np.abs(S_inv_half @ raw @ S_inv_half - W)) < 1e-12


def test_povm_vanishes_without_coupling():
    g = default_grid()
    psis = [gaussian_packet(g, 0.8), gaussian_packet(g, 1.5)]
    W, ev = povm_matrix(psis, 0.0, dt=0.02, T=40.0)
    assert np.max(np.abs(W)) == 0.0
    assert np.max(np.abs(ev)) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(gamma=0.5, phi=gaussian_packet(default_grid(), 1.0),
                       psi=gaussian_packet(default_grid(), 1.0), dt=-0.01)
