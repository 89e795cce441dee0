import numpy as np
import pytest

from chainlab.dense_oracle import Propagator
from chainlab.radiating import (
    RadiatingParams,
    build_minimal_hamiltonian,
    build_modes,
    decay_series,
    default_params,
    recurrence_time,
    resolvent_check,
    resolvent_equation_residual,
    sigma_profile_default,
    spectral_density,
)


@pytest.fixture(scope="module")
def setup():
    p = default_params()
    return p, build_modes(p)


def test_params_validation():
    with pytest.raises(ValueError):
        RadiatingParams(N=6, eps0=1.0, v=0.7, a=1.0, b=0.5)  # level shift too small


def test_default_level_shift_clears_chain_band(setup):
    p, _ = setup
    assert p.eps0 > p.a * p.b**2 + 2.0


def test_profile_infrared_cutoff():
    assert sigma_profile_default(np.array([0.1, 0.4]))  .max() == 0.0
    assert sigma_profile_default(np.array([1.0]))[0] > 0.0


def test_spectral_density_support(setup):
    p, _ = setup
    lam = np.array([0.1, p.a * p.b**2, 1.0, 5.0])
    rho = spectral_density(lam, p)
    assert rho[0] == 0.0 and rho[1] == 0.0
    assert np.all(rho[2:] > 0.0)


def test_mode_weight_equals_profile_norm(setup):
    p, modes = setup
    # sum g_k^2 = int rho = ||sigma||^2 (the profile carries weight 4)
    assert modes.weight() == pytest.approx(4.0, abs=1e-3)


def test_hamiltonian_is_hermitian_and_coupled(setup):
    p, modes = setup
    H = build_minimal_hamiltonian(p, modes)
    assert H.is_hermitian()
    assert H.dim == p.N + modes.count
    assert np.max(np.abs(H.mat[p.N - 1, p.N:])) > 0.0
    assert np.max(np.abs(H.mat[: p.N - 1, p.N:])) == 0.0


def test_unitarity_of_evolution(setup):
    p, modes = setup
    H = build_minimal_hamiltonian(p, modes)
    psi0 = np.zeros(H.dim, dtype=complex)
    psi0[0] = 1.0
    psi = Propagator(H).apply(psi0, 60.0)
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10


def test_decay_is_nearly_complete_before_recurrence(setup):
    p, modes = setup
    t_rec = recurrence_time(modes)
    assert t_rec > 100.0
    assert decay_series(p, modes, 0, [19.0])[0] > 0.95
    t = np.linspace(0.0, 0.5 * t_rec, 200)
    assert np.max(decay_series(p, modes, 0, t)) > 0.99


def test_decay_stable_under_mode_doubling(setup):
    p, modes = setup
    t = np.linspace(0.0, 0.5 * recurrence_time(modes), 150)
    a = decay_series(p, modes, 0, t)
    b = decay_series(p, build_modes(p, M=800), 0, t)
    assert np.max(np.abs(a - b)) < 1e-3


def test_decay_series_validates_initial_index(setup):
    p, modes = setup
    with pytest.raises(ValueError):
        decay_series(p, modes, p.N, [1.0])


def test_resolvent_transform_pair(setup):
    p, modes = setup
    lhs, rhs = resolvent_check(p, modes, 0, 0, 1.0 - 0.2j)
    assert abs(lhs - rhs) < 1e-4
    with pytest.raises(ValueError):
        resolvent_check(p, modes, 0, 0, 1.0 + 0.2j)


def test_second_resolvent_equation(setup):
    p, modes = setup
    assert resolvent_equation_residual(p, modes, 1.0 - 0.2j) < 1e-8
    assert resolvent_equation_residual(p, modes, -2.0 - 0.5j) < 1e-8
