import numpy as np
import pytest

from chainlab import DomainError, acceptance, radiating
from chainlab.radiating import (
    RadiatingChain,
    RadiatingParams,
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
def chain():
    return build_modes(default_params())


def test_params_validation():
    with pytest.raises(ValueError):
        RadiatingParams(N=6, eps0=1.0, v=0.7)  # level shift too small


def test_default_level_shift_clears_chain_band(chain):
    assert chain.params.eps0 > radiating._CUTOFF**2 + 2.0


def test_profile_infrared_cutoff():
    assert sigma_profile_default(np.array([0.1, 0.4]))  .max() == 0.0
    assert sigma_profile_default(np.array([1.0]))[0] > 0.0


def test_spectral_density_support():
    lam = np.array([0.1, radiating._CUTOFF**2, 1.0, 5.0])
    rho = spectral_density(lam)
    assert rho[0] == 0.0 and rho[1] == 0.0
    assert np.all(rho[2:] > 0.0)


def test_mode_weight_equals_profile_norm(chain):
    # sum g_k^2 = int rho = ||sigma||^2 (the profile carries weight 4)
    assert np.sum(chain.couplings**2) == pytest.approx(4.0, abs=1e-3)


def test_hamiltonian_is_hermitian_and_coupled(chain):
    H, N = chain.hamiltonian, chain.params.N
    assert H.is_hermitian()
    assert H.dim == N + chain.energies.size
    assert np.max(np.abs(H.mat[N - 1, N:])) > 0.0
    assert np.max(np.abs(H.mat[: N - 1, N:])) == 0.0
    assert chain.hamiltonian is H and chain.propagator is chain.propagator  # built once


def test_oversized_hamiltonian_is_refused_before_allocation(chain, monkeypatch):
    # 6 chain states and 8000 modes: 5 copies of the dense H exceed the Propagator's bound
    big = RadiatingChain(chain.params, np.linspace(1.0, 2.0, 8000), np.ones(8000))

    def must_not_run(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "zeros", must_not_run)
    with pytest.raises(DomainError):
        big.hamiltonian


def test_unitarity_of_evolution(chain):
    psi = chain.evolve(60.0)
    assert abs(np.vdot(psi, psi).real - 1.0) < 1e-10


def test_decay_is_nearly_complete_before_recurrence(chain):
    t_rec = recurrence_time(chain)
    assert t_rec > 100.0
    assert decay_series(chain, [19.0])[0] > 0.95
    t = np.linspace(0.0, 0.5 * t_rec, 200)
    assert np.max(decay_series(chain, t)) > 0.99


def test_decay_stable_under_mode_doubling(chain):
    t = np.linspace(0.0, 0.5 * recurrence_time(chain), 150)
    a = decay_series(chain, t)
    b = decay_series(build_modes(chain.params, M=800), t)
    assert np.max(np.abs(a - b)) < 1e-3


def test_resolvent_transform_pair(chain):
    # the pair itself at xi = 1 - 0.2j is acceptance criterion 11
    with pytest.raises(ValueError):
        resolvent_check(chain, 1.0 + 0.2j)


def test_second_resolvent_equation(chain):
    # xi = 1 - 0.2j is acceptance criterion 11
    assert resolvent_equation_residual(chain, -2.0 - 0.5j) < 1e-8


def test_each_radiating_chain_is_decomposed_once(monkeypatch):
    # criterion 10 decomposes its M = 800 chain and then its M = 400 chain, criterion 11 its one chain
    dims = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        dims.append(a.shape[0])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    acceptance.criterion_10()
    assert dims == [806, 406]
    dims.clear()
    acceptance.criterion_11()
    assert dims == [406]
