import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import one_shot, per_block, traced

from chainlab import DomainError, acceptance, dense_oracle, radiating
from chainlab.dense_oracle import Propagator, build_island_hamiltonian
from chainlab.radiating import (
    RadiatingChain,
    RadiatingParams,
    build_modes,
    continuum_decay,
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


@pytest.fixture(scope="module")
def doubled(chain):
    """150 times up to half the M = 400 recurrence time, and the M = 800 chain's decay at them."""
    t = np.linspace(0.0, 0.5 * recurrence_time(chain), 150)
    return t, decay_series(build_modes(chain.params, M=800), t)


def test_params_validation():
    with pytest.raises(DomainError):
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
    assert np.array_equal(H.mat, H.mat.T)
    assert H.dim == N + chain.energies.size
    assert np.max(np.abs(H.mat[N - 1, N:])) > 0.0
    assert np.max(np.abs(H.mat[: N - 1, N:])) == 0.0
    assert chain.hamiltonian is H and chain.propagator is chain.propagator  # built once


def test_hamiltonian_and_eigendecomposition_are_read_only(chain):
    # doubling H[0, 1] and H[1, 0] after the propagator was built once moved criterion 11's residual
    # from 2.24e-15 to 3.02, while the propagator kept the old modes
    small = build_modes(chain.params, M=20)
    for a in (small.hamiltonian.mat, small.propagator.energies, small.propagator.modes):
        with pytest.raises(ValueError, match="read-only"):
            a[:1] *= 2


def test_mode_arrays_are_read_only(chain):
    # doubling the couplings after H was cached moved criterion 11's residual from 2.24e-15 to 2.72: H0 and
    # V are read from these arrays, H from the cache
    chain.hamiltonian
    for a in (chain.energies, chain.couplings):
        with pytest.raises(ValueError, match="read-only"):
            a[:] *= 2
    assert resolvent_equation_residual(chain, 1.0 - 0.2j).hex() == "0x1.434c0d9d770abp-49"


def test_oversized_hamiltonian_is_refused_before_allocation(chain, forbid):
    # 6 chain states and 8000 modes: 5 copies of the dense H exceed the Propagator's bound
    big = RadiatingChain(chain.params, np.linspace(1.0, 2.0, 8000), np.ones(8000))
    forbid(np, "zeros")
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


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 257, 301, 400])
def test_propagation_in_blocks_is_the_one_shot_product_to_the_bit(chain, n):
    # blocks of 64 times, a one-row tail joined to the block before it: a lone tail row took numpy's GEMV
    # and read other bits at 65, 129 and 257 times.  Real modes: each block equals per_block's to the bit,
    # and one_shot's complex product within 8 eps (measured up to 4 eps on the chain, at 128 times)
    t = np.linspace(0.0, 0.5 * recurrence_time(chain), n)
    psi, ref = chain.evolve(t), one_shot(chain.propagator, chain.initial_state(), t)
    assert np.array_equal(psi, per_block(chain.propagator, chain.initial_state(), t))
    assert np.max(np.abs(psi - ref)) <= 8 * np.finfo(float).eps
    for i, rows in chain.propagator.blocks(chain.initial_state(), t):
        assert np.array_equal(rows, psi[i : i + len(rows)])
    assert np.array_equal(decay_series(chain, t), np.sum(np.abs(psi[:, chain.params.N :]) ** 2, axis=1))
    # the 8-site island of criterion 01, from each of its states
    island = Propagator(build_island_hamiltonian(8))
    t = np.linspace(0.5, 10.0, n)
    for psi0 in np.eye(8):
        psi = island.apply(psi0, t)
        assert np.array_equal(psi, per_block(island, psi0, t))
        assert np.max(np.abs(psi - one_shot(island, psi0, t))) <= 8 * np.finfo(float).eps


def test_propagation_at_a_scalar_time_and_over_no_times(chain):
    # criterion 10's unitarity state evolve(0.5 * t_rec) has shape (dim,): the one row of per_block
    t_rec = recurrence_time(chain)
    psi = chain.evolve(0.5 * t_rec)
    assert psi.shape == (chain.hamiltonian.dim,)
    psi0 = chain.initial_state()
    assert np.array_equal(psi, per_block(chain.propagator, psi0, 0.5 * t_rec)[0])
    assert np.max(np.abs(psi - one_shot(chain.propagator, psi0, 0.5 * t_rec))) <= 8 * np.finfo(float).eps
    island = Propagator(build_island_hamiltonian(8))
    psi = island.apply(np.eye(8)[2], 3.0)
    assert np.array_equal(psi, per_block(island, np.eye(8)[2], 3.0)[0])
    assert np.max(np.abs(psi - one_shot(island, np.eye(8)[2], 3.0))) <= 8 * np.finfo(float).eps
    assert decay_series(chain, []).shape == (0,)
    assert chain.evolve(np.array([])).shape == (0, chain.hamiltonian.dim)


def test_decay_series_holds_one_block_of_times(chain):
    # one block of 64 times: 1.81 and 1.83 MB traced at 301 and 2000 times; with the whole complex modes
    # held it peaked at 4.03 and 4.04 MB, and with the whole evolution formed at once at 6.56 and 28.64 MB
    chain.propagator
    for n in (301, 2000):
        t = np.linspace(0.0, 0.5 * recurrence_time(chain), n)
        decay_series(chain, t)  # untraced first, so that the traced call sees no lazy set-up
        with traced() as trace:
            decay_series(chain, t)
        assert trace.peak < 2.2e6


def test_decay_stable_under_mode_doubling(chain, doubled):
    t, b = doubled
    a = decay_series(chain, t)
    assert np.max(np.abs(a - b)) < 1e-3


def test_continuum_decay_matches_the_doubled_chain(doubled):
    # criterion 10 compares the M = 400 chain at 400 times; here the M = 800 chain at 150 (measured 2.0e-15)
    t, dense = doubled
    cont = continuum_decay(default_params(), t[1], t.size)
    assert np.max(np.abs(cont - dense)) < 1e-12


def test_continuum_decay_converges_in_the_energy_grid(doubled, monkeypatch):
    # the midpoint sum aliases the amplitudes at period 2 pi / dE; these clearances give 2388 and
    # 4796 energies (measured 5.2e-12 and 1.8e-15 from the dense chain)
    t, dense = doubled
    dev = []
    for clearance in (1000.0, 2100.0):
        monkeypatch.setattr(radiating, "_ALIAS_CLEARANCE", clearance)
        dev.append(np.max(np.abs(continuum_decay(default_params(), t[1], t.size) - dense)))
    assert dev[0] > 100.0 * dev[1] and dev[1] < 1e-13


@pytest.mark.parametrize("dt, n", [(0.1, 0), (float("nan"), 3), (-0.1, 3), (float("inf"), 1), (1e308, 10)])
def test_continuum_decay_refuses_bad_times(dt, n):
    with pytest.raises(DomainError):
        continuum_decay(default_params(), dt, n)


def test_continuum_weight_is_in_the_band_at_time_zero():
    # 1 - sum_n |a_n(0)|^2 is the radiated weight at t = 0
    assert abs(continuum_decay(default_params(N=4, v=0.6), 0.5, 1)[0]) < 1e-13


def test_bound_state_is_refused_before_any_series(forbid):
    # a level shift just above b^2 + 2 with strong coupling pulls a state below the continuum
    p = RadiatingParams(6, 2.3, 1.5)
    lowest = np.linalg.eigvalsh(build_modes(p).hamiltonian.mat)[0]
    assert lowest < radiating._CUTOFF**2 - p.eps0 - 1.0
    forbid(radiating, "phase_sum")
    with pytest.raises(DomainError, match="bound state"):
        continuum_decay(p, 0.2, 100)


def test_continuum_decay_counts_what_it_holds(gate_covers, held_counts, forbid):
    # the count covers the traced peak within 1.25 times; one byte less of budget refuses the call,
    # and a billion times are refused before anything is built
    p = default_params()
    counts = held_counts(radiating)
    peak = gate_covers(lambda: continuum_decay(p, 0.3, 50))
    assert peak <= counts[0] <= 1.25 * peak
    forbid(np.polynomial.legendre, "leggauss")
    with pytest.raises(DomainError):
        continuum_decay(p, 0.3, 10**9)


@pytest.mark.parametrize(
    "call",
    [
        lambda chain: build_modes(chain.params, M=400),
        # a fresh chain each call, so that the refused call builds its H and Propagator again
        lambda chain: RadiatingChain(chain.params, chain.energies, chain.couplings).propagator,
        lambda chain: resolvent_equation_residual(chain, 1.0 - 0.2j),
        # the gate counts the whole series at once, which bounds its length; the blocks hold less
        lambda chain: decay_series(chain, np.linspace(0.0, 50.0, 301)),
    ],
    ids=["build_modes", "propagator", "resolvent_equation_residual", "decay_series"],
)
def test_chain_gates_count_what_each_call_holds(gate_covers, chain, call):
    # the shared chain's H and Propagator are built before the call, as in verify
    chain.propagator
    gate_covers(lambda: call(chain))


def test_resolvent_transform_pair(chain):
    # the pair itself at xi = 1 - 0.2j is acceptance criterion 11
    with pytest.raises(ValueError):
        resolvent_check(chain, 1.0 + 0.2j)


def test_second_resolvent_equation(chain):
    # xi = 1 - 0.2j is acceptance criterion 11
    assert resolvent_equation_residual(chain, -2.0 - 0.5j) < 1e-8


def test_second_resolvent_equation_takes_one_dense_solve(chain, calls):
    # R_H by one (dim, dim) inverse, the chain rows of R_H0 X by one (N, N) solve, the mode rows by a division
    inverses = calls(np.linalg, "inv", lambda a: a.shape)
    shapes = calls(np.linalg, "solve", lambda a, b: a.shape)
    resolvent_equation_residual(chain, 1.0 - 0.2j)
    assert inverses == [(406, 406)]
    assert shapes == [(6, 6)]


def test_criterion_11_fails_on_a_mis_assembled_chain(chain, monkeypatch):
    # the chain end couples to mode k with v g_k in place of v^2 g_k; H0 and V cut from this H would give a
    # residual at rounding (2.1e-15), the model's H0 and V give 1.12
    N = chain.params.N
    H = chain.hamiltonian.mat.copy()
    H[N - 1, N:] = H[N:, N - 1] = chain.params.v * chain.couplings
    wrong = RadiatingChain(chain.params, chain.energies, chain.couplings)
    vars(wrong)["hamiltonian"] = dense_oracle.DenseOperator(H)
    monkeypatch.setattr(radiating, "build_modes", lambda params, M: wrong)
    (result,) = acceptance.run_all([11])
    assert not result.passed and "operator residual 1.12e+00" in result.detail, result.line


def test_each_radiating_chain_is_decomposed_once(calls):
    # criteria 10 and 11, each given a freshly built chain, each decompose their one M = 400 chain, and in one
    # run_all they share it; criterion 10's second route, the continuum, needs no modes: leggauss runs
    # for the chain's 400 modes and the principal value only
    dims = calls(np.linalg, "eigh", lambda a, *args, **kwargs: a.shape[0])
    degrees = calls(np.polynomial.legendre, "leggauss", lambda deg: deg)
    acceptance.criterion_10(acceptance.INPUTS["radiating_chain"]())
    assert dims == [406]
    assert degrees == [400, radiating._PV_NODES]
    dims.clear()
    acceptance.criterion_11(acceptance.INPUTS["radiating_chain"]())
    assert dims == [406]
    dims.clear()
    degrees.clear()
    acceptance.run_all([10, 11])
    assert dims == [406]
    assert degrees == [400, radiating._PV_NODES]


def test_continuum_decay_takes_no_dense_route(forbid):
    forbid(np.linalg, "eigh")
    forbid(dense_oracle, "Propagator")
    forbid(radiating, "Propagator")
    assert np.max(continuum_decay(default_params(), 0.5, 100)) > 0.95


def test_criterion_10_traced_peak():
    # the M = 400 chain's series peaks at 10.0 MiB; the M = 800 chain it replaced peaked at 29.7 MiB
    with traced() as trace:
        acceptance.criterion_10(acceptance.INPUTS["radiating_chain"]())
    assert trace.peak < 14 * 2**20


def test_criterion_11_traced_peak():
    # as in verify, criterion 10 has decomposed the shared chain; the residual peaks at 7.8 MiB besides the chain
    chain = acceptance.INPUTS["radiating_chain"]()
    acceptance.criterion_10(chain)
    with traced() as trace:
        acceptance.criterion_11(chain)
    assert trace.peak < 8.5 * 2**20


def test_resolvent_equation_residual_keeps_criterion_11_value_to_the_bit():
    # at one BLAS thread, in a fresh interpreter: a threaded BLAS may sum the 406 x 406 solve in another order
    code = ("from chainlab import radiating as r; "
            "print(r.resolvent_equation_residual(r.build_modes(r.default_params()), 1.0 - 0.2j).hex())")
    src = str(Path(radiating.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0x1.434c0d9d770abp-49"


def test_criterion_10_repeats_its_line():
    assert acceptance.run_all([10])[0].line == acceptance.run_all([10])[0].line
