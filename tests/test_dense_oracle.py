from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import one_shot, per_block, traced
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainlab import DomainError, acceptance, dense_oracle, specfun
from chainlab.dense_oracle import (
    DenseOperator,
    Propagator,
    basis_state,
    build_flip_flop_hamiltonian,
    build_full_chain_hamiltonian,
    build_island_hamiltonian,
    check_dense_dimension,
    expectation,
    sector_indices,
    site_number_op,
    spin_ops,
)
from chainlab.qdomino import green_finite
from chainlab.radiating import decay_series


def test_island_spectrum_closed_form():
    for N in (1, 2, 5, 12):
        H = build_island_hamiltonian(N)
        w = np.sort(np.linalg.eigvalsh(H.mat))
        ref = np.sort(2.0 * np.cos(np.arange(1, N + 1) * np.pi / (N + 1)))
        assert np.max(np.abs(w - ref)) < 1e-12


def test_island_validation():
    with pytest.raises(ValueError):
        build_island_hamiltonian(0)


def test_propagator_is_unitary():
    H = build_island_hamiltonian(7)
    prop = Propagator(H)
    psi0 = np.zeros(7, dtype=complex)
    psi0[3] = 1.0
    for t in (0.1, 2.0, 50.0):
        psi = prop.apply(psi0, t)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-13


def test_propagator_vectorized_over_time():
    H = build_island_hamiltonian(4)
    prop = Propagator(H)
    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    block = prop.apply(psi0, np.array([0.5, 1.5]))
    assert block.shape == (2, 4)
    assert np.allclose(block[1], prop.apply(psi0, 1.5))


def test_propagator_of_a_complex_hamiltonian_matches_expm():
    # complex modes: c takes their conjugate, which real modes do without
    from scipy.linalg import expm

    rng = np.random.default_rng(3)
    A = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    H = A + A.conj().T
    psi0 = rng.normal(size=5) + 1j * rng.normal(size=5)
    ts = np.array([0.0, 0.7, 2.0])
    ref = np.array([expm(-1j * t * H) @ psi0 for t in ts])
    assert np.max(np.abs(Propagator(DenseOperator(H)).apply(psi0, ts) - ref)) < 1e-12
    # at dimension 1 modes.T is C-contiguous too: its copy, which c conjugates in place, is still a copy
    one = Propagator(DenseOperator(np.array([[2.0 + 0j]])))
    assert np.max(np.abs(one.apply(np.array([1j]), ts) - 1j * np.exp(-2j * ts)[:, None])) < 1e-15


@settings(derandomize=True, deadline=None, max_examples=20)
@given(dim=st.integers(2, 300), complex_h=st.booleans(), n=st.integers(1, 200), seed=st.integers(0, 2**32 - 1))
# 64k +- 1 states: when the modes went through the products in spans of 64 columns, a one-wide last span
# took numpy's GEMV for its column of a block, or its dot for its row of c, and read other bits at 65, 129,
# 193 and 257
@example(dim=63, complex_h=False, n=65, seed=1)
@example(dim=65, complex_h=True, n=2, seed=2)
@example(dim=127, complex_h=True, n=129, seed=3)
@example(dim=129, complex_h=False, n=64, seed=4)
@example(dim=191, complex_h=False, n=1, seed=5)
@example(dim=193, complex_h=True, n=193, seed=6)
@example(dim=255, complex_h=True, n=127, seed=7)
@example(dim=257, complex_h=False, n=200, seed=8)
def test_propagation_of_a_random_state_is_the_one_shot_product_to_the_bit(dim, complex_h, n, seed):
    # a random complex psi0: from a unit vector, c = modes* psi0 reads the same bits however its sums run.
    # Complex modes equal one_shot to the bit; real modes equal per_block to the bit and one_shot within
    # 8 eps per unit of |psi0| (measured up to 1.4 eps over 60 random real H)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + (1j * rng.normal(size=(dim, dim)) if complex_h else 0.0)
    prop = Propagator(DenseOperator(A + A.conj().T))
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    t = np.sort(rng.uniform(0.0, 10.0, n))
    psi, ref = prop.apply(psi0, t), one_shot(prop, psi0, t)
    assert np.array_equal(psi, ref if complex_h else per_block(prop, psi0, t))
    assert np.max(np.abs(psi - ref)) <= 8 * np.finfo(float).eps * np.linalg.norm(psi0)
    # decay_series reads only these three attributes of its chain
    chain = SimpleNamespace(propagator=prop, initial_state=lambda: psi0, params=SimpleNamespace(N=dim // 2))
    assert np.array_equal(decay_series(chain, t), np.sum(np.abs(psi[:, dim // 2 :]) ** 2, axis=1))


def test_apply_writes_each_block_into_its_result():
    # one block's phases besides the 1.05 MB result: 3.30 MB traced at 1024 states over 64 times; with the
    # whole complex modes and each block copied into the result it peaked at 20.07 MB
    prop = Propagator(build_full_chain_hamiltonian(10))
    psi0 = basis_state((1,) + (0,) * 9)
    t = np.linspace(0.0, 1.0, 64)
    prop.apply(psi0, t)  # untraced first, so that the traced call sees no lazy set-up
    with traced() as trace:
        prop.apply(psi0, t)
    assert trace.peak < 6e6


def test_spin_ops_algebra():
    a, adag = spin_ops(3, 1)
    num = adag @ a
    # (a*)^2 = 0 and the number operator is idempotent on one site
    assert np.max(np.abs(adag @ adag)) == 0.0
    assert np.allclose(num @ num, num)


def test_full_chain_flip_rule():
    # spin n+1 flips only when the left neighbor is up and the right is down
    H = build_full_chain_hamiltonian(3)
    out = H.mat @ basis_state((1, 0, 0))
    assert np.allclose(out, basis_state((1, 1, 0)))
    # blocked: rightmost up
    assert np.max(np.abs(H.mat @ basis_state((1, 0, 1)))) == 0.0


def test_basis_state_matches_spin_ops():
    # raise each up site of the all-down state with the Kronecker a*
    for bits in [(1,), (1, 0), (0, 1, 1), (1, 0, 0, 1)]:
        psi = basis_state([0] * len(bits))
        for s, b in enumerate(bits):
            if b:
                psi = spin_ops(len(bits), s)[1] @ psi
        assert np.array_equal(basis_state(bits), psi)


def test_entry_set_builders_equal_kronecker_sums():
    for n_sites in range(2, 11):
        # sector forms: the full-space forms restricted to the sector's indices
        full_h = build_flip_flop_hamiltonian(n_sites).mat
        full_n = [site_number_op(n_sites, s).mat for s in range(n_sites)]
        for n_up in range(n_sites + 1):
            idx = sector_indices(n_sites, n_up)
            sub = np.ix_(idx, idx)
            assert np.array_equal(build_flip_flop_hamiltonian(n_sites, n_up).mat, full_h[sub])
            for s in range(n_sites):
                assert np.array_equal(site_number_op(n_sites, s, n_up).mat, full_n[s][sub])
            for i in idx:
                bits = [(int(i) >> (n_sites - 1 - s)) & 1 for s in range(n_sites)]
                assert np.array_equal(basis_state(bits, n_up), basis_state(bits)[idx])
        if n_sites > 7:
            continue  # the Kronecker sums below take seconds past 7 sites
        ops = [spin_ops(n_sites, s) for s in range(n_sites)]
        flip_flop = sum(0.5 * (ops[n][1] @ ops[n + 1][0] + ops[n + 1][1] @ ops[n][0]) for n in range(n_sites - 1))
        assert np.array_equal(build_flip_flop_hamiltonian(n_sites).mat, flip_flop)
        for s, (a, adag) in enumerate(ops):
            assert np.array_equal(site_number_op(n_sites, s).mat, adag @ a)
        if n_sites >= 3:
            domino = sum(
                (ops[n][1] @ ops[n][0]) @ (ops[n + 1][1] + ops[n + 1][0]) @ (ops[n + 2][0] @ ops[n + 2][1])
                for n in range(n_sites - 2)
            )
            assert np.array_equal(build_full_chain_hamiltonian(n_sites).mat, domino)


def test_many_body_domino_matches_island_green_function():
    # from 1 0^8 only the domino states 1^k 0^(9-k), k = 1..8, are reached, and H hops between
    # neighbouring k with amplitude 1: site s is up while k > s, with the 8-site island's weight
    ts = (0.5, 1.0, 3.0, 10.0, 40.0)
    psi = Propagator(build_full_chain_hamiltonian(9)).apply(basis_state((1,) + (0,) * 8), ts)
    island = np.array([[abs(green_finite(k, 1, 8, t)) ** 2 for k in range(1, 9)] for t in ts])
    for s in range(9):
        ref = np.sum(island[:, s:], axis=1)  # k = s + 1..8
        assert np.max(np.abs(expectation(psi, site_number_op(9, s)) - ref)) <= 1e-12


def test_full_chain_size_limits():
    with pytest.raises(ValueError):
        build_full_chain_hamiltonian(2)
    with pytest.raises(ValueError):
        build_full_chain_hamiltonian(15)
    with pytest.raises(ValueError):
        build_flip_flop_hamiltonian(1)
    with pytest.raises(ValueError):
        build_flip_flop_hamiltonian(15)
    with pytest.raises(ValueError):
        build_flip_flop_hamiltonian(4, n_up=5)
    with pytest.raises(ValueError):
        basis_state((1, 0, 1), n_up=1)


def test_expectation_and_evolution():
    H = build_island_hamiltonian(3)
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi = Propagator(H).apply(psi0, 0.7)
    P = DenseOperator(np.diag([1.0, 0.0, 0.0]))
    val = expectation(psi, P)
    assert 0.0 <= val.real <= 1.0 and val.imag == 0.0
    assert expectation(psi0, P).real == pytest.approx(1.0)


def test_oversized_propagator_is_refused_before_allocation(monkeypatch, forbid):
    forbid(np.linalg, "eigh")
    # zero strides: a 2^14-dimensional H (2 GiB of nbytes) that allocates nothing; the Hermitian scan
    # would allocate 2 GiB for H - H^T, so the dimension gate must come first
    with traced() as trace:
        with pytest.raises(DomainError):
            Propagator(DenseOperator(np.broadcast_to(0.0, (2**14, 2**14))))
    assert trace.peak < 2**20
    # a sector H is held to the same bound: 5 copies and check_held's fixed work bytes
    H = build_flip_flop_hamiltonian(10, n_up=5)
    monkeypatch.setattr(specfun, "_MAX_HELD_BYTES", 5 * H.mat.nbytes + 2**17 - 1)
    with pytest.raises(DomainError):
        Propagator(H)


def test_dense_budget_edges():
    # 5 copies of the matrix and check_held's 2^17 fixed work bytes within 2^28 bytes
    check_dense_dimension(2589)
    with pytest.raises(DomainError):
        check_dense_dimension(2590)
    check_dense_dimension(1831, itemsize=16)
    with pytest.raises(DomainError):
        check_dense_dimension(1832, itemsize=16)


@pytest.mark.parametrize(
    "call",
    [
        lambda: basis_state([0] * 40),
        lambda: site_number_op(40, 0, n_up=1),
        lambda: spin_ops(600, 0),
        lambda: check_dense_dimension(10**160),
    ],
    ids=["basis_state", "site_number_op-sector", "spin_ops-600-sites", "dimension-1e160"],
)
def test_oversized_spin_basis_is_refused_before_allocation(call):
    # 2^40 basis indices would take 8 TiB; the last two byte counts no float can hold
    with traced() as trace:
        with pytest.raises(DomainError):
            call()
    assert trace.peak < 2**20


@pytest.mark.parametrize("n_up", [None, 0, 9, 18], ids=["full", "empty", "half", "filled"])
def test_spin_basis_gate_counts_what_it_holds(gate_covers, n_up):
    # the peak of the enumeration stays within the bytes its gate counts: one byte less of budget refuses it
    gate_covers(lambda: sector_indices(18, n_up))


@pytest.mark.parametrize(
    "build",
    [
        build_full_chain_hamiltonian,
        build_flip_flop_hamiltonian,
        lambda n_sites: site_number_op(n_sites, 0),
        lambda n_sites: spin_ops(n_sites, 0),
    ],
    ids=["full_chain", "flip_flop", "site_number_op", "spin_ops"],
)
def test_oversized_builder_is_refused_before_allocation(forbid, build):
    # 13 sites: a 2^13-dimensional dense matrix is 512 MiB, and 5 copies of it exceed the byte budget
    forbid(np, "zeros", "diag", "kron")
    with traced() as trace:
        with pytest.raises(DomainError):
            build(13)
    assert trace.peak < 2**20


@pytest.mark.parametrize(
    "make",
    [
        lambda: partial(Propagator, build_full_chain_hamiltonian(10)),
        lambda: partial(Propagator(build_island_hamiltonian(400)).apply, np.full(400, 0.05),
                        np.linspace(0.0, 50.0, 1001)),
        lambda: partial(spin_ops, 10, 0),
        lambda: partial(site_number_op, 10, 0),
    ],
    ids=["Propagator", "Propagator.apply", "spin_ops", "site_number_op"],
)
def test_dense_gates_count_what_each_call_holds(gate_covers, make):
    # check_dense_dimension's five copies cover peaks of two (Propagator and spin_ops at 1024
    # dimensions) and one (site_number_op); apply counts the phases of its whole time grid and the complex modes.
    # make builds the call's inputs before it is traced
    gate_covers(make())


def test_criterion_06_diagonalizes_only_its_sector(calls):
    eigh_shapes = calls(np.linalg, "eigh", lambda a, *args, **kwargs: a.shape)
    dims = calls(dense_oracle, "DenseOperator", lambda mat: mat.shape[0])
    assert acceptance.run_all([6])[0].passed
    # the half-filled 10-site state lives in C(10, 5) = 252 of 1024 dimensions
    assert eigh_shapes == [(252, 252)]
    assert max(dims) == 252


def test_non_hermitian_hamiltonian_is_refused():
    with pytest.raises(ValueError, match="must be Hermitian"):
        Propagator(DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_expectation_dimension_check():
    with pytest.raises(ValueError):
        expectation(np.zeros(4), DenseOperator(np.eye(3)))


def test_number_operator_counts():
    n_op = site_number_op(2, 0)
    val = expectation(basis_state((1, 0)), n_op)
    assert isinstance(val, complex) and val == 1 + 0j
    assert expectation(basis_state((0, 1)), n_op) == pytest.approx(0.0)
