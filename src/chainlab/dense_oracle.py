"""Brute-force ground truth on small dense Hilbert spaces.

Explicit matrices for the one-island hopping Hamiltonian and the spin
chains, exp(-itH) through one cached eigendecomposition (Propagator), and
expectation values; the analytic modules are checked against them.  The
spin basis and every dense matrix are held to the package's one byte
budget, specfun.check_held, before they allocate.  Spin basis: site s of
an n_sites chain is up in basis index i iff bit n_sites-1-s of i is set,
the np.kron order of spin_ops (site 0 first); the builders set their
nonzero entries directly from these bits.  An operator that conserves the number of up spins also has a
sector form: given n_up, it acts on the full-space indices with n_up set
bits, in increasing order (sector_indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import PHASE_BLOCK, check_held

__all__ = [
    "DenseOperator",
    "Propagator",
    "build_island_hamiltonian",
    "build_full_chain_hamiltonian",
    "build_flip_flop_hamiltonian",
    "basis_state",
    "check_dense_dimension",
    "sector_indices",
    "spin_ops",
    "site_number_op",
    "expectation",
]

@dataclass(frozen=True)
class DenseOperator:
    """Dense matrix wrapper carrying its dimension."""

    mat: np.ndarray

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def build_island_hamiltonian(N: int) -> DenseOperator:
    """Hopping Hamiltonian on the single-island basis |1>..|N>.

    Tridiagonal, zeros on the diagonal, ones on the off-diagonals; its
    eigenvalues are 2 cos(j pi / (N + 1)).
    """
    if N < 1:
        raise ValueError("chain length must be >= 1")
    H = np.zeros((N, N))
    idx = np.arange(N - 1)
    H[idx, idx + 1] = 1.0
    H[idx + 1, idx] = 1.0
    return DenseOperator(H)


def spin_ops(n_sites: int, site: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, a*) on `site` (0-based) of an n_sites chain; the Kronecker reference for the builders."""
    check_dense_dimension(2**n_sites)
    # spin-1/2 site operators, basis |down> = (1,0), |up> = (0,1): the identity, and a (up -> down) on site
    ops = [np.eye(2)] * n_sites
    ops[site] = np.array([[0.0, 1.0], [0.0, 0.0]])
    a = ops[0]
    for o in ops[1:]:
        a = np.kron(a, o)
    return a, a.T.copy()


def sector_indices(n_sites: int, n_up: int | None = None) -> np.ndarray:
    """Full-space basis indices with n_up up spins, increasing; every index when n_up is None."""
    if n_up is not None and not 0 <= n_up <= n_sites:
        raise ValueError("n_up must be in [0, n_sites]")
    # the enumeration; a sector adds its bit counts and their mask (a byte each per index) and its indices
    held = 8 * 2**n_sites if n_up is None else 10 * 2**n_sites + 8 * math.comb(n_sites, n_up)
    check_held(held, f"spin basis of {n_sites} sites")
    idx = np.arange(2**n_sites)
    if n_up is None:
        return idx
    return idx[np.bitwise_count(idx) == n_up]


def _site_bits(idx: np.ndarray, n_sites: int, site: int) -> np.ndarray:
    """1 where `site` is up, 0 where it is down, for each basis index in idx."""
    return (idx >> (n_sites - 1 - site)) & 1


def basis_state(bits, n_up: int | None = None) -> np.ndarray:
    """Basis vector with site s up iff bits[s] is 1; in the n_up sector when n_up is given."""
    n_sites = len(bits)
    if n_up is not None and sum(int(b) for b in bits) != n_up:
        raise ValueError("bits must have n_up up spins")
    idx = sector_indices(n_sites, n_up)
    psi = np.zeros(idx.size, dtype=complex)
    psi[np.searchsorted(idx, sum(int(b) << (n_sites - 1 - s) for s, b in enumerate(bits)))] = 1.0
    return psi


def site_number_op(n_sites: int, site: int, n_up: int | None = None) -> DenseOperator:
    """a*a on `site`: diagonal, 1 where the site is up; in the n_up sector when n_up is given."""
    idx = sector_indices(n_sites, n_up)
    check_dense_dimension(idx.size)
    return DenseOperator(np.diag(_site_bits(idx, n_sites, site).astype(float)))


def build_full_chain_hamiltonian(n_sites: int) -> DenseOperator:
    """Domino Hamiltonian on the full 2^n_sites spin space.

    Sum over triples (n, n+1, n+2) of a_n* a_n (a_{n+1}* + a_{n+1})
    a_{n+2} a_{n+2}*: spin n+1 flips iff spin n is up and spin n+2 down.
    """
    if n_sites < 3:
        raise ValueError("n_sites must be >= 3")
    idx = sector_indices(n_sites)
    check_dense_dimension(idx.size)
    H = np.zeros((idx.size, idx.size))
    for n in range(n_sites - 2):
        i = np.flatnonzero((_site_bits(idx, n_sites, n) == 1) & (_site_bits(idx, n_sites, n + 2) == 0))
        H[i ^ (1 << (n_sites - 2 - n)), i] = 1.0
    return DenseOperator(H)


def build_flip_flop_hamiltonian(n_sites: int, n_up: int | None = None) -> DenseOperator:
    """Nearest-neighbor flip-flop chain on the full 2^n_sites spin space, or its n_up sector.

    Sum over pairs (n, n+1) of (a_n* a_{n+1} + a_{n+1}* a_n) / 2: the x-y
    chain at kappa = 1 (kappa only rescales time).  The fermion mapping
    leaves this interaction string-free, so the spin chain is the exact
    finite-volume counterpart of the free-fermion hopping model.  A flip-flop
    conserves the number of up spins, so the n_up sector is closed; its
    block equals the full H restricted to sector_indices(n_sites, n_up).
    """
    if n_sites < 2:
        raise ValueError("n_sites must be >= 2")
    idx = sector_indices(n_sites, n_up)
    check_dense_dimension(idx.size)
    H = np.zeros((idx.size, idx.size))
    for n in range(n_sites - 1):
        i = np.flatnonzero(_site_bits(idx, n_sites, n) != _site_bits(idx, n_sites, n + 1))
        H[np.searchsorted(idx, idx[i] ^ (3 << (n_sites - 2 - n))), i] = 0.5
    return DenseOperator(H)


def check_dense_dimension(dim: int, itemsize: int = 8) -> None:
    """Refuse a dense dim x dim matrix whose propagation, counted as 5 copies of it, would exceed check_held's budget.

    Traced, a Propagator of a real H peaks at 2 copies besides H at dimension 1024, and a radiating
    chain's H with its Propagator at 3 copies at dimension 406.  Propagating adds one block of times and
    one span of the complex modes, counted by Propagator.blocks: built in the same call, the chain's
    400-time decay_series peaks at 3.4 copies.
    """
    check_held(5 * itemsize * dim * dim, f"propagation at dimension {dim}")


class Propagator:
    """exp(-itH) applied through a cached eigendecomposition (read-only energies and modes).

    An H over the memory bound raises DomainError before anything is allocated, a non-Hermitian H ValueError.
    """

    def __init__(self, H: DenseOperator):
        check_dense_dimension(H.dim, H.mat.itemsize)
        if not np.max(np.abs(H.mat - H.mat.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(H.mat))):
            raise ValueError("Hamiltonian must be Hermitian")
        self.energies, self.modes = np.linalg.eigh(H.mat)
        self.energies.flags.writeable = self.modes.flags.writeable = False

    def apply(self, psi0: np.ndarray, t) -> np.ndarray:
        """exp(-itH) psi0; shape (dim,) for scalar t, (len(t), dim) for an array.

        Each block's product is written straight into the (len(t), dim) result, which is held with one
        block's phases and one span of columns of the complex modes: traced at dimension 406, 0.85 MB at a
        scalar time, 4.0 MB over 400 times and 14.4 MB over 2000; at dimension 1024, 3.3 MB over 64 times.
        """
        t = np.asarray(t, dtype=float)
        out = np.empty((t.size, self.energies.size), dtype=complex)
        for _ in self._fill(psi0, t.reshape(-1), out):
            pass
        return out.reshape(t.shape + (self.energies.size,))

    def blocks(self, psi0: np.ndarray, t):
        """Iterate over (i, rows) with rows[k] = exp(-i t[i + k] H) psi0, PHASE_BLOCK times at a time, t flattened.

        Every block is written into one buffer of PHASE_BLOCK + 1 rows at most, so its rows hold only
        until the next block.  The gate and c = modes* psi0 are made when the call is made, before the
        first block.  Traced at dimension 406, radiating.decay_series peaks at 1.8 MB at any number of
        times.
        """
        t = np.asarray(t, dtype=float).reshape(-1)
        return self._fill(psi0, t, np.empty((min(t.size, PHASE_BLOCK + 1), self.energies.size), dtype=complex))

    def _fill(self, psi0: np.ndarray, t: np.ndarray, out: np.ndarray):
        """Make the gate and c now; return a generator that writes each block into out and yields (i, rows).

        out has a row per time (apply's result: a block fills rows i:j) or one block's rows (a buffer each
        block overwrites).  The times, and the rows of modes.T for c and its columns for each block, go in
        _spans, each span of modes.T cast to a C-ordered complex copy, so the complex modes are never held
        whole.  Each entry keeps the sums it has in the one-shot product (exp(-i t E) * c) @ mt, c = mt* psi0,
        on one C-ordered complex copy mt of modes.T: a block of one time is a GEMV and a longer one a GEMM,
        as there.  A plain astype of a row span keeps F order and sums c in another order, and a one-wide
        span takes numpy's GEMV or dot.  So every row equals the one-shot product's to the bit, at one BLAS
        thread.
        """
        dim = self.energies.size
        # counts what the one-shot product held, three complex (len(t), dim) arrays and the complex modes; a
        # call now holds apply's result or one block of times, with one span of the modes, so the count bounds
        # the run's length, which grows with len(t), more than what it holds
        check_held(16 * (3 * t.size * dim + dim * dim), f"propagation of {dim} states over {t.size} times")
        psi0 = np.asarray(psi0, dtype=complex)
        c = np.empty(dim, dtype=complex)
        for a, b in _spans(dim):
            span = self.modes.T[a:b].astype(complex, order="C")
            np.matmul(span.conj() if np.iscomplexobj(self.modes) else span, psi0, out=c[a:b])

        def run():
            for i, j in _spans(t.size):
                rows = out[i:j] if len(out) == t.size else out[: j - i]
                phases = np.exp(-1j * np.multiply.outer(t[i:j], self.energies)) * c
                for a, b in _spans(dim):
                    np.matmul(phases, self.modes.T[:, a:b].astype(complex, order="C"), out=rows[:, a:b])
                yield i, rows

        return run()


def _spans(n: int) -> list[tuple[int, int]]:
    """(start, end) of 0..n in spans of PHASE_BLOCK that start at its multiples, a one-wide tail joined to the span before it."""
    starts = range(0, n, PHASE_BLOCK)
    if n > 1 and n % PHASE_BLOCK == 1:
        starts = starts[:-1]
    return list(zip(starts, [*starts[1:], n]))


def expectation(psi: np.ndarray, A: DenseOperator):
    """<psi|A|psi> as a complex value, for one state (dim,) or each row of a stack (k, dim)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != A.dim:
        raise ValueError("dimension mismatch")
    return np.vecdot(psi, psi @ A.mat.T)  # conjugates psi, as np.vdot does
