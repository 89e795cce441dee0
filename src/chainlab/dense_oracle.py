"""Brute-force ground truth on small dense Hilbert spaces.

Explicit matrices for the one-island hopping Hamiltonian and the spin
chains, exp(-itH) through one cached eigendecomposition (Propagator), and
expectation values; the analytic modules are checked against them.  The
spin-chain matrices refuse a dimension over check_dense_dimension before
they allocate.  Spin basis: site s of an n_sites chain is up in basis
index i iff bit n_sites-1-s of i is set, the np.kron order of spin_ops
(site 0 first); the builders set their nonzero entries directly from
these bits.  An operator that conserves the number of up spins also has a
sector form: given n_up, it acts on the full-space indices with n_up set
bits, in increasing order (sector_indices).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import DomainError

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

    def is_hermitian(self) -> bool:
        """Hermitian to 1e-12 relative to the largest entry (at least 1)."""
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= 1e-12 * max(1.0, np.max(np.abs(self.mat))))


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


# spin-1/2 site operators; basis |down> = (1,0), |up> = (0,1)
_A = np.array([[0.0, 1.0], [0.0, 0.0]])       # a  : up -> down
_ID2 = np.eye(2)


def spin_ops(n_sites: int, site: int) -> tuple[np.ndarray, np.ndarray]:
    """(a, a*) on `site` (0-based) of an n_sites chain; the Kronecker reference for the builders."""
    check_dense_dimension(2**n_sites)
    ops = [_ID2] * n_sites
    ops[site] = _A
    a = ops[0]
    for o in ops[1:]:
        a = np.kron(a, o)
    return a, a.T.copy()


def sector_indices(n_sites: int, n_up: int | None = None) -> np.ndarray:
    """Full-space basis indices with n_up up spins, increasing; every index when n_up is None."""
    idx = np.arange(2**n_sites)
    if n_up is None:
        return idx
    if not 0 <= n_up <= n_sites:
        raise ValueError("n_up must be in [0, n_sites]")
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
    if not 3 <= n_sites <= 14:
        raise ValueError("n_sites must be in [3, 14]")
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
    if not 2 <= n_sites <= 14:
        raise ValueError("n_sites must be in [2, 14]")
    idx = sector_indices(n_sites, n_up)
    check_dense_dimension(idx.size)
    H = np.zeros((idx.size, idx.size))
    for n in range(n_sites - 1):
        i = np.flatnonzero(_site_bits(idx, n_sites, n) != _site_bits(idx, n_sites, n + 1))
        H[np.searchsorted(idx, idx[i] ^ (3 << (n_sites - 2 - n))), i] = 0.5
    return DenseOperator(H)


# bound on the Propagator's peak memory, taken as 5 copies of H (the
# is_hermitian temporaries and the eigh workspace peak at about 4.3 copies);
# a real H of dimension 2^13 exceeds it
_MAX_PEAK_BYTES = 2**31


def check_dense_dimension(dim: int, itemsize: int = 8) -> None:
    """Refuse a dense dim x dim matrix whose propagation (5 copies) would exceed _MAX_PEAK_BYTES."""
    peak = 5 * itemsize * dim * dim
    if peak > _MAX_PEAK_BYTES:
        raise DomainError(f"dimension {dim} needs ~{peak / 2**30:.1f} GiB to propagate "
                          f"> {_MAX_PEAK_BYTES / 2**30:.0f} GiB")


class Propagator:
    """exp(-itH) applied through a cached eigendecomposition.

    An H over the memory bound raises DomainError before anything is allocated.
    """

    def __init__(self, H: DenseOperator):
        check_dense_dimension(H.dim, H.mat.itemsize)
        if not H.is_hermitian():
            raise ValueError("Hamiltonian must be Hermitian")
        self.energies, self.modes = np.linalg.eigh(H.mat)

    def apply(self, psi0: np.ndarray, t) -> np.ndarray:
        """exp(-itH) psi0; shape (dim,) for scalar t, (len(t), dim) for an array."""
        c = self.modes.conj().T @ np.asarray(psi0, dtype=complex)
        t = np.asarray(t, dtype=float)
        return (np.exp(-1j * np.multiply.outer(t, self.energies)) * c) @ self.modes.T


def expectation(psi: np.ndarray, A: DenseOperator):
    """<psi|A|psi> for one state (dim,) or each row of a stack (k, dim); real when A is Hermitian."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape[-1] != A.dim:
        raise ValueError("dimension mismatch")
    val = np.vecdot(psi, psi @ A.mat.T)  # conjugates psi, as np.vdot does
    return val.real if A.is_hermitian() else val
