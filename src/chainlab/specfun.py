"""Self-contained special functions for the chain models.

Bessel functions of integer order (normalized backward recurrence, one
function for scalars and arrays; a table of at most _FLOAT_LOOP_MAX
arguments runs the recurrence on Python floats and a larger one on
numpy arrays, with the same operations in the same order and so the
same bits), the finite-chain analogue of the Bessel
kernel obtained by sampling the integral representation on the
open-chain eigenphases, and phases e^{-i t x_j} on a uniform time grid:
`phase_blocks` yields the phase matrix a block of rows at a time (its
users: P_0 streams over them, and `phase_sum` multiplies them), `phase_sum`
the sums sum_j C_j e^{-i t x_j} directly from those blocks (the radiating
chain's route and the oracle of the fast one), and `phase_sum_nufft`
the sums as a type-1 non-uniform FFT in O(n log n + len(x)) work.
`gauss_legendre` gives the composite Gauss-Legendre nodes of the
momentum grids, the mode band and the bump packet's radii.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import DomainError

__all__ = [
    "bessel_j",
    "bessel_table",
    "bessel_ratio_table",
    "finite_kernel",
    "phase_sum",
    "phase_blocks",
    "PHASE_BLOCK",
    "phase_sum_nufft",
    "nufft_length",
    "pow2_at_least",
    "check_held",
    "gauss_legendre",
]

# rows of the base phase block of phase_blocks: its exp count per node is
# PHASE_BLOCK + n / PHASE_BLOCK, and the block bounds the memory
PHASE_BLOCK = 64
# phase_sum_nufft: Gaussian half-width in grid points, and the grid is the
# power of two >= _NUFFT_OVERSAMPLE * n, so the deconvolution gain
# e^{(n/2)^2 tau} stays below e^1.1; both chosen by measurement (CHANGES.md)
_NUFFT_HALF_WIDTH = 18
_NUFFT_OVERSAMPLE = 4
# largest Miller start index (Python loop steps); criterion 03 needs ~2.3e3
_MAX_START = 100_000
# tables of at most this many arguments run the recurrence one argument at a time on Python floats
# (_recur_floats): a step there costs 0.17-0.36 us per argument, against 4.5-6.5 us for the nine or so
# numpy calls of a step of _recur_arrays on a small table, so the two loops break even at 25-27 arguments
# on tables that write few rows and later on tables that write many (2-core Xeon, Python 3.11, numpy
# 2.4).  Both loops make the same IEEE double operations on each argument in the same order, and
# neither Python nor numpy fuses a multiply and an add here, so they give the same bits.
_FLOAT_LOOP_MAX = 25
# bytes a call may hold at once, counted before allocating (check_held): a Bessel table with its
# work arrays here, and each memory gate of the detector; every count adds _FIXED_WORK_BYTES of
# numpy work buffers that do not scale with the input (a small table peaks 56 KB over its count)
_MAX_HELD_BYTES = 2**28
_FIXED_WORK_BYTES = 2**17


def check_held(held: int, what: str) -> None:
    """Refuse the call `what`, which holds `held` bytes besides the fixed work buffers, over _MAX_HELD_BYTES."""
    total = operator.index(held) + _FIXED_WORK_BYTES
    if total > _MAX_HELD_BYTES:
        # Python refuses to write an int of more than 4300 digits in decimal; a power of two is enough
        count = str(total) if total.bit_length() <= 64 else f"over 2^{total.bit_length() - 1}"
        raise DomainError(f"{what} holds {count} bytes > {_MAX_HELD_BYTES} bytes")


def pow2_at_least(m: int) -> int:
    """The least power of two >= m (m >= 1, a Python or numpy integer): the FFT lengths of the package."""
    return 1 << (operator.index(m) - 1).bit_length()


def nufft_length(n: int) -> int:
    """Periodic grid length of phase_sum_nufft over n times: the power of two >= _NUFFT_OVERSAMPLE n."""
    return pow2_at_least(_NUFFT_OVERSAMPLE * n)


def gauss_legendre(lo: float, hi: float, order: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights: `order` nodes on each of `panels` equal panels of [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (b - a) * x + 0.5 * (b + a)).ravel(), (0.5 * (b - a) * w).ravel()


def bessel_table(n_max: int, x) -> np.ndarray:
    """J_n(x) for n = 0..n_max, vectorized over x.

    Backward (Miller) recurrence started well above the Airy transition
    zone, normalized with J_0^2 + 2 sum_k J_k^2 = 1; the sign of the
    overall constant comes from J_0 + 2 sum_k J_{2k} = 1.  A non-finite
    argument, a start index above _MAX_START, or a table with its work
    arrays over _MAX_HELD_BYTES raises DomainError before anything is
    allocated.

    Returns an array of shape (n_max + 1,) + shape(x).
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError(f"Bessel table to order {n_max} needs finite arguments")
    ax = np.abs(x)
    xmax = float(np.max(ax)) if x.size else 0.0
    start = n_max + 20 + int(math.ceil(xmax)) + 20 * int(math.ceil((xmax + 1.0) ** (1.0 / 3.0)))
    if start > _MAX_START:
        raise DomainError(f"Bessel table to order {n_max} at |x| = {xmax:.6g} needs recurrence "
                          f"start index {start} > {_MAX_START}")
    # the Miller recurrence's table, which it rescales and normalizes in place and returns, and the
    # recurrence's state and temporaries: 12 arrays over x at most
    check_held(8 * ((n_max + 1) + 12) * x.size, f"Bessel table to order {n_max} over {x.size} arguments")

    small = ax < 1e-8
    out = _miller(n_max, np.where(small, 1.0, x).ravel(), start).reshape((n_max + 1,) + x.shape)
    if np.any(small):
        # leading series terms; higher orders underflow to 0
        xs = x[small]
        out[:, small] = 0.0
        out[0, small] = 1.0 - 0.25 * xs * xs
        if n_max >= 1:
            out[1, small] = 0.5 * xs
    return out


def bessel_ratio_table(m_max: int, t) -> np.ndarray:
    """m J_m(2t)/t for m = 1..m_max, vectorized over t.

    One bessel_table(m_max, 2t) serves every row; the t = 0 limit is
    delta_{m,1}.  Returns an array of shape (m_max,) + shape(t).
    """
    t = np.asarray(t, dtype=float)
    zero = t == 0.0
    m = np.arange(1, m_max + 1).reshape((-1,) + (1,) * t.ndim)
    # formed in place, so that no second table is held
    ratio = bessel_table(m_max, 2.0 * t)[1:]
    ratio *= m
    ratio /= np.where(zero, 1.0, t)
    np.copyto(ratio, m == 1, where=zero)
    return ratio


def _miller(n_max: int, x: np.ndarray, start: int) -> np.ndarray:
    # start > n_max: bessel_table starts at n_max + 40 or higher; the loop is chosen here, so that a
    # caller, and a test that replaces _miller, sees one recurrence for every size
    sub = np.zeros((n_max + 1, x.size))
    recur = _recur_floats if x.size <= _FLOAT_LOOP_MAX else _recur_arrays
    jc, sq, lin = recur(sub, x, start)
    # J_0^2 + 2 sum_k J_k^2 and J_0 + 2 sum_k J_2k formed in place; the scale is sign(lin) sqrt(sq)
    lin *= 2.0
    lin += jc
    sq *= 2.0
    sq += np.multiply(jc, jc, out=jc)
    sub /= np.sign(lin, out=lin) * np.sqrt(sq, out=sq)
    return sub


def _recur_floats(sub: np.ndarray, x: np.ndarray, start: int) -> np.ndarray:
    """_recur_arrays one argument at a time on Python floats: the same operations in the same order."""
    n_max = sub.shape[0] - 1
    state = np.empty((3, x.size))
    for i, xi in enumerate(x.tolist()):
        col = sub[:, i]
        jp, jc, sq, lin = 0.0, 1.0, 0.0, 0.0
        for k in range(start, 0, -1):
            jp, jc = jc, 2.0 * k / xi * jc - jp
            if k <= n_max + 1:
                col[k - 1] = jc
            sq += jp * jp
            if k % 2 == 0:
                lin += jp
            if abs(jc) > 1e100:
                jc *= 1e-100
                jp *= 1e-100
                sq *= 1e-200
                lin *= 1e-100
                col[k - 1 :] *= 1e-100  # the rows written so far, in this argument's column
        state[:, i] = jc, sq, lin
    return state


def _recur_arrays(sub: np.ndarray, x: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the backward recurrence from J_start = 1, J_{start+1} = 0 over all of x at once.

    Writes rows 0..n_max of sub and returns the unnormalized J_0, sum_k J_k^2 and sum_k J_2k.
    """
    n_max = sub.shape[0] - 1
    jp = np.zeros_like(x)
    jc = np.ones_like(x)
    free = np.empty_like(x)  # J_{k-1} is written here; afterwards the freed J_{k+1} is the scratch
    sq = np.zeros_like(x)
    lin = np.zeros_like(x)
    over = np.empty(x.shape, dtype=bool)
    for k in range(start, 0, -1):
        # jc == J_k, jp == J_{k+1}; produce J_{k-1} = (2k / x) J_k - J_{k+1}
        np.divide(2.0 * k, x, out=free)
        free *= jc
        free -= jp
        jp, jc, free = jc, free, jp
        if k - 1 <= n_max:
            sub[k - 1] = jc
        sq += np.multiply(jp, jp, out=free)  # J_k^2, k >= 1
        if k % 2 == 0:
            lin += jp
        np.greater(np.abs(jc, out=free), 1e100, out=over)
        idx = over.nonzero()[0]
        if idx.size:
            # few arguments rescale on a step: only their entries are read and written
            jc[idx] *= 1e-100
            jp[idx] *= 1e-100
            sq[idx] *= 1e-200
            lin[idx] *= 1e-100
            # only the rows written so far hold values; rescaling them in place copies no table
            done = sub[k - 1 :]
            np.multiply(done, 1e-100, out=done, where=over)
    return jc, sq, lin


def bessel_j(n: int, x):
    """Bessel function J_n(x) for integer n and scalar or array x, accurate to about 1e-12.

    Entry |n| of bessel_table(|n|, x), which is odd or even in x; negative order via parity.  An
    order that is not a Python or numpy integer raises DomainError.
    """
    if not isinstance(n, (int, np.integer)):
        raise DomainError(f"Bessel order {n!r} must be an integer")
    m = abs(int(n))
    val = bessel_table(m, x)[m]
    return -val if n < 0 and m % 2 else val


def finite_kernel(n: int, length: int, z):
    """Finite-chain Bessel kernel of order n for an open chain of `length` sites.

    (i^n / (length + 1)) * sum_j exp(-i z cos(j pi / (length + 1)))
                               * cos(n j pi / (length + 1))

    Converges to J_n(z) as length grows (fixed n, z).  Scalar or array z.
    """
    if length < 1:
        raise ValueError("chain length must be positive")
    j = np.arange(1, length + 1)
    theta = j * np.pi / (length + 1)
    z = np.asarray(z, dtype=float)
    s = np.sum(np.exp(-1j * np.multiply.outer(z, np.cos(theta))) * np.cos(n * theta), axis=-1)
    return 1j**n * s / (length + 1)


def phase_blocks(x, dt: float, n: int):
    """Yield (i, base, phase) with exp(-i t_k x) = base[k - i] * phase for the rows k = i..i + len(base) - 1.

    The rows t_i + k dt of a block are one base block exp(-i k dt x), k
    < PHASE_BLOCK, times the block phase exp(-i t_i x).  Both phases are
    evaluated directly from their times, so no rounding accumulates across
    blocks and no exp runs over the full (times x nodes) matrix.
    """
    x = np.asarray(x, dtype=float)
    base = np.outer(dt * np.arange(min(PHASE_BLOCK, n)), x) * -1j
    np.exp(base, out=base)
    for i in range(0, n, PHASE_BLOCK):
        yield i, base[: min(PHASE_BLOCK, n - i)], np.exp(-1j * (dt * i) * x)


def phase_sum(C: np.ndarray, x: np.ndarray, dt: float, n: int) -> np.ndarray:
    """S[k] = sum_j C[j] exp(-i t_k x_j) at t_k = k dt for k = 0..n-1.

    C has shape (len(x), cols); the result has shape (n, cols).  Each
    block of `phase_blocks` is one product of its base block with C
    scaled by the block phase.
    """
    out = np.empty((n, C.shape[1]), dtype=complex)
    for i, base, phase in phase_blocks(x, dt, n):
        out[i : i + len(base)] = base @ (phase[:, None] * C)
    return out


def phase_sum_nufft(C: np.ndarray, x: np.ndarray, dt: float, n: int) -> np.ndarray:
    """phase_sum(C, x, dt, n) as a type-1 non-uniform FFT by Gaussian gridding.

    With theta_j = dt x_j reduced mod 2 pi, S[k] = sum_j C[j] e^{-i k theta_j}.
    Folding e^{-i h theta_j}, h = n // 2, into C centres the outputs at
    k' = k - h.  Each node is spread with the Gaussian
    e^{-(xi - theta_j)^2 / 4 tau} onto its 2H nearest points xi_m =
    2 pi m / M of a periodic grid; one FFT gives the smoothed Fourier
    coefficients, and dividing by the Gaussian's transform
    sqrt(tau / pi) e^{-k'^2 tau} restores S (Greengard & Lee, SIAM Rev.
    46 (2004) 443: tau = pi H / (n^2 R (R - 1/2)), R = M / n).  Nodes
    are spread one kernel offset at a time, each over the window of grid
    points the nodes touch, into one complex grid row per column that is
    then transformed in place; besides those rows the temporaries stay
    O(len(x)) and not O(len(x) H).
    """
    x = np.asarray(x, dtype=float)
    H = _NUFFT_HALF_WIDTH
    M = nufft_length(n)
    R = M / n
    tau = math.pi * H / (n * n * R * (R - 0.5))
    step = 2.0 * math.pi / M
    theta = dt * x
    theta -= 2.0 * math.pi * np.rint(theta / (2.0 * math.pi))  # in [-pi, pi]: exact for small |dt x|
    m0 = np.floor(theta / step).astype(np.int64)
    d = theta - m0 * step  # offset from the grid point below
    h = n // 2
    # h theta = 2 pi (h m0 mod M) / M + h d: the integer reduction keeps the phase below 2 pi + pi / 4
    Ch = C * np.exp(-1j * (step * ((h * m0) % M) + h * d))[:, None]
    grid = np.zeros((C.shape[1], M), dtype=complex)
    # the real and the imaginary part of each column of Ch spread into those views of its grid row
    rows = []
    for c, row in enumerate(grid):
        rows += [(Ch.real[:, c], row.real), (Ch.imag[:, c], row.imag)]
    # bin b of the window is grid point lo + b + offset (mod M), one point to a bin (span <= M), so
    # each bin sums the same terms in the same order as a full-length bincount would
    lo, hi = (int(m0.min()), int(m0.max())) if m0.size else (0, -1)
    span = min(hi - lo + 1, M)
    bins = (m0 - lo) % M
    for offset in range(1 - H, H + 1):
        a = (lo + offset) % M
        cut = M - a  # bins up to the end of the grid; the rest wrap to its start
        spread = np.exp(-((d - offset * step) ** 2) / (4.0 * tau))
        for part, row in rows:
            b = np.bincount(bins, part * spread, span)
            row[a : a + span] += b[:cut]
            if span > cut:
                row[: span - cut] += b[cut:]
    for row in grid:
        np.fft.fft(row, out=row)
    k = np.arange(n) - h
    S = grid[:, k % M]
    S *= math.sqrt(math.pi / tau) / M * np.exp(k * k * tau)
    return S.T
