"""Self-contained special functions for the chain models.

Bessel functions of integer order (normalized backward recurrence, one
path for scalars and arrays), Chebyshev polynomials of the second kind,
and the finite-chain analogue of the Bessel kernel obtained by sampling
the integral representation on the open-chain eigenphases.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "bessel_j",
    "bessel_table",
    "chebyshev_u",
    "finite_kernel",
]


def bessel_table(n_max: int, x) -> np.ndarray:
    """J_n(x) for n = 0..n_max, vectorized over x.

    Backward (Miller) recurrence started well above the Airy transition
    zone, normalized with J_0^2 + 2 sum_k J_k^2 = 1; the sign of the
    overall constant comes from J_0 + 2 sum_k J_{2k} = 1.

    Returns an array of shape (n_max + 1,) + shape(x).
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    ax = np.abs(x)
    xmax = float(np.max(ax)) if x.size else 0.0
    start = n_max + 20 + int(math.ceil(xmax)) + 20 * int(math.ceil((xmax + 1.0) ** (1.0 / 3.0)))

    out = np.zeros((n_max + 1,) + x.shape)
    small = ax < 1e-8
    if np.any(small):
        # leading series terms; higher orders underflow to 0
        xs = x[small]
        out[0, small] = 1.0 - 0.25 * xs * xs
        if n_max >= 1:
            out[1, small] = 0.5 * xs
    big = ~small
    if np.any(big):
        flat = x[big].ravel()
        out[:, big] = _miller(n_max, flat, start).reshape((n_max + 1,) + x[big].shape)
    return out[:, 0] if scalar else out


def _miller(n_max: int, x: np.ndarray, start: int) -> np.ndarray:
    jp = np.zeros_like(x)
    jc = np.ones_like(x)
    sq = np.zeros_like(x)
    lin = np.zeros_like(x)
    sub = np.zeros((n_max + 1, x.size))
    if start <= n_max:
        sub[start] = jc
    for k in range(start, 0, -1):
        # jc == J_k, jp == J_{k+1}; produce J_{k-1}
        jm = (2.0 * k / x) * jc - jp
        jp, jc = jc, jm
        if k - 1 <= n_max:
            sub[k - 1] = jc
        sq += jp * jp  # J_k^2, k >= 1
        if k % 2 == 0:
            lin += jp
        over = np.abs(jc) > 1e100
        if np.any(over):
            jc[over] *= 1e-100
            jp[over] *= 1e-100
            sq[over] *= 1e-200
            lin[over] *= 1e-100
            sub[:, over] *= 1e-100
    sq_total = jc * jc + 2.0 * sq
    lin_total = jc + 2.0 * lin
    scale = np.sign(lin_total) * np.sqrt(sq_total)
    return sub / scale


def bessel_j(n: int, x: float) -> float:
    """Bessel function J_n(x) for integer n, accurate to about 1e-12.

    Entry n of bessel_table(|n|, |x|); negative order and argument via
    parity.
    """
    n = int(n)
    x = float(x)
    sign = 1.0
    if n < 0:
        n = -n
        sign *= -1.0 if n % 2 else 1.0
    if x < 0:
        x = -x
        sign *= -1.0 if n % 2 else 1.0
    return sign * float(bessel_table(n, x)[n])


def chebyshev_u(n: int, z: float) -> float:
    """Chebyshev polynomial of the second kind U_n(z), forward recurrence."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    um, uc = 1.0, 2.0 * z
    if n == 0:
        return um
    for _ in range(n - 1):
        um, uc = uc, 2.0 * z * uc - um
    return uc


def finite_kernel(n: int, length: int, z: float) -> complex:
    """Finite-chain Bessel kernel of order n for an open chain of `length` sites.

    (i^n / (length + 1)) * sum_j exp(-i z cos(j pi / (length + 1)))
                               * cos(n j pi / (length + 1))

    Converges to J_n(z) as length grows (fixed n, z).
    """
    if length < 1:
        raise ValueError("chain length must be positive")
    j = np.arange(1, length + 1)
    theta = j * np.pi / (length + 1)
    s = np.sum(np.exp(-1j * z * np.cos(theta)) * np.cos(n * theta))
    return complex(1j**n * s / (length + 1))
