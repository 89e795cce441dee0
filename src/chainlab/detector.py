"""Nonideal particle detector: amplitudes, Volterra equation, POVM.

`DetectorRun(gamma, psi, dt, T)` is the entry point: its methods give
every detector quantity of one run (the no-flip amplitude, the detection
probability w, the chain occupations, P_0), and `povm_matrix` gives the
response operator on a packet span.

A free particle couples through a packet phi to the head of a
semi-infinite hopping chain.  The no-flip amplitude F obeys a Volterra
convolution equation F = F0 - gamma^2 g*f*F on the half line; it is
solved three ways (trapezoid marching, Neumann series, discrete
Fourier-domain division), and from it follow the chain-site occupation
probabilities, the detection probability w, and the detector's response
operator W_gamma, a positive nonprojection POVM element.

All three solvers discretize the same trapezoid convolution operator, so
their disagreement measures solver error, not discretization error.  The
quadratic forms of the Toeplitz kernels (f for w and W_gamma, g for the
occupations) are taken in the Fourier basis of the kernel's circulant
embedding, where they are diagonal: one FFT per column and no inverse.
Transform convention: (1/sqrt(2 pi)) int e^{-i t u} h(t) dt, so a
convolution transforms into sqrt(2 pi) times the product.
"""

from __future__ import annotations

from functools import cached_property
from math import isfinite, pi

import numpy as np

from . import DomainError
from .packets import RadialPacket, default_grid, gaussian_packet, overlap
from .specfun import PHASE_BLOCK, bessel_ratio_table, check_held, nufft_length, phase_blocks, phase_sum_nufft, pow2_at_least

__all__ = [
    "DetectorRun",
    "amplitude_free",
    "semicircle_kernel",
    "povm_matrix",
    "W_ROUTE_TOL",
]


def semicircle_kernel(u):
    """Transform of J_1(2t)/t: (1/sqrt(2 pi)) theta(2-|u|) sqrt(4-u^2)."""
    u = np.asarray(u, dtype=float)
    out = np.where(np.abs(u) <= 2.0, np.sqrt(np.maximum(4.0 - u**2, 0.0)), 0.0)
    return out / np.sqrt(2.0 * pi)


def amplitude_free(a: RadialPacket, b: RadialPacket, t):
    """Free survival amplitude int conj(a) b e^{-i t p^2} 4 pi p^2 dp at a time or an array of times.

    Composite Gauss-Legendre with the panel count scaled to the largest
    phase max|t| p_max^2, so the oscillation stays resolved at every t;
    one grid serves all times.
    """
    if not np.array_equal(a.grid.nodes, b.grid.nodes):
        raise ValueError("packets must share a grid")
    t = np.asarray(t, dtype=float)
    p_max = a.grid.p_max
    g = default_grid(p_max, max(40, int(np.ceil(np.max(np.abs(t), initial=0.0) * p_max**2 / (2.0 * pi)))), 10)
    p = g.nodes
    amp = np.conj(a.amplitude_at(p)) * b.amplitude_at(p)
    return g.integrate(amp * 4.0 * pi * p**2 * np.exp(-1j * np.multiply.outer(t, p**2)))


# momentum Nyquist safety for the series quadrature
_OVERSAMPLE = 4.0
# Neumann series: stop when a term's norm falls below this fraction of |F0|
_NEUMANN_TOL = 1e-12
_NEUMANN_MAX_TERMS = 200
# steps per leaf of solve_marching's blocked substitution.  On the default run (T = 200) it takes
# 6.0-6.3 ms at 64, 5.9-6.3 ms at 128, 7.5-7.7 ms at 32 and 12.2-12.8 ms at 256; at T = 1000,
# 31-33 ms at 64 and 28-29 ms at 128 (best of 15 and of 5 in each of five processes, one BLAS
# thread, 2-core Xeon VM).  64 holds a quarter of 128's leaf inverse and pads a short run to fewer steps
_MARCH_LEAF = 64
# chain sites per column block of occupations_at's Toeplitz transforms.  occupations_at(60.0) on a
# T = 60 run (m_max = 200, 8192-point transforms) peaks under tracemalloc at 5.7, 6.2 and 7.4 MB
# for 2, 4 and 8 columns and at 9.9, 14.9 and 24.8 MB for 16, 32 and 64 columns, over its 4.8 MB
# f_m table; best of 3 takes 0.036-0.038 s at 2-8 columns and 0.042-0.044 s at 16-64 (one BLAS
# thread, 2-core Xeon VM)
_OCC_BLOCK = 8
# bytes per time that `_steps` holds to find the distinct steps: the times, their integer steps
# (the float steps are freed first), and np.unique's flattened copy, sort order, sorted steps, two
# running counts and inverse (and a 1-byte mask).  57 traced at 200000 times
_STEP_BYTES = 64
# largest accepted gap between the time-domain and spectral w routes
W_ROUTE_TOL = 1e-6


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _trapezoid_weights(size: int, h: float) -> np.ndarray:
    """Trapezoid weights for `size` samples spaced by h."""
    w = np.full(size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _check_free_pass(times: int, L: int, n_fine: int, cols: int) -> None:
    """Refuse a free pass over `cols` columns at `times` times, then a length-L solve, over the byte budget."""
    # per column one complex NUFFT grid row (length M, transformed in place), its output row over
    # the times and its columns of C and Ch over the fine momenta; shared, 6 more over the momenta
    # (p^2, amplitudes, node offsets and bins, one kernel offset's weights and their product) and 2
    # of length L for FFT plans and the solver.  The default run's pass over two columns counts
    # 8.60 MB and peaks under tracemalloc at 5.09 MB: C is built in place, and everything over the
    # momenta is freed before the grid rows are transformed
    held = 16 * (cols * (nufft_length(times) + times + 2 * n_fine) + 2 * L + 6 * n_fine)
    check_held(held, f"a free pass over {cols} columns and a {L}-point grid")


def _two_sided(h: np.ndarray, L: int) -> np.ndarray:
    """Circular layout of h(t) for t >= 0 and conj(h(-t)) for t < 0, length L."""
    n = h.size - 1
    ker = np.zeros(L, dtype=complex)
    ker[: n + 1] = h
    ker[-n:] = np.conj(h[1:][::-1])
    return ker


def _conv_length(size: int) -> int:
    """FFT length of a linear or Toeplitz convolution over `size` samples: the power of two >= 2 size."""
    return pow2_at_least(2 * size)


def _linear_conv(a: np.ndarray, b: np.ndarray, a_hat: np.ndarray | None = None) -> np.ndarray:
    """First n samples of the linear convolution along axis 0 of equal-length series, by FFTs of length `_conv_length`.

    a_hat, when given, is a's transform of that length, taken once by a caller that convolves many
    b with the same a.  The product overwrites the transform of b, which must be as wide as the
    product, and its inverse transform is taken in place; the result is a copy, as a view would keep
    that length-L array alive (up to 4 n).
    """
    n = a.shape[0]
    L = _conv_length(n)
    A = np.fft.fft(b, L, axis=0)
    np.multiply(np.fft.fft(a, L, axis=0) if a_hat is None else a_hat, A, out=A)
    np.fft.ifft(A, axis=0, out=A)
    return A[:n].copy()


def _causal_conv(a: np.ndarray, b: np.ndarray, dt: float, a_hat: np.ndarray | None = None) -> np.ndarray:
    """Trapezoid half-line convolution of equal-length series on their grid: the end-corrected `_linear_conv`."""
    c = _linear_conv(a, b, a_hat)
    c *= dt
    c -= 0.5 * dt * (a * b[0] + a[0] * b)
    return c


def _toeplitz_spectrum(h: np.ndarray, size: int) -> np.ndarray:
    """The real spectrum lam, divided by L = `_conv_length(size)`, of T_h[i, j] = h(t_i - t_j) over `size` samples.

    For rows X over the grid, conj(X W) T_h (X W)^T is the trapezoid double integral of conj(x_i(t))
    h(t - s) x_j(s) over the grid's square, with h(-t) = conj(h(t)); W holds the trapezoid weights.
    T_h is the leading block of the Hermitian circulant of `_two_sided` h at length L, which the
    length-L DFT diagonalizes, so with A the length-L FFT along the rows of the zero-padded X W the
    form is conj(A) diag(lam) A^T.
    """
    L = _conv_length(size)
    return np.fft.fft(_two_sided(h[:size], L)).real / L


def _chain_order_cut(t: float) -> int:
    """Highest chain site m with a non-negligible occupation at time t (m well past 2t)."""
    x = 2.0 * t
    return int(np.ceil(x + 12.0 * (x + 1.0) ** (1.0 / 3.0))) + 20


class DetectorRun:
    """One detector run: the particle's packet psi coupled with strength gamma, sampled at dt up to T.

    psi defaults (None) to the width-1 Gaussian on default_grid(), built for this run.  The coupling
    packet phi is the width-2 Gaussian on psi's grid, so both packets share every node.  Everything
    the run caches (grids, kernels, solutions) is a function of these four inputs alone, so every
    attribute is fixed when the run is built: rebinding one raises AttributeError.  Its grids and
    cached arrays are read-only, so an in-place write raises ValueError instead of staling the run.
    """

    def __init__(self, gamma: float = 0.5, psi: RadialPacket | None = None, dt: float = 0.02, T: float = 200.0):
        if not gamma >= 0:
            raise DomainError(f"gamma = {gamma:g} must be >= 0")
        if not isfinite(gamma):
            raise DomainError(f"gamma = {gamma:g} must be finite")
        if not dt > 0:
            raise DomainError(f"dt = {dt:g} must be positive")
        if not T >= dt:
            raise DomainError(f"T = {T:g} must span at least one time step dt = {dt:g}")
        if not isfinite(float(T) / float(dt)):
            raise DomainError(f"T / dt = {T:g} / {dt:g} is not a finite step count")
        psi = gaussian_packet(default_grid(), width=1.0) if psi is None else psi
        psi.check_normalized()
        phi = gaussian_packet(psi.grid, width=2.0)
        n = int(round(T / dt))
        # fine momentum grid resolving the largest phase T p_max^2
        n_fine = int(np.ceil(_OVERSAMPLE * T * phi.grid.p_max**2 / pi)) + 100
        # circular grid of the Fourier-domain solver and the spectral w route
        L = pow2_at_least(4 * (n + 1))
        _check_free_pass(n + 1, L, n_fine, 2)
        # the instance dict directly, as cached_property writes it: __setattr__ refuses every name
        vars(self).update(gamma=gamma, psi=psi, phi=phi, dt=dt, T=T, n=n, L=L, t=_read_only(dt * np.arange(n + 1)),
                          p_fine=_read_only(np.linspace(0.0, phi.grid.p_max, n_fine)))

    def __setattr__(self, name, value):
        raise AttributeError(f"a DetectorRun's {name} is fixed when it is built; build a new run")

    # -- elementary series ------------------------------------------------

    @cached_property
    def _free(self) -> np.ndarray:
        """The columns F0 and g of one free pass over the pairs (phi, psi) and (phi, phi)."""
        return _read_only(self.free_series_multi([self.psi, self.phi]))

    def free_series(self) -> np.ndarray:
        """F0(t) on the whole grid by fine trapezoid quadrature in p.

        F0 and g are the two columns of one cached pass over the pairs
        (phi, psi) and (phi, phi).  The quadrature sum over the fine
        momenta is evaluated at every time at once by `phase_sum_nufft`.
        """
        return self._free[:, 0]

    def free_series_multi(self, bs: list) -> np.ndarray:
        """F0 columns of (phi, b) for several packets b in one pass over the time grid; not cached.

        The trapezoid sum over p_fine of conj(phi) b e^{-i t p^2} 4 pi p^2 dp, evaluated as one
        type-1 non-uniform FFT (nodes dt p^2) that agrees with the direct `phase_sum` to rounding.
        """
        p = self.p_fine
        _check_free_pass(self.n + 1, self.L, p.size, len(bs))
        dp, p2 = p[1] - p[0], p**2
        pref = np.conj(self.phi.amplitude_at(p))
        # each column formed in place, with the factors in the order of conj(phi) b 4 pi p^2 dp
        C = np.empty((p.size, len(bs)), dtype=complex)
        for col, b in zip(C.T, bs):
            np.multiply(pref, b.amplitude_at(p), out=col)
            col *= 4.0
            col *= pi
            col *= p2
            col *= dp
        del pref
        return phase_sum_nufft(C, p2, self.dt, self.n + 1)

    @property
    def g(self) -> np.ndarray:
        return self._free[:, 1]

    @cached_property
    def f(self) -> np.ndarray:
        """The kernel f(t) = g(t) J_1(2t)/t, with the t = 0 limit g(0)."""
        return _read_only(self.g * bessel_ratio_table(1, self.t)[0])

    @property
    def K(self) -> np.ndarray:
        """The composite kernel (g * f)(t) on the half line, computed on each access."""
        return _causal_conv(self.g, self.f, self.dt)

    def gamma_g_l1(self) -> float:
        """||gamma g||_1 with the t^-3/2 tail bound beyond T, both signs of t."""
        w = _trapezoid_weights(self.n + 1, self.dt)
        val = np.sum(w * np.abs(self.g))
        tail = 2.0 * self.T * np.abs(self.g[-1])  # int_T^inf |g(T)| (T/t)^1.5 dt
        return self.gamma * 2.0 * (val + tail)

    def check_weak_coupling(self) -> None:
        l1 = self.gamma_g_l1()
        if not l1 < 2.0:  # a NaN norm too
            relation = ">=" if l1 >= 2.0 else "is not below"
            raise ValueError(f"||gamma g||_1 = {l1:.3f} {relation} 2; outside the model's regime")

    # -- solvers ----------------------------------------------------------

    def solve_marching(self) -> np.ndarray:
        """F by forward substitution in the trapezoid Volterra system, _MARCH_LEAF steps at a time.

        Step k solves F[k] = F0[k] - c (sum_{j=1}^{k-1} K[k-j] F[j] + K[k] F[0] / 2), c = gamma^2 dt;
        K[0] is never read.  A leaf of B steps is one product with the inverse of I + c T_B, T_B
        the strictly lower Toeplitz matrix of K[1..B-1].  The history enters online (Hairer, Lubich
        and Schlichte, SIAM J. Sci. Stat. Comput. 6 (1985) 532): after leaf e (from 1), the last
        w = B lowbit(e) finished steps act on the next w steps through rows w..2w-1 of one
        length-2w FFT product with K[:2w], which do not wrap.  Each pair of steps meets in one leaf
        or in one product, so this solves the same triangular system as the step-by-step loop, in
        O(n log^2 n).  K's transform is taken once per length, before the loop, and the products
        share one buffer.  The result is a view of the solution padded to whole leaves.
        """
        F0, cK = self.free_series(), self.K
        cK *= self.gamma**2 * self.dt  # K is computed afresh on each access
        B, n = _MARCH_LEAF, self.n
        size = -(-n // B) * B  # steps 1..n, padded to whole leaves; a padded step never reaches a real one
        F = np.zeros(size + 1, dtype=complex)
        F[0] = F0[0]
        x = F[1:]  # each leaf's right side, then its solution
        x[:n] = F0[1:] - 0.5 * F0[0] * cK[1:]
        k = np.zeros(B, dtype=complex)
        k[1 : min(B, n + 1)] = cK[1:B]
        leaf = np.tril(k[np.subtract.outer(np.arange(B), np.arange(B))], -1)  # c T_B, then I + c T_B in place
        leaf.flat[:: B + 1] = 1.0
        leaf = np.linalg.inv(leaf)
        # leaves 1..m are followed by a real step; leaf e's product has length 2w, w = B lowbit(e) = B 2^j
        m = (n - 1) // B
        K_hat = [np.fft.fft(cK[: 2 * w], 2 * w) for w in (B << j for j in range(m.bit_length()))]
        h = np.empty(B << m.bit_length(), dtype=complex)  # the longest product, 2w at the largest j
        for e in range(1, size // B + 1):
            end = e * B
            x[end - B : end] = leaf @ x[end - B : end]
            if e <= m:
                j = (e & -e).bit_length() - 1
                w = B << j
                hw = np.fft.fft(x[end - w : end], 2 * w, out=h[: 2 * w])
                np.multiply(K_hat[j], hw, out=hw)
                np.fft.ifft(hw, out=hw)
                hi = min(end + w, size)
                x[end:hi] -= hw[w : w + hi - end]
        return F[: n + 1]

    def solve_neumann(self):
        """F as the Neumann series in the Volterra operator; ValueError when _NEUMANN_MAX_TERMS terms miss tolerance.

        K's transform is taken once; each term is then one FFT pair of `_causal_conv`.
        """
        F0 = self.free_series()
        g2, dt = self.gamma**2, self.dt
        K = self.K
        K_hat = np.fft.fft(K, _conv_length(K.size))
        term = F0.copy()
        total = F0.copy()
        scale = np.linalg.norm(F0)
        for _ in range(_NEUMANN_MAX_TERMS):
            term = -g2 * _causal_conv(K, term, dt, K_hat)
            total += term
            if np.linalg.norm(term) <= _NEUMANN_TOL * scale:
                return total
        raise ValueError(f"Neumann series did not reach tolerance in {_NEUMANN_MAX_TERMS} terms")

    @cached_property
    def _denominator(self) -> np.ndarray:
        """1 + gamma^2 dt FFT(K): the discrete transform of the Volterra operator."""
        # scaled in place, not as 1.0 + g2 * dt * fft(K, L): numpy elides that expression's
        # temporaries into the same bytes, but its first elision checks the caller's stack
        # (backtrace, dladdr), which faults about 0.5 MiB of library pages into the run's RSS
        D = np.fft.fft(self.K, self.L)
        D *= self.gamma**2 * self.dt
        D += 1.0
        return _read_only(D)

    def _halved_fft(self, F0: np.ndarray) -> np.ndarray:
        """FFT along axis 0 of F0 with its t = 0 sample halved (the half-line trapezoid end)."""
        mod = F0.copy()
        mod[0] *= 0.5
        return np.fft.fft(mod, self.L, axis=0)

    def solve_fourier(self, free: np.ndarray | None = None) -> np.ndarray:
        """F from F0 (default free_series) by one FFT pair along axis 0; F0 may be an (n + 1, k) block."""
        F0 = self.free_series() if free is None else free
        denom = self._denominator
        if np.min(np.abs(denom)) < 1e-6:
            raise ValueError("singular configuration: transform denominator vanishes")
        A = self._halved_fft(F0)
        np.divide(A.T, denom, out=A.T)
        np.fft.ifft(A, axis=0, out=A)
        F = A[: self.n + 1].copy()
        F[0] *= 2.0
        return F

    @cached_property
    def solution(self) -> np.ndarray:
        """F by solve_fourier, solved once per run."""
        return _read_only(self.solve_fourier())

    # -- detection probability --------------------------------------------

    def response_form(self, Fs: np.ndarray) -> np.ndarray:
        """gamma^2 (F_i, F_j * f) over the columns of Fs, with f two-sided.

        Its diagonal is the detection probability of each column.
        """
        size = Fs.shape[0]
        lam = _toeplitz_spectrum(self.f, size)
        A = np.fft.fft(Fs.T * _trapezoid_weights(size, self.dt), _conv_length(size))
        return self.gamma**2 * (np.conj(A) @ (lam[:, None] * A.T))

    def detection_w(self) -> float:
        """w = gamma^2 (F_+, F_+ * f), time-domain route: the trapezoid double integral over [0, T]^2."""
        return float(self.response_form(self.solution[:, None])[0, 0].real)

    def detection_w_spectral(self) -> float:
        """w from the transform-domain form, consistent discretization.

        Transforms are in the continuum convention on the circular grid L.  Each is formed in place,
        and |fhat_plus|^2 is taken, and fhat_plus freed, before fhat is built.
        """
        dt = self.dt
        scale = dt / np.sqrt(2.0 * pi)
        fhat_plus = self._halved_fft(self.free_series())
        np.multiply(scale, fhat_plus, out=fhat_plus)
        fhat_plus /= self._denominator
        power = np.abs(fhat_plus)
        del fhat_plus
        power **= 2
        fhat = _two_sided(self.f, self.L)
        np.fft.fft(fhat, out=fhat)
        np.multiply(scale, fhat, out=fhat)
        fhat *= power
        du = 2.0 * pi / (self.L * dt)
        val = np.sqrt(2.0 * pi) * np.sum(fhat) * du
        return float(self.gamma**2 * val.real)

    # -- occupations -------------------------------------------------------

    def _steps(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """times as an array, their distinct grid steps and the index of each time's step in them.

        DomainError when empty, outside [0, T] (NaN included; the earliest and the latest time bound
        every step, as rounding to the grid is monotone) or over budget, before np.unique runs.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            raise DomainError("times must not be empty")
        first, last = np.rint(np.array([np.min(times), np.max(times)]) / self.dt)
        if not (first >= 0 and last <= self.n):
            raise DomainError(f"times must lie in [0, T = {self.T:g}]")
        check_held(_STEP_BYTES * times.size, f"the grid steps of {times.size} times")
        req, where = np.unique(np.rint(times / self.dt).astype(int), return_inverse=True)
        return times, req, where

    def occupations_at(self, times) -> np.ndarray:
        """omega_t(P_m) for m = 1..m_max (chain sites) at each time in [0, T].

        m_max = _chain_order_cut(max t); the shape is shape(times) + (m_max,).
        Each entry is the Toeplitz form over [0,t]^2 of conj(F f_m) (x) g-kernel
        (x) (F f_m), f_m(s) = (-i)^(m-1) (m/s) J_m(2s); its lags t - tau_k =
        (n - k) dt index one f_m table.  The table is real, m J_m(2s)/s: the
        occupation of site m is the diagonal entry conj(V_m)^T W T_g W V_m,
        so the unit factor (-i)^(m-1) on V_m cancels.  The chain sites are
        taken _OCC_BLOCK at a time as the rows of V_b^T = (F f_m)^T, from a
        slice of that table that runs along time; each block is transformed
        once along its contiguous rows, and its diagonal is the spectrum of g
        (`_toeplitz_spectrum`) weighted by |FFT(V_b^T W)|^2 per row.
        Each distinct grid step is computed once and copied to its times.
        """
        times, req, where = self._steps(times)
        m_max = _chain_order_cut(float(np.max(times)))
        size = int(req[-1]) + 1
        # the real f_m table (bessel_table's rows, J_0's too, with the ratios formed in place) and
        # beside it what a block of _OCC_BLOCK sites holds: V_b (weighted in place), the (b, L)
        # transforms of this block and the last (the loop still holds it), and |A_b|^2, with
        # the kernel's two-sided layout, transform and spectrum; the rows of the distinct steps, and
        # over the times the times, their step indices and the output rows.
        # bessel_table's own gate counts the table's build (12 work arrays over the times beside
        # it, less than a block) before it allocates
        L = _conv_length(size)
        held = 8 * (m_max + 1) * size + 16 * (_OCC_BLOCK * (size + 3 * L) + 3 * L)
        held += 8 * m_max * req.size + (16 + 8 * m_max) * times.size
        check_held(held, f"occupations at {times.size} times up to t = {np.max(times):g}")
        fm = bessel_ratio_table(m_max, self.t[:size])
        F = self.solution
        occ = np.zeros((req.size, m_max))
        for row, n in zip(occ, req):
            if n > 0:
                w, lam = _trapezoid_weights(n + 1, self.dt), _toeplitz_spectrum(self.g, n + 1)
                for j in range(0, m_max, _OCC_BLOCK):
                    # (_OCC_BLOCK, n + 1) rows of V^T W, and their diagonal of the form, never the
                    # (m_max, m_max) form itself
                    V = fm[j : j + _OCC_BLOCK, n::-1] * F[None, : n + 1]
                    V *= w
                    A = np.fft.fft(V, _conv_length(n + 1))
                    row[j : j + _OCC_BLOCK] = self.gamma**2 * ((A.real**2 + A.imag**2) @ lam)
        return occ[where].reshape(times.shape + (m_max,))

    def p0_series(self, times) -> np.ndarray:
        """omega_t(P_0) at each time in [0, T], shaped like times; p0_series(run.t) is the whole grid.

        Node p carries e_p psi(p) - gamma^2 phi(p) (e_p * f) * F.  e_p(t - s) = e_p(t) conj(e_p(s))
        turns both trapezoid causal convolutions into e_p(t) times running sums of conj(e_p) f and
        conj(e_p) r, with q = f * F shared by all nodes: the same discretization as convolving twice.
        One pass over the row blocks of `phase_blocks`, up to the largest requested step, carries
        the two sums over all nodes: each block advances them by one matrix product per segment
        between requested steps, taken with the base rows and scaled by the block phase once, and
        P_0 is formed at the requested steps it holds.
        """
        times, req, where = self._steps(times)
        size = int(req[-1]) + 1
        dt, grid = self.dt, self.phi.grid
        nodes, rows = grid.nodes.size, min(PHASE_BLOCK, size)
        # q and the two weight rows over the steps, out and req over the distinct steps, the times,
        # their step indices and the result over the times, and first q's FFT pair of length L,
        # then one row block: the base block (1.5 complex arrays while it is built) and 10 complex
        # arrays per requested row in it (the sums, the requested phases, C_p, Z_p, chi and
        # temporaries; 9.6 at the whole-grid peak under tracemalloc)
        block = (2 * rows + 10 * min(rows, req.size)) * nodes
        held = 16 * (3 * size + req.size + max(2 * _conv_length(size), block)) + 24 * times.size
        check_held(held, f"P_0 at {times.size} times up to t = {self.t[size - 1]:g}")
        f, F = self.f[:size], self.solution[:size]
        q = _linear_conv(f, F)
        # conj(f) and conj(r), r = q - f0 F / 2: the weights of the two running sums
        w = np.conj(np.stack([f, q - 0.5 * f[0] * F]))
        ps2 = grid.nodes**2
        carry = np.zeros((2, nodes), dtype=complex)
        out = np.empty(req.size)
        for i, base, phase in phase_blocks(ps2, dt, size):
            lo, hi = np.searchsorted(req, [i, i + len(base)])
            ks = req[lo:hi]
            # the sums at the block's requested steps and at its end: one product per segment, then a running sum
            bounds = np.r_[i, ks + 1, i + len(base)]
            sums = np.empty((bounds.size - 1, 2, nodes), dtype=complex)
            for row, a, b in zip(sums, bounds, bounds[1:]):
                np.matmul(w[:, a:b], base[a - i : b - i], out=row)
            sums *= phase
            sums[0] += carry
            np.cumsum(sums, axis=0, out=sums)
            carry = sums[-1].copy()  # a copy, so that the sums are conjugated in place and freed
            if ks.size:
                S, E = np.conj(sums[:-1], out=sums[:-1]), base[ks - i] * phase
                Cp = dt * (E * S[:, 0] - 0.5 * (E * f[0] + f[ks, None]))
                Zp = dt * (dt * (E * S[:, 1] - 0.5 * q[ks, None]) - 0.5 * F[0] * Cp)
                chi = E * self.psi.amplitude - self.gamma**2 * self.phi.amplitude * Zp
                out[lo:hi] = grid.integrate(np.abs(chi) ** 2 * 4.0 * pi * ps2)
        return out[where].reshape(np.shape(times))


def povm_matrix(psis: list, gamma: float, T: float):
    """Response-operator matrix <psi_i|W_gamma|psi_j> on the packet span.

    W_ij = gamma^2 (F_i, F_j * f) from the no-flip amplitudes F_i of the
    packets, with the coupling packet phi of width 2 and time step 0.02 up to T;
    returned in an orthonormalized basis of the span, so eigenvalues are
    those of W_gamma restricted to it.
    """
    if len(psis) < 1:
        raise DomainError("need at least one packet")
    S = np.array([[overlap(a, b) for b in psis] for a in psis])
    sw, sv = np.linalg.eigh(S)
    if np.min(sw) < 1e-10:
        raise DomainError("degenerate packet span")
    run = DetectorRun(gamma, psis[0], T=T)
    run.check_weak_coupling()
    W = run.response_form(run.solve_fourier(run.free_series_multi(psis)))
    S_inv_half = sv @ np.diag(sw**-0.5) @ sv.conj().T
    W_on = S_inv_half @ W @ S_inv_half
    evals = np.linalg.eigvalsh(0.5 * (W_on + W_on.conj().T))
    return W_on, evals
