"""Nonideal particle detector: amplitudes, Volterra equation, POVM.

A free particle couples through a packet phi to the head of a
semi-infinite hopping chain.  The no-flip amplitude F obeys a Volterra
convolution equation F = F0 - gamma^2 g*f*F on the half line; it is
solved three ways (trapezoid marching, Neumann series, discrete
Fourier-domain division), and from it follow the chain-site occupation
probabilities, the detection probability w, and the detector's response
operator W_gamma, a positive nonprojection POVM element.

All three solvers discretize the same trapezoid convolution operator, so
their disagreement measures solver error, not discretization error.
Transform convention: (1/sqrt(2 pi)) int e^{-i t u} h(t) dt, so a
convolution transforms into sqrt(2 pi) times the product.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import pi

import numpy as np

from .packets import MomentumGrid, RadialPacket, default_grid, gaussian_packet, overlap
from .specfun import bessel_table

__all__ = [
    "DetectorConfig",
    "DetectorRun",
    "default_config",
    "amplitude_free",
    "f_kernel",
    "semicircle_kernel",
    "solve_volterra",
    "solve_fourier",
    "detection_probability",
    "occupation_series",
    "occupation_p0_series",
    "povm_matrix",
]


def semicircle_kernel(u):
    """Transform of J_1(2t)/t: (1/sqrt(2 pi)) theta(2-|u|) sqrt(4-u^2)."""
    u = np.asarray(u, dtype=float)
    out = np.where(np.abs(u) <= 2.0, np.sqrt(np.maximum(4.0 - u**2, 0.0)), 0.0)
    return out / np.sqrt(2.0 * pi)


def f_kernel(t, g_values):
    """f(t) = g(t) J_1(2t)/t with the t=0 limit 1."""
    t = np.asarray(t, dtype=float)
    j1 = bessel_table(1, 2.0 * t)[1]
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(t == 0.0, 1.0, j1 / np.where(t == 0.0, 1.0, t))
    return np.asarray(g_values) * f1


@dataclass(frozen=True)
class DetectorConfig:
    gamma: float
    phi: RadialPacket
    psi: RadialPacket
    dt: float = 0.02
    T: float = 200.0

    def __post_init__(self):
        if self.dt <= 0 or self.T <= 0:
            raise ValueError("dt and T must be positive")
        self.phi.check_normalized()
        self.psi.check_normalized()


def default_config(gamma: float = 0.5, grid: MomentumGrid | None = None, **kw) -> DetectorConfig:
    grid = grid or default_grid()
    return DetectorConfig(
        gamma=gamma,
        phi=gaussian_packet(grid, width=2.0),
        psi=gaussian_packet(grid, width=1.0),
        **kw,
    )


def amplitude_free(a: RadialPacket, b: RadialPacket, t: float) -> complex:
    """Free survival amplitude int conj(a) b e^{-i t p^2} 4 pi p^2 dp.

    Composite Gauss-Legendre with the panel count scaled to the phase
    t p_max^2 so the oscillation stays resolved at any t.
    """
    if not np.array_equal(a.grid.nodes, b.grid.nodes):
        raise ValueError("packets must share a grid")
    p_max = a.grid.p_max
    panels = max(40, int(np.ceil(abs(t) * p_max**2 / (2.0 * pi))))
    x, w = np.polynomial.legendre.leggauss(10)
    edges = np.linspace(0.0, p_max, panels + 1)
    h = 0.5 * (edges[1] - edges[0])
    p = (edges[:-1, None] + h) + h * x[None, :]
    amp = np.conj(a.amplitude_at(p)) * b.amplitude_at(p)
    val = np.sum(h * w[None, :] * amp * 4.0 * pi * p**2 * np.exp(-1j * t * p**2))
    return complex(val)


# momentum Nyquist safety for the series quadrature
_OVERSAMPLE = 4.0
# Neumann series: stop when a term's norm falls below this fraction of |F0|
_NEUMANN_TOL = 1e-12
_NEUMANN_MAX_TERMS = 200


def _trapezoid_weights(size: int, h: float) -> np.ndarray:
    """Trapezoid weights for `size` samples spaced by h."""
    w = np.full(size, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _two_sided(h: np.ndarray, L: int) -> np.ndarray:
    """Circular layout of h(t) for t >= 0 and conj(h(-t)) for t < 0, length L."""
    n = h.size - 1
    ker = np.zeros(L, dtype=complex)
    ker[: n + 1] = h
    ker[-n:] = np.conj(h[1:][::-1])
    return ker


def _causal_conv(a: np.ndarray, b: np.ndarray, dt: float, L: int) -> np.ndarray:
    """Trapezoid half-line convolution of equal-length series on their grid.

    Axis 0 is time; trailing columns of `a` and `b` broadcast.
    """
    n = a.shape[0]
    c = np.fft.ifft(np.fft.fft(a, L, axis=0) * np.fft.fft(b, L, axis=0), axis=0)[:n] * dt
    c -= 0.5 * dt * (a * b[0] + a[0] * b)
    return c


class DetectorRun:
    """Shared state for one detector configuration: grids, kernels, solutions."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        self.n = int(round(cfg.T / cfg.dt))
        self.t = cfg.dt * np.arange(self.n + 1)
        self.L = 1 << int(np.ceil(np.log2(4 * (self.n + 1))))
        self._cache: dict = {}
        # fine momentum grid resolving the largest phase T p_max^2
        p_max = cfg.phi.grid.p_max
        n_fine = int(np.ceil(_OVERSAMPLE * cfg.T * p_max**2 / pi)) + 100
        self.p_fine = np.linspace(0.0, p_max, n_fine)

    # -- elementary series ------------------------------------------------

    def free_series(self, a: RadialPacket | None = None, b: RadialPacket | None = None) -> np.ndarray:
        """F0(t) on the whole grid by fine trapezoid quadrature in p."""
        a = a or self.cfg.phi
        b = b or self.cfg.psi
        key = ("free", id(a), id(b))
        if key not in self._cache:
            self._cache[key] = self.free_series_multi(a, [b])[:, 0]
        return self._cache[key]

    def free_series_multi(self, a: RadialPacket, bs: list) -> np.ndarray:
        """F0 columns for several right packets in one pass over the phase matrix."""
        p = self.p_fine
        dp = p[1] - p[0]
        pref = np.conj(a.amplitude_at(p))
        C = np.stack([pref * b.amplitude_at(p) * 4.0 * pi * p**2 * dp for b in bs], axis=1)
        out = np.empty((self.n + 1, len(bs)), dtype=complex)
        p2 = p**2
        chunk = max(1, int(4e6 // p.size))
        for i in range(0, self.n + 1, chunk):
            ts = self.t[i : i + chunk]
            out[i : i + chunk] = np.exp(-1j * np.outer(ts, p2)) @ C
        return out

    @property
    def g(self) -> np.ndarray:
        if "g" not in self._cache:
            self._cache["g"] = self.free_series(self.cfg.phi, self.cfg.phi)
        return self._cache["g"]

    @property
    def f(self) -> np.ndarray:
        if "f" not in self._cache:
            self._cache["f"] = f_kernel(self.t, self.g)
        return self._cache["f"]

    @property
    def K(self) -> np.ndarray:
        """The composite kernel (g * f)(t) on the half line."""
        if "K" not in self._cache:
            self._cache["K"] = _causal_conv(self.g, self.f, self.cfg.dt, self.L)
        return self._cache["K"]

    def gamma_g_l1(self) -> float:
        """||gamma g||_1 with the t^-3/2 tail bound beyond T, both signs of t."""
        w = _trapezoid_weights(self.n + 1, self.cfg.dt)
        val = np.sum(w * np.abs(self.g))
        tail = 2.0 * self.cfg.T * np.abs(self.g[-1])  # int_T^inf |g(T)| (T/t)^1.5 dt
        return self.cfg.gamma * 2.0 * (val + tail)

    def check_weak_coupling(self) -> None:
        l1 = self.gamma_g_l1()
        if l1 >= 2.0:
            raise ValueError(f"||gamma g||_1 = {l1:.3f} >= 2; outside the model's regime")

    # -- solvers ----------------------------------------------------------

    def solve_marching(self, free: np.ndarray | None = None) -> np.ndarray:
        F0 = self.free_series() if free is None else free
        dt, g2 = self.cfg.dt, self.cfg.gamma**2
        K = self.K
        F = np.empty(self.n + 1, dtype=complex)
        F[0] = F0[0]
        Kr = K[::-1]
        for n in range(1, self.n + 1):
            # trapezoid causal convolution; K[0] = 0 keeps it explicit
            acc = np.dot(Kr[self.n - n + 1 : self.n], F[1:n]) if n > 1 else 0.0
            acc += 0.5 * K[n] * F[0]
            F[n] = F0[n] - g2 * dt * acc
        return F

    def solve_neumann(self, free: np.ndarray | None = None):
        F0 = self.free_series() if free is None else free
        g2, dt = self.cfg.gamma**2, self.cfg.dt
        term = F0.copy()
        total = F0.copy()
        scale = np.linalg.norm(F0)
        converged = False
        for _ in range(_NEUMANN_MAX_TERMS):
            term = -g2 * _causal_conv(self.K, term, dt, self.L)
            total += term
            if np.linalg.norm(term) <= _NEUMANN_TOL * scale:
                converged = True
                break
        if not converged:
            warnings.warn("Neumann series did not reach tolerance; returning partial sum")
        return total

    def _denominator(self) -> np.ndarray:
        """1 + gamma^2 dt FFT(K): the discrete transform of the Volterra operator."""
        if "denom" not in self._cache:
            g2, dt = self.cfg.gamma**2, self.cfg.dt
            self._cache["denom"] = 1.0 + g2 * dt * np.fft.fft(self.K, self.L)
        return self._cache["denom"]

    def _halved_fft(self, F0: np.ndarray) -> np.ndarray:
        """FFT of F0 with its t = 0 sample halved (the half-line trapezoid end)."""
        mod = F0.copy()
        mod[0] *= 0.5
        return np.fft.fft(mod, self.L)

    def solve_fourier(self, free: np.ndarray | None = None) -> np.ndarray:
        F0 = self.free_series() if free is None else free
        denom = self._denominator()
        if np.min(np.abs(denom)) < 1e-6:
            raise ValueError("singular configuration: transform denominator vanishes")
        F = np.fft.ifft(self._halved_fft(F0) / denom)[: self.n + 1].copy()
        F[0] *= 2.0
        return F

    def fourier_spectrum(self, free: np.ndarray | None = None):
        """(u, Fhat_+, denominator) in the continuum transform convention."""
        F0 = self.free_series() if free is None else free
        dt = self.cfg.dt
        u = 2.0 * pi * np.fft.fftfreq(self.L, d=dt)
        denom = self._denominator()
        fhat0 = dt / np.sqrt(2.0 * pi) * self._halved_fft(F0)
        return u, fhat0 / denom, denom

    def solution(self) -> np.ndarray:
        if "F" not in self._cache:
            self._cache["F"] = self.solve_fourier()
        return self._cache["F"]

    # -- detection probability --------------------------------------------

    def _two_sided_f_fft(self) -> np.ndarray:
        if "ffft" not in self._cache:
            self._cache["ffft"] = np.fft.fft(_two_sided(self.f, self.L))
        return self._cache["ffft"]

    def _conv_two_sided_f(self, Fs: np.ndarray) -> np.ndarray:
        """int_0^T f(t - tau) F(tau) dtau by trapezoid, for each column F of Fs."""
        dt = self.cfg.dt
        f = self.f[:, None]
        y = np.fft.ifft(self._two_sided_f_fft()[:, None] * np.fft.fft(Fs, self.L, axis=0), axis=0)
        y = y[: self.n + 1] * dt
        # trapezoid ends of the tau integral
        y -= 0.5 * dt * (f * Fs[0] + np.conj(f[::-1]) * Fs[-1])
        return y

    def response_form(self, Fs: np.ndarray) -> np.ndarray:
        """gamma^2 (F_i, F_j * f) over the columns of Fs, as Fs^H diag(w_trap) (f * Fs).

        Its diagonal is the detection probability of each column.
        """
        w = _trapezoid_weights(self.n + 1, self.cfg.dt)
        return self.cfg.gamma**2 * (np.conj(Fs).T @ (w[:, None] * self._conv_two_sided_f(Fs)))

    def detection_w(self, F: np.ndarray | None = None) -> float:
        """w = gamma^2 (F_+, F_+ * f), time-domain route."""
        F = self.solution() if F is None else F
        return float(self.response_form(F[:, None])[0, 0].real)

    def detection_w_spectral(self, free: np.ndarray | None = None) -> float:
        """w from the transform-domain form, consistent discretization."""
        u, fhat_plus, denom = self.fourier_spectrum(free)
        du = 2.0 * pi / (self.L * self.cfg.dt)
        fhat = self.cfg.dt / np.sqrt(2.0 * pi) * self._two_sided_f_fft()
        val = np.sqrt(2.0 * pi) * np.sum(fhat * np.abs(fhat_plus) ** 2) * du
        return float(self.cfg.gamma**2 * val.real)

    # -- occupations -------------------------------------------------------

    def _chain_order_cut(self, t: float) -> int:
        x = 2.0 * t
        return int(np.ceil(x + 12.0 * (x + 1.0) ** (1.0 / 3.0))) + 20

    def _f_m_table(self, m_max: int, s: np.ndarray) -> np.ndarray:
        """f_m(s) = (-i)^(m-1) (m/s) J_m(2s) for m = 1..m_max; shape (m_max, len(s))."""
        tab = bessel_table(m_max, 2.0 * s)
        m = np.arange(1, m_max + 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            radial = np.where(s[None, :] == 0.0, 0.0, m[:, None] * tab[1:] / np.where(s == 0.0, 1.0, s)[None, :])
        radial[0, s == 0.0] = 1.0
        return (-1j) ** (m[:, None] - 1) * radial

    def occupations_at(self, t: float, m_max: int | None = None) -> np.ndarray:
        """omega_t(P_m) for m = 1..m_max (chain sites) at one time.

        Double time integral over [0,t]^2 of
        conj(F f_m) (x) g-kernel (x) (F f_m), evaluated as a Toeplitz
        quadratic form through circular convolution.
        """
        g2, dt = self.cfg.gamma**2, self.cfg.dt
        n = int(round(t / dt))
        if n == 0:
            return np.zeros(m_max or 1)
        if m_max is None:
            m_max = self._chain_order_cut(t)
        F = self.solution()[: n + 1]
        tau = self.t[: n + 1]
        V = (self._f_m_table(m_max, t - tau) * F[None, :]).T  # (n+1, m_max)
        wt = _trapezoid_weights(n + 1, 1.0)
        Lb = 1 << int(np.ceil(np.log2(2 * (n + 1))))
        gker = _two_sided(self.g[: n + 1], Lb)
        Y = np.fft.ifft(np.fft.fft(gker)[:, None] * np.fft.fft(wt[:, None] * V, n=Lb, axis=0), axis=0)[: n + 1]
        vals = g2 * dt**2 * np.real(np.einsum("jm,j,jm->m", np.conj(V), wt, Y))
        return vals

    def p0_series(self) -> np.ndarray:
        """omega_t(P_0) on the whole grid from the momentum-space vector."""
        cfg = self.cfg
        dt, g2 = cfg.dt, cfg.gamma**2
        F = self.solution()
        p = cfg.phi.grid.nodes
        wq = cfg.phi.grid.weights
        phi_a = cfg.phi.amplitude
        psi_a = cfg.psi.amplitude
        out = np.zeros(self.n + 1)
        chunk = 48
        for i in range(0, p.size, chunk):
            ps = p[i : i + chunk]
            ep = np.exp(-1j * np.outer(self.t, ps**2))  # (n+1, c)
            # C_p = causal conv of e_p with f; Z_p = causal conv of C_p with F
            Cp = _causal_conv(ep, self.f[:, None], dt, self.L)
            Zp = _causal_conv(Cp, F[:, None], dt, self.L)
            chi = ep * psi_a[i : i + chunk][None, :] - g2 * phi_a[i : i + chunk][None, :] * Zp
            out += (np.abs(chi) ** 2) @ (wq[i : i + chunk] * 4.0 * pi * ps**2)
        return out


# -- module-level wrappers -------------------------------------------------


def solve_volterra(cfg: DetectorConfig):
    """(marching, Neumann) solutions of the no-flip amplitude equation."""
    run = DetectorRun(cfg)
    run.check_weak_coupling()
    return run.solve_marching(), run.solve_neumann()


def solve_fourier(cfg: DetectorConfig) -> np.ndarray:
    run = DetectorRun(cfg)
    run.check_weak_coupling()
    return run.solve_fourier()


def detection_probability(cfg: DetectorConfig, route: str = "time") -> float:
    run = DetectorRun(cfg)
    if cfg.gamma == 0.0:
        return 0.0
    if np.max(np.abs(run.free_series())) <= 1e-8:
        warnings.warn("free amplitude vanishes on the grid; detector never couples")
        return 0.0
    run.check_weak_coupling()
    if route == "time":
        return run.detection_w()
    if route == "spectral":
        return run.detection_w_spectral()
    raise ValueError("route must be 'time' or 'spectral'")


def occupation_series(cfg: DetectorConfig, m: int, times=None):
    """omega_t(P_m) sampled on `times` (defaults to a coarse subgrid)."""
    if m < 1:
        raise ValueError("chain site must be >= 1")
    run = DetectorRun(cfg)
    if times is None:
        times = np.arange(0.0, cfg.T + 1e-9, max(cfg.T / 40.0, cfg.dt))
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size)
    for i, t in enumerate(times):
        vals = run.occupations_at(t, m_max=max(m, 1))
        out[i] = vals[m - 1] if t > 0 else 0.0
    return times, out


def occupation_p0_series(cfg: DetectorConfig):
    run = DetectorRun(cfg)
    return run.t, run.p0_series()


def povm_matrix(psis: list, gamma: float, phi: RadialPacket | None = None, dt: float = 0.02, T: float = 200.0):
    """Response-operator matrix <psi_i|W_gamma|psi_j> on the packet span.

    W_ij = gamma^2 (F_i, F_j * f) from the no-flip amplitudes F_i of the
    packets; returned in an orthonormalized basis of the span, so
    eigenvalues are those of W_gamma restricted to it.
    """
    if len(psis) < 1:
        raise ValueError("need at least one packet")
    k = len(psis)
    if gamma == 0.0:
        return np.zeros((k, k)), np.zeros(k)
    phi = phi or gaussian_packet(psis[0].grid, width=2.0)
    run = DetectorRun(DetectorConfig(gamma=gamma, phi=phi, psi=psis[0], dt=dt, T=T))
    run.check_weak_coupling()
    F0s = run.free_series_multi(phi, psis)
    Fs = np.stack([run.solve_fourier(F0s[:, i]) for i in range(k)], axis=1)
    W = run.response_form(Fs)
    S = np.array([[overlap(a, b) for b in psis] for a in psis])
    sw, sv = np.linalg.eigh(S)
    if np.min(sw) < 1e-10:
        raise ValueError("degenerate packet span")
    S_inv_half = sv @ np.diag(sw**-0.5) @ sv.conj().T
    W_on = S_inv_half @ W @ S_inv_half
    evals = np.linalg.eigvalsh(0.5 * (W_on + W_on.conj().T))
    return W_on, evals
