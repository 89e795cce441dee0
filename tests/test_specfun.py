import math
from unittest import mock

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given
from hypothesis import strategies as st
from test_properties import PROPERTY

from chainlab import DomainError, specfun
from chainlab.qdomino import asymptotic_exponent, flip_probability, flip_residual, green_infinite
from chainlab.specfun import bessel_j, bessel_ratio_table, bessel_table, finite_kernel, phase_sum, phase_sum_nufft
from chainlab.xychain import evolution_coefficient, occupation


def test_bessel_scalar_against_scipy():
    worst = 0.0
    for n in range(0, 40):
        for x in (0.0, 0.3, 1.0, 4.7, 12.0):
            worst = max(worst, abs(bessel_j(n, x) - sp.jv(n, x)))
    # backward-recurrence branch at large argument
    for x in (30.0, 80.0, 200.0):
        for n in range(0, int(x / 2)):
            worst = max(worst, abs(bessel_j(n, x) - sp.jv(n, x)))
    assert worst < 1e-10


def test_bessel_series_corner_stays_usable():
    # just below x = 2(n+1), where a power series in x cancels heavily
    worst = max(abs(bessel_j(n, 30.0) - sp.jv(n, 30.0)) for n in range(15, 40))
    assert worst < 1e-6


@pytest.mark.parametrize("n,x", [(-1, 2.0), (-4, 5.0), (3, -2.5), (-2, -7.0)])
def test_bessel_negative_arguments(n, x):
    assert bessel_j(n, x) == pytest.approx(sp.jv(n, x), abs=1e-12)


def test_bessel_table_matches_scipy_on_array():
    x = np.linspace(0.0, 120.0, 241)
    tab = bessel_table(60, x)
    ref = np.array([sp.jv(n, x) for n in range(61)])
    assert np.max(np.abs(tab - ref)) < 1e-12


def test_bessel_table_large_argument():
    x = np.array([500.0, 1500.0])
    tab = bessel_table(5, x)
    ref = np.array([sp.jv(n, x) for n in range(6)])
    assert np.max(np.abs(tab - ref)) < 1e-12


def _reference_miller(n_max, x, start):
    """The Miller recurrence as it was written before it rescaled by index in reused buffers."""
    jp = np.zeros_like(x)
    jc = np.ones_like(x)
    sq = np.zeros_like(x)
    lin = np.zeros_like(x)
    sub = np.zeros((n_max + 1, x.size))
    for k in range(start, 0, -1):
        jm = (2.0 * k / x) * jc - jp
        jp, jc = jc, jm
        if k - 1 <= n_max:
            sub[k - 1] = jc
        sq += jp * jp
        if k % 2 == 0:
            lin += jp
        over = np.abs(jc) > 1e100
        if np.any(over):
            jc[over] *= 1e-100
            jp[over] *= 1e-100
            sq[over] *= 1e-200
            lin[over] *= 1e-100
            done = sub[k - 1 :]
            np.multiply(done, 1e-100, out=done, where=over)
    sq_total = jc * jc + 2.0 * sq
    lin_total = jc + 2.0 * lin
    sub /= np.sign(lin_total) * np.sqrt(sq_total)
    return sub


@PROPERTY
@given(n_max=st.integers(0, 150),
       x=st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-7.0, np.log10(300.0)), st.booleans()),
                  min_size=1, max_size=24).map(lambda v: np.array([0.0 if z else s * 10.0**e for s, e, z in v])))
@example(n_max=150, x=np.array([1e-7, -3e-7, 0.0, 2e-3, 250.0]))  # rescales inside the written rows
@example(n_max=40, x=np.full(6, 7.5))  # equal arguments rescale together
def test_bessel_table_matches_the_masked_recurrence_to_the_bit(n_max, x):
    # tiny |x| rescales on most steps and large |x| on few; zeros take the series branch
    with mock.patch.object(specfun, "_miller", _reference_miller):
        ref = bessel_table(n_max, x)
    assert np.array_equal(bessel_table(n_max, x), ref)


def test_bessel_ratio_table_against_scipy():
    t = np.array([[0.0, 0.3, 1.0], [4.7, 12.0, 40.0]])
    tab = bessel_ratio_table(8, t)
    assert tab.shape == (8, 2, 3)
    m = np.arange(1, 9)[:, None, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        ref = m * sp.jv(m, 2.0 * t) / t
    ref[:, 0, 0] = np.arange(1, 9) == 1
    assert np.max(np.abs(tab - ref)) < 1e-12
    scalar = bessel_ratio_table(3, 2.5)
    assert scalar.shape == (3,)
    assert np.max(np.abs(scalar - np.arange(1, 4) * sp.jv(np.arange(1, 4), 5.0) / 2.5)) < 1e-12


def test_finite_kernel_reduces_to_infinite_for_large_chain():
    # J_n^(N) -> J_n as the chain grows; the missing-endpoint error is O(1/N)
    for n in (0, 1, 3):
        err4 = abs(finite_kernel(n, 4000, 7.0) - sp.jv(n, 7.0))
        err16 = abs(finite_kernel(n, 16000, 7.0) - sp.jv(n, 7.0))
        assert err4 < 5e-4
        assert err16 < 0.3 * err4


def test_finite_kernel_direct_sum():
    N, z, n = 9, 2.3, 2
    j = np.arange(1, N + 1)
    th = j * np.pi / (N + 1)
    ref = 1j**n / (N + 1) * np.sum(np.exp(-1j * z * np.cos(th)) * np.cos(n * th))
    assert finite_kernel(n, N, z) == pytest.approx(ref, abs=1e-14)


@PROPERTY
@given(n=st.integers(2, 4000), dt=st.floats(1e-3, 1.0), span=st.floats(-2.0, np.log10(300.0)),
       nodes=st.integers(1, 64), cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(n=2, dt=0.02, span=np.log10(300.0), nodes=64, cols=2, seed=0)  # T = dt, |dt x| up to 300
def test_phase_sum_nufft_matches_direct_sum(n, dt, span, nodes, cols, seed):
    # nodes of both signs with largest phase (n - 1) dt |x| = 10^span; both routes round t x to about
    # 1e-16 |t x|, so beyond a few hundred radians the comparison would measure that rounding instead
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, nodes) * 10.0**span / ((n - 1) * dt)
    C = rng.normal(size=(nodes, cols)) + 1j * rng.normal(size=(nodes, cols))
    S = phase_sum_nufft(C, x, dt, n)
    assert S.shape == (n, cols)
    assert np.all(np.abs(S - phase_sum(C, x, dt, n)) <= 1e-13 * np.abs(C).sum(axis=0))
    np.testing.assert_array_equal(phase_sum_nufft(C, x, dt, np.int64(n)), S)  # a numpy integer count


def _reference_nufft(C, x, dt, n):
    """phase_sum_nufft as it was written before it spread over the touched window: a length-M bincount per offset."""
    x = np.asarray(x, dtype=float)
    H = specfun._NUFFT_HALF_WIDTH
    M = specfun.nufft_length(n)
    R = M / n
    tau = math.pi * H / (n * n * R * (R - 0.5))
    step = 2.0 * math.pi / M
    theta = dt * x
    theta -= 2.0 * math.pi * np.rint(theta / (2.0 * math.pi))
    m0 = np.floor(theta / step).astype(np.int64)
    d = theta - m0 * step
    h = n // 2
    Ch = C * np.exp(-1j * (step * ((h * m0) % M) + h * d))[:, None]
    parts = np.concatenate([Ch.real, Ch.imag], axis=1).T.copy()
    grid = np.zeros((parts.shape[0], M))
    for offset in range(1 - H, H + 1):
        idx = (m0 + offset) & (M - 1)
        v = parts * np.exp(-((d - offset * step) ** 2) / (4.0 * tau))
        for row, weights in zip(grid, v):
            row += np.bincount(idx, weights, M)
    cols = C.shape[1]
    k = np.arange(n) - h
    S = np.fft.fft(grid[:cols] + 1j * grid[cols:], axis=1)[:, k % M]
    return (S * (math.sqrt(math.pi / tau) / M * np.exp(k * k * tau))).T


@PROPERTY
@given(n=st.integers(2, 2000), dt=st.floats(1e-3, 1.0),
       turns=st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, 0.5, -0.5])), min_size=1, max_size=40),
       cols=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(n=300, dt=0.02, turns=[0.0, 0.0, 1e-4], cols=2, seed=1)  # every node at m0 = 0: negative offsets wrap
@example(n=2, dt=1.0, turns=[0.5, -0.5, 0.0, 0.25], cols=1, seed=2)  # theta = pi and -pi: the whole circle
@example(n=1000, dt=0.01, turns=[0.49, -0.49], cols=3, seed=3)  # a window that wraps across the grid's end
def test_phase_sum_nufft_spreads_as_the_full_length_formula(n, dt, turns, cols, seed):
    # nodes at dt x = 2 pi turns; the window's bincounts sum the full-length terms in the same order,
    # spread straight into the complex grid rows and never into C
    rng = np.random.default_rng(seed)
    x = 2.0 * np.pi * np.array(turns) / dt
    C = rng.normal(size=(x.size, cols)) + 1j * rng.normal(size=(x.size, cols))
    kept = C.copy()
    assert np.array_equal(phase_sum_nufft(C, x, dt, n), _reference_nufft(C, x, dt, n))
    assert np.array_equal(C, kept)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bessel_table(3, 1e6),
        lambda: flip_probability(3, 1e6),
        lambda: occupation(0, 1e6, 1.0),
        lambda: bessel_table(40_000, np.ones(1000)),  # one 320 MB table > 2**28 bytes
    ],
    ids=["bessel_table", "flip_probability", "xy-occupation", "table-bytes"],
)
def test_oversized_bessel_recurrence_is_refused_before_it_runs(forbid, call):
    forbid(specfun, "_miller")  # the Miller recurrence does not start above its start-index bound
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: bessel_table(3, np.nan),
        lambda: bessel_table(3, [1.0, np.inf]),
        lambda: flip_residual(3, np.nan),
        lambda: occupation(0, np.nan, 1.0),
        lambda: occupation(0, 1.0, -np.inf),
        lambda: flip_residual([], 1.0),
        lambda: flip_residual([0, 2], 1.0),
        lambda: flip_probability(np.array([2.0, 3.0]), 1.0),
        lambda: asymptotic_exponent([1, 2], np.linspace(50.0, 500.0, 100)),
        lambda: occupation(np.array([], dtype=int), 1.0, 1.0),
        lambda: occupation(0.5, 1.0, 1.0),
        # a non-integer order once gave the table entry of its truncation: J_2(1.0) for J_2.5(1.0)
        lambda: bessel_j(2.5, 1.0),
        lambda: evolution_coefficient(1.7, 1.0, 1.0),
        lambda: green_infinite(1.5, 1, 1.0),
    ],
    ids=["nan", "inf", "flip-nan", "xy-nan", "xy-kappa-inf", "flip-no-sites", "flip-site-0", "flip-float-sites",
         "exponent-site-1", "xy-no-sites", "xy-float-site", "bessel-float-order", "xy-float-offset",
         "green-float-site"],
)
def test_nonfinite_arguments_and_invalid_sites_are_refused_before_a_table(forbid, call):
    forbid(specfun, "_miller")
    with pytest.raises(DomainError):
        call()


def test_bessel_j_takes_numpy_integer_orders():
    for n in (np.int64(-3), np.int32(2), np.uint8(5)):
        assert bessel_j(n, 1.7) == bessel_j(int(n), 1.7)
    assert evolution_coefficient(np.int64(-3), 1.7, 0.9) == evolution_coefficient(-3, 1.7, 0.9)


@pytest.mark.parametrize(
    "n_max, x",
    [
        (1000, np.full(3000, 50.0)),
        (10, np.linspace(1e-3, 100.0, 100_000)),
        (2000, np.full(500, 1500.0)),
        (300, np.random.default_rng(0).uniform(1.0, 400.0, 2000)),
    ],
    ids=["orders", "arguments", "small-equal", "small-uniform"],
)
def test_bessel_table_gate_counts_what_it_holds(gate_covers, n_max, x):
    # equal arguments rescale together, so the peak holds the output and the whole work table; few
    # orders over many arguments peak in the recurrence's per-argument state; small tables peak up
    # to 56 KB above their count in numpy work buffers that do not scale with the table
    gate_covers(lambda: bessel_table(n_max, x))
