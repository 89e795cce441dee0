import numpy as np
import pytest
from conftest import traced
from hypothesis import example, given
from hypothesis import strategies as st
from test_properties import PROPERTY

from chainlab import DomainError, detector, specfun
from chainlab.detector import (
    W_ROUTE_TOL,
    DetectorRun,
    amplitude_free,
    povm_matrix,
    semicircle_kernel,
)
from chainlab.packets import bump_packet, default_grid, gaussian_packet, ghat_radial, overlap
from chainlab.specfun import PHASE_BLOCK, bessel_ratio_table, phase_blocks, phase_sum, phase_sum_nufft


@pytest.fixture(scope="module")
def short_run():
    # T = 40 keeps the free-series quadrature cheap; physics is unchanged
    return DetectorRun(gamma=0.5, T=40.0)


@pytest.fixture(scope="module")
def default_run():
    return DetectorRun(gamma=0.5)


def _free_coefficients(run):
    """Trapezoid coefficients of the free pass over p_fine: columns (phi, psi) and (phi, phi)."""
    p = run.p_fine
    phi, psi = run.phi, run.psi
    C = np.conj(phi.amplitude_at(p))[:, None] * np.stack([psi.amplitude_at(p), phi.amplitude_at(p)], axis=1)
    return C * (4.0 * np.pi * p**2 * (p[1] - p[0]))[:, None]


def test_semicircle_kernel_shape():
    u = np.array([-3.0, -2.0, 0.0, 1.0, 2.5])
    vals = semicircle_kernel(u)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[2] == pytest.approx(2.0 / np.sqrt(2.0 * np.pi))
    # even, compact support, integrates to f(0) = 1 in the transform convention
    fine = np.linspace(-2.0, 2.0, 200001)
    # trapezoid loses accuracy at the sqrt endpoints; O(h^1.5) residual
    assert np.trapezoid(semicircle_kernel(fine), fine) / np.sqrt(2.0 * np.pi) == pytest.approx(1.0, abs=1e-7)


def test_spectral_fhat_matches_continuum_convolution(short_run):
    # f = g J_1(2t)/t, so fhat = (2 pi)^(-1/2) ghat * semicircle; fhat >= 0 makes W_gamma positive
    run = short_run
    dt = run.dt
    fhat = dt / np.sqrt(2.0 * np.pi) * np.fft.fft(detector._two_sided(run.f, run.L))
    du = 2.0 * np.pi / (run.L * dt)
    for u in (-20.0, -5.0, -1.0, 0.0, 1.5):
        j = int(round(u / du))
        v = np.linspace(j * du - 2.0, j * du + 2.0, 200001)  # the semicircle's support
        ref = np.trapezoid(ghat_radial(run.phi, v) * semicircle_kernel(j * du - v), v) / np.sqrt(2.0 * np.pi)
        assert abs(fhat[j % run.L] - ref) <= 2e-5


def test_f_kernel_limit_at_zero(short_run):
    # f = g J_1(2t)/t: the t = 0 limit is g(0) exactly, and at t = 1 (step 50) the ratio is J_1(2)
    run = short_run
    assert run.t[50] == 1.0
    assert run.f[0] == run.g[0]
    assert run.f[50] == pytest.approx(run.g[50] * bessel_ratio_table(1, 1.0)[0], rel=1e-15)
    assert bessel_ratio_table(1, 1.0)[0] == pytest.approx(0.5767248077568734, rel=1e-15)


def test_amplitude_free_gaussian_closed_form():
    ga = gaussian_packet(default_grid(), 2.0)
    t = np.array([0.0, 0.5, 3.0, 20.0])
    assert np.max(np.abs(amplitude_free(ga, ga, t) - (1.0 + 4.0j * t) ** -1.5)) <= 1e-9


def test_free_series_matches_quadrature(short_run):
    i = np.array([0, 100, 2000])
    ref = amplitude_free(short_run.phi, short_run.psi, short_run.t[i])
    assert np.max(np.abs(short_run.free_series()[i] - ref)) <= 1e-8


def test_free_series_matches_direct_phase_matrix(short_run):
    # phase_sum's block-boundary rows and final partial block, and free_series, against exp of the full matrix
    run = short_run
    p = run.p_fine
    C = _free_coefficients(run)
    last = (run.n // PHASE_BLOCK) * PHASE_BLOCK
    assert 0 < run.n + 1 - last < PHASE_BLOCK
    rows = np.r_[0, PHASE_BLOCK - 1, PHASE_BLOCK, 2 * PHASE_BLOCK, last - 1, last:run.n + 1]
    ref = np.exp(-1j * np.outer(run.t[rows], p**2)) @ C
    assert np.max(np.abs(phase_sum(C, p**2, run.dt, run.n + 1)[rows] - ref)) <= 1e-13
    assert np.max(np.abs(run.free_series()[rows] - ref[:, 0])) <= 1e-13
    assert np.max(np.abs(run.g[rows] - ref[:, 1])) <= 1e-13


def test_phase_blocks_match_the_full_matrix_and_the_phase_sum_of_the_identity(short_run):
    # the phases P_0 streams over: block-boundary rows and the final partial block; the elementwise
    # product and the product with the identity round differently, by under an ulp of the phase
    run = short_run
    ps = run.phi.grid.nodes[48:96]
    last = (run.n // PHASE_BLOCK) * PHASE_BLOCK
    rows = np.r_[0, PHASE_BLOCK - 1, PHASE_BLOCK, 2 * PHASE_BLOCK, last - 1, last:run.n + 1]
    ep = np.concatenate([base * phase for _, base, phase in phase_blocks(ps**2, run.dt, run.n + 1)])
    assert ep.shape == (run.n + 1, ps.size)
    assert np.max(np.abs(ep[rows] - np.exp(-1j * np.outer(run.t[rows], ps**2)))) <= 1e-13
    assert np.max(np.abs(ep - phase_sum(np.eye(ps.size), ps**2, run.dt, run.n + 1))) <= 1e-15


@pytest.mark.parametrize("which", ["short_run", "default_run"])
def test_free_series_nufft_matches_direct_phase_sum(which, request):
    # T = 40 and T = 200: the free pass's own coefficients, NUFFT against the direct sum
    run = request.getfixturevalue(which)
    C = _free_coefficients(run)
    direct = phase_sum(C, run.p_fine**2, run.dt, run.n + 1)
    assert np.max(np.abs(phase_sum_nufft(C, run.p_fine**2, run.dt, run.n + 1) - direct)) <= 1e-13
    assert np.max(np.abs(run.free_series() - direct[:, 0])) <= 1e-13


def test_free_pass_memory_stays_below_the_direct_sum(default_run):
    # the direct (times x momenta) sum peaks near 38 MB here; spreading one kernel offset at a time stays far below
    run = default_run
    with traced() as trace:
        run.free_series_multi([run.psi, run.phi])
    assert trace.peak < 16e6


def test_free_pass_holds_one_grid_per_column(default_run):
    # one complex grid row per column, transformed in place: 6.16-6.29 MB traced (three such rows
    # per column, 11.39 MB, when each part was spread into a real row)
    run = default_run
    with traced() as trace:
        run.free_series_multi([run.psi, run.phi])
    assert trace.peak < 7.5e6


def test_g_matches_gaussian_closed_form(short_run):
    # phi has width 2, so g(t) = (1 + 4 i t)^(-3/2)
    assert np.max(np.abs(short_run.g - (1.0 + 4.0j * short_run.t) ** -1.5)) <= 1.5e-10


def test_free_amplitudes_take_one_quadrature_pass(calls):
    passes = calls(DetectorRun, "free_series_multi", lambda self, bs: len(bs))
    run = DetectorRun(gamma=0.5, T=5.0)
    run.solve_fourier()
    run.K
    assert passes == [2]


def test_weak_coupling_norm(short_run):
    l1 = short_run.gamma_g_l1()
    assert 0.0 < l1 < 2.0
    # closed form ||g||_1 = int (1 + t^2 s^4)^(-3/4) dt with s = 2
    t = np.linspace(0.0, 4000.0, 4000001)
    ref = 2.0 * np.trapezoid((1.0 + 16.0 * t**2) ** -0.75, t)
    assert l1 / 0.5 == pytest.approx(ref, rel=1e-2)


def test_solvers_agree_pairwise(short_run):
    Fm = short_run.solve_marching()
    Fn = short_run.solve_neumann()
    Ff = short_run.solve_fourier()
    dt = short_run.dt
    for a, b in ((Fm, Fn), (Fm, Ff), (Fn, Ff)):
        assert np.sqrt(dt * np.sum(np.abs(a - b) ** 2)) < 1e-10


def _marching_by_steps(run):
    """F by the step-by-step trapezoid march, one dot product over the history per step: the blocked solve's oracle."""
    F0, K = run.free_series(), run.K
    g2, dt = run.gamma**2, run.dt
    F = np.empty(run.n + 1, dtype=complex)
    F[0] = F0[0]
    Kr = K[::-1]
    for n in range(1, run.n + 1):
        acc = np.dot(Kr[run.n - n + 1 : run.n], F[1:n]) if n > 1 else 0.0
        acc += 0.5 * K[n] * F[0]
        F[n] = F0[n] - g2 * dt * acc
    return F


# steps per leaf of the blocked march, and the step counts around its leaf and product boundaries
_LEAF = detector._MARCH_LEAF
_STEPS = st.one_of(st.integers(1, _LEAF - 1),
                   st.integers(1, 6).flatmap(lambda k: st.sampled_from([k * _LEAF - 1, k * _LEAF, k * _LEAF + 1])))


@PROPERTY
@given(gamma=st.floats(0.0, 0.6), dt=st.floats(0.005, 0.1), n=_STEPS)
@example(gamma=0.5, dt=0.02, n=1)
@example(gamma=0.5, dt=0.02, n=_LEAF - 1)
@example(gamma=0.5, dt=0.02, n=_LEAF)
@example(gamma=0.5, dt=0.02, n=_LEAF + 1)
@example(gamma=0.6, dt=0.1, n=4 * _LEAF + 1)
def test_solve_marching_matches_the_step_loop(gamma, dt, n):
    # the blocked solve sums each step's history in another order than the loop, so the bits differ:
    # the gap measured 1.73e-16 of max |F| at gamma = 0.5, dt = 0.02 and T = 2.5, 5 and 60, and at
    # most 3.2e-16 over 2600 random draws of this sweep; 1e-15 leaves three times the largest
    run = DetectorRun(gamma=gamma, dt=dt, T=n * dt)
    assert run.n == n
    F = _marching_by_steps(run)
    assert np.max(np.abs(run.solve_marching() - F)) <= 1e-15 * np.max(np.abs(F))


def test_neumann_terms_keep_the_bits_of_one_convolution_each(short_run):
    # K's transform taken once per solve, not once per term, gives the same bits
    run = short_run
    F0, K = run.free_series(), run.K
    term, total = F0.copy(), F0.copy()
    while np.linalg.norm(term) > detector._NEUMANN_TOL * np.linalg.norm(F0):
        term = -run.gamma**2 * detector._causal_conv(K, term, run.dt)
        total += term
    assert np.array_equal(run.solve_neumann(), total)


def test_weak_coupling_check_refuses_a_nan_norm(short_run, monkeypatch):
    # NaN >= 2 is false: the check asks for the norm below 2 instead
    monkeypatch.setattr(DetectorRun, "gamma_g_l1", lambda self: np.nan)
    with pytest.raises(ValueError, match="nan is not below 2"):
        short_run.check_weak_coupling()


def test_unconverged_neumann_series_raises(short_run, monkeypatch):
    # a partial sum is not returned: the CLI maps the ValueError to exit 2
    monkeypatch.setattr(detector, "_NEUMANN_MAX_TERMS", 1)
    with pytest.raises(ValueError, match="Neumann series"):
        short_run.solve_neumann()


def test_gamma_zero_reduces_to_free(short_run):
    run = DetectorRun(gamma=0.0, T=40.0)
    assert np.max(np.abs(run.solve_fourier() - run.free_series())) < 1e-12


def test_detection_probability_routes_agree(short_run):
    w_time = short_run.detection_w()
    w_spec = short_run.detection_w_spectral()
    assert 0.0 < w_time < 1.0
    assert abs(w_time - w_spec) < W_ROUTE_TOL


def test_detection_probability_frozen_value(short_run):
    # regression: frozen from this discretization (gamma 0.5, dt 0.02, T 40)
    assert short_run.detection_w() == pytest.approx(0.034695909649, abs=1e-9)


def test_response_form_leaves_its_columns_unchanged(short_run):
    F = short_run.solution.copy()
    w = short_run.detection_w()
    assert np.array_equal(short_run.solution, F)
    assert short_run.detection_w() == w


def test_in_place_transforms_leave_the_free_columns_unchanged(short_run):
    # the solve and the spectral route transform their own buffers in place, never the columns given
    free = np.stack([short_run.free_series(), short_run.g], axis=1)
    kept = free.copy()
    short_run.solve_fourier(free)
    assert np.array_equal(free, kept)
    short_run.solve_fourier()
    short_run.detection_w_spectral()
    assert np.array_equal(short_run.free_series(), kept[:, 0])


def test_detection_probability_zero_coupling():
    assert DetectorRun(gamma=0.0, T=5.0).detection_w() == 0.0


def test_occupations_sum_to_detection_probability(short_run):
    # at large t every chain-site contribution has converged to its limit
    occ = short_run.occupations_at(40.0)
    assert occ.min() >= 0.0
    assert occ.sum() == pytest.approx(short_run.detection_w(), abs=1e-10)


def test_occupations_at_array_matches_scalar_calls():
    run = DetectorRun(gamma=0.5, T=5.0)
    ts = np.array([0.0, 1.0, 2.5, 5.0])
    occ = run.occupations_at(ts)
    assert occ.shape == (ts.size, run.occupations_at(5.0).size)
    for t, row in zip(ts, occ):
        single = run.occupations_at(t)
        assert np.max(np.abs(row[: single.size] - single)) <= 1e-15


def test_occupations_at_solves_each_distinct_step_once(calls):
    # 2000 copies of one time: each row is the single call's row to the bit, from one Toeplitz form
    run = DetectorRun(gamma=0.5, T=5.0)
    single = run.occupations_at(5.0)
    forms = calls(detector, "_toeplitz_spectra")
    occ = run.occupations_at(np.full(2000, 5.0))
    assert occ.shape == (2000, single.size)
    assert np.array_equal(occ, np.broadcast_to(single, occ.shape))
    assert len(forms) == 1


def test_occupations_at_builds_one_bessel_table(calls):
    run = DetectorRun(gamma=0.5, T=5.0)
    run.solution  # builds the kernel f and its own Bessel table first
    tables = calls(detector, "bessel_ratio_table", lambda m_max, t: m_max)
    run.occupations_at(np.array([1.0, 2.0, 3.0, 4.0]))
    assert len(tables) == 1


_OCC_RUN = DetectorRun(T=10.0)


@PROPERTY
@given(times=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
def test_occupations_at_matches_the_one_block_form(times):
    # the diagonal of the whole (m_max, m_max) form conj(W V)^T T_g W V, with the dense (n + 1, n + 1)
    # Toeplitz matrix T_g[i, j] = g(t_i - t_j), g(-t) = conj(g(t)), and the paper's complex
    # f_m = (-i)^(m-1) m J_m(2s)/s in V: the unit phase cancels on the diagonal
    run, dt = _OCC_RUN, _OCC_RUN.dt
    occ = run.occupations_at(times)
    steps = np.rint(np.array(times) / dt).astype(int)
    m_max = detector._chain_order_cut(max(times))
    fm = (-1j) ** np.arange(m_max)[:, None] * bessel_ratio_table(m_max, run.t[: steps.max() + 1])
    for row, n in zip(occ, steps):
        if n == 0:
            assert not row.any()
            continue
        lag = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))
        Tg = np.where(lag >= 0, run.g[np.abs(lag)], np.conj(run.g[np.abs(lag)]))
        w = np.full(n + 1, dt)
        w[[0, -1]] = 0.5 * dt
        WV = w[:, None] * (fm[:, n::-1] * run.solution[None, : n + 1]).T
        form = np.conj(WV).T @ Tg @ WV
        assert np.max(np.abs(row - run.gamma**2 * np.real(np.diagonal(form)))) <= 1e-15


def test_occupations_at_holds_one_column_block_of_transforms(monkeypatch, held_counts):
    # one block of V at a time beside the real 4.8 MB f_m table, whose ratios are formed in place,
    # peaks at 7.4 MB (a second table in the ratios' build peaks at 9.7 MB), and the gate counts
    # within 1.25 times that peak (a count that kept the complex table's terms read 15.6 MB).  The
    # (8192, 200) transform of all chain sites at once peaked at 55.7 MB, and its count of 64.6 MB
    # refused the call under 2^25 bytes
    run = DetectorRun(T=60.0)
    run.solution
    counts = held_counts(detector)
    with traced() as trace:
        run.occupations_at(60.0)
    assert trace.peak < 8.5e6
    assert trace.peak <= counts[-1] <= 1.25 * trace.peak
    monkeypatch.setattr(specfun, "_MAX_HELD_BYTES", 2**25)
    run.occupations_at(60.0)


def _p0_by_double_convolution(run):
    """P_0 with both causal convolutions of each node chunk, C_p = e_p * f and Z_p = C_p * F, by FFT.

    The phases are exp of the whole (times x nodes) matrix: no phase factorization shared with p0_series.
    """
    dt, grid = run.dt, run.phi.grid
    out = np.zeros(run.n + 1)
    for i in range(0, grid.nodes.size, 48):
        ps = grid.nodes[i : i + 48]
        ep = np.exp(-1j * np.outer(run.t, ps**2))
        Zp = detector._causal_conv(detector._causal_conv(ep, run.f[:, None], dt), run.solution[:, None], dt)
        chi = ep * run.psi.amplitude[i : i + 48] - run.gamma**2 * run.phi.amplitude[i : i + 48] * Zp
        out += (np.abs(chi) ** 2) @ (grid.weights[i : i + 48] * 4.0 * np.pi * ps**2)
    return out


@pytest.mark.parametrize("dt", [0.02, 0.004])
def test_p0_series_matches_double_convolution(dt):
    run = DetectorRun(gamma=0.5, dt=dt, T=5.0)
    assert np.max(np.abs(run.p0_series(run.t) - _p0_by_double_convolution(run))) <= 1e-13


@PROPERTY
@given(gamma=st.floats(0.0, 0.6), T=st.floats(0.5, 10.0))
def test_p0_series_matches_double_convolution_everywhere(gamma, T):
    run = DetectorRun(gamma=gamma, T=T)
    assert np.max(np.abs(run.p0_series(run.t) - _p0_by_double_convolution(run))) <= 1e-13


def test_p0_series_at_times_matches_the_whole_grid(short_run):
    # any order, repeats and a 2-d shape; each row is the whole-grid series at its step
    whole = short_run.p0_series(short_run.t)
    times = np.array([[33.3, 0.0, 7.01], [40.0, 0.02, 33.3]])
    rows = short_run.p0_series(times)
    assert rows.shape == times.shape
    assert np.max(np.abs(rows - whole[np.rint(times / 0.02).astype(int)])) <= 1e-15
    assert np.shape(short_run.p0_series(12.5)) == ()
    assert short_run.p0_series([5.0, 12.5]).shape == (2,)


@pytest.mark.parametrize(
    "call",
    [
        lambda run: DetectorRun(gamma=0.5, psi=run.psi, T=0.001),  # psi: the width-1 Gaussian
        lambda run: DetectorRun(gamma=0.5, psi=run.psi, dt=-0.01),
        lambda run: DetectorRun(gamma=-0.5, psi=run.psi, T=5.0),
        # an infinite gamma once built a run whose w, P_0 and occupations were all NaN
        lambda run: DetectorRun(gamma=np.inf, psi=run.psi, T=5.0),
        # a negative gamma once made ||gamma g||_1 negative and slipped past the weak-coupling gate
        lambda run: povm_matrix([gaussian_packet(default_grid(), w) for w in (0.8, 1.5)], -5.0, T=5.0),
        lambda run: povm_matrix([gaussian_packet(default_grid(), 0.8)], 0.0, T=-5.0),
        lambda run: run.occupations_at(np.array([1.0, 41.0])),
        lambda run: run.occupations_at(-1.0),
        lambda run: run.occupations_at([]),  # numpy's reduction over no times once raised a raw ValueError
        lambda run: run.p0_series(np.zeros((0, 3))),  # the largest step of no times once raised a raw IndexError
        lambda run: povm_matrix([], 0.5, T=5.0),  # once a ValueError, the exit code of a numerical failure
    ],
    ids=["config-T-below-a-step", "config-dt-negative", "config-gamma-negative", "run-gamma-infinite",
         "povm-gamma-negative",
         "povm-T-negative-at-zero-gamma", "occupations-past-T", "occupations-negative-time",
         "occupations-no-times", "p0-no-times", "povm-no-packets"],
)
def test_refused_input(short_run, call):
    # a configuration error: exit 1 from the command line
    with pytest.raises(DomainError):
        call(short_run)


_SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -1.0])


@PROPERTY
@given(gamma=st.floats(-1.0, 10.0) | _SPECIAL, dt=st.floats(1e-3, 1.0) | _SPECIAL, T=st.floats(0.0, 50.0) | _SPECIAL)
def test_a_run_constructs_or_refuses_its_inputs(gamma, dt, T):
    # no free pass runs: a run that constructs has a finite gamma >= 0 and at least one step of dt > 0
    try:
        run = DetectorRun(gamma, dt=dt, T=T)
    except DomainError:
        return
    assert 0.0 <= run.gamma < np.inf and run.dt > 0.0 and run.n >= 1 and run.t.size == run.n + 1


@pytest.mark.parametrize("name", ["gamma", "psi", "phi", "dt", "T", "n", "L", "t", "p_fine"])
def test_every_attribute_of_a_run_is_fixed(name):
    run = DetectorRun(T=5.0)
    before = getattr(run, name)
    with pytest.raises(AttributeError, match="build a new run"):
        setattr(run, name, before)
    assert getattr(run, name) is before


@pytest.mark.parametrize("name", ["t", "p_fine", "_free", "free_series", "g", "f", "_denominator", "solution"])
def test_every_array_of_a_run_is_read_only(name):
    array = getattr(DetectorRun(T=5.0), name)
    with pytest.raises(ValueError, match="read-only"):
        (array() if callable(array) else array)[:1] *= 2


def test_a_refused_write_leaves_the_detection_probability_unchanged():
    # run.solution[:] *= 2 once went through and moved w from 0.0125745 to 0.0502979
    run = DetectorRun(gamma=0.3, T=5.0)
    w = run.detection_w()
    with pytest.raises(ValueError):
        run.solution[:] *= 2
    assert run.detection_w() == w == pytest.approx(0.0125745, abs=1e-7)


def test_a_solved_run_cannot_take_a_new_gamma():
    # rebinding gamma after the solve once gave w = 0.0124163 from the cached solution, against
    # 0.0125745 from a run built with gamma = 0.3
    run = DetectorRun(gamma=0.5, T=5.0)
    run.solution
    w = run.detection_w()
    with pytest.raises(AttributeError):
        run.gamma = 0.3
    assert run.gamma == 0.5 and run.detection_w() == w


def test_p0_series_refuses_times_outside_the_run_before_allocating(short_run):
    with traced() as trace:
        for bad in (40.1, -1.0, [1.0, np.nan], [np.inf]):
            with pytest.raises(DomainError):
                short_run.p0_series(bad)
    assert trace.peak < 2**20


def test_coupling_packet_lives_on_the_grid_of_psi():
    # P_0 weights psi's nodes with phi's amplitudes: a phi on another grid once gave P_0(0) = 8
    run = DetectorRun(0.5, gaussian_packet(default_grid(panels=80), 1.0), T=5.0)
    assert run.phi.grid is run.psi.grid
    assert abs(run.p0_series(0.0) - 1.0) <= 1e-12


def test_p0_series_takes_no_phase_sum(forbid):
    # the phases come from phase_blocks: a phase sum of the identity would multiply by zeros once per node
    forbid(specfun, "phase_sum")
    forbid(detector, "phase_sum", raising=False)
    run = DetectorRun(gamma=0.5, T=5.0)
    assert np.all(np.isfinite(run.p0_series(run.t)))


def test_p0_series_keeps_criterion_08_deviations_to_the_bit(default_run):
    # criterion 08's sampled and T = 200 conservation deviations at full precision
    run = DetectorRun(gamma=0.5, dt=0.004, T=20.0)
    ts = np.array([2.0, 5.0, 10.0, 20.0])
    dev = float(np.max(np.abs(run.occupations_at(ts).sum(axis=1) + run.p0_series(ts) - 1.0)))
    dev_T = float(abs(default_run.p0_series(default_run.T) + default_run.detection_w() - 1.0))
    assert (dev.hex(), dev_T.hex()) == ("0x1.00406a9600000p-21", "0x1.ae07221e70000p-17")


def test_p0_series_takes_no_per_node_convolution(calls):
    convs, fft_calls = calls(detector, "_causal_conv"), calls(np.fft, "fft")
    ffts = []
    for panels in (20, 80):  # 240 and 960 momentum nodes
        grid = default_grid(panels=panels)
        run = DetectorRun(0.5, gaussian_packet(grid, 1.0), T=5.0)
        run.solution
        convs.clear()
        fft_calls.clear()
        run.p0_series(run.t)
        assert len(convs) == 0
        ffts.append(len(fft_calls))
    assert ffts[0] == ffts[1]


def test_solve_fourier_block_equals_its_column_solves(short_run):
    g = default_grid()
    psis = [gaussian_packet(g, 0.6), gaussian_packet(g, 1.0), gaussian_packet(g, 1.6), bump_packet(g)]
    F0s = short_run.free_series_multi(psis)
    columns = np.stack([short_run.solve_fourier(F0s[:, i]) for i in range(len(psis))], axis=1)
    assert np.array_equal(short_run.solve_fourier(F0s), columns)


def test_povm_eigenvalues_and_nonprojection():
    g = default_grid()
    psis = [gaussian_packet(g, 0.8), gaussian_packet(g, 1.5), bump_packet(g)]
    W, ev = povm_matrix(psis, 0.5, T=40.0)
    assert np.max(np.abs(W - W.conj().T)) < 1e-12
    assert np.all(ev > 0.0) and np.all(ev < 1.0)
    assert np.linalg.norm(W @ W - W, 2) > 1e-3


def test_povm_matrix_matches_polarized_detection_w():
    # the sesquilinear form behind W, recovered from the quadratic form w alone
    g = default_grid()
    psis = [gaussian_packet(g, 0.8), bump_packet(g)]
    W, _ = povm_matrix(psis, 0.5, T=40.0)
    run = DetectorRun(gamma=0.5, psi=psis[0], T=40.0)
    F0s = run.free_series_multi(psis)
    F = [run.solve_fourier(F0s[:, i]) for i in range(len(psis))]
    w = lambda F: run.response_form(F[:, None])[0, 0].real  # detection_w of the amplitude F
    raw = np.empty((2, 2), dtype=complex)
    raw[0, 0] = w(F[0])
    raw[1, 1] = w(F[1])
    raw[0, 1] = 0.25 * sum(a * w(a * F[0] + F[1]) for a in (1.0, -1.0, 1.0j, -1.0j))
    raw[1, 0] = np.conj(raw[0, 1])
    S = np.array([[overlap(a, b) for b in psis] for a in psis])
    sw, sv = np.linalg.eigh(S)
    S_inv_half = sv @ np.diag(sw**-0.5) @ sv.conj().T
    assert abs(raw[0, 1]) > 1e-3
    assert np.max(np.abs(S_inv_half @ raw @ S_inv_half - W)) < 1e-12


def test_povm_refuses_a_degenerate_span_before_the_free_pass(forbid):
    # the span was once checked after both free passes and the solve
    forbid(DetectorRun, "free_series_multi")
    g = default_grid()
    with pytest.raises(DomainError, match="degenerate packet span"):
        povm_matrix([gaussian_packet(g, 0.8), gaussian_packet(g, 0.8)], 0.5, T=60.0)


def test_povm_refuses_a_strong_coupling():
    # ||gamma g||_1 depends on phi alone, so any span is refused at gamma = 2 and T = 5
    with pytest.raises(ValueError, match=r"2\.621 >= 2"):
        povm_matrix([gaussian_packet(default_grid(), 0.8)], 2.0, T=5.0)


def test_povm_vanishes_without_coupling():
    # the same path as at any gamma: gamma^2 = 0 multiplies the response form
    g = default_grid()
    psis = [gaussian_packet(g, 0.8), gaussian_packet(g, 1.5)]
    W, ev = povm_matrix(psis, 0.0, T=40.0)
    assert np.max(np.abs(W)) == 0.0
    assert np.max(np.abs(ev)) == 0.0


def test_oversized_run_is_refused_before_allocation():
    # T = 1e5 needs 12.7e6 fine momenta; dt = 1e-5 at T = 200 needs 2e7 times, a 2^27-point NUFFT
    # grid and solver transforms: either free pass would hold gigabytes, above 2**28 bytes
    with traced() as trace:
        for kw in ({"T": 1e5}, {"dt": 1e-5}):
            with pytest.raises(DomainError):
                DetectorRun(**kw)
    assert trace.peak < 2**20


def test_long_run_constructs_and_refuses_an_oversized_occupation_table_before_any_solve(monkeypatch, forbid):
    # T = 1000 constructs, but occupations up to t = 1000 need
    # 131072 x 2172 complex Toeplitz transforms (4.6 GB)
    run = DetectorRun(T=1000.0)

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted  # the first computation after p0_series's gate

    forbid(detector, "bessel_ratio_table")  # no table is built and nothing is solved before the size check
    forbid(DetectorRun, "solve_fourier")
    monkeypatch.setattr(DetectorRun, "free_series_multi", admitted)
    with pytest.raises(DomainError):
        run.occupations_at(1000.0)
    # P_0 holds one row block of phases over the nodes, not phases over the steps: the whole grid
    # at T = 1000 counts 10.0 MB, so every run that constructs admits it
    with pytest.raises(Admitted):
        run.p0_series(run.t)
    with pytest.raises(Admitted):
        run.p0_series(1000.0)
    # the bound covers more than the table: at t = 60 the real f_m table is 200 x 3001 (4.8 MB)
    # and bessel_table counts its build at 5.24 MB, both under 8 * 2^20 bytes, but with one
    # block of V and its 8192-point transforms beside the table the call counts 8.88 MB
    run = DetectorRun(T=60.0)
    monkeypatch.setattr(specfun, "_MAX_HELD_BYTES", 8 * 2**20)
    specfun.bessel_ratio_table(200, run.t)
    with pytest.raises(DomainError):
        run.occupations_at(60.0)


def test_repeated_times_count_their_steps_once(held_counts):
    # the steps of the times are counted on their own, then P_0's work at the exact number of
    # distinct steps; a bound of min(times, steps) on them once counted 20.45 MB here, against a
    # traced peak of 11.40 MB
    run = DetectorRun(T=5.0)
    run.solution
    run.f
    counts = held_counts(detector)
    run.p0_series(np.full(200000, 5.0))
    assert counts and max(counts) <= 13e6


def test_whole_grid_p0_holds_one_phase_block_at_a_time(default_run):
    # the (steps x 48) phases of node chunks peaked at 55.0 MB here; one row block over all nodes
    # at a time peaks at 6.3 MB
    run = default_run
    run.solution
    run.f
    with traced() as trace:
        run.p0_series(run.t)
    assert trace.peak < 10e6


@pytest.mark.parametrize(
    "kw, call",
    [
        ({"T": 60.0}, lambda run: run.occupations_at(60.0)),
        ({"T": 20.0, "dt": 0.004}, lambda run: run.p0_series(run.t)),
        ({"T": 20.0, "dt": 0.004}, lambda run: run.p0_series(20.0)),
        ({"T": 5.0}, lambda run: run.p0_series([0.0, 2.6])),
        ({"T": 60.0}, lambda run: run.free_series_multi([run.psi] * 4)),
        # __init__'s gate: a run of the same four inputs
        ({"T": 60.0}, lambda run: DetectorRun(run.gamma, run.psi, run.dt, run.T).detection_w_spectral()),
        # repeated times: the steps, their sort and inverse, and the output rows over the times
        ({"T": 5.0}, lambda run: run.p0_series(np.full(200000, 5.0))),
        ({"T": 5.0}, lambda run: run.occupations_at(np.full(2000, 5.0))),
        # the time-domain solvers of a new run, whose gate in __init__ counts them with its free pass
        ({"T": 5.0}, lambda run: DetectorRun(run.gamma, run.psi, run.dt, run.T).solve_marching()),
        ({"T": 5.0}, lambda run: DetectorRun(run.gamma, run.psi, run.dt, run.T).solve_neumann()),
        ({"T": 60.0}, lambda run: DetectorRun(run.gamma, run.psi, run.dt, run.T).solve_marching()),
    ],
    ids=["occupations_at", "p0_series", "p0_series-at-T", "p0_series-early", "free_series_multi", "run",
         "p0_series-repeated-times", "occupations_at-repeated-times", "solve_marching", "solve_neumann",
         "solve_marching-T60"],
)
def test_memory_gates_count_what_each_call_holds(gate_covers, kw, call):
    # the peak of the call stays within the bytes its gate counts: one byte less of budget refuses it
    run = DetectorRun(**kw)
    run.solution  # solved and cached before the call, as in verify
    run.f
    call(run)  # once untraced: a first call in the process also traces its lazy imports
    gate_covers(lambda: call(run))
