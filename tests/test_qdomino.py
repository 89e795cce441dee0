import numpy as np
import pytest
import scipy.special as sp

from chainlab import DomainError
from chainlab.dense_oracle import Propagator, build_island_hamiltonian
from chainlab.qdomino import (
    asymptotic_exponent,
    envelope_slope,
    flip_probability,
    flip_residual,
    green_finite,
    green_infinite,
)


def test_green_finite_against_dense_oracle():
    prop = Propagator(build_island_hamiltonian(8))
    ts = (0.5, 3.0, 10.0)
    # U[k, n, m] = <n|exp(-i ts[k] H)|m>: column m evolves e_m
    U_all = np.stack([prop.apply(e_m, ts) for e_m in np.eye(8)], axis=2)
    worst = 0.0
    for t, U in zip(ts, U_all):
        for n in range(1, 9):
            for m in range(1, 9):
                worst = max(worst, abs(green_finite(n, m, 8, t) - U[n - 1, m - 1]))
    assert worst < 1e-12


def test_green_infinite_bessel_form():
    # (-i)^(n-m) J_(n-m) - (-i)^(n+m) J_(n+m) at 2t
    for n, m, t in [(1, 1, 0.8), (3, 1, 2.5), (5, 2, 7.0)]:
        ref = (-1j) ** (n - m) * sp.jv(n - m, 2 * t) - (-1j) ** (n + m) * sp.jv(n + m, 2 * t)
        assert green_infinite(n, m, t) == pytest.approx(ref, abs=1e-10)


def test_green_infinite_is_large_chain_limit():
    for t in (0.5, 2.0):
        assert green_finite(2, 3, 400, t) == pytest.approx(green_infinite(2, 3, t), abs=1e-10)


def test_flip_residual_initial_value():
    for j in (2, 3, 6):
        assert flip_residual(j, 0.0) == pytest.approx(1.0)
    assert flip_probability(2, 0.0) == pytest.approx(0.0)


def test_flip_probability_range_and_growth():
    # the growth to 1 by t = 1e3 is acceptance criterion 03
    for j in (2, 4):
        vals = [flip_probability(j, t) for t in (0.5, 5.0, 100.0, 1000.0)]
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in vals)


def test_flip_residual_bessel_sum():
    # residual sum of squared (m/t) J_m(2t) over interior sites
    j, t = 4, 3.7
    ref = sum((m / t * sp.jv(m, 2 * t)) ** 2 for m in range(1, j))
    assert flip_residual(j, t) == pytest.approx(ref, abs=1e-12)


def test_flip_functions_accept_time_arrays():
    t = np.array([0.0, 0.3, 2.0, -1.5, 17.5, 60.0])
    for j in (1, 2, 5):
        res = flip_residual(j, t)
        prob = flip_probability(j, t)
        assert res.shape == t.shape and prob.shape == t.shape
        assert np.max(np.abs(res - [flip_residual(j, tv) for tv in t])) <= 1e-15
        assert np.max(np.abs(prob - [flip_probability(j, tv) for tv in t])) <= 1e-15
    assert isinstance(flip_residual(3, 2.0), float)


def test_envelope_slope_recovers_power_law():
    t = np.linspace(50.0, 500.0, 1500)
    vals = t**-3.0 * (1.1 + np.cos(4.0 * t) ** 2)
    assert abs(envelope_slope(t, vals) + 3.0) < 0.05


def test_asymptotic_exponent_takes_an_array_of_sites():
    t = np.linspace(50.0, 500.0, 400)
    slopes = asymptotic_exponent(np.array([[2, 3], [5, 4]]), t)
    assert slopes.shape == (2, 2)
    singles = [[asymptotic_exponent(j, t) for j in row] for row in ([2, 3], [5, 4])]
    assert isinstance(singles[0][0], float)
    assert np.max(np.abs(slopes - singles)) < 1e-12


def test_flip_probability_rejects_sites_below_one():
    with pytest.raises(DomainError):
        flip_probability(0, 1.0)


def test_envelope_slope_needs_enough_maxima():
    t = np.linspace(1.0, 2.0, 30)
    with pytest.raises(ValueError):
        envelope_slope(t, t**-3.0)
