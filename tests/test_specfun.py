import numpy as np
import pytest
import scipy.special as sp

from chainlab.specfun import bessel_j, bessel_table, chebyshev_u, finite_kernel


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


def test_quadratic_normalization():
    # J_0^2 + 2 sum J_k^2 = 1
    for x in (1.0, 5.0, 10.0, 25.0, 50.0):
        tab = bessel_table(int(2 * x) + 60, x)
        assert abs(tab[0] ** 2 + 2.0 * np.sum(tab[1:] ** 2) - 1.0) < 1e-12


def test_chebyshev_u_against_scipy():
    for n in range(0, 12):
        for x in (-0.9, -0.3, 0.0, 0.45, 0.99):
            assert chebyshev_u(n, x) == pytest.approx(sp.eval_chebyu(n, x), abs=1e-12)


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
