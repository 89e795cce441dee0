import math

import numpy as np
import pytest
import scipy.special as sp

from chainlab import xychain
from chainlab.xychain import evolution_coefficient, occupation, recurrence_coefficients


def test_recurrence_sums_to_propagator():
    # sum_m (it)^m/m! c^(m)(r) reproduces (-i)^|r| J_|r|(kappa t)
    kappa, t = 1.3, 1.1
    c = recurrence_coefficients(45, kappa)
    for r in (0, 1, -2, 4):
        s = sum((1j * t) ** m / math.factorial(m) * c[m, r + 45] for m in range(46))
        assert s == pytest.approx(evolution_coefficient(r, t, kappa), abs=1e-12)


def test_recurrence_support_and_parity():
    c = recurrence_coefficients(10, 0.7)  # c[m, p + 10]
    assert c.shape == (11, 21)
    assert np.array_equal(c, c[:, ::-1])
    for m in range(11):
        for p in range(-10, 11):
            if abs(p) > m or (m + p) % 2 == 1:
                assert c[m, p + 10] == 0.0
            else:
                assert c[m, p + 10] != 0.0


def test_evolution_coefficient_unitarity():
    kappa, t = 1.0, 6.0
    total = sum(abs(evolution_coefficient(r, t, kappa)) ** 2 for r in range(-60, 61))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_occupation_closed_form_at_origin():
    for t in (0.5, 2.0, 11.0, 37.0):
        ref = 0.5 * (1.0 - sp.jv(0, t) ** 2)
        assert occupation(0, t, 1.0) == pytest.approx(ref, abs=1e-12)


def test_occupation_particle_hole_symmetry():
    for j in (0, 1, 3):
        for t in (0.7, 4.0):
            assert occupation(j, t, 1.0) + occupation(-j - 1, t, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_occupation_initial_state():
    assert occupation(2, 0.0, 1.0) == pytest.approx(0.0)
    assert occupation(-2, 0.0, 1.0) == pytest.approx(1.0)


def test_occupation_accepts_time_arrays():
    t = np.array([0.0, 0.4, 3.0, 25.0, -6.0])
    for j in (-4, -1, 0, 2):
        for kappa in (1.0, 0.6, -1.3):
            vals = occupation(j, t, kappa)
            assert vals.shape == t.shape
            assert np.max(np.abs(vals - [occupation(j, tv, kappa) for tv in t])) <= 1e-15
    assert isinstance(occupation(1, 2.0, 1.0), float)


def test_occupation_uses_one_bessel_table(calls):
    # the normalization identity adds the tail exactly, so no larger table is needed
    tables = calls(xychain, "bessel_table", lambda n_max, x: n_max)
    occupation(0, 1e3, 1.0)
    assert len(tables) == 1


def test_occupation_explicit_bessel_sum():
    j, t, kappa = 2, 3.0, 0.8
    ref = sum(sp.jv(abs(j + r), kappa * t) ** 2 for r in range(1, 400))
    assert occupation(j, t, kappa) == pytest.approx(ref, abs=1e-12)
