import math

import numpy as np
import pytest

from chainlab import DomainError
from chainlab.projection import (
    classical_period,
    classical_trajectory,
    gaussian_packet,
    quantum_period,
    quantum_trajectory,
    renormalization_f,
    smeared_potential,
)


def test_packet_density_normalized():
    pk = gaussian_packet(0.3)
    assert np.trapezoid(pk.density, pk.grid) == pytest.approx(1.0, abs=1e-10)


def test_packet_width_validation():
    with pytest.raises(ValueError):
        gaussian_packet(-0.1)


def test_smeared_potential_converges_pointwise():
    errs = []
    for width in (0.3, 0.1, 1e-2):
        pk = gaussian_packet(width)
        errs.append(max(abs(smeared_potential(np.cos, pk, q) - math.cos(q)) for q in (0.0, 0.7, 2.1)))
    assert errs[2] < 1e-3
    assert errs[0] > errs[1] > errs[2]


def test_renormalization_decays_with_radius():
    assert renormalization_f(0.0, 1.0, 2.0) == pytest.approx(2.0)
    assert renormalization_f(3.0 + 0j, 1.0, 2.0) < renormalization_f(1.0 + 0j, 1.0, 2.0)


def test_quantum_circle_closed_form_structure():
    z0, lam, a = 0.9 + 0.2j, 1.3, 0.7
    f = renormalization_f(z0, lam, a)
    for t in (0.4, 2.7):
        ref = (1.0 - f / a) * z0 + (f / a) * np.exp(-1j * t * a / lam**2) * z0
        assert quantum_trajectory(z0, lam, t, a) == pytest.approx(ref, abs=1e-14)


def test_classical_circle_uniform_rotation():
    z0, lam, a = 0.9 + 0.2j, 1.3, 0.7
    f = renormalization_f(z0, lam, a)
    for t in (0.4, 2.7):
        ref = z0 * np.exp(-1j * t * f / lam**2)
        assert classical_trajectory(z0, lam, t, a) == pytest.approx(ref, abs=1e-14)
        assert abs(classical_trajectory(z0, lam, t, a)) == pytest.approx(abs(z0), abs=1e-14)


def test_zero_lambda_is_outside_the_domain():
    with pytest.raises(DomainError):
        classical_trajectory(1.0 + 0.5j, 0.0, np.linspace(0.0, 1.0, 3), 1.0)


def test_periods():
    lam, a = 1.3, 0.7
    z0 = 0.9 + 0.2j
    assert quantum_period(lam, a) == pytest.approx(2.0 * math.pi * lam**2 / a)
    f = renormalization_f(z0, lam, a)
    assert classical_period(abs(z0), lam, a) == pytest.approx(2.0 * math.pi * lam**2 / f)
    # the classical orbit closes after its own period
    T = classical_period(abs(z0), lam, a)
    assert classical_trajectory(z0, lam, T, a) == pytest.approx(z0, abs=1e-12)
