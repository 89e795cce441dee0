import numpy as np
import pytest

from chainlab.packets import (
    bump_packet,
    default_grid,
    gaussian_packet,
    ghat_radial,
    overlap,
)


def test_grid_integrates_polynomials_exactly():
    g = default_grid(p_max=4.0, panels=8, order=6)
    assert g.integrate(g.nodes**7) == pytest.approx(4.0**8 / 8.0, rel=1e-13)


def test_packets_are_normalized():
    g = default_grid()
    for pk in (gaussian_packet(g, 0.7), gaussian_packet(g, 2.0), bump_packet(g, 2.0)):
        assert pk.norm_sq() == pytest.approx(1.0, abs=1e-10)
        pk.check_normalized()


def test_gaussian_width_validation():
    with pytest.raises(ValueError):
        gaussian_packet(default_grid(), 0.0)


def test_overlap_is_hermitian_and_bounded():
    g = default_grid()
    a = gaussian_packet(g, 1.0)
    b = gaussian_packet(g, 2.0)
    assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)), abs=1e-14)
    assert abs(overlap(a, b)) < 1.0
    assert overlap(a, a) == pytest.approx(1.0, abs=1e-12)


def test_profile_matches_sampled_amplitude():
    g = default_grid()
    for pk in (gaussian_packet(g, 1.3), bump_packet(g, 2.0)):
        assert np.max(np.abs(pk.amplitude_at(g.nodes) - pk.amplitude)) < 1e-12


def test_ghat_support_and_total_weight():
    g = default_grid()
    pk = gaussian_packet(g, 2.0)
    assert np.all(ghat_radial(pk, np.array([0.5, 3.0])) == 0.0)
    u = np.linspace(-120.0, 0.0, 600001)
    total = np.trapezoid(ghat_radial(pk, u), u) / np.sqrt(2.0 * np.pi)
    # equals the t=0 survival amplitude, i.e. 1
    assert total == pytest.approx(1.0, abs=2e-4)
