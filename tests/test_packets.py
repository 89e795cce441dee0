from math import pi

import numpy as np
import pytest

from chainlab.detector import DetectorRun
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
    for pk in (gaussian_packet(g, 0.7), gaussian_packet(g, 2.0), bump_packet(g)):
        assert overlap(pk, pk) == pytest.approx(1.0, abs=1e-10)
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
    for pk in (gaussian_packet(g, 1.3), bump_packet(g)):
        assert np.max(np.abs(pk.amplitude_at(g.nodes) - pk.amplitude)) < 1e-12


def _bump_sine_sum(p: np.ndarray, R: float) -> np.ndarray:
    """The unnormalized bump profile as the direct midpoint sine sum, in row blocks."""
    r = np.linspace(0.0, R, 4001)[:-1] + R / 8000.0
    dr = R / 4000.0
    with np.errstate(divide="ignore", over="ignore"):
        b = np.exp(-1.0 / np.maximum(1.0 - (r / R) ** 2, 1e-300))
    s = np.empty(p.size)
    for i in range(0, p.size, 128):
        rows = p[i : i + 128, None]
        s[i : i + 128] = np.sqrt(2.0 / pi) * np.sum(r[None, :] * np.sin(rows * r[None, :]) * b[None, :], axis=1) * dr
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(p == 0.0, np.sqrt(2.0 / pi) * np.sum(r**2 * b) * dr, s / np.where(p == 0.0, 1.0, p))


def test_bump_profile_matches_direct_sine_sum():
    g = default_grid()
    profile = bump_packet(g).profile
    fine = DetectorRun(T=60.0).p_fine
    rng = np.random.default_rng(3)
    scattered = np.concatenate([[0.0, 12.0, 40.0], rng.uniform(0.0, 2.0 * g.p_max, 200)])
    for p in (g.nodes, fine, scattered):
        ref = _bump_sine_sum(p, 2.0)
        # relative to the set's largest value: where the transform has cancelled to ~1e-10 of
        # its peak, both sums keep only the rounding of the peak-sized terms
        assert np.max(np.abs(profile(p) - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_ghat_support_and_total_weight():
    g = default_grid()
    pk = gaussian_packet(g, 2.0)
    assert np.all(ghat_radial(pk, np.array([0.5, 3.0])) == 0.0)
    u = np.linspace(-120.0, 0.0, 600001)
    total = np.trapezoid(ghat_radial(pk, u), u) / np.sqrt(2.0 * np.pi)
    # equals the t=0 survival amplitude, i.e. 1
    assert total == pytest.approx(1.0, abs=2e-4)
