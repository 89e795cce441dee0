import math

import numpy as np
import pytest

from chainlab import DomainError
from chainlab.meanfield import (
    SIGMA,
    BCSParams,
    bcs_flow_exact,
    bcs_gradient,
    berezin_bracket,
    bracket_flow_rhs,
    cocycle_evolve,
    critical_temperature,
    direction_field,
    flow_rk4,
    gap_value,
    gibbs_expectations,
    ground_states,
    so3_constants,
    so3_rotate,
    solve_gap_equation,
    su2_constants,
)

P = BCSParams(eps=0.25, lam=1.0, T=0.2)


def test_structure_constants_satisfy_jacobi():
    assert np.max(np.abs(su2_constants().jacobi_residual())) < 1e-14
    assert np.max(np.abs(so3_constants().jacobi_residual())) < 1e-14


def test_bracket_antisymmetry():
    F = np.array([0.2, -0.5, 0.3])
    g1 = np.array([1.0, 0.5, -0.2])
    g2 = np.array([-0.3, 0.8, 0.1])
    assert berezin_bracket(g1, g2, F) == pytest.approx(-berezin_bracket(g2, g1, F), abs=1e-14)
    assert berezin_bracket(g1, g1, F) == pytest.approx(0.0, abs=1e-14)


def test_flow_preserves_casimir():
    F0 = np.array([0.3, -0.1, 0.2])
    Ft = flow_rk4(lambda F: bcs_gradient(F, P), F0, 10.0, 0.001)
    assert abs(np.dot(Ft, Ft) - np.dot(F0, F0)) < 1e-8


def test_rk4_matches_exact_flow():
    F0 = np.array([0.3, -0.1, 0.2])
    for t in (1.0, 3.0):
        num = flow_rk4(lambda F: bcs_gradient(F, P), F0, t, 0.001)
        assert np.max(np.abs(num - bcs_flow_exact(F0, t, P))) < 1e-6


def test_exact_flow_rotates_in_plane():
    F0 = np.array([0.3, -0.1, 0.2])
    Ft = bcs_flow_exact(F0, 2.0, P)
    assert Ft[2] == pytest.approx(F0[2])
    assert np.hypot(Ft[0], Ft[1]) == pytest.approx(np.hypot(F0[0], F0[1]), abs=1e-14)


def test_cocycle_transports_orbit():
    F0 = np.array([0.3, -0.1, 0.2])
    t = 3.0
    U = cocycle_evolve(F0, t, 0.0005, P)
    assert np.max(np.abs(U @ U.conj().T - np.eye(2))) < 1e-12
    assert abs(np.linalg.det(U) - 1.0) < 1e-12
    M0 = sum(F0[j] * SIGMA[j] for j in range(3))
    Mt = sum(bcs_flow_exact(F0, t, P)[j] * SIGMA[j] for j in range(3))
    assert np.max(np.abs(U @ M0 @ U.conj().T - Mt)) < 1e-6


def test_cocycle_matches_rotating_frame_closed_form():
    # X(F(s)) = exp(i w s sigma3/2) X0 exp(-i w s sigma3/2) with w = 2(eps - lam F3),
    # so U(t) = exp(i w t sigma3/2) exp(-i t (X0 + w sigma3/2))
    from scipy.linalg import expm

    F0 = np.array([0.3, -0.1, 0.2])
    t = 3.0
    w = 2.0 * (P.eps - P.lam * F0[2])
    X0 = -P.eps * SIGMA[2] - P.lam * (F0[0] * SIGMA[0] + F0[1] * SIGMA[1])
    ref = expm(0.5j * w * t * SIGMA[2]) @ expm(-1j * t * (X0 + 0.5 * w * SIGMA[2]))
    assert np.max(np.abs(cocycle_evolve(F0, t, 0.0005, P) - ref)) <= 1e-13


def test_rhs_is_bracket_with_coordinates():
    F = np.array([0.1, 0.4, -0.2])
    rhs = bracket_flow_rhs(bcs_gradient(F, P), F)
    for j in range(3):
        grad_coord = np.eye(3)[j]
        assert rhs[j] == pytest.approx(berezin_bracket(bcs_gradient(F, P), grad_coord, F), abs=1e-13)


def test_gap_equation_roots():
    sols = solve_gap_equation(P)
    kinds = {s.kind for s in sols}
    assert kinds == {"normal", "superconducting"}
    sc = next(s for s in sols if s.kind == "superconducting")
    assert sc.residual < 1e-10
    assert abs(2.0 * sc.a - P.lam * math.tanh(sc.a / P.T)) < 1e-10
    assert sc.F[2] == pytest.approx(P.eps / P.lam)


def test_gibbs_self_consistency_at_root():
    sc = next(s for s in solve_gap_equation(P) if s.kind == "superconducting")
    assert np.max(np.abs(gibbs_expectations(sc.F, P) - 2.0 * sc.F)) < 1e-10


def test_gap_equation_needs_a_positive_temperature():
    with pytest.raises(DomainError):
        solve_gap_equation(BCSParams(eps=0.25, lam=1.0, T=0.0))


def test_no_superconducting_branch_above_tc():
    warm = solve_gap_equation(BCSParams(eps=0.25, lam=1.0, T=0.6))
    assert [s.kind for s in warm] == ["normal"]


def test_critical_temperature_closed_form():
    assert critical_temperature(P) == pytest.approx(0.25 / math.atanh(0.5), abs=1e-12)
    with pytest.raises(ValueError):
        critical_temperature(BCSParams(eps=0.6, lam=1.0, T=0.1))


def test_branch_appears_exactly_below_tc():
    tc = critical_temperature(P)
    below = solve_gap_equation(BCSParams(eps=0.25, lam=1.0, T=tc - 1e-3))
    above = solve_gap_equation(BCSParams(eps=0.25, lam=1.0, T=tc + 1e-3))
    assert any(s.kind == "superconducting" for s in below)
    assert all(s.kind == "normal" for s in above)


def test_gap_and_direction_field():
    F = np.array([0.3, 0.0, 0.25])
    a = gap_value(F, P)
    assert a == pytest.approx(math.sqrt(0.25**2 + 0.3**2))
    n = direction_field(F, P)
    assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-14)


def test_ground_states_match_their_vectors():
    states = ground_states(P)
    for st in states:
        for j in range(3):
            val = 0.5 * np.vdot(st.chi, SIGMA[j] @ st.chi).real
            assert abs(val - st.F[j]) < 1e-12
    radius = max(st.radius for st in states)
    assert radius == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-14)


def test_ground_circle_has_constant_gap():
    for st in ground_states(P):
        if st.kind == "superconducting":
            assert gap_value(st.F, P) == pytest.approx(0.5 * P.lam, abs=1e-12)


def test_so3_rotation_closed_form():
    y = np.array([0.2, -0.7, 0.4])
    tau = np.array([0.0, 0.0, 1.0])
    out = so3_rotate(y, tau, np.pi / 2.0)
    assert np.allclose(out, [0.7, 0.2, 0.4], atol=1e-12)
    assert np.linalg.norm(so3_rotate(y, tau, 1.234)) == pytest.approx(np.linalg.norm(y), abs=1e-13)
    with pytest.raises(ValueError):
        so3_rotate(y, 2.0 * tau, 0.5)
