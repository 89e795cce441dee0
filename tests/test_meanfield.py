import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_properties import PROPERTY

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
    solve_gap_equation,
)

P = BCSParams(eps=0.25, lam=1.0, T=0.2)


# su(2) structure constants c^j_{kl} = eps_{jkl}: the reference form of the bracket
EPS3 = np.zeros((3, 3, 3))
for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[i, j, k] = 1.0
    EPS3[i, k, j] = -1.0

vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(np.array)


@PROPERTY
@given(a=vectors, b=vectors, c=vectors, F=vectors)
def test_bracket_is_the_structure_constant_form_and_satisfies_jacobi(a, b, c, F):
    # {Q, F_j} = -c^l_{kj} d_k Q F_l, summed over the eps tensor
    assert np.array_equal(bracket_flow_rhs(a, F), -np.einsum("lkj,k,l->j", EPS3, a, F))
    assert berezin_bracket(b, c, F) == -berezin_bracket(c, b, F)
    # for linear Q_b(F) = b.F, {Q_b, Q_c} is linear with gradient -(b x c)
    cyclic = sum(berezin_bracket(x, -np.cross(y, z), F) for x, y, z in ((a, b, c), (b, c, a), (c, a, b)))
    assert abs(cyclic) < 1e-14


def test_bracket_antisymmetry():
    F = np.array([0.2, -0.5, 0.3])
    g1 = np.array([1.0, 0.5, -0.2])
    g2 = np.array([-0.3, 0.8, 0.1])
    assert berezin_bracket(g1, g2, F) == pytest.approx(-berezin_bracket(g2, g1, F), abs=1e-14)
    assert berezin_bracket(g1, g1, F) == pytest.approx(0.0, abs=1e-14)


def test_rk4_matches_exact_flow():
    # one integration sampled at both times; each row is the scalar call to the bit
    F0 = np.array([0.3, -0.1, 0.2])
    ts = np.array([1.0, 3.0])
    num = flow_rk4(F0, ts, 0.001, P)
    assert num.shape == (2, 3)
    assert np.max(np.abs(num - bcs_flow_exact(F0, ts, P))) < 1e-6
    U = cocycle_evolve(F0, ts, 0.0005, P)
    for t, F, Ut in zip(ts, num, U):
        assert np.array_equal(F, flow_rk4(F0, t, 0.001, P))
        assert np.array_equal(Ut, cocycle_evolve(F0, t, 0.0005, P))
    cases = [(bad, 0.001) for bad in ([3.0, 1.0], -1.0, [-0.5, 1.0], np.inf, [1.0, np.inf], np.nan, [1.0, np.nan])]
    for bad, dt in cases + [(1e300, 5e-324)]:  # the last has no finite step count
        with pytest.raises(DomainError):
            flow_rk4(F0, bad, dt, P)
        with pytest.raises(DomainError):
            cocycle_evolve(F0, bad, dt, P)
    for dt in (0.0, -0.001, np.nan):
        with pytest.raises(DomainError):
            flow_rk4(F0, 1.0, dt, P)


def test_rk4_keeps_criterion_13_values_to_the_bit():
    # criterion 13's F0, p and steps: a change of step count or of the order of the arithmetic shows here
    F0 = np.array([0.3, -0.1, 0.2])
    F = flow_rk4(F0, [3.0, 10.0], 0.001, P)
    assert [v.hex() for v in F.ravel().tolist()] == [
        "0x1.0737d56bcc01dp-2", "-0x1.79387484fa6d7p-3", "0x1.999999999999ap-3",
        "0x1.3f41c80119f69p-4", "-0x1.39d3abf5cd5f2p-2", "0x1.999999999999ap-3",
    ]
    U = cocycle_evolve(F0, 3.0, 0.0005, P)
    assert [(v.real.hex(), v.imag.hex()) for v in U.ravel().tolist()] == [
        ("0x1.6d23ad8330808p-2", "0x1.1506a8d79be1bp-1"), ("-0x1.626e909d13a44p-2", "0x1.5b5dcb8386b22p-1"),
        ("0x1.626e909d13a44p-2", "0x1.5b5dcb8386b22p-1"), ("0x1.6d23ad8330808p-2", "-0x1.1506a8d79be1bp-1"),
    ]


def _bloch_ball(rng, n):
    """n points uniform in the ball |F| <= 1/2 of the spin-1/2 states."""
    v = rng.normal(size=(n, 3))
    return 0.5 * rng.uniform(size=(n, 1)) ** (1.0 / 3.0) * v / np.linalg.norm(v, axis=1, keepdims=True)


def test_cocycle_transports_the_orbit_at_rounding_level():
    # U M(0) U^dagger = M(t), M = F . sigma, along the exact flow, and U stays unitary; one product per
    # step applied 14000 times in sequence read up to 1.3e-14 here, the pairwise product 5.6e-16
    for F0 in [np.array([0.3, -0.1, 0.2]), *_bloch_ball(np.random.default_rng(2026), 10)]:
        for t in (1.0, 3.0, 7.0):
            U = cocycle_evolve(F0, t, 0.0005, P)
            M0, Mt = np.tensordot(F0, SIGMA, 1), np.tensordot(bcs_flow_exact(F0, t, P), SIGMA, 1)
            assert np.max(np.abs(U @ M0 @ U.conj().T - Mt)) <= 1e-15
            assert np.max(np.abs(U @ U.conj().T - np.eye(2))) <= 1e-15


def test_rk4_takes_a_step_over_an_interval_shorter_than_half_dt():
    # round(0.4) = 0, but a positive interval takes one step
    F0 = np.array([0.3, -0.1, 0.2])
    F = flow_rk4(F0, 0.0004, 0.001, P)
    assert np.max(np.abs(F - F0)) > 1e-5
    assert np.max(np.abs(F - bcs_flow_exact(F0, 0.0004, P))) < 1e-15
    U = cocycle_evolve(F0, 0.0002, 0.0005, P)
    assert np.max(np.abs(U - np.eye(2))) > 1e-5
    X0 = -P.eps * SIGMA[2] - P.lam * (F0[0] * SIGMA[0] + F0[1] * SIGMA[1])
    assert np.max(np.abs(U - (np.eye(2) - 2e-4j * X0))) < 1e-7  # first order in t
    assert np.array_equal(flow_rk4(F0, [0.0, 0.0], 0.001, P), [F0, F0])  # no interval, no step


@pytest.mark.parametrize("evolve", [flow_rk4, cocycle_evolve])
def test_rk4_counts_its_stages_before_it_builds_them(gate_covers, evolve):
    # the stage arrays of 1e15 steps are refused before any is built
    F0 = np.array([0.3, -0.1, 0.2])
    with pytest.raises(DomainError):
        evolve(F0, 1e12, 1e-3, P)
    # the count covers the traced peak of 2000 steps in two intervals: one byte less of budget refuses it
    gate_covers(lambda: evolve(F0, [0.5, 2.0], 1e-3, P))


def test_exact_flow_rotates_in_plane():
    F0 = np.array([0.3, -0.1, 0.2])
    Ft = bcs_flow_exact(F0, 2.0, P)
    assert Ft[2] == pytest.approx(F0[2])
    assert np.hypot(Ft[0], Ft[1]) == pytest.approx(np.hypot(F0[0], F0[1]), abs=1e-14)


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


@pytest.mark.parametrize("T", [0.05, 0.2, 0.4])
def test_superconducting_solution_is_a_gibbs_fixed_point(T):
    # the mean-field state is its own Gibbs state: s(F) = 2F (measured 3.7e-13, 6.6e-13, 2.5e-13)
    p = BCSParams(eps=0.25, lam=1.0, T=T)
    (sc,) = [s for s in solve_gap_equation(p) if s.kind == "superconducting"]
    assert np.max(np.abs(gibbs_expectations(sc.F, p) - 2.0 * sc.F)) < 1e-10


def test_gap_equation_needs_a_positive_temperature():
    with pytest.raises(DomainError):
        solve_gap_equation(BCSParams(eps=0.25, lam=1.0, T=0.0))


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
