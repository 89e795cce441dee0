"""Property tests: identities that must hold over the whole parameter range.

Each chain-model example draws an array of arguments, which one Bessel
table serves.  Arguments are log-uniform, so the small-argument start,
the wave front and the asymptotic tail get equal weight.  The mean-field
flow and the CLI are swept over their parameters and flags.
"""

import filecmp
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlab import dense_oracle, projection
from chainlab.cli import main
from chainlab.meanfield import BCSParams, bcs_gradient, flow_rk4
from chainlab.qdomino import flip_probability, green_finite, green_infinite
from chainlab.specfun import bessel_j, bessel_table, finite_kernel
from chainlab.xychain import evolution_coefficient, occupation

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


def arrays(lo, hi):
    exponents = st.floats(min_value=np.log10(lo), max_value=np.log10(hi))
    return st.lists(exponents, min_size=1, max_size=16).map(lambda u: 10.0 ** np.array(u))


@PROPERTY
@given(n=st.integers(0, 200), x=arrays(1e-3, 500.0))
def test_bessel_normalization(n, x):
    # the table reaches past the Airy zone, so the dropped tail is below 1e-16
    tab = bessel_table(n + int(np.ceil(np.max(x))) + 60, x)
    assert np.max(np.abs(tab[0] ** 2 + 2.0 * np.sum(tab[1:] ** 2, axis=0) - 1.0)) < 1e-12


@PROPERTY
@given(n=st.integers(1, 600), x=arrays(1e-3, 500.0))
def test_bessel_three_term_recurrence(n, x):
    jm, jn, jp = bessel_table(n + 1, x)[n - 1 :]
    rhs = 2.0 * n / x * jn
    assert np.all(np.abs(jm + jp - rhs) < 1e-13 * np.maximum(1.0, np.abs(rhs)))


@PROPERTY
@given(n=st.integers(0, 200), x=arrays(1e-3, 500.0))
def test_bessel_parity(n, x):
    # J_{-n}(x) = J_n(-x) = (-1)^n J_n(x); the table's recurrence runs on the signed argument
    sign = (-1.0) ** n
    assert np.array_equal(bessel_table(n, -x)[n], sign * bessel_table(n, x)[n])
    x0 = float(x[0])
    ref = bessel_j(n, x0)
    assert bessel_j(-n, x0) == sign * ref
    assert bessel_j(n, -x0) == sign * ref


_SMEARING = projection.gaussian_packet(0.1)
_FLIP_FLOP = dense_oracle.Propagator(dense_oracle.build_flip_flop_hamiltonian(4))
# a Hermitian and a non-Hermitian observable, for the real and the complex form
_OBSERVABLES = (dense_oracle.site_number_op(4, 1), dense_oracle.DenseOperator(dense_oracle.spin_ops(4, 1)[0]))


@PROPERTY
@given(n=st.integers(1, 8), m=st.integers(1, 8), order=st.integers(-30, 30), t=arrays(1e-3, 50.0))
def test_array_times_match_scalar_calls(n, m, order, t):
    def agrees(fn):
        ref = np.array([fn(x) for x in t])
        # a list of times is taken like the array
        return all(np.max(np.abs(fn(times) - ref)) <= 1e-14 for times in (t, list(t)))

    assert agrees(lambda s: green_finite(n, m, 8, s))
    assert agrees(lambda s: green_infinite(n, m, s))
    assert agrees(lambda s: evolution_coefficient(order, s, 0.7))
    assert agrees(lambda s: bessel_j(order, s))
    assert agrees(lambda s: finite_kernel(order, 8, s))
    assert agrees(lambda q: projection.smeared_potential(np.cos, _SMEARING, q))
    psi_t = _FLIP_FLOP.apply(dense_oracle.basis_state([1, 1, 0, 0]), t)
    for A in _OBSERVABLES:
        stack = dense_oracle.expectation(psi_t, A)
        assert np.max(np.abs(stack - np.array([dense_oracle.expectation(psi, A) for psi in psi_t]))) <= 1e-14


@PROPERTY
@given(j=st.integers(-40, 40), t=arrays(1e-3, 200.0), kappa=st.floats(-3.0, 3.0))
def test_xy_particle_hole_symmetry(j, t, kappa):
    assert np.max(np.abs(occupation(j, t, kappa) + occupation(-j - 1, t, kappa) - 1.0)) < 1e-12


@PROPERTY
@given(j=st.integers(1, 30), t=arrays(1e-3, 500.0))
def test_flip_probability_is_a_probability(j, t):
    p = flip_probability(j, t)
    assert np.all((p >= 0.0) & (p <= 1.0))


@PROPERTY
@given(F0=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       eps=st.floats(0.01, 2.0), lam=st.floats(0.01, 2.0))
def test_flow_conserves_casimir(F0, eps, lam):
    p = BCSParams(eps=eps, lam=lam)
    F0 = np.array(F0)
    Ft = flow_rk4(lambda F: bcs_gradient(F, p), F0, 1.0, 0.004)
    assert abs(Ft @ Ft - F0 @ F0) < 1e-8


@PROPERTY
@given(command=st.sampled_from(["domino", "xy"]), j0=st.integers(-5, 5), sites=st.integers(1, 4),
       t_max=st.floats(0.0, 60.0), steps=st.integers(1, 40))
def test_csv_is_deterministic(command, j0, sites, t_max, steps):
    # the second run reads the same values from a config file: a config line is its flag
    if command == "domino":
        j0 = abs(j0) + 1
    values = {"j": f"{j0}..{j0 + sites - 1}", "t": f"0..{t_max!r}", "steps": str(steps)}
    name = "domino_flip.csv" if command == "domino" else "xy_occupation.csv"
    with tempfile.TemporaryDirectory() as tmp:
        a, b, cfg = Path(tmp, "a"), Path(tmp, "b"), Path(tmp, "run.cfg")
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        assert main([command, *(f"--{k}={v}" for k, v in values.items()), "--out", str(a)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(b)]) == 0
        assert filecmp.cmp(a / name, b / name, shallow=False)
