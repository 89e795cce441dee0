"""Property tests: identities that must hold over the whole parameter range.

Each example draws an array of arguments, which one Bessel table serves.
Arguments are log-uniform, so the small-argument start, the wave front
and the asymptotic tail get equal weight.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlab.qdomino import flip_probability
from chainlab.specfun import bessel_table
from chainlab.xychain import occupation

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
@given(j=st.integers(-40, 40), t=arrays(1e-3, 200.0), kappa=st.floats(-3.0, 3.0))
def test_xy_particle_hole_symmetry(j, t, kappa):
    assert np.max(np.abs(occupation(j, t, kappa) + occupation(-j - 1, t, kappa) - 1.0)) < 1e-12


@PROPERTY
@given(j=st.integers(1, 30), t=arrays(1e-3, 500.0))
def test_flip_probability_is_a_probability(j, t):
    p = flip_probability(j, t)
    assert np.all((p >= 0.0) & (p <= 1.0))
