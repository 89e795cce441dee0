"""Test harness for the memory contract and for call stubs.

`traced()` measures the traced peak of a block, and `one_shot(prop, psi0, t)`
is the reference product the propagation tests compare with; test modules
import them (`from conftest import one_shot, traced`).  The fixtures patch
through pytest's monkeypatch, so every patch ends with its test:
- `gate_covers(call)`: one byte less of budget than the traced peak of
  call() refuses the call; returns the peak.
- `held_counts(module)`: the list of check_held counts made through module.
- `forbid(target, *names)`: each named attribute fails the test if called.
- `calls(target, name, key)`: the original still runs; the list gets
  key(*args, **kwargs) for each call.
"""

import contextlib
import os
import tracemalloc
from types import SimpleNamespace

# one BLAS thread, the setting every hex pin and full-precision gate was recorded at; set before numpy
# loads, and an explicit setting in the environment wins
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from chainlab import DomainError, specfun  # noqa: E402


@contextlib.contextmanager
def traced():
    """Trace allocations in the block; the yielded object's .peak is then its traced peak in bytes."""
    trace = SimpleNamespace(peak=None)
    tracemalloc.start()
    try:
        yield trace
        trace.peak = tracemalloc.get_traced_memory()[1]  # after stop() the peak reads 0
    finally:
        tracemalloc.stop()


def one_shot(prop, psi0, t):
    """exp(-itH) psi0 as one product over every time, the form each block of Propagator.blocks equals to the bit.

    The modes enter as one C-ordered complex copy of modes.T: for real modes it is the copy numpy casts
    modes.T to in `modes.conj().T @ psi0` and in `@ modes.T`.
    """
    mt = prop.modes.T.astype(complex, order="C")
    c = (mt.conj() if np.iscomplexobj(prop.modes) else mt) @ np.asarray(psi0, dtype=complex)
    return (np.exp(-1j * np.multiply.outer(t, prop.energies)) * c) @ mt


@pytest.fixture
def gate_covers(monkeypatch):
    def covers(call):
        with traced() as trace:
            call()
        with monkeypatch.context() as m:
            m.setattr(specfun, "_MAX_HELD_BYTES", trace.peak - 1)
            with pytest.raises(DomainError):
                call()
        return trace.peak

    return covers


@pytest.fixture
def held_counts(monkeypatch):
    def record(module):
        counts = []

        def counted(held, what):
            counts.append(held + specfun._FIXED_WORK_BYTES)
            specfun.check_held(held, what)

        monkeypatch.setattr(module, "check_held", counted)
        return counts

    return record


@pytest.fixture
def forbid(monkeypatch):
    def stub(target, *names, raising=True):
        for name in names:
            def must_not_run(*args, _name=name, **kwargs):
                pytest.fail(f"{_name} was called")

            monkeypatch.setattr(target, name, must_not_run, raising=raising)

    return stub


@pytest.fixture
def calls(monkeypatch):
    def record(target, name, key=lambda *args, **kwargs: None):
        seen, original = [], getattr(target, name)

        def recorded(*args, **kwargs):
            seen.append(key(*args, **kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, recorded)
        return seen

    return record
