"""Test harness for the memory contract and for call stubs.

`traced()` measures the traced peak of a block; test modules import it
(`from conftest import traced`).  The fixtures patch through pytest's
monkeypatch, so every patch ends with its test:
- `gate_covers(call)`: one byte less of budget than the traced peak of
  call() refuses the call; returns the peak.
- `held_counts(module)`: the list of check_held counts made through module.
- `forbid(target, *names)`: each named attribute fails the test if called.
- `calls(target, name, key)`: the original still runs; the list gets
  key(*args, **kwargs) for each call.
"""

import contextlib
import tracemalloc
from types import SimpleNamespace

import pytest

from chainlab import DomainError, specfun


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
