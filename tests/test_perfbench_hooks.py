"""The names the benchmark's span recorder wraps must exist in chainlab.

perfbench/spans.py replaces these functions and methods before a traced
run, and its work counters take the wrapped callables' arguments; a name
that no longer exists, or a changed signature, breaks only that run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from chainlab.dense_oracle import build_island_hamiltonian
from chainlab.detector import DetectorRun

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_wrapped_functions_exist():
    for name in spans.FUNCTIONS:
        modname, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"chainlab.{modname}"), attr, None)), name


def test_wrapped_detector_methods_exist():
    for attr in spans.DETECTOR_METHODS:
        assert callable(getattr(DetectorRun, attr, None)), attr
    assert isinstance(DetectorRun.K, property)


def test_work_counters_accept_real_arguments():
    # each counter is called with the wrapped callable's arguments
    assert set(spans.WORK) == {"specfun.bessel_table", "numpy.fft", "dense_oracle.Propagator"}
    assert spans.WORK["specfun.bessel_table"][1](5, np.zeros(7)) == 42
    assert spans.WORK["numpy.fft"][1](np.zeros((8, 3)), 16, axis=0) == 48
    assert spans.WORK["numpy.fft"][1](np.zeros((3, 8))) == 24
    assert spans.WORK["dense_oracle.Propagator"][1](None, build_island_hamiltonian(3)) == 27
