"""The names the benchmark's span recorder wraps must exist in chainlab.

perfbench/spans.py replaces these functions and methods before a traced
run; a name that no longer exists breaks only that run.
"""

import importlib
import importlib.util
from pathlib import Path

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
