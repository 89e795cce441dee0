"""Span recorder for the traced repetition.

The benchmark records spans from its own files: it replaces public
functions of the chainlab modules with wrappers before the timed region
and leaves the package source untouched.  Spans nest; each keeps the time
of its child spans, so a layer's self time is its duration minus the part
its children cover.  numpy is imported inside functions only: the runner
imports this module for WORK before it spawns any repetition.
"""

from __future__ import annotations

import sys
import time

CLI_COMMANDS = ("domino", "xy", "detector", "radiate", "meanfield", "orbit", "verify")

# Module-level functions, by "module.name".  A function imported by name
# into other modules (bessel_table lives in qdomino, xychain, detector and
# acceptance too) is replaced wherever it is bound.
FUNCTIONS = (
    "specfun.bessel_table",
    "qdomino.flip_probability",
    "qdomino.asymptotic_exponent",
    "xychain.occupation",
    "detector.povm_matrix",
    "radiating.default_params",
    "radiating.build_modes",
    "radiating.decay_series",
    "radiating.resolvent_check",
    "meanfield.solve_gap_equation",
    "meanfield.flow_rk4",
    "meanfield.cocycle_evolve",
)

# DetectorRun methods, reported as "detector.<name>", plus the property K.
# The property `g` computes through free_series, so wrapping the method
# sees both quadrature passes.
DETECTOR_METHODS = (
    "free_series",
    "free_series_multi",
    "solve_marching",
    "solve_neumann",
    "solve_fourier",
    "detection_w",
    "detection_w_spectral",
    "occupations_at",
    "p0_series",
)


def _bessel_entries(n_max, x):
    import numpy as np

    return (n_max + 1) * np.size(x)


def _fft_points(a, n=None, axis=-1, *rest, **kw):
    import numpy as np

    shape = np.shape(a)
    length = shape[axis] if shape else 1
    batch = (np.prod(shape) // length) if length else 0
    return (length if n is None else n) * batch


def _propagator_dim3(self, H):
    return H.dim**3


WORK = {
    "specfun.bessel_table": ("entries", _bessel_entries),
    "numpy.fft": ("points", _fft_points),
    "dense_oracle.Propagator": ("dim3", _propagator_dim3),
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Per-name call counts, inclusive and self time, and a work count."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._children: list[float] = []  # child time of each open span

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def wrap(self, fn, name: str):
        stat = self.stat(name)
        work = WORK.get(name, (None, None))[1]
        children = self._children
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - inner
                if work is not None:
                    stat.work += int(work(*args, **kwargs))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def call(self, name: str, fn, *args):
        return self.wrap(fn, name)(*args)

    def report(self) -> dict:
        return {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, "work": s.work}
            for name, s in self.stats.items()
        }


def _rebind(original, replacement) -> None:
    """Replace `original` in every chainlab module namespace that binds it."""
    for modname, mod in list(sys.modules.items()):
        if modname == "chainlab" or modname.startswith("chainlab."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; registers each name with zero counts."""
    import importlib

    import numpy as np

    from chainlab import acceptance, dense_oracle, detector

    for name in FUNCTIONS:
        modname, attr = name.split(".")
        mod = importlib.import_module(f"chainlab.{modname}")
        original = getattr(mod, attr)
        _rebind(original, tracer.wrap(original, name))

    run = detector.DetectorRun
    for attr in DETECTOR_METHODS:
        setattr(run, attr, tracer.wrap(getattr(run, attr), f"detector.{attr}"))
    run.K = property(tracer.wrap(run.K.fget, "detector.K"), doc=run.K.__doc__)

    prop_cls = dense_oracle.Propagator
    prop_cls.__init__ = tracer.wrap(prop_cls.__init__, "dense_oracle.Propagator")

    np.fft.fft = tracer.wrap(np.fft.fft, "numpy.fft")
    np.fft.ifft = tracer.wrap(np.fft.ifft, "numpy.fft")

    # run_all iterates this list, which holds the function objects themselves
    for i, fn in enumerate(acceptance.CRITERIA):
        acceptance.CRITERIA[i] = tracer.wrap(fn, f"acceptance.criterion_{i + 1:02d}")

    for cmd in CLI_COMMANDS:
        tracer.stat(f"cli.{cmd}")
