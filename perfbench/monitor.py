"""Machine-speed monitor: times a fixed reference kernel over and over.

    python3 perfbench/monitor.py SAMPLES_PATH

Appends one line "start duration cpu" per sample to SAMPLES_PATH, until
it is terminated or its parent has gone: start and duration in seconds on
the system-wide monotonic clock, cpu the sample's own CPU time, which
like a repetition's CPU time leaves out time the hypervisor stole.  The
runner pins this process and every repetition to the same CPU, so a
sample taken while a repetition runs shares that CPU with it and slows
down much as the repetition does when the host is contended (noisy
neighbours, steal time).  The kernel mixes what chainlab's workloads do:
a complex exponential of an outer product reduced by a matrix-vector
product, as in the free-amplitude quadrature; a loop of ufuncs on a short
array, as in the Bessel recurrences; and an interpreted loop.
"""

from __future__ import annotations

import os
import signal
import sys
import time

import numpy as np

INTERVAL_S = 0.25
P2 = np.linspace(0.0, 8.0, 4000) ** 2
C = np.exp(-P2) * (1.0 + 0.3j)
T = np.linspace(0.0, 1.0, 50)
X = np.linspace(0.1, 30.0, 200)


def kernel() -> int:
    np.exp(-1j * np.outer(T, P2)) @ C
    y = X
    for _ in range(1500):
        y = 0.5 * np.sin(y) + X
    s = 0
    for i in range(60000):
        s += i * i % 7
    return s


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    kernel()  # warm-up, not recorded
    with open(sys.argv[1], "w") as out:
        while os.getppid() == parent:
            t0, c0 = time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
            kernel()
            t1, c1 = time.clock_gettime(time.CLOCK_MONOTONIC), time.process_time()
            out.write(f"{t0!r} {t1 - t0!r} {c1 - c0!r}\n")
            out.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main()
