"""Output checks, run by the runner after every repetition has exited.

Each check compares an output against an independent route (scipy's
Bessel functions, a closed form, the second detection-probability
route) or an invariant.  Checks with a deviation and a threshold also
give the accuracy margin log10(threshold / deviation).  The margin is
capped at MARGIN_CAP decades, which a deviation of exactly 0 also gets;
a workload with no numeric check (verify, whose criteria report their
deviations only inside formatted text) reports the cap.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import jv

import workloads

MARGIN_CAP = 16.0

# thresholds of the numeric checks; CSVs carry 12 significant digits
W_ROUTES_TOL = 1e-6       # as in test_detection_probability_routes_agree
BESSEL_SUM_TOL = 1e-10
TC_TOL = 1e-10
ORBIT_RADIUS_TOL = 1e-8    # coordinates near 1 print with ~5e-12 rounding
RADIATE_MIN_PEAK = 0.95


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    deviation: float | None = None
    threshold: float | None = None

    def margin(self) -> float | None:
        if self.deviation is None:
            return None
        if self.deviation <= 0.0:
            return MARGIN_CAP
        return min(MARGIN_CAP, math.log10(self.threshold / self.deviation))


def _within(name: str, deviation: float, threshold: float) -> Check:
    deviation = float(deviation)
    return Check(name, bool(deviation < threshold), deviation, threshold)


def _read_csv(path: Path):
    comments, rows, header = [], [], None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def _numeric(rows) -> np.ndarray:
    return np.array(rows, dtype=float)


def _check_detector(params, out: Path) -> list[Check]:
    comments, _, rows = _read_csv(out / "detector_amplitude.csv")
    data = _numeric(rows)
    found = [re.search(r"time route (\S+), spectral route (\S+)", c) for c in comments]
    routes = [float(v) for m in found if m for v in m.groups()]
    return [
        Check("detector CSV finite", bool(data.size and np.all(np.isfinite(data)))),
        Check("detector |F|^2 <= 1", bool(np.all(data[:, 3] <= 1.0))),
        _within("detector w time vs spectral route", abs(routes[0] - routes[1]), W_ROUTES_TOL),
    ]


def _flip_reference(j: int, t: np.ndarray) -> np.ndarray:
    safe = np.where(t == 0.0, 1.0, t)
    m = np.arange(1, j)[:, None]
    residual = np.sum((m * jv(m, 2.0 * t[None, :]) / safe[None, :]) ** 2, axis=0)
    return np.where(t == 0.0, 0.0, 1.0 - residual)


def _occupation_reference(j: int, t: np.ndarray, kappa: float = 1.0) -> np.ndarray:
    x = kappa * t
    r = np.arange(1, abs(j) + int(np.ceil(np.max(np.abs(x)))) + 61)[:, None]
    total = np.sum(jv(np.abs(j + r), x[None, :]) ** 2, axis=0)
    return np.where(x == 0.0, 1.0 if j <= -1 else 0.0, total)


def _check_chain(params, out: Path) -> list[Check]:
    checks = []
    _, header, rows = _read_csv(out / "domino_flip.csv")
    data = _numeric(rows)
    dev = max(
        np.max(np.abs(data[:, k] - _flip_reference(int(name.removeprefix("flip_j")), data[:, 0])))
        for k, name in enumerate(header) if k
    )
    checks.append(_within("domino flip vs scipy Bessel sum", dev, BESSEL_SUM_TOL))

    _, header, rows = _read_csv(out / "xy_occupation.csv")
    data = _numeric(rows)
    dev = max(
        np.max(np.abs(data[:, k] - _occupation_reference(int(name.removeprefix("occ_j")), data[:, 0])))
        for k, name in enumerate(header) if k
    )
    checks.append(_within("xy occupation vs scipy Bessel sum", dev, BESSEL_SUM_TOL))

    _, _, rows = _read_csv(out / "radiate_decay.csv")
    peak = float(np.max(_numeric(rows)[:, 1]))
    checks.append(Check("radiate peak decay > 0.95", peak > RADIATE_MIN_PEAK))

    comments, _, _ = _read_csv(out / "meanfield_phase.csv")
    tc = [float(c.rsplit(" ", 1)[1]) for c in comments if c.startswith("critical temperature")]
    tc_ref = params["eps"] / math.atanh(2.0 * params["eps"] / params["lam"])
    checks.append(_within("meanfield T_c vs eps/atanh(2 eps/lam)", abs(tc[0] - tc_ref), TC_TOL))

    _, _, rows = _read_csv(out / "orbit_circles.csv")
    data = _numeric(rows)
    z0 = complex(params["re0"], params["im0"])
    f = math.exp(-abs(z0) ** 2 / 2.0)  # lam = a = 1, the CLI defaults
    zq = data[:, 1] + 1j * data[:, 2]
    zc = data[:, 3] + 1j * data[:, 4]
    dev_q = np.max(np.abs(np.abs(zq - (1.0 - f) * z0) - f * abs(z0)))
    dev_c = np.max(np.abs(np.abs(zc) - abs(z0)))
    checks.append(_within("orbit quantum radius constant", dev_q, ORBIT_RADIUS_TOL))
    checks.append(_within("orbit classical radius constant", dev_c, ORBIT_RADIUS_TOL))
    return checks


def _check_verify(stdout: str, size: str) -> list[Check]:
    lines = stdout.splitlines()
    return [
        Check(f"verify criterion {n:02d}", any(line.startswith(f"criterion {n:02d} PASS") for line in lines))
        for n in workloads.criteria(size)
    ]


def check_repetition(workload: str, params: dict, size: str, out: Path, codes, stdout: str) -> list[Check]:
    """Checks of one repetition; an unreadable output fails one check."""
    checks = [Check(f"exit code of call {i}", code == 0) for i, code in enumerate(codes)]
    try:
        if workload == "detector-cli":
            checks += _check_detector(params, out)
        elif workload == "chain-sweep":
            checks += _check_chain(params, out)
        else:
            checks += _check_verify(stdout, size)
    except (OSError, ValueError, IndexError) as exc:
        checks.append(Check(f"outputs readable ({type(exc).__name__}: {exc})", False))
    return checks


def output_digest(out: Path, stdout: str) -> str:
    """Digest of every CSV a repetition wrote, plus verify's printed lines."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(out.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()
