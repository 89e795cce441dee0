"""Experiment runner: one subcommand per model, CSV emission, verify driver.

Configuration is flat key=value (file via --config).  A key is a long
flag name without `--` (for example `lambda = 1`); each line is read as
the flag `--key=value` placed before the command-line flags, so an
explicit flag wins even when it equals its default.  CSV files start
with `#` comment lines describing each column, then a header row; all
numbers are printed with %.12g so identical configs give byte-identical
outputs.  A table subcommand's runner returns (file name, comments,
header, rows) and `main` writes that CSV; `verify` only prints.

Exit codes: 0 success, 1 configuration error (every malformed command
line too: an unknown flag or key, an unparsable value, a missing
subcommand), 2 numerical-invariant failure (an arithmetic error too).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import DomainError, meanfield, projection, qdomino, radiating, xychain
from .dense_oracle import check_dense_dimension

__all__ = ["main"]

# largest --steps: a time grid and its CSV rows stay a few hundred MB at most
_MAX_STEPS = 10**6


class _Parser(argparse.ArgumentParser):
    """Raises DomainError (exit 1) where argparse would exit with status 2."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return "%.12g" % float(x)


def _write_csv(path: Path, comments: list[str], header: list[str], rows) -> None:
    """Format every row, then write; a non-finite number raises ValueError and writes nothing."""
    lines = []
    for row in rows:
        bad = [h for h, x in zip(header, row) if not isinstance(x, str) and not math.isfinite(x)]
        if bad:
            raise ValueError(f"non-finite {', '.join(bad)} in {path.name}")
        lines.append(",".join(_fmt(x) for x in row))
    with open(path, "w", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line + "\n")


def _parse_range(text: str):
    """'a..b' inclusive range of finite numbers; a bare number is a single-point range."""
    parts = text.split("..")
    try:
        bounds = [float(x) for x in parts]
    except ValueError:
        bounds = []
    if len(bounds) not in (1, 2):
        raise DomainError(f"cannot parse range {text!r}; expected 'a..b'")
    lo, hi = bounds[0], bounds[-1]
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"range {text!r} must have finite bounds")
    return lo, hi


def _int_points(text: str) -> list[int]:
    lo, hi = _parse_range(text)
    if lo != int(lo) or hi != int(hi):
        raise DomainError(f"range {text!r} must be integer")
    if lo > hi:
        raise DomainError(f"range {text!r} is empty")
    return list(range(int(lo), int(hi) + 1))


def _grid(text: str, steps: int) -> np.ndarray:
    lo, hi = _parse_range(text)
    return np.linspace(lo, hi, steps)


def _config_flags(path: str) -> list[str]:
    """Each `key = value` line of the file as the flag token `--key=value`."""
    p = Path(path)
    if not p.is_file():
        raise DomainError(f"config file {path} not found")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"config file {path} is not UTF-8 text: {exc}") from exc
    flags = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        k, sep, v = line.partition("=")
        # an empty key, `config` and every prefix argparse resolves to --config all start "config"
        if not sep or "config".startswith(k.strip()):
            raise DomainError(f"config line {line!r} is not key=value with a key other than config")
        flags.append(f"--{k.strip()}={v.strip()}")
    return flags


def _run_domino(args):
    js = _int_points(args.j)
    t = _grid(args.t, args.steps)
    cols = [t, *qdomino.flip_probability(js, t)]
    return (
        "domino_flip.csv",
        ["quantum domino chain: probability that spin j has flipped by time t",
         "columns: time, then one flip-probability column per site"],
        ["t"] + [f"flip_j{j}" for j in js],
        zip(*cols),
    )


def _run_xy(args):
    js = _int_points(args.j)
    t = _grid(args.t, args.steps)
    if args.kappa == 0:
        raise DomainError("kappa must be nonzero")
    # t <= 0 keeps the static step profile
    cols = [t, *np.where(t > 0, xychain.occupation(js, t, args.kappa), np.less_equal(js, -1)[:, None])]
    return (
        "xy_occupation.csv",
        ["x-y chain site occupations from the half-filled initial state",
         "columns: time, then one occupation column per site index"],
        ["t"] + [f"occ_j{j}" for j in js],
        zip(*cols),
    )


def _run_detector(args):
    from . import detector as det

    run = det.DetectorRun(args.gamma, dt=args.dt, T=args.T)
    run.check_weak_coupling()
    F = run.solution
    w_time = run.detection_w()
    w_spec = run.detection_w_spectral()
    gap = abs(w_time - w_spec)
    if not gap <= det.W_ROUTE_TOL:  # also catches NaN
        raise ValueError(f"detection probability routes differ by {gap:.3g} > {det.W_ROUTE_TOL:g}")
    stride = max(1, run.n // max(args.steps - 1, 1))
    idx = np.arange(0, run.n + 1, stride)
    return (
        "detector_amplitude.csv",
        ["no-flip amplitude F(t) of the particle-detector model",
         f"detection probability: time route {_fmt(w_time)}, spectral route {_fmt(w_spec)}",
         "columns: time, Re F, Im F, |F|^2"],
        ["t", "re_F", "im_F", "abs2_F"],
        ((run.t[i], F[i].real, F[i].imag, abs(F[i]) ** 2) for i in idx),
    )


def _run_radiate(args):
    check_dense_dimension(args.N + args.M)  # before default_params's self-energy integral
    p = radiating.default_params(N=args.N, v=args.v)
    chain = radiating.build_modes(p, M=args.M)
    t = _grid(args.t, args.steps)
    series = radiating.decay_series(chain, t)
    return (
        "radiate_decay.csv",
        ["finite chain radiating into a discretized continuum",
         f"level shift eps0 {_fmt(p.eps0)}, recurrence time {_fmt(radiating.recurrence_time(chain))}",
         "columns: time, radiated-sector weight"],
        ["t", "decay"],
        zip(t, series),
    )


def _run_meanfield(args):
    temps = sorted(set(_grid(args.T, args.steps)))
    p0 = meanfield.BCSParams(eps=args.eps, lam=args.lam, T=1.0)
    comments = ["BCS mean-field phase diagram: gap and representative equilibrium point",
                "columns: temperature, phase kind, gap a, F1, F3"]
    try:
        tc = meanfield.critical_temperature(p0)
        temps = sorted(set(temps) | {tc})
        comments.insert(1, f"critical temperature (closed form) {_fmt(tc)}")
    except ValueError:
        pass  # no superconducting phase, so no T_c to add
    rows = []
    for T in temps:
        sols = meanfield.solve_gap_equation(meanfield.BCSParams(eps=args.eps, lam=args.lam, T=T))
        best = sols[-1]
        rows.append((T, best.kind, best.a, best.F[0], best.F[2]))
    return "meanfield_phase.csv", comments, ["T", "kind", "gap_a", "F1", "F3"], rows


def _run_orbit(args):
    z0 = complex(args.re0, args.im0)
    t = _grid(args.t, args.steps)
    zq = projection.quantum_trajectory(z0, args.lam, t, args.a)
    zc = projection.classical_trajectory(z0, args.lam, t, args.a)
    return (
        "orbit_circles.csv",
        ["phase-space circles of the projected two-level dynamics",
         "columns: time, quantum orbit (re, im), classical orbit (re, im)"],
        ["t", "re_q", "im_q", "re_cl", "im_cl"],
        zip(t, zq.real, zq.imag, zc.real, zc.imag),
    )


def _run_verify(args) -> int:
    from . import acceptance

    numbers = None
    if args.only is not None:
        try:
            numbers = [int(x) for x in args.only.split(",")]
        except ValueError:
            raise DomainError(f"cannot parse criterion list {args.only!r}")
        unknown = [k for k in numbers if not 1 <= k <= len(acceptance.CRITERIA)]
        if unknown:
            raise DomainError(f"no criterion numbered {unknown}; valid are 1..{len(acceptance.CRITERIA)}")
    results = acceptance.run_all(numbers)
    all_ok = True
    for r in results:
        print(r.line)
        all_ok = all_ok and r.passed
    print("acceptance:", "all criteria passed" if all_ok else "FAILURES present")
    return 0 if all_ok else 2


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="chainlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, steps):
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--steps", type=int, default=steps)

    p = sub.add_parser("domino", help="quantum domino flip probabilities")
    common(p, 201)
    p.add_argument("--j", default="2..6")
    p.add_argument("--t", default="0..50")
    p.set_defaults(fn=_run_domino)

    p = sub.add_parser("xy", help="x-y chain occupations")
    common(p, 201)
    p.add_argument("--j", default="-3..3")
    p.add_argument("--t", default="0..50")
    p.add_argument("--kappa", type=float, default=1.0)
    p.set_defaults(fn=_run_xy)

    p = sub.add_parser("detector", help="particle-detector amplitude and probability")
    common(p, 401)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--dt", type=float, default=0.02)
    p.add_argument("--T", type=float, default=200.0)
    p.set_defaults(fn=_run_detector)

    p = sub.add_parser("radiate", help="radiating finite chain decay")
    common(p, 301)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--M", type=int, default=400)
    p.add_argument("--v", type=float, default=0.7)
    p.add_argument("--t", default="0..90")
    p.set_defaults(fn=_run_radiate)

    p = sub.add_parser("meanfield", help="BCS phase diagram")
    common(p, 60)
    p.add_argument("--eps", type=float, default=0.25)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--T", default="0.01..0.6")
    p.set_defaults(fn=_run_meanfield)

    p = sub.add_parser("orbit", help="projected two-level phase-space circles")
    common(p, 253)
    p.add_argument("--re0", type=float, default=1.0)
    p.add_argument("--im0", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--t", default="0..12.6")
    p.set_defaults(fn=_run_orbit)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        bad = [k for k, v in vars(args).items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            raise DomainError(f"non-finite value for {', '.join(bad)}")
        if not 1 <= getattr(args, "steps", 1) <= _MAX_STEPS:
            raise DomainError(f"steps must lie in 1..{_MAX_STEPS}")
        if args.command == "verify":
            return _run_verify(args)
        name, *table = args.fn(args)  # the table before the directory
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise DomainError(f"output path {args.out}: {exc}") from exc
        _write_csv(Path(args.out) / name, *table)
        return 0
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical invariant violated: {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

