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
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import DomainError, meanfield, projection, qdomino, radiating, xychain
from .dense_oracle import check_dense_dimension

__all__ = ["main"]

# largest --steps, and most points of a --j range: a time grid, a site list and their CSV rows stay
# a few hundred MB at most
_MAX_STEPS = 10**6
# rows per % in _write_csv: one chunk's values and line text are held at a time besides the formatted text
_CSV_CHUNK = 1024


class _Parser(argparse.ArgumentParser):
    """Raises DomainError (exit 1) where argparse would exit with status 2."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    return "%.12g" % float(x)


def _write_csv(path: Path, comments: list[str], header: list[str], rows) -> None:
    """Format every row, then write; a non-finite number raises ValueError and writes nothing.

    _CSV_CHUNK rows at a time go through one % on a line template taken from the first row: %s for a
    string column, %.12g otherwise, which formats any number as _fmt does.  Each chunk becomes one string,
    so a long table holds its text and one chunk of rows.
    """
    rows = iter(rows)
    text, line = [], None
    while chunk := list(itertools.islice(rows, _CSV_CHUNK)):
        if line is None:
            numeric = [not isinstance(x, str) for x in chunk[0]]
            line = ",".join("%.12g" if n else "%s" for n in numeric) + "\n"
        flat = tuple(itertools.chain.from_iterable(chunk))
        finite = np.isfinite(np.fromiter(itertools.compress(flat, itertools.cycle(numeric)), float))
        if not finite.all():
            row = chunk[np.argmin(finite) // sum(numeric)]
            bad = [h for h, x in zip(header, row) if not isinstance(x, str) and not math.isfinite(x)]
            raise ValueError(f"non-finite {', '.join(bad)} in {path.name}")
        text.append(line * len(chunk) % flat)
    with open(path, "w", newline="\n") as fh:
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(text)


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
    lo, hi = int(lo), int(hi)
    if hi - lo >= _MAX_STEPS:  # refused before the list is built
        raise DomainError(f"range {text!r} has more than {_MAX_STEPS} points")
    return list(range(lo, hi + 1))


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
    idx = np.rint(np.linspace(0, run.n, min(args.steps, run.n + 1))).astype(int)
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


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line's parser: with only the subparser of `command` when it names a subcommand, else with all."""
    # name: (help, default --steps, the runner, its own flags); verify writes no table, so it has no
    # --out or --steps, and main runs it without a runner
    commands = {
        "domino": ("quantum domino flip probabilities", 201, _run_domino,
                   [("--j", {"default": "2..6"}), ("--t", {"default": "0..50"})]),
        "xy": ("x-y chain occupations", 201, _run_xy,
               [("--j", {"default": "-3..3"}), ("--t", {"default": "0..50"}),
                ("--kappa", {"type": float, "default": 1.0})]),
        "detector": ("particle-detector amplitude and probability", 401, _run_detector,
                     [("--gamma", {"type": float, "default": 0.5}), ("--dt", {"type": float, "default": 0.02}),
                      ("--T", {"type": float, "default": 200.0})]),
        "radiate": ("radiating finite chain decay", 301, _run_radiate,
                    [("--N", {"type": int, "default": 6}), ("--M", {"type": int, "default": 400}),
                     ("--v", {"type": float, "default": 0.7}), ("--t", {"default": "0..90"})]),
        "meanfield": ("BCS phase diagram", 60, _run_meanfield,
                      [("--eps", {"type": float, "default": 0.25}),
                       ("--lambda", {"dest": "lam", "type": float, "default": 1.0}),
                       ("--T", {"default": "0.01..0.6"})]),
        "orbit": ("projected two-level phase-space circles", 253, _run_orbit,
                  [("--re0", {"type": float, "default": 1.0}), ("--im0", {"type": float, "default": 0.5}),
                   ("--lam", {"type": float, "default": 1.0}), ("--a", {"type": float, "default": 1.0}),
                   ("--t", {"default": "0..12.6"})]),
        "verify": ("run the acceptance suite", None, None,
                   [("--only", {"default": None, "help": "comma-separated criterion numbers"})]),
    }
    top = _Parser(prog="chainlab", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)
    for name in [command] if command in commands else commands:
        text, steps, fn, flags = commands[name]
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="key=value config file")
        if fn is not None:
            p.add_argument("--out", default=".", help="output directory")
            p.add_argument("--steps", type=int, default=steps)
            p.set_defaults(fn=fn)
        for flag, kwargs in flags:
            p.add_argument(flag, **kwargs)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
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

