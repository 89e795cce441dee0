"""chainlab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from anywhere inside a chainlab checkout; it uses the package
source under the checkout's `src/` as it stands (nothing to build) and
reads the metric names and units from the checkout's BENCHMARK.json.

Every repetition runs in a fresh interpreter (module-level caches in the
package must not carry over) with the BLAS/OpenMP thread count pinned to
BLAS_THREADS, and its CPU time and peak RSS come from os.wait4 on that
child alone.  The runner, its children and the speed monitor (monitor.py)
all run on one CPU.  With --trace 0 it repeats the workload until
--seconds have passed and prints the end-to-end metrics as medians over
repetitions; wall and CPU time are normalised to a fixed machine speed by
the monitor samples taken while each repetition ran (see _speed).
Set-up time is the median over SETUP_PROBES set-up-only interpreters
and every repetition.  With --trace 1 it runs one plain and one traced
repetition and prints the per-layer metrics of the traced one.  Outputs are
checked after the children have exited, outside any timed region; the
last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

# One BLAS thread: on 2 cores, unpinned OpenBLAS threads add CPU time and
# scheduler noise to detector-cli but no speed.
BLAS_THREADS = 1
SETUP_PROBES = 8
RUN_DEADLINE_S = 170.0
POLL_S = 0.02
# Mean duration and mean CPU time of one monitor sample that shares its
# CPU with a busy repetition on an uncontended host (2-core Xeon VM).  A
# normalised time is the time the repetition would have taken at that
# machine speed.  CPU time leaves out stolen time, so it is scaled by the
# samples' CPU time, and wall time by their duration.
REF_SAMPLE_S = 0.045
REF_SAMPLE_CPU_S = 0.022


@dataclass
class Repetition:
    out: Path
    exit_code: int
    setup_s: float | None = None
    cpu_s: float = 0.0
    rss_mib: float = 0.0
    result: dict | None = None

    @property
    def ran(self) -> bool:
        return self.result is not None and "wall_s" in self.result


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", default="full", choices=workloads.SIZES,
                   help="tiny runs the same calls on small inputs (self-test only)")
    return p.parse_args(argv)


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["TMPDIR"] = str(tmp)  # keeps verify's temporary CSVs inside the checkout
    return env


def _spawn(args, mode: str, rep_dir: Path, deadline: float) -> Repetition:
    out, tmp = rep_dir / "out", rep_dir / "tmp"
    out.mkdir(parents=True)
    tmp.mkdir()
    result_path = rep_dir / "result.json"
    spec = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "mode": mode, "out": str(out), "result": str(result_path)}
    with open(rep_dir / "log.txt", "w") as log:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                                cwd=rep_dir, env=_child_env(tmp), stdout=log, stderr=log)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL_S)
        except BaseException:  # interrupted: leave no repetition running
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = Repetition(out=out, exit_code=proc.returncode,
                     cpu_s=usage.ru_utime + usage.ru_stime, rss_mib=usage.ru_maxrss / 1024.0)
    if proc.returncode == 0 and result_path.is_file():
        rep.result = json.loads(result_path.read_text())
        rep.setup_s = rep.result["t_ready"] - t_spawn
    else:
        sys.stderr.write((rep_dir / "log.txt").read_text()[-4000:])
    return rep


def _read_samples(path: Path) -> list[tuple[float, float, float]]:
    samples = []
    for line in path.read_text().splitlines() if path.is_file() else []:
        fields = line.split()
        if len(fields) == 3:  # a sample cut off by the monitor's termination has fewer
            samples.append(tuple(map(float, fields)))
    return samples


def _speed(rep: Repetition, samples: list, field: int, ref: float) -> float:
    """ref over the mean of one field of the monitor samples taken inside the timed region.

    field 1 is the samples' duration, 2 their CPU time.  A repetition
    shorter than one sampling interval (the tiny self-test sizes) may have
    no sample of its own; it uses all samples of the run.
    """
    t0, t1 = rep.result["t_start"], rep.result["t_end"]
    inside = [x[field] for x in samples if t0 <= x[0] and x[0] + x[1] <= t1]
    return ref / statistics.fmean(inside or [x[field] for x in samples])


def _layer_value(name: str, plain: Repetition, traced: Repetition) -> float:
    if name == "trace.overhead_s":
        return traced.result["wall_s"] - plain.result["wall_s"]
    if name == "trace.wall_s":
        return traced.result["wall_s"]
    stat_name, field = name.rsplit(".", 1)
    stat = traced.result["spans"][stat_name]
    if field in ("calls", "self_s", "total_s"):
        return stat[field]
    if field == "wall_s":
        return stat["total_s"]
    if spans.WORK.get(stat_name, (None,))[0] == field:
        return stat["work"]
    raise KeyError(f"no per-layer value {name!r}")


def _environment() -> str:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"nproc={os.cpu_count()} blas_threads={BLAS_THREADS} python={sys.version.split()[0]} "
            f"numpy={np.__version__} scipy={scipy.__version__} blas={blas}")


def _report(args, bench: dict, probes: list, reps: list, samples: list) -> int:
    # imports numpy and scipy only now: every child has exited, so the
    # runner's own memory cannot show in a child's peak RSS
    import checks

    params = workloads.draw(args.workload, args.seed)
    found = []
    for rep in reps:
        if rep.ran:
            found += checks.check_repetition(args.workload, params, args.size, rep.out,
                                             rep.result["codes"], rep.result["stdout"])
        else:
            found.append(checks.Check(f"repetition exited cleanly (code {rep.exit_code})", False))
    ran = [rep for rep in reps if rep.ran]
    digests = [checks.output_digest(rep.out, rep.result["stdout"]) for rep in ran]
    found += [checks.Check("outputs byte-identical to first repetition", d == digests[0]) for d in digests[1:]]
    setups = [rep.setup_s for rep in probes + reps if rep.setup_s is not None]
    if not ran or not setups or (args.trace and len(ran) < 2):
        print("perfbench: no repetition completed; nothing to report", file=sys.stderr)
        return 1
    if not args.trace and not samples:
        print("perfbench: the speed monitor recorded no sample; nothing to report", file=sys.stderr)
        return 1

    if args.trace:
        plain, traced = ran[0], ran[-1]
        values = {m["name"]: _layer_value(m["name"], plain, traced) for m in bench["per_layer"]}
        wanted = bench["per_layer"]
    else:
        margins = [m for m in (c.margin() for c in found) if m is not None]
        wall_f = [_speed(rep, samples, 1, REF_SAMPLE_S) for rep in ran]
        cpu_f = [_speed(rep, samples, 2, REF_SAMPLE_CPU_S) for rep in ran]
        raw = (f"# raw medians: wall_s={statistics.median(rep.result['wall_s'] for rep in ran):.6g} "
               f"cpu_s={statistics.median(rep.cpu_s for rep in ran):.6g} "
               f"speed factors wall={[round(f, 4) for f in wall_f]} cpu={[round(f, 4) for f in cpu_f]} "
               f"monitor_samples={len(samples)}")
        values = {
            "wall_norm_s": statistics.median(rep.result["wall_s"] * f for rep, f in zip(ran, wall_f)),
            "setup_s": statistics.median(setups),
            "cpu_norm_s": statistics.median(rep.cpu_s * f for rep, f in zip(ran, cpu_f)),
            "peak_rss_mb": statistics.median(rep.rss_mib for rep in ran),
            "accuracy_margin_decades": min(margins, default=checks.MARGIN_CAP),
        }
        wanted = bench["end_to_end"]

    failed = [c for c in found if not c.ok]
    print(f"# env {_environment()}")
    if not args.trace:
        print(raw)
    print(f"# workload={args.workload} seed={args.seed} size={args.size} params={json.dumps(params)} "
          f"repetitions={len(reps)} setup_samples={len(setups)}")
    print(f"# checks attempted={len(found)} failed={len(failed)} "
          f"check_fail_frac={len(failed) / len(found):.6g}")
    for c in failed:
        print(f"# FAILED {c.name}" + (f": {c.deviation:.3e} >= {c.threshold:.1e}" if c.deviation is not None else ""))
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(found), "failed": len(failed), "metrics": metrics}))
    return 0


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
    proc.wait()


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so the finally clauses run
    args = _parse_args(argv)
    if not (ROOT / "src" / "chainlab" / "__init__.py").is_file():
        print(f"perfbench: no chainlab package under {ROOT / 'src'}; run inside a chainlab checkout",
              file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK_DIR / f"run-{os.getpid()}"
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # inherited by every child
    monitor = None
    samples_path = work / "samples.txt"
    try:
        work.mkdir(parents=True)
        if args.trace:
            probes = []
            reps = [_spawn(args, "plain", work / "rep-0", deadline),
                    _spawn(args, "trace", work / "rep-1", deadline)]
        else:
            monitor = subprocess.Popen([sys.executable, str(HERE / "monitor.py"), str(samples_path)],
                                       env=_child_env(work), stdin=subprocess.DEVNULL,
                                       stdout=subprocess.DEVNULL)
            probes = [_spawn(args, "setup", work / f"setup-{i}", deadline) for i in range(SETUP_PROBES)]
            reps = []
            start = time.monotonic()
            while not reps or time.monotonic() - start < args.seconds:
                rep = _spawn(args, "plain", work / f"rep-{len(reps)}", deadline)
                reps.append(rep)
                if not rep.ran or time.monotonic() + rep.result["wall_s"] > deadline:
                    break
            _stop(monitor)
        return _report(args, bench, probes, reps, _read_samples(samples_path))
    finally:
        if monitor is not None:
            _stop(monitor)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


if __name__ == "__main__":
    sys.exit(main())
