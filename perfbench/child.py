"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds workload, seed, size, mode ("setup", "plain" or "trace"),
the output directory and the result path.  The child imports numpy and
chainlab, builds the workload's inputs and records that moment on the
system-wide monotonic clock, so the runner can take set-up time from its
own spawn time.  Unless the mode is "setup" it then runs the workload's
`chainlab.cli.main` calls in the timed region and writes the region's
start and end on the same clock (the runner picks the speed monitor's
samples by them), exit codes, captured stdout and, when traced, the
per-layer spans to the result file.
Output checks run in the runner, after this process has exited.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])

    from chainlab import cli  # imports numpy too

    import workloads

    params = workloads.draw(spec["workload"], spec["seed"])
    argvs = workloads.calls(spec["workload"], params, spec["size"], spec["out"])
    result = {"t_ready": time.clock_gettime(time.CLOCK_MONOTONIC)}

    if spec["mode"] != "setup":
        tracer = None
        if spec["mode"] == "trace":
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        codes = []
        captured = io.StringIO()
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        with contextlib.redirect_stdout(captured):
            for argv in argvs:
                if tracer is None:
                    codes.append(cli.main(argv))
                else:
                    codes.append(tracer.call(f"cli.{argv[0]}", cli.main, argv))
        t1 = time.clock_gettime(time.CLOCK_MONOTONIC)
        result["t_start"], result["t_end"], result["wall_s"] = t0, t1, t1 - t0
        result["codes"] = codes
        result["stdout"] = captured.getvalue()
        if tracer is not None:
            result["spans"] = tracer.report()

    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
