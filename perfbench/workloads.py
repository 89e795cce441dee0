"""Workload inputs: the `chainlab` command lines each workload runs.

The seed draws only model parameters that leave the problem size alone,
so every seed costs the same work.  Standard library only: the runner
imports this module before it spawns any repetition and must stay small
in memory (a child inherits its parent's peak RSS at exec).
"""

from __future__ import annotations

import random

WORKLOADS = ("detector-cli", "verify", "chain-sweep")
SIZES = ("full", "tiny")

# Criteria run by the tiny verify: one cheap numeric claim, one mean-field
# claim and the CSV-determinism claim, so the self-test stays fast.
TINY_CRITERIA = (4, 12, 16)


def draw(workload: str, seed: int) -> dict:
    """Model parameters of one workload, drawn from the seed."""
    rng = random.Random(seed)
    if workload == "detector-cli":
        return {"gamma": round(rng.uniform(0.45, 0.55), 6)}
    if workload == "verify":
        return {}
    if workload == "chain-sweep":
        return {
            "v": round(rng.uniform(0.6, 0.8), 6),
            "eps": round(rng.uniform(0.15, 0.35), 6),
            "lam": round(rng.uniform(0.9, 1.2), 6),
            "re0": round(rng.uniform(0.5, 1.5), 6),
            "im0": round(rng.uniform(-1.0, 1.0), 6),
        }
    raise ValueError(f"unknown workload {workload!r}")


def calls(workload: str, params: dict, size: str, out: str) -> list[list[str]]:
    """The argument lists passed to `chainlab.cli.main`, in order."""
    tiny = size == "tiny"
    if workload == "detector-cli":
        argv = ["detector", "--gamma", repr(params["gamma"]), "--out", out]
        return [argv + (["--T", "5", "--steps", "11"] if tiny else [])]
    if workload == "verify":
        only = ["--only", ",".join(map(str, TINY_CRITERIA))] if tiny else []
        return [["verify"] + only]
    if workload == "chain-sweep":
        small = ["--t", "0..10", "--steps", "11"] if tiny else []
        return [
            ["domino", "--out", out] + small,
            ["xy", "--out", out] + small,
            ["radiate", "--v", repr(params["v"]), "--out", out],
            ["meanfield", "--eps", repr(params["eps"]), "--lambda", repr(params["lam"]), "--out", out],
            ["orbit", "--re0", repr(params["re0"]), "--im0", repr(params["im0"]), "--out", out],
        ]
    raise ValueError(f"unknown workload {workload!r}")


def criteria(size: str) -> tuple[int, ...]:
    """Criterion numbers the verify workload runs."""
    return TINY_CRITERIA if size == "tiny" else tuple(range(1, 17))
