#!/usr/bin/env python3
"""partsketch benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload fig1-desk --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
Every workload runs in fresh interpreters (``workload.py``), one at a time,
with BLAS pinned to one thread:

1. ``prepare``: writes the workload's inputs and warms caches; not measured.
2. With ``--trace 0``: one interpreter sets up and runs the closed loop for
   ``--seconds``, with two set-up-only interpreters before it and two after.
   ``setup_s`` is the median of the five set-up times; the other metrics
   come from the loop.
3. With ``--trace 1``: one interpreter runs the loop for half of
   ``--seconds`` untraced, then replays the same calls traced, and reports
   the per-layer metrics.

Prints a report line, then, as the last line of stdout, the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exits non-zero, without
a result, when the workload cannot run at all (for example when ``src`` is
missing).  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from tracer import median
from workload import THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0  # the whole run, all interpreters included
PAPER_FIG2_TRIALS = 4 * 50_000  # 2 methods x 2 sample counts x 50 000 runs


class WorkloadFailed(Exception):
    pass


def child(mode: str, args, work: Path, deadline: float) -> dict:
    """Run ``workload.py`` in a fresh interpreter; its last stdout line as a dict."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "workload.py"), "--mode", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--work-dir", str(work)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkloadFailed(f"time limit reached before the {mode} step")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkloadFailed(f"{mode} step exceeded the time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkloadFailed(f"{mode} step exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "partsketch" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'partsketch'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        child("prepare", args, work, deadline)
        if args.trace:
            result = child("trace", args, work, deadline)
            metrics = result["metrics"]
        else:
            # Set-up samples before and after the loop, so they see more than one host state.
            setups = [child("setup", args, work, deadline) for _ in range(SETUP_SAMPLES // 2)]
            result = child("run", args, work, deadline)
            setups.append(result)
            setups += [child("setup", args, work, deadline) for _ in range(SETUP_SAMPLES - len(setups))]
            metrics = {"setup_s": {"value": median(s["setup_s"] for s in setups), "unit": "s"},
                       **result["metrics"]}
            result["report"]["setup_samples_s"] = [s["setup_s"] for s in setups]
            result["report"]["raw_setup_samples_s"] = [s["setup_s_raw"] for s in setups]
    except WorkloadFailed as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "failed_frac": result["failed"] / result["attempted"],
              "failures": result["failures"], **result["report"]}
    if args.workload == "fig2-paper" and not args.trace:
        # Derived, not a metric: the paper-scale fig2 job at this trial rate.
        report["paper_fig2_minutes"] = PAPER_FIG2_TRIALS / metrics["ops_per_s"]["value"] / 60
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
