#!/usr/bin/env python3
"""Benchmark of the qdecoupling library: one workload per invocation.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 25 --trace 0

Each workload runs in its own fresh worker process with one BLAS thread.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics (setup_s, jobs_per_s, job_p50_ms, peak_rss_mb).  Set-up
is measured in the timed worker and in extra set-up-only workers, and its
median is reported.  Times are adjusted to a reference machine speed that
each worker measures with a fixed kernel (see worker.SpeedProbe); the
unadjusted values go to standard error.  With ``--trace 1`` a traced worker
reports per-layer metrics per job instead.  Exit code 0 when every job ran
and every output passed its checks, 1 when a check failed, 2 when a worker
could not run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("curve", "mc", "optimize")
# Set-up-only workers started besides the timed one; set-up is their median.
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, timeout: float) -> tuple[float, dict]:
    """Start one worker; returns (monotonic start time, its JSON result)."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    try:
        return started, json.loads(lines[-1])
    except ValueError as exc:
        raise WorkerError(f"{mode} worker printed no result: {lines[-1][:200]!r}") from exc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        if args.trace:
            _, res = run_worker(args, "trace", WORKER_TIMEOUT_S)
            metrics = res["layers"]
        else:
            started, res = run_worker(args, "timed", WORKER_TIMEOUT_S)
            setups = [(res["ready"] - started, res["speed"])]
            for _ in range(SETUP_PROBES):
                t0, probe = run_worker(args, "setup", deadline - time.monotonic())
                setups.append((probe["ready"] - t0, probe["speed"]))
            raw = {"setup_s": statistics.median(s for s, _ in setups),
                   **{k: res[k] for k in ("jobs_per_s", "job_p50_ms", "peak_rss_mb")}}
            values = {"setup_s": statistics.median(s / speed for s, speed in setups),
                      "jobs_per_s": res["jobs_per_s"] * res["speed"],
                      "job_p50_ms": res["job_p50_ms"] / res["speed"],
                      "peak_rss_mb": res["peak_rss_mb"]}
            print(f"perfbench: machine speed {1.0 / res['speed']:.3f} of reference; "
                  f"unadjusted {json.dumps(raw)}", file=sys.stderr)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = res["problems"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1



if __name__ == "__main__":
    sys.exit(main())
