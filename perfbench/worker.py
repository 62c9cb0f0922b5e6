"""One workload in one fresh process: set up, then a timed or a traced run.

Started by ``run.py``; prints one JSON object as its last line of output.

* ``--mode setup``: imports, inputs and warm-up, then the time it was ready
  and the machine speed measured right after.
* ``--mode timed``: whole rounds of the workload's jobs until ``--seconds``
  have passed (at least two), with speed-probe slices between jobs, then the
  independent checks of every distinct output.
* ``--mode trace``: alternating untraced and traced rounds; per-layer
  metrics per job, and the spans written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

import tracing  # noqa: E402
import workloads  # noqa: E402

# The speed probe: a fixed kernel of small eigensolves and products, the
# library's own mix of numpy and interpreter work.  On the 2-core Xeon this
# benchmark was set up on, one slice takes about REF_SLICE_S.
REF_SLICE_S = 0.0075
PROBE_EVERY_S = 0.5
SETUP_SLICES = 20


class SpeedProbe:
    """Times slices of a fixed kernel to measure how fast the machine runs now.

    The machine's speed drifts by a fifth and more over minutes, in process
    CPU time as much as in wall time.  Times divided by ``speed()`` read as
    if the machine ran at its reference speed; that takes the drift out of
    a comparison between two runs while the program's own work stays in.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20261018)
        g = rng.standard_normal((50, 8, 8)) + 1j * rng.standard_normal((50, 8, 8))
        self.mats = [m @ m.conj().T for m in g]
        self.slices: list[float] = []
        self.last = time.perf_counter()

    def slice(self) -> float:
        t = time.perf_counter()
        for _ in range(5):
            for m in self.mats:
                w, v = np.linalg.eigh(m)
                (v * np.sqrt(np.abs(w))) @ v.conj().T
        self.last = time.perf_counter()
        self.slices.append(self.last - t)
        return self.last - t

    def due(self) -> bool:
        return time.perf_counter() - self.last >= PROBE_EVERY_S

    def speed(self) -> float:
        """Mean slice time over the reference: above 1 means a slow machine."""
        return statistics.fmean(self.slices) / REF_SLICE_S


def import_program():
    """The ``qdecoupling`` package from this checkout's ``src/``, never another copy."""
    src = (ROOT / "src").resolve()
    if not (src / "qdecoupling" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    qd = importlib.import_module("qdecoupling")
    if Path(qd.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported qdecoupling from {qd.__file__}, not {src}")
    importlib.import_module("qdecoupling.cli")
    return qd


class Rounds:
    """Runs whole rounds of jobs and keeps what the checks need."""

    def __init__(self, jobs: list[workloads.Job]):
        self.jobs = jobs
        self.first: list[bytes | None] = [None] * len(jobs)
        self.changed: set[str] = set()
        self.times: list[float] = []
        self.completed = [0] * len(jobs)
        self.attempted = 0
        self.failed = 0
        self.probe_s = 0.0

    def run_round(self, tracer: tracing.Tracer | None = None,
                  probe: SpeedProbe | None = None) -> float:
        """One pass over every job; returns its wall time in seconds."""
        t0 = time.perf_counter()
        for i, job in enumerate(self.jobs):
            if probe is not None and probe.due():
                self.probe_s += probe.slice()
            self.attempted += 1
            if tracer is not None:
                tracer.job = self.attempted
            t = time.perf_counter()
            try:
                result = job.call()
            except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
                self.failed += 1
                print(f"perfbench: job {job.name} failed", file=sys.stderr)
                traceback.print_exc()
                continue
            finally:
                if tracer is not None:
                    tracer.job = -1
            self.times.append(time.perf_counter() - t)
            self.completed[i] += 1
            blob = job.collect(result)
            if self.first[i] is None:
                self.first[i] = blob
            elif blob != self.first[i]:
                self.changed.add(job.name)
        return time.perf_counter() - t0

    def verify(self) -> tuple[list[str], int]:
        """Independent checks of each job's first output, and repeat identity.

        Returns the problems found and the number of failed attempts.  A job
        with a known fault that fails its check, but passes the check that
        allows for the fault, fails on every attempt; any other check
        failure is a problem, and makes the run incorrect.
        """
        problems = [f"{name}: output differs between rounds" for name in sorted(self.changed)]
        failed = self.failed
        for job, blob, n in zip(self.jobs, self.first, self.completed):
            found = [] if blob is None else job.check(blob)
            if found and job.check_known is not None:
                beyond = job.check_known(blob)
                if not beyond:
                    failed += n
                    print(f"perfbench: {job.name} fails its check ({len(found)} rows), "
                          f"as known: {job.known_fault}", file=sys.stderr)
                    continue
                found = beyond
            problems += [f"{job.name}: {p}" for p in found]
        for p in problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
        return problems, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    args = ap.parse_args(argv)

    qd = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        jobs, warm = workloads.build(qd, args.workload, args.seed, workdir)
        for job in warm:
            job.collect(job.call())
        ready = time.monotonic()
        probe = SpeedProbe()
        if args.mode == "setup":
            for _ in range(SETUP_SLICES):
                probe.slice()
            result = {"ready": ready, "speed": probe.speed()}
        elif args.mode == "timed":
            result = timed(jobs, args.seconds, ready, probe)
        else:
            result = traced(qd, jobs, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed(jobs, seconds: float, ready: float, probe: SpeedProbe) -> dict:
    """Whole rounds until ``seconds`` have passed, with probe slices between jobs.

    At least two rounds run, so that every job repeats.  Set-up is timed
    before the first slice; the slices' own time is left out of the timed
    phase.
    """
    rounds = Rounds(jobs)
    start = time.perf_counter()
    n_rounds = 0
    while n_rounds < 2 or time.perf_counter() - start < seconds:
        rounds.run_round(probe=probe)
        n_rounds += 1
    probe.slice()
    wall = time.perf_counter() - start - rounds.probe_s - probe.slices[-1]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems, failed = rounds.verify()
    return {
        "ready": ready,
        "speed": probe.speed(),
        "problems": len(problems),
        "attempted": rounds.attempted,
        "failed": failed,
        "jobs_per_s": len(rounds.times) / wall,
        "job_p50_ms": statistics.median(rounds.times) * 1e3,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def traced(qd, jobs, args) -> dict:
    """Untraced and traced rounds in turn, so the overhead is measured alike."""
    rounds = Rounds(jobs)
    tracer = tracing.Tracer()
    plain = spanned = 0.0
    n_traced = 0
    start = time.perf_counter()
    while True:
        plain += rounds.run_round()
        tracer.install(qd)
        try:
            before = len(rounds.times)
            spanned += rounds.run_round(tracer)
            n_traced += len(rounds.times) - before
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    problems, failed = rounds.verify()
    tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
    values = tracer.metrics(max(n_traced, 1), 100.0 * (spanned / plain - 1.0))
    return {
        "problems": len(problems),
        "attempted": rounds.attempted,
        "failed": failed,
        "layers": {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.metric_names()},
    }


if __name__ == "__main__":
    sys.exit(main())
