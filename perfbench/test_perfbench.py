"""Fast tests of the benchmark itself: ``python3 -m pytest perfbench``.

Each workload runs clean at a tiny size, each independent check rejects a
deliberately corrupted output, traced counts repeat exactly, and the
benchmark refuses to run without the program's source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def qd():
    return worker.import_program()


def tiny_outputs(qd, workload: str, tmp_path: Path):
    jobs, warm = workloads.build(qd, workload, 0, tmp_path, tiny=True)
    return jobs, [job.collect(job.call()) for job in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_workload_runs_clean(qd, workload, tmp_path):
    jobs, warm = workloads.build(qd, workload, 0, tmp_path, tiny=True)
    for job in warm:
        job.collect(job.call())
    rounds = worker.Rounds(jobs)
    rounds.run_round()
    rounds.run_round()
    known = sum(1 for job in jobs if job.known_fault)
    assert rounds.verify() == ([], 2 * known) and rounds.attempted == 2 * len(jobs)


def test_known_fault_fails_every_attempt(qd, tmp_path):
    jobs, _ = workloads.build(qd, "curve", 0, tmp_path)
    faulty = [job for job in jobs if job.known_fault]
    assert [job.name for job in faulty] == ["channel"]
    rounds = worker.Rounds(faulty)
    rounds.run_round()
    rounds.run_round()
    assert rounds.verify() == ([], 2)
    # an error beyond the known fault is still a problem
    rounds.first[0] = _corrupt_csv_value(rounds.first[0], 2, 1e-6)
    problems, failed = rounds.verify()
    assert problems and failed == 0


def test_same_seed_same_inputs(qd, tmp_path):
    a, _ = workloads.build(qd, "optimize", 3, tmp_path / "a", tiny=True)
    b, _ = workloads.build(qd, "optimize", 3, tmp_path / "b", tiny=True)
    assert [j.collect(j.call()) for j in a] == [j.collect(j.call()) for j in b]


def _corrupt_csv_value(blob: bytes, row: int, delta: float) -> bytes:
    lines = blob.decode().splitlines()
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) + delta)
    lines[row] = ",".join(cells)
    return ("\r\n".join(lines) + "\r\n").encode()


def test_curve_check_rejects_one_csv_value(qd, tmp_path):
    jobs, outs = tiny_outputs(qd, "curve", tmp_path)
    for job, blob in zip(jobs, outs):
        if job.name.startswith("standard-") or job.name == "product":
            assert job.check(blob) == []
            assert job.check(_corrupt_csv_value(blob, 2, 1e-6)), job.name


def test_mc_check_rejects_one_json_field(qd, tmp_path):
    jobs, outs = tiny_outputs(qd, "mc", tmp_path)
    for job, blob in zip(jobs, outs):
        for field, change in (("bound_opt", lambda v: v * 1.001), ("n", lambda v: v + 1),
                              ("mean", lambda v: v + 1e-6 if job.name == "product" else 9.0)):
            rep = json.loads(blob)
            rep[field] = change(rep[field])
            assert job.check(json.dumps(rep, sort_keys=True).encode()), (job.name, field)


def test_optimize_check_rejects_one_sigma(qd, tmp_path):
    jobs, outs = tiny_outputs(qd, "optimize", tmp_path)
    for job, blob in zip(jobs, outs):
        doc = json.loads(blob)
        if "B" in doc:
            sigma = workloads.checks.decode_matrix(doc["B"]["sigma"])
            d = sigma.shape[0]
            doc["B"]["sigma"] = workloads.encode_matrix(0.99 * sigma + 0.01 * np.eye(d) / d)
        else:
            doc["value"] += 1e-6
        assert job.check(json.dumps(doc).encode()), job.name


def test_traced_counts_repeat_exactly(qd, tmp_path):
    counts = []
    originals = (qd.cli.main, qd.linalg.herm_eig, np.linalg.eigh, qd.states.State.__post_init__)
    for _ in range(2):
        jobs, _ = workloads.build(qd, "mc", 0, tmp_path, tiny=True)
        tracer = tracing.Tracer()
        tracer.install(qd)
        try:
            worker.Rounds(jobs).run_round(tracer)
        finally:
            tracer.uninstall()
        values = tracer.metrics(len(jobs), 0.0)
        counts.append({k: v for k, v in values.items() if not k.endswith("_ms")})
        assert values["decoupling.decoupling_error_sample.calls"] == 20
        assert values["linalg.eigensolves"] > 0
    assert counts[0] == counts[1]
    assert originals == (qd.cli.main, qd.linalg.herm_eig, np.linalg.eigh,
                         qd.states.State.__post_init__)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
