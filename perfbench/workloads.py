"""The benchmark's workloads: generated inputs, jobs, and each job's check.

Inputs come from numpy's generator seeded with the workload seed, not from
the library's own random ensembles, so the inputs stay the same when the
library changes.  The program sees only the generated inputs: state and
Gram files in the CLI's JSON format, or ``State`` and ``Channel`` objects.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks

WORKLOADS = ("curve", "mc", "optimize")

# curve: the rate grid of the decoupling instances, and the |E| and rank of
# each random mixed rho_AE with |A| = 4.
R_MIN, R_MAX, R_STEPS = 0.1, 2.0, 20
STANDARD_SPECS = ((2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 8),
                  (3, 2), (3, 3), (3, 5), (3, 7), (3, 9), (3, 12))

# mc: |E| and rank of each rho_AE with |A| = 4 split 2 x 2; Haar samples per job.
MC_SPECS = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4))
MC_SAMPLES = 500

# optimize: |B| and rank of each rho_AB (|A| = 2), drawn once for every alpha
# of a dual pair; and the channels (input dim, output dim, Kraus rank) and
# orders of the coherent informations.  |B| = 4 at rank 2 is left out: its
# mirror descent misses duality by up to 2e-5 on some seeds (see CHANGES.md).
PAIR_SPECS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (3, 5),
              (4, 3), (4, 4), (4, 5), (4, 6))
PAIR_ALPHAS = (0.6, 0.8, 1.5, 2.0)
CHANNEL_SPECS = ((2, 2, 2), (3, 2, 2))
CHANNEL_ALPHAS = (0.6, 0.8)
CHANNEL_RESTARTS = 3

# The curve workload's channel job runs on a fixed Gram matrix, drawn from
# this seed and not from the workload seed.  On it the program misses the
# classical oracle by up to 1.4e-8 at 6 of the 20 rates, every time (see
# KNOWN_FAULT); on a random Gram matrix it does so only for some seeds.
FAULT_GRAM_SEED = 1
FAULT_TOL = 1e-7
KNOWN_FAULT = ("condentropy._petz_coherent_of_output raises roundoff eigenvalues of the "
               "rank-deficient dephasing output to the power alpha")


class JobFailed(RuntimeError):
    """The program reported failure through its exit code."""


@dataclass
class Job:
    name: str
    call: Callable[[], Any]  # the timed call into the program
    collect: Callable[[Any], bytes]  # its output as bytes, outside the timing
    check: Callable[[bytes], list[str]]  # independent check of those bytes
    # A fault of the program that makes this job fail ``check`` every time,
    # and the check it must still pass with that fault allowed for.  Then
    # each of its attempts counts as failed rather than as incorrect.
    known_fault: str = ""
    check_known: Callable[[bytes], list[str]] | None = None


# -- input generation -------------------------------------------------------


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return _herm(m / np.real(np.trace(m)))


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return _herm(np.outer(v, v.conj()))


def random_choi(rng: np.random.Generator, d_in: int, d_out: int, rank: int) -> np.ndarray:
    """Normalized Choi matrix (input, output) of a random CPTP map."""
    g = rng.standard_normal((d_in * d_out, rank)) + 1j * rng.standard_normal((d_in * d_out, rank))
    m = g @ g.conj().T
    w, v = np.linalg.eigh(checks.trace_second(m, d_in))
    corr = np.kron((v * w**-0.5) @ v.conj().T, np.eye(d_out))
    return _herm(corr @ m @ corr / d_in)


def purify_to_ac(rho_ab: np.ndarray, d_a: int) -> np.ndarray:
    """rho_AC of a purification |psi>_ABC of rho_AB, with |C| = rank(rho_AB)."""
    w, v = np.linalg.eigh(rho_ab)
    keep = w > 1e-12
    psi = (v[:, keep] * np.sqrt(w[keep])).reshape(d_a, -1, int(keep.sum()))
    rho_ac = np.einsum("abc,dbe->acde", psi, psi.conj())
    n = d_a * psi.shape[2]
    rho_ac = rho_ac.reshape(n, n)
    return _herm(rho_ac / np.real(np.trace(rho_ac)))


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def write_state(path: Path, rho: np.ndarray, dims) -> str:
    doc = {"dims": [{"label": l, "dim": d} for l, d in dims], "matrix": encode_matrix(rho)}
    path.write_text(json.dumps(doc))
    return str(path)


# -- curve ------------------------------------------------------------------


def _curve_job(cli, workdir: Path, name: str, task: str, source: list[str],
               r_min: float, r_max: float, steps: int, direction: int, expected,
               known_fault: str = "") -> Job:
    out = workdir / f"{name}.csv"
    argv = ["exponent-curve", "--task", task, *source, "--r-min", repr(r_min),
            "--r-max", repr(r_max), "--r-steps", str(steps), "--out", str(out)]
    grid = np.linspace(r_min, r_max, steps)

    def call():
        code = cli.main(argv)
        if code != 0:
            raise JobFailed(f"exponent-curve exited with {code}")

    def check_known(blob: bytes) -> list[str]:
        return checks.check_curve(blob, grid, direction, expected, agree_tol=FAULT_TOL)

    return Job(name, call, lambda _: out.read_bytes(),
               lambda blob: checks.check_curve(blob, grid, direction, expected),
               known_fault, check_known if known_fault else None)


def build_curve(qd, rng, workdir: Path, tiny: bool):
    specs = STANDARD_SPECS[::6] if tiny else STANDARD_SPECS
    steps = 4 if tiny else R_STEPS
    cases = []  # (name, task, source, r_min, r_max, direction, expected)
    for de, rank in specs:
        rho = random_density(rng, 4 * de, rank)
        path = write_state(workdir / f"std-e{de}-rank{rank}.json", rho, (("A", 4), ("E", de)))
        cases.append((f"standard-e{de}-rank{rank}", "standard-decoupling", ["--state", path],
                      R_MIN, R_MAX, +1, checks.decoupling_achievable(rho, 4, 2.0)))

    prod = np.kron(np.eye(4) / 4, random_density(rng, 2, 2))
    path = write_state(workdir / "product.json", prod, (("A", 4), ("E", 2)))
    cases.append(("product", "standard-decoupling", ["--state", path], R_MIN, R_MAX, +1,
                  lambda rs: [2.0 * r for r in rs]))

    phi = np.eye(2).reshape(4) / math.sqrt(2.0)
    path = write_state(workdir / "max-entangled.json", np.outer(phi, phi), (("A", 2), ("E", 2)))
    cases.append(("max-entangled", "standard-decoupling", ["--state", path], R_MIN, R_MAX, +1,
                  lambda rs: [max(0.0, 2.0 * r - 2.0) for r in rs]))

    # Merging needs H(A|R) > 0 (distill) or < 0 (cost); draw until it holds
    # with margin, and span the rates the task admits.
    for task, dims, sign in (("merging-d", (2, 4, 2), +1), ("merging-c", (2, 2, 4), -1)):
        while True:
            psi = random_pure(rng, int(np.prod(dims)))
            t = psi.reshape(dims * 2)
            rho_ar = np.einsum("abrcbs->arcs", t).reshape(dims[0] * dims[2], -1)
            h = checks.vn_entropy(rho_ar) - checks.vn_entropy(checks.trace_first(rho_ar, dims[0]))
            if sign * h > 0.1:
                break
        path = write_state(workdir / f"{task}.json", psi, tuple(zip("ABR", dims)))
        lo, hi = (0.05 * h, 0.95 * h) if sign > 0 else (0.02 - h, 1.0 - h)
        cases.append((task, task, ["--state", path], lo, hi, -sign, None))

    # Distillation on a maximally correlated state, and the dephasing channel
    # of a Gram matrix; rates span zero to past the coherent information.
    while True:
        c = random_density(rng, 3, 3)
        coh = checks.vn_entropy(np.diag(np.diag(c))) - checks.vn_entropy(c)
        if coh > 0.1:
            break
    rho_cd = np.zeros((9, 9), dtype=complex)
    rho_cd[np.ix_([0, 4, 8], [0, 4, 8])] = c  # supported on span{|xx>}
    path = write_state(workdir / "distill.json", rho_cd, (("C", 3), ("D", 3)))
    cases.append(("distill", "distill", ["--state", path], 0.05 * coh, 1.25 * coh, -1, None))

    gram_rng = np.random.default_rng(FAULT_GRAM_SEED)
    while True:
        g = random_density(gram_rng, 3, 3)
        d = np.sqrt(np.real(np.diag(g)))
        gram = _herm(g / np.outer(d, d))
        np.fill_diagonal(gram, 1.0)
        coh = math.log2(3) - checks.vn_entropy(gram.T / 3)
        if coh > 0.1:
            break
    path = workdir / "gram.json"
    path.write_text(json.dumps(encode_matrix(gram)))
    cases.append(("channel", "channel", ["--gram", str(path)], 0.05 * coh, 1.25 * coh, -1,
                  checks.dephasing_oracle(gram)))

    jobs = [_curve_job(qd.cli, workdir, name, task, src, lo, hi, steps, direction, exp,
                       KNOWN_FAULT if name == "channel" else "")
            for name, task, src, lo, hi, direction, exp in cases]
    warm, tasks = [], set()
    for _, task, src, lo, hi, direction, _ in cases:
        if task not in tasks:  # one single-rate job per task
            tasks.add(task)
            warm.append(_curve_job(qd.cli, workdir, f"warm-{task}", task, src, lo, hi, 1,
                                   direction, None))
    return jobs, warm


# -- mc ---------------------------------------------------------------------


def _mc_job(cli, name: str, path: str, rho: np.ndarray, samples: int, seed: int,
            product: bool) -> Job:
    argv = ["decouple-mc", "--state", path, "--da1", "2", "--da2", "2",
            "--samples", str(samples), "--seed", str(seed)]

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise JobFailed(f"decouple-mc exited with {code}")
        return buf.getvalue()

    return Job(name, call, str.encode,
               lambda blob: checks.check_mc(blob, rho, 2, 2, samples, seed, product))


def build_mc(qd, rng, workdir: Path, tiny: bool):
    specs = MC_SPECS[::4] if tiny else MC_SPECS
    samples = 20 if tiny else MC_SAMPLES
    cases = []
    for de, rank in specs:
        cases.append((f"e{de}-rank{rank}", random_density(rng, 4 * de, rank), de, False))
    cases.append(("product", np.kron(np.eye(4) / 4, random_density(rng, 2, 2)), 2, True))
    jobs = []
    for name, rho, de, product in cases:
        path = write_state(workdir / f"{name}.json", rho, (("A", 4), ("E", de)))
        jobs.append(_mc_job(qd.cli, name, path, rho, samples, int(rng.integers(2**31)), product))
    warm = [_mc_job(qd.cli, "warm", path, rho, 8, 0, product)]
    return jobs, warm


# -- optimize ---------------------------------------------------------------


def _pair_job(ce, name: str, st_ab, st_ac, rho_ab, rho_ac, alpha: float) -> Job:
    beta = 1.0 / (2.0 - 1.0 / alpha)

    def call():
        return (ce.minimized_conditioning(st_ab, ["A"], ["B"], "sandwiched", alpha),
                ce.minimized_conditioning(st_ac, ["A"], ["C"], "sandwiched", beta))

    def collect(res):
        return json.dumps({k: {"value": r.value, "sigma": encode_matrix(r.sigma)}
                           for k, r in zip("BC", res)}).encode()

    return Job(name, call, collect,
               lambda blob: checks.check_dual_pair(blob, rho_ab, rho_ac, 2, alpha, beta))


def _coherent_job(ce, name: str, channel, choi, d_in: int, d_out: int, alpha: float,
                  restarts: int, seed: int) -> Job:
    def call():
        return ce.channel_coherent_info(channel, alpha, family="petz", restarts=restarts,
                                        rng=np.random.default_rng(seed))

    def collect(res):
        value, inp = res
        return json.dumps({"value": value, "input": encode_matrix(inp.density)}).encode()

    return Job(name, call, collect,
               lambda blob: checks.check_coherent_info(blob, choi, d_in, d_out, alpha))


def build_optimize(qd, rng, workdir: Path, tiny: bool):
    State, Channel, ce = qd.states.State, qd.channels.Channel, qd.condentropy
    specs, alphas = (PAIR_SPECS[:1], PAIR_ALPHAS[1::2]) if tiny else (PAIR_SPECS, PAIR_ALPHAS)
    jobs = []
    for d_b, rank in specs:
        for alpha in alphas:
            rho_ab = random_density(rng, 2 * d_b, rank)
            rho_ac = purify_to_ac(rho_ab, 2)
            st_ab = State(rho_ab, (("A", 2), ("B", d_b)))
            st_ac = State(rho_ac, (("A", 2), ("C", rho_ac.shape[0] // 2)))
            jobs.append(_pair_job(ce, f"pair-b{d_b}-rank{rank}-alpha{alpha}", st_ab, st_ac,
                                  rho_ab, rho_ac, alpha))
    specs, alphas = (CHANNEL_SPECS[:1], CHANNEL_ALPHAS[1:]) if tiny else (CHANNEL_SPECS, CHANNEL_ALPHAS)
    restarts = 1 if tiny else CHANNEL_RESTARTS
    coherent = []
    for d_in, d_out, rank in specs:
        choi = random_choi(rng, d_in, d_out, rank)
        channel = Channel(d_in, d_out, choi)
        for alpha in alphas:
            coherent.append(_coherent_job(ce, f"coherent-{d_in}to{d_out}-alpha{alpha}", channel,
                                          choi, d_in, d_out, alpha, restarts,
                                          int(rng.integers(2**31))))
    warm = [jobs[0], coherent[0]]
    return jobs + coherent, warm


BUILDERS = {"curve": build_curve, "mc": build_mc, "optimize": build_optimize}


def build(qd, workload: str, seed: int, workdir: Path, tiny: bool = False):
    """(jobs, warm-up jobs) of a workload; the same seed gives the same inputs."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    return BUILDERS[workload](qd, rng, workdir, tiny)
