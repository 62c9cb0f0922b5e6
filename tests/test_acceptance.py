"""Acceptance gate: one pass/fail line per criterion, pinned tolerances.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (bypassing
capture) and then asserts, so a plain ``pytest tests/test_acceptance.py``
run shows the complete scorecard.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qdecoupling.channels import apply_channel, generalized_dephasing, random_channel
from qdecoupling.condentropy import (
    EntropyKind,
    SimplexOptimizerConfig,
    cond_entropy,
    minimized_conditioning,
    petz_up_closed_form,
)
from qdecoupling.decoupling import (
    decoupling_error_lower_bound,
    decoupling_error_upper_bound_optimized,
    mc_decoupling_error,
    positive_part_inequality_sweep,
    standard_instance,
)
from qdecoupling.divergences import divergence
from qdecoupling.exponents import (
    channel_coding_exponent,
    comparator_exponent,
    critical_rate,
    standard_decoupling_exponents,
)
from qdecoupling.linalg import tensor
from qdecoupling.states import (
    State,
    haar_unitary,
    make_rng,
    max_entangled,
    random_density,
    random_pure,
    random_state,
)
from qdecoupling.verify import SUITES, haar2_deviations

from conftest import classical_dephasing_oracle

SEED = 745

def _line(num: str, ok: bool, desc: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}",
          file=sys.__stdout__, flush=True)


def _random_instances(n=50):
    rng = make_rng(SEED)
    out = []
    for _ in range(n):
        de = int(rng.integers(2, 4))
        rank = int(rng.integers(1, 5))
        rho = random_state((("A", 4), ("E", de)), rank, rng)
        out.append(standard_instance(rho, 2, 2))
    return out


@pytest.fixture(scope="module")
def mc_results():
    t0 = time.time()
    rows = []
    for k, inst in enumerate(_random_instances()):
        est = mc_decoupling_error(inst, n_samples=500, seed=SEED + k)
        bound, _ = decoupling_error_upper_bound_optimized(inst)
        lower = decoupling_error_lower_bound(inst.rho_ae, 2, 2)
        rows.append((est, bound, lower))
    return rows, time.time() - t0


def test_criterion_01_upper_bound_soundness(mc_results):
    rows, elapsed = mc_results
    worst = max(est.mean - 3 * est.stderr - bound for est, bound, _ in rows)
    ok = worst <= 0 and elapsed < 300
    _line("01", ok, f"MC mean - 3se <= optimized upper bound on 50 instances "
          f"(worst slack {worst:.3e}, {elapsed:.0f}s)")
    assert ok


def test_criterion_02_lower_bound_sandwich(mc_results):
    rows, _ = mc_results
    worst = max(lower - (est.mean + 3 * est.stderr) for est, _, lower in rows)
    ok = worst <= 0
    _line("02", ok, f"lower bound <= MC mean + 3se on 50 instances "
          f"(worst slack {worst:.3e})")
    assert ok


def test_criterion_03_sharp_trace_sweep():
    worst, _, _ = SUITES["sharp-trace"](1000, make_rng(SEED + 1))
    ok = worst <= 1e-9
    _line("03", ok, f"sharp trace inequality, 1000 pairs x 10 s-values "
          f"(worst lhs-rhs {worst:.3e})")
    assert ok


def test_criterion_04_positive_part_sweeps():
    rep = positive_part_inequality_sweep(1000, seed=SEED + 2)
    ok = rep.superadditivity_violation <= 1e-9 and rep.relent_floor_violation <= 1e-9
    _line("04", ok, f"positive-part superadditivity/relative-entropy floor, "
          f"1000 each (violations {rep.superadditivity_violation:.1e}, "
          f"{rep.relent_floor_violation:.1e})")
    assert ok


def test_criterion_05_haar_second_moment():
    worst_mc, worst_twirl = haar2_deviations(20000, make_rng(SEED + 3))
    ok = worst_mc <= 0 and worst_twirl <= 1e-12
    _line("05", ok, f"Haar second moment MC within 4se, d in {{2,3}} "
          f"(worst excess {worst_mc:.2e}); group twirl exact ({worst_twirl:.1e})")
    assert ok


def test_criterion_06_duality():
    worst, _, _ = SUITES["duality"](200, make_rng(SEED + 4))
    ok = worst <= 1e-6
    _line("06", ok, f"entropy duality on 200 pure tripartite states x 10 orders "
          f"(worst gap {worst:.2e})")
    assert ok


def test_criterion_07_closed_form_vs_numeric():
    rng = make_rng(SEED + 5)
    cfg = SimplexOptimizerConfig(restarts=2)
    worst = 0.0
    for _ in range(200):
        st_ = random_state((("A", 2), ("B", 2)), int(rng.integers(1, 5)), rng)
        for alpha in (0.4, 0.6, 0.9, 1.5):
            closed = petz_up_closed_form(st_, ["A"], ["B"], alpha)
            res = minimized_conditioning(st_, ["A"], ["B"], "petz", alpha, cfg)
            worst = max(worst, abs(closed - (-res.value)))
    ok = worst <= 1e-6
    _line("07", ok, f"optimized Petz entropy closed form vs numeric minimization, "
          f"200 states x 4 orders (worst gap {worst:.2e})")
    assert ok


def _embed_b(state: State, db_new: int, rng) -> State:
    """Isometric embedding of the B subsystem into a larger space."""
    db = state.dim_of("B")
    v = haar_unitary(db_new, rng)[:, :db]
    big = tensor(np.eye(state.dim_of("A")), v)
    return State(big @ state.density @ big.conj().T, (("A", state.dim_of("A")), ("B", db_new)))


def test_criterion_08_additivity_and_isometry_invariance():
    rng = make_rng(SEED + 6)
    kinds = [
        EntropyKind("petz", 0.6), EntropyKind("petz", 1.7),
        EntropyKind("sandwiched", 0.6), EntropyKind("sandwiched", 1.7),
        EntropyKind("petz", 0.6, optimized=True),
        EntropyKind("petz", 1.7, optimized=True),
        EntropyKind("sandwiched", 0.6, optimized=True),
        EntropyKind("sandwiched", 1.7, optimized=True),
    ]
    cfg = SimplexOptimizerConfig(
        max_iters=3000, grad_tol=1e-11, stall_tol=1e-14, stall_iters=300, restarts=3
    )
    worst = 0.0
    for _ in range(100):
        x = random_state((("A", 2), ("B", 2)), int(rng.integers(1, 5)), rng)
        y = random_state((("C", 2), ("D", 2)), int(rng.integers(1, 5)), rng)
        joint = x.tensor_with(y)
        emb = _embed_b(x, 3, rng)
        for kind in kinds:
            hx = cond_entropy(x, ["A"], ["B"], kind, cfg)
            total = cond_entropy(joint, ["A", "C"], ["B", "D"], kind, cfg)
            hy = cond_entropy(y, ["C"], ["D"], kind, cfg)
            worst = max(worst, abs(total - hx - hy))
            worst = max(worst, abs(cond_entropy(emb, ["A"], ["B"], kind, cfg) - hx))
    ok = worst <= 1e-6
    _line("08", ok, f"additivity and isometry invariance, 8 entropy kinds x "
          f"100 pairs/embeddings (worst gap {worst:.2e})")
    assert ok


def test_criterion_09_exactness_mechanism():
    rng = make_rng(SEED + 7)
    checked = 0
    worst_gap = 0.0
    ordering_ok = True
    while checked < 50:
        rho = random_pure((("A", 4), ("E", int(rng.integers(2, 5)))), rng)
        rc = critical_rate(rho)
        if rc <= 0.02:
            continue
        lo = standard_decoupling_exponents(rho, 2.0, 0.9 * rc)
        hi = standard_decoupling_exponents(rho, 2.0, 1.5 * rc)
        assert lo.exact and not hi.exact
        worst_gap = max(worst_gap, abs(lo.achievable - lo.converse))
        ordering_ok = ordering_ok and hi.achievable <= hi.converse + 1e-6
        checked += 1
    ok = worst_gap <= 1e-6 and ordering_ok
    _line("09", ok, f"exactness at r=0.9rc and ordering at r=1.5rc on 50 instances "
          f"(worst exact-regime gap {worst_gap:.2e})")
    assert ok


def test_criterion_10_comparator_ordering():
    rng = make_rng(SEED + 8)
    worst = -math.inf
    for _ in range(100):
        rho = random_state((("A", 4), ("E", 2)), int(rng.integers(1, 5)), rng)
        r = float(rng.uniform(0.1, 1.5))
        ach = standard_decoupling_exponents(rho, 2.0, r).achievable
        comp = comparator_exponent(rho, 2.0, r, n_grid=12)
        worst = max(worst, comp - ach)
    ok = worst <= 1e-6
    _line("10", ok, f"comparator exponent <= achievable exponent on 100 instances "
          f"(worst excess {worst:.2e})")
    assert ok


def test_criterion_11_data_processing():
    rng = make_rng(SEED + 9)
    worst = -math.inf
    petz_grid = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0]
    sand_grid = [0.5, 0.8, 1.2, 1.8, 2.4, 3.0]
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        sig = random_density(d, d, rng)
        ch = random_channel(d, d, rng)
        n_rho = apply_channel(ch, State(rho, (("X", d),)), "X").density
        n_sig = apply_channel(ch, State(sig, (("X", d),)), "X").density
        for kind, grid in (("petz", petz_grid), ("sandwiched", sand_grid)):
            for alpha in grid:
                before = divergence(rho, sig, kind, alpha)
                if math.isinf(before):
                    continue
                worst = max(worst, divergence(n_rho, n_sig, kind, alpha) - before)
    ok = worst <= 1e-8
    _line("11", ok, f"data processing on 200 triples, both Renyi families "
          f"(worst violation {worst:.2e})")
    assert ok


def test_criterion_12_closed_instance_exponents():
    rng = make_rng(SEED + 10)
    worst = 0.0
    sig = random_density(2, 2, rng)
    prod = State(tensor(np.eye(4) / 4, sig), (("A", 4), ("E", 2)))
    phi = max_entangled(2, ("A", "E"))
    gram = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    ch = generalized_dephasing(gram)
    for r in (0.2, 0.6, 1.1, 1.6):
        worst = max(worst, abs(standard_decoupling_exponents(prod, 2.0, r).achievable - 2 * r))
        worst = max(worst, abs(standard_decoupling_exponents(phi, 1.0, r).achievable
                               - max(0.0, 2 * r - 2.0)))
    for r in (0.05, 0.2, 0.5):
        got = channel_coding_exponent(ch, r, dephasing=True).achievable
        worst = max(worst, abs(got - classical_dephasing_oracle(gram, r)))
    ok = worst <= 1e-8
    _line("12", ok, f"closed-instance exponents: product, maximally entangled, "
          f"dephasing vs classical oracle (worst gap {worst:.2e})")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="for a flat-spectrum product instance the converse objective is "
    "linear with positive slope, so its supremum over s > 0 diverges; a "
    "finite converse equal to 2r is unattainable and the library reports "
    "the divergence explicitly",
)
def test_criterion_12b_product_converse_finite():
    rng = make_rng(SEED + 11)
    sig = random_density(2, 2, rng)
    prod = State(tensor(np.eye(4) / 4, sig), (("A", 4), ("E", 2)))
    res = standard_decoupling_exponents(prod, 2.0, 0.6)
    _line("12b", math.isfinite(res.converse),
          "product-instance converse reported as a finite value equal to 2r "
          "(documented expected failure: the supremum diverges)")
    assert math.isfinite(res.converse) and res.converse == pytest.approx(1.2, abs=1e-8)


def test_criterion_13_determinism(tmp_path):
    rng = make_rng(SEED + 12)
    from qdecoupling.cli import save_state

    state_path = tmp_path / "inst.json"
    save_state(random_state((("A", 4), ("E", 2)), 3, rng), str(state_path))
    commands = [
        ["decouple-mc", "--state", str(state_path), "--da1", "2", "--da2", "2",
         "--samples", "40", "--seed", "11"],
        ["exponent-curve", "--state", str(state_path), "--task", "standard-decoupling",
         "--r-min", "0.2", "--r-max", "1.0", "--r-steps", "4",
         "--out", str(tmp_path / "curve.csv")],
        ["verify", "--suite", "sharp-trace", "--trials", "10", "--seed", "4"],
    ]
    # the child runs in tmp_path, so a relative PYTHONPATH entry would not
    # find the package; put the directory it was imported from first
    import qdecoupling

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(qdecoupling.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    ok = True
    for cmd in commands:
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            proc = subprocess.run([sys.executable, "-m", "qdecoupling.cli"] + cmd,
                                  capture_output=True, env=env, cwd=str(tmp_path))
            blob = proc.stdout
            if "--out" in cmd:
                blob += (tmp_path / "curve.csv").read_bytes()
            outs.append((proc.returncode, blob))
        ok = ok and outs[0] == outs[1]
    _line("13", ok, "seeded CLI commands byte-identical across reruns and "
          "thread counts")
    assert ok
