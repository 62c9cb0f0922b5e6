import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdecoupling import verify
from qdecoupling.cli import (
    EXIT_BOUND_VIOLATION,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    doc_to_state,
    load_state,
    main,
    save_state,
    state_to_doc,
)
from qdecoupling.condentropy import cond_vn_entropy
from qdecoupling.linalg import tensor
from qdecoupling.states import (
    State,
    make_rng,
    max_entangled,
    random_density,
    random_pure,
    random_state,
)

from conftest import classical_divergence_oracle, commuting_pair


def write_state(state, path):
    save_state(state, str(path))
    return str(path)


def test_statefile_roundtrip_bit_identical(tmp_path, rng):
    st_ = random_state((("A", 2), ("B", 3)), 4, rng)
    p = tmp_path / "s.json"
    save_state(st_, str(p))
    once = load_state(str(p))
    save_state(once, str(p))
    twice = load_state(str(p))
    assert np.array_equal(once.density, twice.density)
    assert once.dims == twice.dims
    # and the serialized document round-trips through the parser
    doc = state_to_doc(once)
    assert np.array_equal(doc_to_state(doc).density, once.density)


def test_divergence_same_file_zero(tmp_path, capsys, rng):
    p = write_state(random_state((("A", 3),), 3, rng), tmp_path / "a.json")
    assert main(["divergence", p, p]) == EXIT_OK
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.0, abs=1e-9)


def test_divergence_orthogonal_inf(tmp_path, capsys):
    a = write_state(State(np.diag([1.0, 0.0]).astype(complex), (("A", 2),)), tmp_path / "a.json")
    b = write_state(State(np.diag([0.0, 1.0]).astype(complex), (("A", 2),)), tmp_path / "b.json")
    assert main(["divergence", a, b]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "inf"


def test_divergence_matches_classical_oracle(tmp_path, capsys):
    rng = make_rng(77)
    rho, sig, p, q = commuting_pair(3, rng)
    pa = write_state(State(rho, (("A", 3),)), tmp_path / "a.json")
    pb = write_state(State(sig, (("A", 3),)), tmp_path / "b.json")
    assert main(["divergence", pa, pb, "--kind", "petz", "--alpha", "2"]) == EXIT_OK
    got = float(capsys.readouterr().out.strip())
    assert got == pytest.approx(classical_divergence_oracle(p, q, "petz", 2.0), abs=1e-8)


def test_divergence_usage_errors(tmp_path, capsys, rng):
    p = write_state(random_state((("A", 2),), 2, rng), tmp_path / "a.json")
    assert main(["divergence", p, p, "--kind", "petz"]) == EXIT_USAGE
    assert main(["divergence", p, str(tmp_path / "missing.json")]) == EXIT_USAGE
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["divergence", p, str(bad)]) == EXIT_USAGE
    capsys.readouterr()


def test_divergence_of_states_of_different_dimension_exits_3(tmp_path, capsys, rng):
    """An 8 x 8 and a 2 x 2 state: exit 3 with one line that names both dimensions."""
    big = write_state(random_state((("A", 2), ("B", 4)), 3, rng), tmp_path / "big.json")
    small = write_state(random_state((("A", 2),), 2, rng), tmp_path / "small.json")
    for argv, dims in (([big, small], "8 vs 2"), ([small, big], "2 vs 8")):
        for kind in (["--kind", "umegaki"], ["--kind", "petz", "--alpha", "0.5"],
                     ["--kind", "sandwiched", "--alpha", "2"], ["--kind", "max"]):
            assert main(["divergence", *argv, *kind]) == EXIT_PRECONDITION
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.splitlines() == [
                f"precondition violated: states must have the same dimension ({dims})"]


_ALPHA_ERROR = "precondition violated: alpha must be a positive finite number"


def _curve_flags(flag, value):
    """An exponent-curve command on the state {p}; argparse keeps the last ``flag``."""
    return ["exponent-curve", "--task", "standard-decoupling", "--state", "{p}", "--r-min",
            "0.1", "--r-max", "0.2", "--r-steps", "2", "--out", "{p}.csv", f"{flag}={value}"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, code, first_line", [
    (["divergence", "{p}", "{p}", "--kind", "petz", "--alpha", "nan"],
     EXIT_PRECONDITION, _ALPHA_ERROR),
    (["divergence", "{p}", "{p}", "--kind", "petz", "--alpha", "inf"],
     EXIT_PRECONDITION, _ALPHA_ERROR),
    (["divergence", "{p}", "{p}", "--kind", "sandwiched", "--alpha", "nan"],
     EXIT_PRECONDITION, _ALPHA_ERROR),
    (["divergence", "{p}", "{p}", "--kind", "sandwiched", "--alpha", "inf"],
     EXIT_PRECONDITION, _ALPHA_ERROR),
    # finite, but sigma^(1 - alpha) overflows and the trace is nan
    (["divergence", "{p}", "{p}", "--kind", "petz", "--alpha", "1e308"],
     EXIT_NUMERICAL, "numerical failure: the petz divergence evaluated to nan"),
    (["decouple-mc", "--state", "{p}", "--da1", "-2", "--da2", "-1", "--samples", "4"],
     EXIT_PRECONDITION, "precondition violated: d_a1 and d_a2 must be >= 1"),
    (["decouple-mc", "--state", "{p}", "--da1", "0", "--da2", "2", "--samples", "4"],
     EXIT_PRECONDITION, "precondition violated: d_a1 and d_a2 must be >= 1"),
    (["decouple-mc", "--state", "{p}", "--da1", "1", "--da2", "2", "--samples", "4",
      "--seed", "-1"], EXIT_USAGE, "error: --seed must be non-negative"),
    (["verify", "--suite", "duality", "--trials", "2", "--seed", "-1"],
     EXIT_USAGE, "error: --seed must be non-negative"),
    (_curve_flags("--r-min", "nan"), EXIT_USAGE, "error: --r-min must be a finite number"),
    (_curve_flags("--r-min", "-inf"), EXIT_USAGE, "error: --r-min must be a finite number"),
    (_curve_flags("--r-max", "inf"), EXIT_USAGE, "error: --r-max must be a finite number"),
    (_curve_flags("--r-max", "nan"), EXIT_USAGE, "error: --r-max must be a finite number"),
    (_curve_flags("--log-a", "inf"), EXIT_USAGE, "error: --log-a must be a finite number"),
    (_curve_flags("--log-a", "-inf"), EXIT_USAGE, "error: --log-a must be a finite number"),
    (_curve_flags("--log-a", "nan"), EXIT_USAGE, "error: --log-a must be a finite number"),
    (_curve_flags("--log-a", "1e400"), EXIT_USAGE, "error: --log-a must be a finite number"),
])
def test_bad_numeric_flags_exit_with_one_line(argv, code, first_line, tmp_path, capsys, rng):
    """A full-rank |A| = 2 state: each flag gets its exit code and one stderr line."""
    p = write_state(random_state((("A", 2), ("E", 1)), 2, rng), tmp_path / "a.json")
    assert main([a.format(p=p) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_line)


_CURVE = ["exponent-curve", "--task", "standard-decoupling", "--r-min", "0.1",
          "--r-max", "0.2", "--r-steps", "1"]


@pytest.mark.parametrize("argv, first_line", [
    (["divergence", "{dir}", "{p}"], "error: "),
    (_CURVE + ["--state", "{p}", "--out", "{dir}"], "error: "),
    (["divergence", "{huge}", "{p}"], "parse error: "),
    (["divergence", "{latin1}", "{p}"], "parse error: "),
    (["exponent-curve", "--task", "channel", "--gram", "{latin1}", "--r-min", "0.1",
      "--r-max", "0.2", "--r-steps", "1", "--out", "{out}"], "parse error: "),
])
def test_unreadable_paths_and_documents_exit_with_one_line(argv, first_line, tmp_path,
                                                           capsys, rng):
    """A directory, an entry too large for a float or a file that is not UTF-8 exits 2."""
    p = write_state(random_state((("A", 2), ("E", 1)), 2, rng), tmp_path / "a.json")
    doc = state_to_doc(load_state(p))
    doc["matrix"][0][0][0] = 10**400
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"dims": [{"label": "Ä", "dim": 2}]}'.encode("latin-1"))
    paths = {"p": p, "dir": str(tmp_path), "huge": str(huge), "latin1": str(latin1),
             "out": str(tmp_path / "x.csv")}
    assert main([a.format(**paths) for a in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_line)


def test_distill_task_needs_two_subsystems(tmp_path, capsys, rng):
    p = write_state(random_state((("A", 2),), 2, rng), tmp_path / "a.json")
    assert main(_CURVE[:2] + ["distill"] + _CURVE[3:]
                + ["--state", p, "--out", str(tmp_path / "x.csv")]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [
        "precondition violated: the distill task needs a state of two subsystems"]


def test_decouple_mc_decoupled_instance(tmp_path, capsys, rng):
    sig = random_density(2, 2, rng)
    rho = State(tensor(np.eye(4) / 4, sig), (("A", 4), ("E", 2)))
    p = write_state(rho, tmp_path / "prod.json")
    assert main(["decouple-mc", "--state", p, "--da1", "2", "--da2", "2",
                 "--samples", "20", "--seed", "1"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["mean"] == pytest.approx(0.0, abs=1e-9)
    assert rep["lower"] <= rep["mean"] + 3 * rep["stderr"] + 1e-12
    assert rep["seed"] == 1 and rep["n"] == 20


def test_decouple_mc_seed_reproducible(tmp_path, capsys, rng):
    p = write_state(random_state((("A", 4), ("E", 2)), 3, rng), tmp_path / "s.json")
    args = ["decouple-mc", "--state", p, "--da1", "2", "--da2", "2",
            "--samples", "30", "--seed", "7"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_exponent_curve_product_instance(tmp_path, capsys, rng):
    sig = random_density(2, 2, rng)
    rho = State(tensor(np.eye(4) / 4, sig), (("A", 4), ("E", 2)))
    p = write_state(rho, tmp_path / "prod.json")
    out = tmp_path / "curve.csv"
    assert main(["exponent-curve", "--state", p, "--task", "standard-decoupling",
                 "--r-min", "0.2", "--r-max", "1.0", "--r-steps", "5",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "r,achievable,converse,exact"
    for line in lines[1:]:
        r, ach, conv, exact = line.split(",")
        assert float(ach) == pytest.approx(2 * float(r), abs=1e-8)
        assert conv == "inf"
        assert exact in ("0", "1")


def test_exponent_curve_max_entangled(tmp_path, rng):
    phi = max_entangled(2, ("A", "E"))
    p = write_state(phi, tmp_path / "phi.json")
    out = tmp_path / "curve.csv"
    assert main(["exponent-curve", "--state", p, "--task", "standard-decoupling",
                 "--r-min", "0.5", "--r-max", "1.5", "--r-steps", "3",
                 "--out", str(out)]) == EXIT_OK
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    for r, ach, conv, exact in rows:
        assert float(ach) == pytest.approx(max(0.0, 2 * float(r) - 2.0), abs=1e-8)
        # exact flag matches the critical-rate threshold log2(2)/2 = 0.5
        assert exact == ("1" if float(r) <= 0.5 + 1e-9 else "0")


def test_exponent_curve_deterministic_bytes(tmp_path, rng):
    p = write_state(random_pure((("A", 4), ("E", 2)), rng), tmp_path / "s.json")
    outs = []
    for name in ("c1.csv", "c2.csv"):
        out = tmp_path / name
        assert main(["exponent-curve", "--state", p, "--task", "standard-decoupling",
                     "--r-min", "0.1", "--r-max", "0.9", "--r-steps", "4",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_exponent_curve_precondition_exit(tmp_path, rng):
    psi = random_pure((("A", 2), ("B", 2), ("R", 3)), rng)
    p = write_state(psi, tmp_path / "abr.json")
    code = main(["exponent-curve", "--state", p, "--task", "merging-d",
                 "--r-min", "5.0", "--r-max", "6.0", "--r-steps", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_PRECONDITION


def _bad_grid(task, tmp_path, rng):
    """(state file, --r-min, --r-max, the stderr line) of a rate grid the task rejects."""
    if task == "standard-decoupling":
        st = random_state((("A", 2), ("E", 2)), 3, rng)
        return write_state(st, tmp_path / "ae.json"), 0.0, 0.5, "rate r must be positive"
    if task == "merging-d":
        while True:
            psi = random_pure((("A", 2), ("B", 4), ("R", 2)), rng)
            h = cond_vn_entropy(psi.marginal("A", "R"), ["A"], ["R"])
            if h > 0.3:
                break
        return (write_state(psi, tmp_path / "abr.json"), 0.5 * h, h,
                f"distill mode needs 0 < r < H(A|R) = {h:.6f}")
    st = random_state((("C", 2), ("D", 2)), 2, rng)
    return write_state(st, tmp_path / "cd.json"), -0.1, 0.5, "rate r must be nonnegative"


@pytest.mark.parametrize("task", ["standard-decoupling", "merging-d", "distill"])
def test_a_grid_with_an_invalid_rate_exits_3(task, tmp_path, capsys, rng):
    """One invalid rate rejects the whole grid: exit 3, one line, no CSV."""
    path, r_min, r_max, message = _bad_grid(task, tmp_path, rng)
    out = tmp_path / "x.csv"
    code = main(["exponent-curve", "--state", path, "--task", task, "--r-min", repr(r_min),
                 "--r-max", repr(r_max), "--r-steps", "5", "--out", str(out)])
    assert code == EXIT_PRECONDITION
    assert capsys.readouterr().err.splitlines() == [f"precondition violated: {message}"]
    assert not out.exists()


def test_exponent_curve_missing_inputs(tmp_path, capsys):
    assert main(["exponent-curve", "--task", "standard-decoupling", "--r-min", "0.1",
                 "--r-max", "0.2", "--r-steps", "2",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    assert main(["exponent-curve", "--task", "channel", "--r-min", "0.1",
                 "--r-max", "0.2", "--r-steps", "2",
                 "--out", str(tmp_path / "x.csv")]) == EXIT_USAGE
    capsys.readouterr()
    # an empty or a descending rate grid is a usage error, with a valid state
    p = write_state(max_entangled(2, ("A", "E")), tmp_path / "phi.json")
    for r_min, r_max, steps in (("0.1", "0.2", "0"), ("0.3", "0.2", "2")):
        assert main(["exponent-curve", "--state", p, "--task", "standard-decoupling",
                     "--r-min", r_min, "--r-max", r_max, "--r-steps", steps,
                     "--out", str(tmp_path / "y.csv")]) == EXIT_USAGE
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not (tmp_path / "y.csv").exists()


def test_exponent_curve_channel_task(tmp_path):
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps([[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]))
    out = tmp_path / "ch.csv"
    assert main(["exponent-curve", "--task", "channel", "--gram", str(gram),
                 "--r-min", "0.05", "--r-max", "0.3", "--r-steps", "2",
                 "--out", str(out)]) == EXIT_OK
    rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
    assert all(float(a) >= 0 for _, a, _, _ in rows)


def test_verify_trials_zero_usage(capsys):
    assert main(["verify", "--suite", "duality", "--trials", "0"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_verify_small_suites_pass(suite, capsys):
    assert main(["verify", "--suite", suite, "--trials", "10", "--seed", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and suite in out


def test_verify_failure_file_per_seed(tmp_path, capsys, monkeypatch, rng):
    offender = random_state((("A", 2), ("B", 2)), 2, rng)
    monkeypatch.setitem(verify.SUITES, "duality", lambda trials, rng: (1.0, 1e-6, offender))
    monkeypatch.chdir(tmp_path)
    for seed in (1, 2):
        assert main(["verify", "--suite", "duality", "--trials", "1",
                     "--seed", str(seed)]) == EXIT_VERIFY_FAIL
    capsys.readouterr()
    for seed in (1, 2):
        replay = load_state(str(tmp_path / f"verify-failure-duality-seed{seed}.json"))
        assert np.array_equal(replay.density, offender.density)


_GOOD_MATRIX = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


@pytest.mark.parametrize("kind, doc", [
    ("state", {"dims": [{"label": "A", "dim": 2}], "matrix": [[0.5, 0], [0, 0.5]]}),
    ("state", {"dims": 5, "matrix": _GOOD_MATRIX}),
    ("gram", [[1, 0], [0, 1]]),
    ("state", {"dims": [{"label": "A", "dim": 2.7}], "matrix": _GOOD_MATRIX}),
    ("state", {"dims": [{"label": "A", "dim": 0}], "matrix": _GOOD_MATRIX}),
    ("state", {"dims": [{"label": "A", "dim": "two"}], "matrix": _GOOD_MATRIX}),
])
def test_malformed_document_parse_error(kind, doc, tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    if kind == "state":
        argv = ["divergence", str(p), str(p)]
    else:
        argv = ["exponent-curve", "--task", "channel", "--gram", str(p), "--r-min", "0.1",
                "--r-max", "0.2", "--r-steps", "1", "--out", str(tmp_path / "x.csv")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("parse error: ")


def test_verify_output_reproducible(capsys):
    args = ["verify", "--suite", "sharp-trace", "--trials", "15", "--seed", "2"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == first


def test_decouple_mc_bound_violation_exit(tmp_path, capsys, monkeypatch, rng):
    import qdecoupling.cli as cli
    from qdecoupling.decoupling import MCEstimate

    monkeypatch.setattr(
        cli, "mc_decoupling_error",
        lambda inst, n, seed=0: MCEstimate(mean=1e6, stderr=0.0, n_samples=n, seed=seed,
                                           per_sample=np.full(n, 1e6)),
    )
    p = write_state(random_state((("A", 4), ("E", 2)), 2, rng), tmp_path / "s.json")
    code = main(["decouple-mc", "--state", p, "--da1", "2", "--da2", "2",
                 "--samples", "10", "--seed", "0"])
    assert code == EXIT_BOUND_VIOLATION
    capsys.readouterr()


def test_decouple_mc_gates_the_error_in_nats(tmp_path, capsys, rng):
    """The one-shot bound holds for the error in nats, so the gate compares it there.

    On a pure state of A = C x A2 with |C| = 8, |A2| = 2 and |E| = 1, omega_C has
    rank at most 2 for every U, so the error is at least 3 - 1 = 2 bits.  The bound
    (c_s/s) 4^s, whatever the pure state, is 1.9512 at s* = 0.582: below the error
    in bits, above the error in nats.
    """
    p = write_state(random_pure((("A", 16), ("E", 1)), rng), tmp_path / "pure.json")
    assert main(["decouple-mc", "--state", p, "--da1", "8", "--da2", "2",
                 "--samples", "40", "--seed", "0"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["bound_opt"] == pytest.approx(1.9512, abs=1e-4)
    assert rep["s_star"] == pytest.approx(0.582, abs=1e-3)
    assert rep["mean"] - 3 * rep["stderr"] >= 2.0 - 1e-9 > rep["bound_opt"]
    assert (rep["mean"] + 3 * rep["stderr"]) * math.log(2.0) < rep["bound_opt"]


def test_numerical_failure_exit(tmp_path, capsys, monkeypatch):
    import qdecoupling.cli as cli
    from qdecoupling.condentropy import OptimizerDivergence

    def diverge(*args, **kwargs):
        raise OptimizerDivergence("simplex minimizer hit 500 iterations")

    monkeypatch.setattr(cli, "standard_decoupling_curve", diverge)
    p = write_state(max_entangled(2, ("A", "E")), tmp_path / "phi.json")
    code = main(["exponent-curve", "--state", p, "--task", "standard-decoupling",
                 "--r-min", "0.1", "--r-max", "0.2", "--r-steps", "2",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_NUMERICAL == 6
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.strip().splitlines() == ["numerical failure: simplex minimizer hit 500 iterations"]


def test_stacked_eigensolver_failure_exit(tmp_path, capsys, monkeypatch, rng):
    """A failed stacked solve in the Monte Carlo estimator exits 6, not 3."""
    eigvalsh = np.linalg.eigvalsh

    def fail_on_stacks(h):
        if np.ndim(h) > 2:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", fail_on_stacks)
    p = write_state(random_state((("A", 4), ("E", 2)), 2, rng), tmp_path / "s.json")
    code = main(["decouple-mc", "--state", p, "--da1", "2", "--da2", "2",
                 "--samples", "10", "--seed", "0"])
    assert code == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical failure: eigensolver failed")


# -- fuzzing the boundary ----------------------------------------------------

_DOCUMENTED_EXITS = {EXIT_OK, EXIT_USAGE, EXIT_PRECONDITION, EXIT_BOUND_VIOLATION,
                     EXIT_VERIFY_FAIL, EXIT_NUMERICAL}
_BAD_ENTRIES = [math.nan, math.inf, -math.inf, 10**400, "x", [1.0, 0.0, 0.0], 1.0]
_BAD_DIMS = [0, -1, 2.5, math.nan, math.inf, 10**400, "two", True, None]
_FLOATS = [-0.5, 0.0, 0.1, 0.7, 2.0, math.nan, math.inf]


@st.composite
def _matrix_rows(draw, n: int):
    """An n x n matrix as rows of [re, im] pairs: a density, or one of its faults."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_density(n, int(rng.integers(1, n + 1)), rng)
    fault = draw(st.sampled_from(["none"] * 5 + ["trace", "indefinite", "non-hermitian",
                                                 "entry", "short", "ragged", "long"]))
    if fault == "trace":
        m = m * draw(st.sampled_from([0.0, 0.5, 3.0]))
    elif fault == "indefinite":
        m = m - np.diag(np.arange(n) == 0).astype(float)
    elif fault == "non-hermitian":
        m = m + 0.3j * np.tril(np.ones((n, n)), -1) + 0.1
    rows = [[[float(z.real), float(z.imag)] for z in row] for row in m]
    if fault == "entry":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        bad = draw(st.sampled_from(_BAD_ENTRIES))
        rows[i][j] = [bad, 0.0] if draw(st.booleans()) else bad
    elif fault == "short":
        rows = rows[:-1]
    elif fault == "ragged":
        rows[-1] = rows[-1][:-1]
    elif fault == "long":
        rows.append(rows[-1])
    return rows


@st.composite
def _state_docs(draw):
    """A state document on subsystems A, E of sizes 1 to 3, perhaps with bad dims."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    dims = [{"label": l, "dim": d} for l, d in zip("AE", sizes)]
    n = int(np.prod(sizes))
    fault = draw(st.sampled_from(["none"] * 3 + ["dim", "dims", "mismatch"]))
    if fault == "dim":
        dims[-1]["dim"] = draw(st.sampled_from(_BAD_DIMS))
    elif fault == "dims":
        dims = draw(st.sampled_from([5, [{"label": "A"}], [[1, 2]], None]))
    elif fault == "mismatch":
        n += 1
    return {"dims": dims, "matrix": draw(_matrix_rows(n))}


_RATES = ["--r-min", "{r_min}", "--r-max", "{r_max}", "--r-steps", "{r_steps}"]
_COMMANDS = [
    ["divergence", "{state}", "{state2}"],
    ["divergence", "{state}", "{state2}", "--kind", "petz", "--alpha", "{alpha}"],
    ["divergence", "{state}", "{state2}", "--kind", "sandwiched", "--alpha", "{alpha}"],
    ["divergence", "{state}", "{state2}", "--kind", "max"],
    ["exponent-curve", "--state", "{state}", "--task", "standard-decoupling",
     "--out", "{out}", "--log-a={log_a}"] + _RATES,
    ["exponent-curve", "--state", "{state}", "--task", "distill", "--out", "{out}"] + _RATES,
    ["exponent-curve", "--gram", "{gram}", "--task", "channel", "--out", "{out}"] + _RATES,
    ["decouple-mc", "--state", "{state}", "--da1", "{da1}", "--da2", "{da2}",
     "--samples", "2", "--seed", "{seed}"],
    ["verify", "--suite", "{suite}", "--trials", "{trials}", "--seed", "{seed}"],
]


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(_COMMANDS), state=_state_docs(), state2=_state_docs(),
       gram=st.integers(1, 3).flatmap(_matrix_rows),
       r_min=st.sampled_from(_FLOATS), r_max=st.sampled_from(_FLOATS),
       r_steps=st.integers(-1, 2), alpha=st.sampled_from(_FLOATS + [1.0, 1e308]),
       da1=st.integers(-1, 3), da2=st.integers(-1, 3), seed=st.integers(-2, 5),
       log_a=st.sampled_from(_FLOATS), suite=st.sampled_from(list(verify.SUITES) + ["all"]),
       trials=st.integers(-1, 1))
def test_fuzzed_inputs_exit_with_a_documented_code(command, state, state2, gram, r_min,
                                                   r_max, r_steps, alpha, da1, da2, seed,
                                                   log_a, suite, trials):
    """Malformed documents and flags map to documented exit codes, never a traceback."""
    with tempfile.TemporaryDirectory() as d:
        paths = {}
        for name, doc in (("state", state), ("state2", state2), ("gram", gram)):
            paths[name] = os.path.join(d, f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(doc, fh)
        values = dict(paths, out=os.path.join(d, "curve.csv"), r_min=r_min, r_max=r_max,
                      r_steps=r_steps, alpha=alpha, da1=da1, da2=da2, seed=seed,
                      log_a=log_a, suite=suite, trials=trials)
        argv = [a.format(**values) for a in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the flags
                code = exc.code
    assert code in _DOCUMENTED_EXITS, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


_SCIPY_AFTER_COMMANDS = """
import contextlib, io, json, sys
from qdecoupling.cli import main
codes = []
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def test_cli_commands_do_not_import_scipy(tmp_path, rng):
    """Importing scipy.optimize took most of a command's cold start, and no command
    calls it: a fresh interpreter runs one of each and has loaded no scipy module."""
    p = write_state(random_state((("A", 4), ("E", 2)), 3, rng), tmp_path / "s.json")
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps([[[1.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]))
    out = str(tmp_path / "curve.csv")
    commands = [
        ["exponent-curve", "--state", p, "--task", "standard-decoupling", "--r-min", "0.2",
         "--r-max", "1.0", "--r-steps", "3", "--out", out],
        ["exponent-curve", "--task", "channel", "--gram", str(gram), "--r-min", "0.05",
         "--r-max", "0.3", "--r-steps", "2", "--out", out],
        ["decouple-mc", "--state", p, "--da1", "2", "--da2", "2", "--samples", "20"],
        ["verify", "--suite", "haar2", "--trials", "5", "--seed", "1"],
        ["divergence", p, p, "--kind", "sandwiched", "--alpha", "2"],
    ]
    import qdecoupling

    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(qdecoupling.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_COMMANDS],
                          input=json.dumps(commands), capture_output=True, text=True,
                          env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [EXIT_OK] * len(commands)
    assert scipy_modules == []
