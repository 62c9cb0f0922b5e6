import json

import numpy as np
import pytest

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
from qdecoupling.divergences import classical_divergence_oracle
from qdecoupling.linalg import tensor
from qdecoupling.states import (
    State,
    make_rng,
    max_entangled,
    random_density,
    random_pure,
    random_state,
)

from conftest import commuting_pair


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


_ALPHA_ERROR = "precondition violated: alpha must be a positive finite number"


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
])
def test_bad_numeric_flags_exit_with_one_line(argv, code, first_line, tmp_path, capsys, rng):
    """A full-rank |A| = 2 state: each flag gets its exit code and one stderr line."""
    p = write_state(random_state((("A", 2), ("E", 1)), 2, rng), tmp_path / "a.json")
    assert main([a.format(p=p) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_line)


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
        lambda inst, n, seed=0: MCEstimate(mean=1e6, stderr=0.0, n_samples=n, seed=seed),
    )
    p = write_state(random_state((("A", 4), ("E", 2)), 2, rng), tmp_path / "s.json")
    code = main(["decouple-mc", "--state", p, "--da1", "2", "--da2", "2",
                 "--samples", "10", "--seed", "0"])
    assert code == EXIT_BOUND_VIOLATION
    capsys.readouterr()


def test_numerical_failure_exit(tmp_path, capsys, monkeypatch):
    import qdecoupling.cli as cli
    from qdecoupling.condentropy import OptimizerDivergence

    def diverge(*args, **kwargs):
        raise OptimizerDivergence("simplex minimizer hit 500 iterations")

    monkeypatch.setattr(cli, "standard_decoupling_exponents", diverge)
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
