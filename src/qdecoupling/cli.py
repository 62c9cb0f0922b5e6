"""Command-line surface: divergences, exponent curves, MC decoupling, verify.

Exit codes: 0 success, 2 parse or usage error (including a state or Gram
file without the structure below), 3 precondition violation, 4 decoupling
bound violated by the Monte Carlo estimate, 5 verification suite failure
(the offending instance goes to verify-failure-<suite>-seed<N>.json),
6 numerical failure (an optimizer that diverged, an eigensolver that did
not converge, or a divergence that evaluated to nan).  ``verify`` runs the
suites of ``qdecoupling.verify``.

State files are JSON documents {"dims": [{"label": ..., "dim": ...}, ...],
"matrix": [[[re, im], ...], ...]} with each dim an integral number >= 1;
Gram files hold the bare matrix; curve files are CSV with 17 significant
digits and "." as the decimal separator.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import verify
from .channels import generalized_dephasing
from .decoupling import (
    decoupling_error_lower_bound,
    decoupling_error_upper_bound_optimized,
    mc_decoupling_error,
    standard_instance,
)
from .divergences import divergence
from .exponents import (
    channel_coding_exponent,
    distillation_exponent,
    merging_exponents,
    standard_decoupling_exponents,
)
from .states import State, make_rng

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_BOUND_VIOLATION = 4
EXIT_VERIFY_FAIL = 5
EXIT_NUMERICAL = 6


# -- state file io ---------------------------------------------------------


def state_to_doc(state: State) -> dict:
    return {
        "dims": [{"label": l, "dim": d} for l, d in state.dims],
        "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in state.density],
    }


class ParseError(Exception):
    """A state or Gram file whose JSON does not have the documented structure."""


def _read_matrix(rows) -> np.ndarray:
    """The complex matrix of JSON rows of [re, im] pairs."""
    try:
        return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"a matrix must be rows of [re, im] pairs ({exc})") from None


def _read_dim(value) -> int:
    """A subsystem size: an integral JSON number >= 1 (2 or 2.0, not 2.7, 0 or "2")."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value >= 1 and value == int(value)):
        raise ParseError(f"dim must be an integral number >= 1, got {value!r}")
    return int(value)


def doc_to_state(doc: dict) -> State:
    try:
        dims = tuple((str(e["label"]), _read_dim(e["dim"])) for e in doc["dims"])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"dims must be a list of {{label, dim}} objects ({exc})") from None
    return State(_read_matrix(doc["matrix"]), dims)


def load_state(path: str) -> State:
    with open(path) as fh:
        return doc_to_state(json.load(fh))


def save_state(state: State, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_doc(state), fh)


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.17g}"


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


# -- subcommands -----------------------------------------------------------


def cmd_divergence(args) -> int:
    a = load_state(args.state_a)
    b = load_state(args.state_b)
    if args.kind in ("petz", "sandwiched") and args.alpha is None:
        return _usage("--alpha is required for Renyi divergences")
    # an overflowing power ends in nan, reported once below, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        val = divergence(a.density, b.density, args.kind, args.alpha)
    if math.isnan(val):
        raise RuntimeError(f"the {args.kind} divergence evaluated to nan")
    print(_fmt(val))
    return EXIT_OK


def _load_gram_channel(path: str):
    """The dephasing channel of a JSON [[re, im], ...] Gram matrix file."""
    with open(path) as fh:
        return generalized_dephasing(_read_matrix(json.load(fh)))


# exponent-curve tasks: the input option and the exponents at one rate on
# the loaded input.  Functions are looked up by name when called, so
# rebinding one in this module (a tracer, a test double) takes effect.
CURVE_TASKS = {
    "standard-decoupling": ("state", lambda st, r, args: standard_decoupling_exponents(
        st, math.log2(st.dim_of("A")) if args.log_a is None else args.log_a, r)),
    "merging-d": ("state", lambda st, r, args: merging_exponents(
        st, ["A"], ["B"], ["R"], r, "distill")),
    "merging-c": ("state", lambda st, r, args: merging_exponents(
        st, ["A"], ["B"], ["R"], r, "cost")),
    "distill": ("state", lambda st, r, args: distillation_exponent(
        st, [st.labels[0]], [st.labels[1]], r)),
    "channel": ("gram", lambda ch, r, args: channel_coding_exponent(ch, r, dephasing=True)),
}


def cmd_exponent_curve(args) -> int:
    if args.r_steps < 1:
        return _usage("--r-steps must be at least 1")
    if args.r_min > args.r_max:
        return _usage("--r-min must not exceed --r-max")
    option, at_rate = CURVE_TASKS[args.task]
    path = getattr(args, option)
    if path is None:
        return _usage(f"--{option} is required for the {args.task} task")
    inp = load_state(path) if option == "state" else _load_gram_channel(path)
    rows = []
    for r in np.linspace(args.r_min, args.r_max, args.r_steps):
        res = at_rate(inp, float(r), args)
        rows.append([_fmt(float(r)), _fmt(res.achievable), _fmt(res.converse),
                     str(int(res.exact))])
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["r", "achievable", "converse", "exact"])
        w.writerows(rows)
    return EXIT_OK


def cmd_decouple_mc(args) -> int:
    state = load_state(args.state)
    inst = standard_instance(state, args.da1, args.da2)
    est = mc_decoupling_error(inst, args.samples, seed=args.seed)
    bound, s_star = decoupling_error_upper_bound_optimized(inst)
    lower = decoupling_error_lower_bound(state, args.da1, args.da2)
    report = {
        "mean": est.mean,
        "stderr": est.stderr,
        "n": est.n_samples,
        "n_infinite": est.n_infinite,
        "bound_opt": bound,
        "s_star": s_star,
        "lower": lower,
        "seed": args.seed,
    }
    print(json.dumps(report, sort_keys=True))
    if est.mean - 3.0 * est.stderr > bound:
        print("bound violation: mean - 3*stderr exceeds the optimized upper bound",
              file=sys.stderr)
        return EXIT_BOUND_VIOLATION
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        return _usage("--trials must be at least 1")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for stream, name in enumerate(names):
        rng = make_rng(args.seed, stream=stream)
        worst, tol, offender = verify.SUITES[name](args.trials, rng)
        ok = worst <= tol
        print(f"{name}: max violation {worst:.3e} (tolerance {tol:.0e}) "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok:
            failed = True
            if offender is not None:
                path = f"verify-failure-{name}-seed{args.seed}.json"
                save_state(offender, path)
                print(f"  offending instance written to {path}", file=sys.stderr)
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qdecoupling",
        description="Decoupling bounds, Renyi entropies and error exponents "
        "on dense quantum states.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("divergence", help="divergence between two state files")
    d.add_argument("state_a")
    d.add_argument("state_b")
    d.add_argument("--kind", choices=["umegaki", "petz", "sandwiched", "max"],
                   default="umegaki")
    d.add_argument("--alpha", type=float, default=None)
    d.set_defaults(func=cmd_divergence)

    e = sub.add_parser("exponent-curve", help="rate/exponent curve as CSV")
    e.add_argument("--state", required=False)
    e.add_argument("--task", required=True, choices=list(CURVE_TASKS))
    e.add_argument("--gram", default=None,
                   help="JSON [[re,im],...] Gram matrix (channel task)")
    e.add_argument("--r-min", type=float, required=True)
    e.add_argument("--r-max", type=float, required=True)
    e.add_argument("--r-steps", type=int, default=20)
    e.add_argument("--log-a", type=float, default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_exponent_curve)

    m = sub.add_parser("decouple-mc", help="Monte Carlo decoupling error report")
    m.add_argument("--state", required=True)
    m.add_argument("--da1", type=int, required=True)
    m.add_argument("--da2", type=int, required=True)
    m.add_argument("--samples", type=int, default=500)
    m.add_argument("--seed", type=int, default=0)
    m.set_defaults(func=cmd_decouple_mc)

    v = sub.add_parser("verify", help="run a property verification suite")
    v.add_argument("--suite", choices=list(verify.SUITES) + ["all"], default="all")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, json.JSONDecodeError, KeyError, FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
