"""Command-line surface: divergences, exponent curves, MC decoupling, verify.

Exit codes: 0 success, 2 parse or usage error, 3 precondition violation,
4 decoupling bound violated by the Monte Carlo estimate, 5 verification
suite failure, 6 numerical failure (an optimizer that diverged or an
eigensolver that did not converge).

State files are JSON documents {"dims": [{"label": ..., "dim": ...}, ...],
"matrix": [[[re, im], ...], ...]}; curve files are CSV with 17 significant
digits and "." as the decimal separator.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .channels import apply_channel, generalized_dephasing, pinching_channel, random_channel
from .condentropy import EntropyKind, cond_entropy, duality_pair, petz_up_closed_form
from .decoupling import (
    decoupling_error_lower_bound,
    decoupling_error_upper_bound_optimized,
    mc_decoupling_error,
    positive_part_inequality_sweep,
    sharp_trace_inequality,
    standard_instance,
)
from .divergences import divergence
from .exponents import (
    channel_coding_exponent,
    distillation_exponent,
    merging_exponents,
    standard_decoupling_exponents,
)
from .linalg import Spectrum, as_hermitian, distinct_eigenvalue_count
from .states import (
    State,
    haar_second_moment_exact,
    haar_unitary,
    heisenberg_weyl,
    make_rng,
    random_density,
    random_pure,
    random_state,
)

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


def doc_to_state(doc: dict) -> State:
    dims = tuple((str(e["label"]), int(e["dim"])) for e in doc["dims"])
    m = np.array(
        [[complex(re, im) for re, im in row] for row in doc["matrix"]], dtype=complex
    )
    return State(m, dims)


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
    val = divergence(a.density, b.density, args.kind, args.alpha)
    print(_fmt(val))
    return EXIT_OK


def _load_gram_channel(path: str):
    """The dephasing channel of a JSON [[re, im], ...] Gram matrix file."""
    with open(path) as fh:
        g = np.array([[complex(re, im) for re, im in row] for row in json.load(fh)])
    return generalized_dephasing(g)


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


# -- verification suites ---------------------------------------------------
#
# Each suite returns (max_violation, tolerance, offending State or None).


def _suite_divergence_props(trials, rng):
    worst, offender = 0.0, None
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        sig = random_density(d, d, rng)
        ch = random_channel(d, d, rng)
        checks = [("petz", a) for a in (0.3, 0.7, 1.5, 2.0)]
        checks += [("sandwiched", a) for a in (0.5, 0.8, 1.5, 3.0)]
        n_rho = _apply_raw(ch, rho)
        n_sig = _apply_raw(ch, sig)
        for kind, alpha in checks:
            before = divergence(rho, sig, kind, alpha)
            after = divergence(n_rho, n_sig, kind, alpha)
            if math.isinf(before):
                continue
            gap = after - before
            if gap > worst:
                worst, offender = gap, State(rho, (("A", d),))
        # monotonicity under growing the second argument
        pert = random_density(d, d, rng) * float(rng.uniform(0.1, 1.0))
        for kind, alpha in checks:
            grown = divergence(rho, sig + pert, kind, alpha)
            base = divergence(rho, sig, kind, alpha)
            if math.isinf(base):
                continue
            gap = grown - base
            if gap > worst:
                worst, offender = gap, State(rho, (("A", d),))
    return worst, 1e-8, offender


def _apply_raw(channel, rho):
    return apply_channel(channel, State(rho, (("X", rho.shape[0]),)), "X").density


def _suite_sharp_trace(trials, rng):
    worst, offender = 0.0, None
    for _ in range(trials):
        d = int(rng.integers(2, 9))
        rho = random_density(d, d, rng)
        sig = random_density(d, d, rng)
        for s in np.linspace(0.1, 1.0, 10):
            lhs, rhs = sharp_trace_inequality(rho, sig, float(s))
            if lhs - rhs > worst:
                worst, offender = lhs - rhs, State(rho, (("A", d),))
    return worst, 1e-9, offender


def _suite_superadditivity(trials, rng):
    rep = positive_part_inequality_sweep(trials, seed=int(rng.integers(2**31)))
    return rep.superadditivity_violation, 1e-9, None


def _suite_relent_floor(trials, rng):
    rep = positive_part_inequality_sweep(trials, seed=int(rng.integers(2**31)))
    return rep.relent_floor_violation, 1e-9, None


def _suite_haar2(trials, rng):
    n = max(trials, 1000)
    worst = 0.0
    for d in (2, 3):
        exact = haar_second_moment_exact(d)
        phi = np.eye(d).reshape(d * d) / np.sqrt(d)
        acc = np.zeros((d**4, d**4), dtype=complex)
        acc2 = np.zeros((d**4, d**4))
        for _ in range(n):
            u = haar_unitary(d, rng)
            vec = np.kron(u, np.eye(d)) @ phi
            w = np.kron(vec, vec)
            samp = np.outer(w, w.conj())
            acc += samp
            acc2 += np.abs(samp) ** 2
        mean = acc / n
        var = np.maximum(acc2 / n - np.abs(mean) ** 2, 0.0)
        stderr = np.sqrt(var / n)
        dev = np.abs(mean - exact)
        # entrywise deviation beyond 4 standard errors; structurally exact
        # entries (zero variance) must agree to machine precision
        worst = max(worst, float(np.max(dev - 4.0 * stderr)))
        # exact twirl identity for the finite unitary design
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tw = sum(u @ m @ u.conj().T for u in heisenberg_weyl(d)) / d**2
        ideal = np.trace(m) * np.eye(d) / d
        worst = max(worst, float(np.max(np.abs(tw - ideal))))
    return worst, 1e-10, None


def _suite_pinching(trials, rng):
    worst = 0.0
    offender = None
    for _ in range(trials):
        d = int(rng.integers(2, 7))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = as_hermitian(g + g.conj().T)
        sig = random_density(d, d, rng)
        ch = pinching_channel(h)
        pinched = _apply_raw(ch, sig)
        v = distinct_eigenvalue_count(h)
        viol = -float(np.min(Spectrum.eigvalsh(v * pinched - sig).values))
        if viol > worst:
            worst, offender = viol, State(sig, (("A", d),))
    return worst, 1e-10, offender


def _suite_duality(trials, rng):
    worst, offender = 0.0, None
    for k in range(trials):
        dims = (("A", 2), ("B", 2), ("C", 3)) if k % 2 == 0 else (("A", 2), ("B", 3), ("C", 2))
        psi = random_pure(dims, rng)
        for s in np.linspace(0.1, 1.0, 10):
            lhs, rhs = duality_pair(psi, ["A"], ["B"], ["C"], float(s))
            if abs(lhs - rhs) > worst:
                worst, offender = abs(lhs - rhs), psi
    return worst, 1e-6, offender


def _suite_additivity(trials, rng):
    worst, offender = 0.0, None
    kinds = [
        EntropyKind("petz", 0.6),
        EntropyKind("sandwiched", 1.5),
        EntropyKind("petz", 1.3, optimized=True),
    ]
    for _ in range(trials):
        x = random_state((("A", 2), ("B", 2)), int(rng.integers(1, 5)), rng)
        y = random_state((("C", 2), ("D", 2)), int(rng.integers(1, 5)), rng)
        joint = x.tensor_with(y)
        for kind in kinds:
            sep = cond_entropy(x, ["A"], ["B"], kind) + cond_entropy(y, ["C"], ["D"], kind)
            tot = cond_entropy(joint, ["A", "C"], ["B", "D"], kind)
            if abs(sep - tot) > worst:
                worst, offender = abs(sep - tot), joint
    return worst, 1e-6, offender


SUITES = {
    "divergence-props": _suite_divergence_props,
    "sharp-trace": _suite_sharp_trace,
    "superadditivity": _suite_superadditivity,
    "relent-floor": _suite_relent_floor,
    "haar2": _suite_haar2,
    "pinching": _suite_pinching,
    "duality": _suite_duality,
    "additivity": _suite_additivity,
}


def cmd_verify(args) -> int:
    if args.trials < 1:
        return _usage("--trials must be at least 1")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    failed = False
    for stream, name in enumerate(names):
        rng = make_rng(args.seed, stream=stream)
        worst, tol, offender = SUITES[name](args.trials, rng)
        ok = worst <= tol
        print(f"{name}: max violation {worst:.3e} (tolerance {tol:.0e}) "
              f"{'PASS' if ok else 'FAIL'}")
        if not ok:
            failed = True
            if offender is not None:
                path = f"verify-failure-{name}.json"
                save_state(offender, path)
                print(f"  offending instance (seed {args.seed}) written to {path}",
                      file=sys.stderr)
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
    v.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    v.add_argument("--trials", type=int, default=200)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, KeyError, FileNotFoundError) as exc:
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
