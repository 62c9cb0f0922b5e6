"""Property verification suites, keyed by the name ``qdecoupling verify --suite`` takes.

Each suite maps (trials, numpy generator) to (max_violation, tolerance,
offending State or None) and passes when the violation is at most the tolerance.
"""

import math

import numpy as np

from .channels import apply_channel, pinching_channel, random_channel
from .condentropy import EntropyKind, cond_entropy, duality_pair
from .decoupling import MC_CHUNK, positive_part_inequality_sweep, sharp_trace_inequality
from .divergences import divergence
from .linalg import Spectrum, as_hermitian, distinct_eigenvalue_count
from .states import (
    State,
    haar_second_moment_exact,
    haar_unitaries,
    heisenberg_weyl,
    random_density,
    random_pure,
    random_state,
)


def _suite_divergence_props(trials, rng):
    worst, offender = 0.0, None
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        rho = random_density(d, int(rng.integers(1, d + 1)), rng)
        sig = random_density(d, d, rng)
        ch = random_channel(d, d, rng)
        checks = [("petz", a) for a in (0.3, 0.7, 1.5, 2.0)]
        checks += [("sandwiched", a) for a in (0.5, 0.8, 1.5, 3.0)]
        pert = random_density(d, d, rng) * float(rng.uniform(0.1, 1.0))
        n_rho, n_sig = _apply_raw(ch, rho), _apply_raw(ch, sig)
        for kind, alpha in checks:
            base = divergence(rho, sig, kind, alpha)
            if math.isinf(base):
                continue
            # data processing, and monotonicity under growing the second argument
            for gap in (divergence(n_rho, n_sig, kind, alpha) - base,
                        divergence(rho, sig + pert, kind, alpha) - base):
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


def haar2_deviations(n, rng):
    """(worst_mc, worst_twirl) for d in {2, 3}: the n-sample Monte Carlo Haar second
    moment's largest entrywise excess over 4 standard errors, and the largest
    entrywise error of the exact Heisenberg-Weyl twirl of a random matrix.  Each
    stack of ``MC_CHUNK`` samples w w*, w = vec x vec, is summed by matrix products."""
    worst_mc, worst_twirl = -math.inf, 0.0
    for d in (2, 3):
        exact = haar_second_moment_exact(d)
        acc = np.zeros((d**4, d**4), dtype=complex)
        acc2 = np.zeros((d**4, d**4))
        for start in range(0, n, MC_CHUNK):
            u = haar_unitaries(d, min(MC_CHUNK, n - start), rng)
            # (U x I)|phi> has entries U[a, i] / sqrt(d) at index a * d + i
            vec = u.reshape(len(u), d * d) * (1.0 / np.sqrt(d))
            w = (vec[:, :, None] * vec[:, None, :]).reshape(len(u), d**4)
            acc += w.T @ w.conj()
            sq = np.abs(w) ** 2
            acc2 += sq.T @ sq
        mean = acc / n
        stderr = np.sqrt(np.maximum(acc2 / n - np.abs(mean) ** 2, 0.0) / n)
        worst_mc = max(worst_mc, float(np.max(np.abs(mean - exact) - 4.0 * stderr)))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tw = sum(u @ m @ u.conj().T for u in heisenberg_weyl(d)) / d**2
        worst_twirl = max(worst_twirl, float(np.max(np.abs(tw - np.trace(m) * np.eye(d) / d))))
    return worst_mc, worst_twirl


def _suite_haar2(trials, rng):
    return max(0.0, *haar2_deviations(max(trials, 1000), rng)), 1e-10, None


def _suite_pinching(trials, rng):
    worst, offender = 0.0, None
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
