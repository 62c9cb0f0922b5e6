"""Independent checks of the program's outputs.

Nothing here calls the library under test.  The spectral functions, the
Renyi quantities and the oracles are written again with numpy and scipy, so
that a fault in the library cannot pass by agreeing with itself.  Every
check returns a list of problems; an empty list means the output passed.
All quantities are in bits.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.linalg import fractional_matrix_power
from scipy.optimize import minimize_scalar

# Absolute agreement with an independent computation of the same number.
AGREE_TOL = 1e-8
# Slack for orderings (achievable <= converse, monotone in r, bound checks).
ORDER_TOL = 1e-9
# Entropy duality of the optimized sandwiched entropies (about 1e-8 today).
DUALITY_TOL = 1e-6

S_LO = 1e-4

CSV_HEADER = ["r", "achievable", "converse", "exact"]


# -- spectral helpers -------------------------------------------------------


def _herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def psd_pow(p: np.ndarray, t: float) -> np.ndarray:
    """p^t of a PSD matrix; for t < 0 only on the support (pseudo-inverse)."""
    w, v = np.linalg.eigh(_herm(p))
    if t > 0:
        f = np.clip(w, 0.0, None) ** t
    else:
        keep = w > 1e-12 * max(1.0, float(np.max(np.abs(w))))
        f = np.zeros_like(w)
        f[keep] = w[keep] ** t
    return (v * f) @ v.conj().T


def trace_first(rho: np.ndarray, d_first: int) -> np.ndarray:
    """Partial trace over the first tensor factor of dimension ``d_first``."""
    d = rho.shape[0] // d_first
    return np.trace(rho.reshape(d_first, d, d_first, d), axis1=0, axis2=2)


def trace_second(rho: np.ndarray, d_first: int) -> np.ndarray:
    """Partial trace over everything after the first tensor factor."""
    d = rho.shape[0] // d_first
    return np.trace(rho.reshape(d_first, d, d_first, d), axis1=1, axis2=3)


def vn_entropy(rho: np.ndarray) -> float:
    w = np.linalg.eigvalsh(_herm(rho))
    w = w[w > 1e-14]
    return float(-np.sum(w * np.log2(w)))


def sandwiched(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """D~_alpha(rho || sigma) = log2 tr[(sigma^c rho sigma^c)^alpha] / (alpha - 1)."""
    g = psd_pow(sigma, (1.0 - alpha) / (2.0 * alpha))
    w = np.linalg.eigvalsh(_herm(g @ rho @ g))
    q = float(np.sum(np.clip(w, 0.0, None) ** alpha))
    return math.log2(q) / (alpha - 1.0)


def cond_sandwiched(rho: np.ndarray, d_a: int, alpha: float) -> float:
    """H~_alpha(A|B) = -D~_alpha(rho_AB || I_A x rho_B), A the first factor."""
    return -sandwiched(rho, np.kron(np.eye(d_a), trace_first(rho, d_a)), alpha)


def petz_coherent(rho: np.ndarray, d_a: int, alpha: float) -> float:
    """Optimized Petz I_alpha(A>B) = (alpha/(alpha-1)) log2 tr[(tr_A rho^alpha)^(1/alpha)]."""
    m = trace_first(psd_pow(rho, alpha), d_a)
    w = np.clip(np.linalg.eigvalsh(_herm(m)), 0.0, None)
    return (alpha / (alpha - 1.0)) * math.log2(float(np.sum(w ** (1.0 / alpha))))


def maximize(f, lo: float, hi: float, n_grid: int = 33) -> float:
    """Maximum of a unimodal f on [lo, hi]: coarse grid, then bounded Brent."""
    grid = np.geomspace(lo, hi, n_grid)
    vals = [f(float(s)) for s in grid]
    i = int(np.argmax(vals))
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, n_grid - 1)])
    res = minimize_scalar(lambda s: -f(float(s)), bounds=(a, b), method="bounded",
                          options={"xatol": 1e-12})
    return max(float(vals[i]), float(-res.fun))


def _memo(f):
    cache: dict[float, float] = {}

    def g(s: float) -> float:
        if s not in cache:
            cache[s] = f(s)
        return cache[s]

    return g


# -- exponent curves --------------------------------------------------------


def parse_curve(blob: bytes) -> tuple[list[list[float]], list[str]]:
    """CSV bytes -> rows of (r, achievable, converse, exact), plus problems."""
    rows = list(csv.reader(io.StringIO(blob.decode())))
    if not rows or rows[0] != CSV_HEADER:
        return [], [f"header is {rows[:1]}, expected {CSV_HEADER}"]
    out, problems = [], []
    for k, row in enumerate(rows[1:]):
        try:
            r, ach, conv, exact = (float(x) for x in row)
        except ValueError:
            problems.append(f"row {k}: cannot parse {row}")
            continue
        if row[3] not in ("0", "1"):
            problems.append(f"row {k}: exact flag {row[3]!r}")
        out.append([r, ach, conv, exact])
    return out, problems


def check_curve(blob: bytes, r_grid: np.ndarray, direction: int, expected=None,
                agree_tol: float = AGREE_TOL) -> list[str]:
    """Properties every curve must have, plus agreement with ``expected``.

    ``direction`` is +1 when exponents grow with r and -1 when they fall;
    ``expected(r_values)`` returns independent achievable exponents, which
    must agree within ``agree_tol``.
    """
    rows, problems = parse_curve(blob)
    if problems:
        return problems
    if len(rows) != len(r_grid) or any(row[0] != r for row, r in zip(rows, r_grid)):
        return [f"r column {[row[0] for row in rows]} is not the requested grid"]
    for k, (r, ach, conv, exact) in enumerate(rows):
        if not 0.0 <= ach <= conv + ORDER_TOL:
            problems.append(f"r={r:.6g}: not 0 <= achievable {ach!r} <= converse {conv!r}")
        if exact and not abs(ach - conv) <= AGREE_TOL:
            problems.append(f"r={r:.6g}: exact row with achievable {ach!r} != converse {conv!r}")
    for col, label in ((1, "achievable"), (2, "converse")):
        for a, b in zip(rows, rows[1:]):
            if math.isinf(a[col]) and math.isinf(b[col]):
                continue
            if direction * (b[col] - a[col]) < -ORDER_TOL:
                problems.append(f"{label} not monotone between r={a[0]:.6g} and r={b[0]:.6g}")
    if expected is not None:
        for (r, ach, _, _), want in zip(rows, expected(r_grid)):
            if not abs(ach - want) <= agree_tol:
                problems.append(f"r={r:.6g}: achievable {ach!r}, independent value {want!r}")
    return problems


def decoupling_achievable(rho_ae: np.ndarray, d_a: int, log_a: float):
    """r -> max(0, sup_s s(2r - log|A| + H~_{1+s}(A|E))) over s in (0, 1]."""
    h = _memo(lambda s: cond_sandwiched(rho_ae, d_a, 1.0 + s))

    def expected(r_values):
        return [max(0.0, maximize(lambda s: s * (2.0 * r - log_a + h(s)), S_LO, 1.0))
                for r in r_values]

    return expected


def dephasing_oracle(gram: np.ndarray):
    """Classical oracle for the dephasing channel's coding exponent.

    The output on the maximally entangled input is maximally correlated with
    coefficient matrix c = gram^T / d, so the Petz coherent information is a
    function of the diagonal of c^alpha alone.
    """
    c = gram.T / gram.shape[0]

    @_memo
    def coh(s: float) -> float:
        alpha = 1.0 / (1.0 + s)
        ca = fractional_matrix_power(c, alpha)
        total = float(np.sum(np.real(np.diag(ca)) ** (1.0 / alpha)))
        return (alpha / (alpha - 1.0)) * math.log2(total)

    def expected(r_values):
        out = []
        for r in r_values:
            res = minimize_scalar(lambda s: -0.5 * s * (coh(float(s)) - r),
                                  bounds=(1e-6, 1.0 - 1e-9), method="bounded",
                                  options={"xatol": 1e-12})
            out.append(max(0.0, float(-res.fun)))
        return out

    return expected


# -- Monte Carlo decoupling -------------------------------------------------


def prefactor(s: float) -> float:
    return 1.0 if s == 1.0 else s**s * (1.0 - s) ** (1.0 - s)


def check_mc(blob: bytes, rho_ae: np.ndarray, d_a1: int, d_a2: int, samples: int,
             seed: int, product: bool) -> list[str]:
    """The decouple-mc report against the bounds, recomputed independently.

    For the partial-trace channel A1 A2 -> A1 the Choi state is maximally
    entangled on A1 and maximally mixed on A2, so H~_{1+s}(A'|C) =
    log2(d_A2 / d_A1) for every s.
    """
    try:
        rep = json.loads(blob)
        mean, stderr, bound = float(rep["mean"]), float(rep["stderr"]), float(rep["bound_opt"])
        s_star, lower = float(rep["s_star"]), float(rep["lower"])
        n, n_inf, rep_seed = rep["n"], rep["n_infinite"], rep["seed"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"report does not parse: {exc!r}"]
    problems = []
    if n != samples or n_inf != 0 or rep_seed != seed:
        problems.append(f"n={n!r} n_infinite={n_inf!r} seed={rep_seed!r}, "
                        f"expected {samples}, 0, {seed}")
    if not mean - 3.0 * stderr <= bound:
        problems.append(f"mean - 3 stderr = {mean - 3.0 * stderr!r} exceeds bound {bound!r}")
    if not lower <= mean + 3.0 * stderr + ORDER_TOL:
        problems.append(f"lower bound {lower!r} exceeds mean + 3 stderr")
    if not 0.0 < s_star <= 1.0:
        problems.append(f"s_star {s_star!r} outside (0, 1]")
    else:
        h_ae = cond_sandwiched(rho_ae, d_a1 * d_a2, 1.0 + s_star)
        want = (prefactor(s_star) / s_star) * 2.0 ** (-s_star * (h_ae + math.log2(d_a2 / d_a1)))
        if not abs(bound - want) <= AGREE_TOL * max(1.0, abs(want)):
            problems.append(f"bound_opt {bound!r}, recomputed at s_star {want!r}")
    if product and not abs(mean) <= AGREE_TOL:
        problems.append(f"product instance has mean {mean!r}, expected 0")
    return problems


# -- optimized conditional entropies ----------------------------------------


def decode_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def check_minimized(value: float, sigma: np.ndarray, rho: np.ndarray, d_a: int,
                    alpha: float) -> list[str]:
    """The optimum is attained at the returned sigma and beats three candidates."""
    d_b = rho.shape[0] // d_a
    problems = []
    if not (abs(np.trace(sigma) - 1.0) <= 1e-9
            and np.min(np.linalg.eigvalsh(_herm(sigma))) >= -1e-12):
        problems.append("returned sigma is not a density matrix")
        return problems
    at_sigma = sandwiched(rho, np.kron(np.eye(d_a), sigma), alpha)
    if not abs(value - at_sigma) <= AGREE_TOL:
        problems.append(f"alpha={alpha}: value {value!r}, D~ at the returned sigma {at_sigma!r}")
    petz = psd_pow(trace_first(psd_pow(rho, alpha), d_a), 1.0 / alpha)
    candidates = {
        "rho_B": trace_first(rho, d_a),
        "I/d_B": np.eye(d_b) / d_b,
        "Petz optimizer": petz / np.real(np.trace(petz)),
    }
    for name, cand in candidates.items():
        other = sandwiched(rho, np.kron(np.eye(d_a), cand), alpha)
        if not value <= other + ORDER_TOL:
            problems.append(f"alpha={alpha}: value {value!r} exceeds D~ at {name} {other!r}")
    return problems


def check_dual_pair(blob: bytes, rho_ab: np.ndarray, rho_ac: np.ndarray, d_a: int,
                    alpha: float, beta: float) -> list[str]:
    try:
        doc = json.loads(blob)
        v_b, s_b = float(doc["B"]["value"]), decode_matrix(doc["B"]["sigma"])
        v_c, s_c = float(doc["C"]["value"]), decode_matrix(doc["C"]["sigma"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output does not parse: {exc!r}"]
    problems = check_minimized(v_b, s_b, rho_ab, d_a, alpha)
    problems += check_minimized(v_c, s_c, rho_ac, d_a, beta)
    if not abs(v_b + v_c) <= DUALITY_TOL:
        problems.append(f"duality: D*_{alpha}(A|B) + D*_{beta:.6g}(A|C) = {v_b + v_c!r}")
    return problems


def channel_output(choi: np.ndarray, d_in: int, d_out: int, psi: np.ndarray) -> np.ndarray:
    """(id_R x N)(|psi><psi|) for a normalized Choi matrix on (input, output)."""
    w = choi.reshape(d_in, d_out, d_in, d_out) * d_in
    m = psi.reshape(d_in, d_in)  # m[r, a] = <r a|psi>
    out = np.einsum("ra,acbd,sb->rcsd", m, w, m.conj())
    return out.reshape(d_in * d_out, d_in * d_out)


def check_coherent_info(blob: bytes, choi: np.ndarray, d_in: int, d_out: int,
                        alpha: float) -> list[str]:
    """Petz channel coherent information: bracketed, and attained at its input."""
    try:
        doc = json.loads(blob)
        value = float(doc["value"])
        inp = decode_matrix(doc["input"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output does not parse: {exc!r}"]
    phi = np.eye(d_in).reshape(d_in * d_in) / math.sqrt(d_in)
    at_phi = petz_coherent(channel_output(choi, d_in, d_out, phi), d_in, alpha)
    problems = []
    if not at_phi - ORDER_TOL <= value <= math.log2(d_in) + ORDER_TOL:
        problems.append(f"alpha={alpha}: value {value!r} outside "
                        f"[{at_phi!r}, log2 d_in = {math.log2(d_in)!r}]")
    w, v = np.linalg.eigh(_herm(inp))
    at_input = petz_coherent(channel_output(choi, d_in, d_out, v[:, -1]), d_in, alpha)
    if not abs(w[-1] - 1.0) <= 1e-9 or not abs(value - at_input) <= AGREE_TOL:
        problems.append(f"alpha={alpha}: value {value!r}, at the returned input {at_input!r}")
    return problems
