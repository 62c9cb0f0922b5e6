"""Error-exponent formulas: one-dimensional suprema over s and critical rates.

Achievable exponents are suprema over s in (0, 1); converse exponents are
suprema over s > 0.  A converse supremum can genuinely diverge (the bound is
then vacuous); this is detected through the asymptotic slope and reported as
``math.inf`` with a flag rather than as a number at an arbitrary cutoff.
All rates and exponents are in bits.

Every objective is c(r) s + phi(s): the rate enters only c, and phi(s) =
s H~_{1+s} (sandwiched) or s I_{1/(1+s)} (Petz) is concave, so
:func:`concave_sup` finds the supremum as the one root of c + phi'(s), from
the exact slope that ``ConditionalEntropy.phi`` and ``PetzUpEntropy.phi``
return with the value.  One root s* per rate serves both directions: the
achievable supremum is at min(s*, 1) (:func:`_suprema`), and merging's
dual route is checked at it.  A ``*_curve`` function takes a whole grid of
rates: the roots advance in lockstep, each step of Brent's method
(:func:`_brent`) asking phi at one stack of s, one per rate still open, and
phi decomposes the orders it lacks in one stacked eigh.  Each exponent
function keeps its phi object, memoized on s, on its input ``State`` or
``Channel`` (see ``states.memo_on``), so curves on one input evaluate each
(input, s) pair once.  Inputs are immutable; changing a state's density in
place would leave stale values.  ``channel_coding_exponent`` alone is not
memoized: a randomized multi-start search over channel inputs, not concave,
keeps the best, with one :func:`concave_sup` over s at each input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, apply_channel
from .condentropy import (
    PetzUpEntropy,
    channel_coherent_info,
    choi_cond_entropy,
    input_search,
    merging_entropies,
    minimized_conditioning,
    sandwiched_cond_entropy,
)
from .linalg import Spectrum
from .states import State, make_rng, memo_on

S_MIN = 1e-4
S_CAP = 64.0
N_GRID = 24


@dataclass(frozen=True)
class ExponentCurve:
    """The refined supremum of an objective s -> f(s) and where it is attained, per rate."""

    argmax_s: float | np.ndarray
    sup_value: float | np.ndarray


@dataclass(frozen=True)
class ExponentResult:
    """Exponents at one rate.  ``duality_gap`` (merging only) is the pure-state
    duality H~_{1+s}(A|R) = -Hup_{1/(1+s)}(A|B) checked at s = ``argmax_s``."""

    achievable: float
    converse: float
    critical_rate: float
    exact: bool
    argmax_s: float
    converse_capped: bool = field(default=False)
    converse_diverges: bool = field(default=False)
    duality_gap: float = field(default=math.nan)

    @classmethod
    def of(cls, ach: ExponentCurve, converse, critical_rate, exact, capped=False,
           diverges=False, duality_gap=math.nan) -> list["ExponentResult"]:
        """One result per rate, each argument a scalar or an array over the rates; the
        achievable exponent is the supremum of ``ach``, clamped at 0."""
        v = np.asarray(ach.sup_value)
        cols = np.broadcast_arrays(np.where(v > 0.0, v, 0.0), converse, critical_rate, exact,
                                   ach.argmax_s, capped, diverges, duality_gap)
        return [cls(*row) for row in zip(*(np.atleast_1d(a).tolist() for a in cols))]


def sup_on_interval(f, lo: float, hi: float) -> ExponentCurve:
    """Supremum of a scalar function on (lo, hi] by grid plus local refinement.

    The grid is geometric (dense near lo); the best cell is polished with a
    bounded scalar minimizer.  No library code calls it, as every objective
    is concave (:func:`concave_sup`); perfbench's tracer looks it up by name.
    """
    grid_s = np.geomspace(lo, hi, N_GRID)
    vals = []
    for s in grid_s:
        v = f(float(s))
        if not math.isfinite(v):
            raise ValueError(f"objective is non-finite at s = {s:.6g}")
        vals.append(v)
    i = int(np.argmax(vals))
    a = float(grid_s[max(i - 1, 0)])
    b = float(grid_s[min(i + 1, N_GRID - 1)])
    best_s, best_v = float(grid_s[i]), float(vals[i])
    if b - a > 1e-12:
        from scipy import optimize  # here, not at the top: no CLI command imports scipy
        res = optimize.minimize_scalar(
            lambda s: -f(float(np.clip(s, lo, hi))),
            bounds=(a, b),
            method="bounded",
            options={"xatol": 1e-10},
        )
        if -res.fun > best_v:
            best_s, best_v = float(np.clip(res.x, lo, hi)), float(-res.fun)
    return ExponentCurve(best_s, best_v)


def _brent(a: float, b: float, fa: float, fb: float):
    """Root of a slope with fa = f(a) and fb = f(b) of opposite signs, by Brent's method.

    A generator: it yields each point to evaluate, is sent f there, and
    returns the root.  These are the steps of scipy's brentq (Brent,
    *Algorithms for Minimization without Derivatives*, 1973) with xtol = rtol
    = 1e-12 and at most 100 iterations; a NaN slope raises ValueError, as there.
    """
    xpre, xcur, fpre, fcur = a, b, fa, fb
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        for x, f in ((xpre, fpre), (xcur, fcur)):
            if math.isnan(f):
                raise ValueError(f"the slope is NaN at s = {x:.6g}; the root search cannot go on")
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (1e-12 + 1e-12 * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None  # an interpolation step, taken only when it stays well inside the bracket
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        good = stry is not None and 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if good else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = yield xcur
    raise RuntimeError("root search failed to converge after 100 iterations")


def concave_sup(phi, c, lo: float, hi) -> ExponentCurve:
    """Suprema of c s + phi(s) on [lo, hi] for a concave phi, as arrays over c and hi.

    ``phi`` maps a 1-D array of s to the arrays (phi, phi').  Each maximizer
    is ``lo`` if the slope c + phi' is <= 0 there, ``hi`` if it is >= 0
    there, and otherwise the root of the slope by :func:`_brent`.  The
    endpoint slopes take one ``phi`` call, and then each lockstep step of all
    open searches takes one.
    """
    c, hi = (np.array(a, dtype=float) for a in np.broadcast_arrays(np.atleast_1d(c), hi))
    d = phi(np.append(lo, hi))[1]
    d_lo, d_hi = c + d[0], c + d[1:]
    s = np.where(d_lo <= 0.0, lo, hi)
    idx = np.flatnonzero(~(d_lo <= 0.0) & ~(d_hi >= 0.0))
    searches = {i: _brent(lo, b, fa, fb) for i, b, fa, fb in
                zip(idx.tolist(), hi[idx].tolist(), d_lo[idx].tolist(), d_hi[idx].tolist())}
    sent = dict.fromkeys(searches)
    while sent:
        points = {}
        for i, f in sent.items():
            try:
                points[i] = searches[i].send(f)
            except StopIteration as root:
                s[i] = root.value
        if not points:
            break
        slope = c[list(points)] + phi(np.array(list(points.values())))[1]
        sent = dict(zip(points, slope.tolist()))
    return ExponentCurve(s, c * s + phi(s)[0])


def _half(phi):
    """s -> half of ``phi(s)``: the (s/2)-weighted objectives of merging and coding."""
    return lambda s: tuple(0.5 * x for x in phi(s))


def _suprema(phi, c: np.ndarray, hi: float, asym_slope, converse: bool = True):
    """Both suprema of c s + phi(s), per entry of c: (ach, converse, capped, diverges).

    ``ach`` is the ExponentCurve of the supremum on [S_MIN, hi].  The
    converse supremum, over s > 0, is +inf without ``converse`` and where
    ``asym_slope``, the limit of the objective over s, is positive
    (``diverges``).  Elsewhere one ``phi`` call on S_MIN and the ladder
    1, 2, 4, ..., S_CAP gives s_hi, the first ladder point where the slope
    c + phi'(s) is <= 0, or S_CAP; ``capped``: the slope is > 0 at S_CAP.  One
    :func:`concave_sup` call, with S_MIN and every s_hi already in phi's memo,
    finds each rate's maximizer s*, on [S_MIN, s_hi] where the converse is
    finite and on [S_MIN, hi] elsewhere.  The achievable supremum is at s* if
    s* <= hi, else at hi, as the concave objective does not fall before s*.
    """
    diverges = np.full(len(c), converse) & (asym_slope > 1e-9)
    fin = converse & ~diverges
    s_hi, capped = np.ones(len(c)), np.zeros(len(c), dtype=bool)
    if fin.any():
        ladder = 2.0 ** np.arange(int(math.log2(S_CAP)) + 1)
        down = c[fin, None] + phi(np.append(S_MIN, ladder))[1][1:] <= 0.0
        capped[fin] = ~down.any(axis=1)
        s_hi[fin] = np.where(capped[fin], S_CAP, ladder[down.argmax(axis=1)])
    sub = concave_sup(phi, c, S_MIN, np.where(fin, s_hi, hi))
    s, v = sub.argmax_s, sub.sup_value
    # the objective is 0 at s = 0, so the true supremum is >= 0
    conv = np.where(fin, np.where(v > 0.0, v, 0.0), math.inf)
    if (beyond := s > hi).any():
        s[beyond], v[beyond] = hi, c[beyond] * hi + phi(hi)[0]
    return ExponentCurve(s, v), conv, capped, diverges


# -- decoupling ------------------------------------------------------------


def decoupling_phi(rho_ae: State, channel: Channel):
    """s -> phi and phi' of s(H(A|E) + H(A'|C)), sandwiched, kept on the state and channel."""
    h_ae, h_ac = sandwiched_cond_entropy(rho_ae, ["A"], ["E"]), choi_cond_entropy(channel)
    return lambda s: tuple(x + y for x, y in zip(h_ae.phi(s), h_ac.phi(s)))


def critical_rate(rho_ae: State) -> float:
    """Derivative of -(s/2) H_{1+s}(A|E) at s = 1, in bits, from the state's memoized phi."""
    return -0.5 * sandwiched_cond_entropy(rho_ae, ["A"], ["E"]).phi(1.0)[1]


def standard_decoupling_curve(rho_ae: State, log_a: float, rates) -> list[ExponentResult]:
    """Achievable and converse exponents for decoupling by a partial trace, per rate.

    Objective f(s) = s(2r - log|A| + H_{1+s}(A|E)); achievable over (0, 1],
    converse over s > 0.  Exact characterization holds for r at or below the
    critical rate.
    """
    r = np.asarray(rates, dtype=float)
    if (r <= 0).any():
        raise ValueError("rate r must be positive")
    h = sandwiched_cond_entropy(rho_ae, ["A"], ["E"])
    c = 2.0 * r - log_a
    ach, conv, capped, diverges = _suprema(h.phi, c, 1.0, c + h.min_entropy())
    rc = critical_rate(rho_ae)
    return ExponentResult.of(ach, conv, rc, r <= rc + 1e-12, capped, diverges)


def standard_decoupling_exponents(rho_ae: State, log_a: float, r: float) -> ExponentResult:
    """:func:`standard_decoupling_curve` at the one rate ``r``."""
    return standard_decoupling_curve(rho_ae, log_a, [r])[0]


def comparator_exponent(
    rho_ae: State,
    log_a: float,
    r: float,
    n_grid: int = 16,
) -> float:
    """Half the supremum of s(2r - log|A| + Hup_{1/(1-s)}(A|E)) over (0,1).

    Uses the optimized sandwiched entropy of order 1/(1-s), minimized
    numerically by one cold-started descent at each point of the s grid.
    This comparator never exceeds the standard achievable exponent.
    """
    if r <= 0:
        raise ValueError("rate r must be positive")
    best = -math.inf
    for s in np.linspace(0.02, 0.98, n_grid):
        alpha = 1.0 / (1.0 - float(s))
        h_up = -minimized_conditioning(rho_ae, ["A"], ["E"], "sandwiched", alpha).value
        best = max(best, 0.5 * float(s) * (2.0 * r - log_a + h_up))
    return max(0.0, best)


# -- state merging ---------------------------------------------------------


def merging_curve(state: State, a_labels, b_labels, r_labels, rates,
                  mode: str) -> list[ExponentResult]:
    """Merging exponents for a pure tripartite state, distill or cost mode, per rate.

    distill: needs H(A|R) > 0 and 0 < r < H(A|R); objective
    f(s) = (s/2)(H_{1+s}(A|R) - r).  cost: needs H(A|R) < 0 and
    r > -H(A|R); the rate enters with the opposite sign.  The dual route
    through -Hup(A|B) is evaluated once, at the maximizer (``duality_gap``).
    """
    if mode not in ("distill", "cost"):
        raise ValueError("mode must be 'distill' or 'cost'")
    h, h_dual = merging_entropies(state, a_labels, b_labels, r_labels)
    h_vn = h.phi(0.0)[1]  # H(A|R) = phi'(0) of phi(s) = s H~_{1+s}(A|R)
    sign = -1.0 if mode == "distill" else 1.0
    r = np.asarray(rates, dtype=float)
    if mode == "distill" and not (h_vn > 0 and ((0 < r) & (r < h_vn)).all()):
        raise ValueError(f"distill mode needs 0 < r < H(A|R) = {h_vn:.6f}")
    if mode == "cost" and not (h_vn < 0 and (r > -h_vn).all()):
        raise ValueError(f"cost mode needs r > -H(A|R) = {-h_vn:.6f}")

    c, phi = 0.5 * sign * r, _half(h.phi)
    ach, conv, capped, diverges = _suprema(phi, c, 1.0 - 1e-9, 0.5 * (h.min_entropy() + sign * r))
    dual = c * ach.argmax_s + 0.5 * h_dual.phi(ach.argmax_s)[0]
    rc = h.phi(1.0)[1]
    exact = (r >= rc - 1e-12) if mode == "distill" else (r <= -rc + 1e-12)
    return ExponentResult.of(
        ach, conv, rc if mode == "distill" else -rc, exact, capped, diverges,
        duality_gap=abs(ach.sup_value - dual),
    )


def merging_exponents(state: State, a_labels, b_labels, r_labels, r: float, mode: str) -> ExponentResult:
    """:func:`merging_curve` at the one rate ``r``."""
    return merging_curve(state, a_labels, b_labels, r_labels, [r], mode)[0]


# -- entanglement distillation and channel coding --------------------------


def is_maximally_correlated(state: State) -> bool:
    """Whether the bipartite state is supported on span{|xx>}."""
    if len(state.dims) != 2 or state.dims[0][1] != state.dims[1][1]:
        return False
    d = state.dims[0][1]
    mask = np.ones((d * d, d * d), dtype=bool)
    idx = [x * d + x for x in range(d)]
    mask[np.ix_(idx, idx)] = False
    return float(np.max(np.abs(state.density[mask]))) <= 1e-10


def _petz_curve(coh: PetzUpEntropy, r: np.ndarray, converse: bool) -> list[ExponentResult]:
    """(s/2)(I_{1/(1+s)} - r) of one Petz entropy per rate, with its converse if ``converse``.

    The critical rate is the slope of s I_{1/(1+s)} at s = 1; without the
    converse it is reported as vacuous (+inf) and the result as not exact.
    """
    phi, c = _half(coh.phi), -0.5 * r
    rc = coh.phi(1.0)[1]
    ach, conv, capped, diverges = _suprema(phi, c, 1.0 - 1e-9, -math.inf, converse)
    return ExponentResult.of(ach, conv, rc, converse & (r >= rc - 1e-12), capped, diverges)


def distillation_curve(rho_cd: State, c_labels, d_labels, rates) -> list[ExponentResult]:
    """Single-copy distillation exponent (s/2)(I_{1/(1+s)}(C>D) - r), per rate.

    Uses the Petz coherent information.  For maximally correlated states the
    matching converse applies and the result is exact at rates at or above
    the derivative threshold at s = 1; otherwise the converse is reported
    as vacuous (+inf).
    """
    r = np.asarray(rates, dtype=float)
    if (r < 0).any():
        raise ValueError("rate r must be nonnegative")
    c_labels, d_labels = tuple(c_labels), tuple(d_labels)
    coh = memo_on(rho_cd, ("distill", c_labels, d_labels),
                  lambda: PetzUpEntropy.of(rho_cd, c_labels, d_labels))
    max_corr = len(c_labels) == 1 and len(d_labels) == 1 and is_maximally_correlated(
        rho_cd.permuted(c_labels[0], d_labels[0])
    )
    return _petz_curve(coh, r, max_corr)


def distillation_exponent(rho_cd: State, c_labels, d_labels, r: float) -> ExponentResult:
    """:func:`distillation_curve` at the one rate ``r``."""
    return distillation_curve(rho_cd, c_labels, d_labels, [r])[0]


def dephasing_channel_curve(channel: Channel, rates) -> list[ExponentResult]:
    """Coding exponents of a basis-preserving channel, per rate, its input pinned to the
    maximally entangled state (sufficient for basis-preserving channels built from a Gram
    matrix), so the matching converse, exact at high rates, applies."""
    r = np.asarray(rates, dtype=float)
    if (r < 0).any():
        raise ValueError("rate r must be nonnegative")
    coh = memo_on(channel, ("dephasing",),
                  lambda: PetzUpEntropy(Spectrum.eigh(channel.choi), channel.din))
    return _petz_curve(coh, r, True)


def _coding_entropy(r: float):
    """coh -> (-E, its gradient in rho_RB), E = sup_s (s/2)(I_{1/(1+s)} - r) on [S_MIN, 1) of
    the output whose Petz entropy is ``coh``, by one :func:`concave_sup`.  By Danskin's theorem
    (Danskin, *The Theory of Max-Min*, 1967) the gradient is (s*/2) G of
    ``coh.value_and_gradient(1/(1+s*))`` at the maximizer s*."""
    def entropy(coh: PetzUpEntropy) -> tuple[float, np.ndarray]:
        sup = concave_sup(_half(coh.phi), -0.5 * r, S_MIN, 1.0 - 1e-9)
        s = float(sup.argmax_s[0])
        return -float(sup.sup_value[0]), 0.5 * s * coh.value_and_gradient(1.0 / (1.0 + s))[1]

    return entropy


def channel_coding_exponent(channel: Channel, r: float, restarts: int = 8) -> ExponentResult:
    """Quantum channel coding exponent sup_s (s/2)(I_{1/(1+s)}(channel) - r).

    The suprema over s and over the input commute, so one multi-start input search
    (:func:`condentropy.input_search`) runs on the per-input exponent of
    :func:`_coding_entropy`; ``argmax_s`` is its s* at the best input.  Only the
    achievable direction is reported, and the critical rate is the slope at s = 1
    at the best input for I_{1/2} (Danskin's theorem).  For a basis-preserving
    channel, :func:`dephasing_channel_curve` pins the input and adds the converse.
    """
    if r < 0:
        raise ValueError("rate r must be nonnegative")
    rng = make_rng(0)
    best = input_search(channel, _coding_entropy(r), restarts, rng)[1]
    coh = PetzUpEntropy.of(apply_channel(channel, best, "A"), ["R"], ["A"])
    ach = concave_sup(_half(coh.phi), -0.5 * r, S_MIN, 1.0 - 1e-9)
    best = channel_coherent_info(channel, 0.5, restarts=restarts, rng=rng)[1]
    rc = PetzUpEntropy.of(apply_channel(channel, best, "A"), ["R"], ["A"]).phi(1.0)[1]
    return ExponentResult.of(ach, math.inf, rc, False)[0]
