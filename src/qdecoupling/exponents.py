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
achievable supremum is at min(s*, 1) (:func:`_achievable`), and merging's
dual route is checked at it.  Each exponent function keeps that object,
memoized on s, on its input ``State`` or ``Channel`` (see
``states.memo_on``), so a rate curve on one input evaluates each (input, s)
pair once.  Inputs are immutable; changing a state's density in place would
leave stale values.  The one exception is ``channel_coding_exponent``
without ``dephasing``, whose randomized input search is not concave, depends
on call order and is not memoized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .channels import Channel, apply_channel
from .condentropy import (
    ConditionalEntropy,
    PetzUpEntropy,
    channel_coherent_info,
    choi_cond_entropy,
    cond_vn_entropy,
    minimized_conditioning,
    sandwiched_cond_entropy,
)
from .linalg import Spectrum
from .states import State, make_rng, memo_on

S_MIN = 1e-4
S_CAP = 64.0


@dataclass(frozen=True)
class ExponentCurve:
    """The refined supremum of an objective s -> f(s) and where it is attained."""

    argmax_s: float
    sup_value: float


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
    def of(cls, ach: ExponentCurve, converse: float, critical_rate: float, exact: bool,
           capped: bool = False, diverges: bool = False, **extra) -> "ExponentResult":
        """Result whose achievable exponent is the supremum of ``ach``, clamped at 0."""
        return cls(max(0.0, ach.sup_value), converse, critical_rate, exact, ach.argmax_s,
                   capped, diverges, **extra)


def sup_on_interval(f, lo: float, hi: float, n_grid: int = 64) -> ExponentCurve:
    """Supremum of a scalar function on (lo, hi] by grid plus local refinement.

    The grid is geometric (dense near lo); the best cell is polished with a
    bounded scalar minimizer.  It assumes no concavity: it serves the
    randomized input search of ``channel_coding_exponent``, and
    :func:`concave_sup` serves every concave objective.
    """
    grid_s = np.geomspace(lo, hi, n_grid)
    vals = []
    for s in grid_s:
        v = f(float(s))
        if not math.isfinite(v):
            raise ValueError(f"objective is non-finite at s = {s:.6g}")
        vals.append(v)
    i = int(np.argmax(vals))
    a = float(grid_s[max(i - 1, 0)])
    b = float(grid_s[min(i + 1, n_grid - 1)])
    best_s, best_v = float(grid_s[i]), float(vals[i])
    if b - a > 1e-12:
        res = optimize.minimize_scalar(
            lambda s: -f(float(np.clip(s, lo, hi))),
            bounds=(a, b),
            method="bounded",
            options={"xatol": 1e-10},
        )
        if -res.fun > best_v:
            best_s, best_v = float(np.clip(res.x, lo, hi)), float(-res.fun)
    return ExponentCurve(best_s, best_v)


def _slope(s: float, phi, c: float) -> float:
    return c + phi(s)[1]


def concave_sup(phi, c: float, lo: float, hi: float) -> ExponentCurve:
    """Supremum of c s + phi(s) on [lo, hi] for a concave phi.

    ``phi(s)`` returns (phi, phi').  The maximizer is ``lo`` if the slope
    c + phi' is <= 0 there, ``hi`` if it is >= 0 there, and otherwise the
    one root of the slope, found by Brent's method to 1e-12.  ``phi`` goes in
    brentq's ``args``: its wrapper of the callable is a reference cycle, which
    would keep the entropy object alive until a cyclic garbage collection.
    """
    if _slope(lo, phi, c) <= 0.0:
        s = lo
    elif _slope(hi, phi, c) >= 0.0:
        s = hi
    else:
        s = optimize.brentq(_slope, lo, hi, args=(phi, c), xtol=1e-12, rtol=1e-12)
    return ExponentCurve(s, c * s + phi(s)[0])


def _half(phi):
    """s -> half of ``phi(s)``: the (s/2)-weighted objectives of merging and coding."""
    return lambda s: tuple(0.5 * x for x in phi(s))


def _converse_sup(phi, c: float, asym_slope: float | None):
    """Supremum of c s + phi(s) over s > 0: (value, capped, diverges, curve).

    A positive ``asym_slope``, the limit of the objective over s, means the
    supremum is +inf (``curve`` None).  Otherwise s_hi doubles from 1 while
    the slope c + phi'(s_hi) is > 0, up to S_CAP, and ``curve`` is
    :func:`concave_sup` on [S_MIN, s_hi].  ``capped``: the slope is > 0 at S_CAP.
    """
    if asym_slope is not None and asym_slope > 1e-9:
        return math.inf, False, True, None
    s_hi = 1.0
    while s_hi < S_CAP and c + phi(s_hi)[1] > 0.0:
        s_hi *= 2.0
    capped = c + phi(s_hi)[1] > 0.0
    curve = concave_sup(phi, c, S_MIN, s_hi)
    # the objective is 0 at s = 0, so the true supremum is >= 0
    return max(0.0, curve.sup_value), capped, False, curve


def _achievable(phi, c: float, hi: float, conv: ExponentCurve | None) -> ExponentCurve:
    """Supremum of c s + phi(s) on [S_MIN, hi]: at the converse maximizer s* if s* <= hi,
    else at hi, as the concave objective does not fall before s*; searched if ``conv`` is None."""
    if conv is None:
        return concave_sup(phi, c, S_MIN, hi)
    return conv if conv.argmax_s <= hi else ExponentCurve(hi, c * hi + phi(hi)[0])


# -- decoupling ------------------------------------------------------------


def decoupling_phi(rho_ae: State, channel: Channel):
    """s -> phi and phi' of s(H(A|E) + H(A'|C)), sandwiched, kept on the state and channel."""
    h_ae, h_ac = sandwiched_cond_entropy(rho_ae, ["A"], ["E"]), choi_cond_entropy(channel)
    return lambda s: tuple(x + y for x, y in zip(h_ae.phi(s), h_ac.phi(s)))


def decoupling_achievable_exponent(rho_ae: State, channel: Channel) -> float:
    """sup over s in (0,1) of s(H(A|E) + H(A'|C)), clamped at zero."""
    return max(0.0, concave_sup(decoupling_phi(rho_ae, channel), 0.0, S_MIN, 1.0).sup_value)


def critical_rate(rho_ae: State) -> float:
    """Derivative of -(s/2) H_{1+s}(A|E) at s = 1, in bits; computed once per state."""
    h = sandwiched_cond_entropy(rho_ae, ["A"], ["E"])
    return memo_on(rho_ae, ("critical_rate",), lambda: -0.5 * h.phi(1.0)[1])


def standard_decoupling_exponents(rho_ae: State, log_a: float, r: float) -> ExponentResult:
    """Achievable and converse exponents for decoupling by a partial trace.

    Objective f(s) = s(2r - log|A| + H_{1+s}(A|E)); achievable over (0, 1],
    converse over s > 0.  Exact characterization holds for r at or below the
    critical rate.
    """
    if r <= 0:
        raise ValueError("rate r must be positive")
    h = sandwiched_cond_entropy(rho_ae, ["A"], ["E"])
    c = 2.0 * r - log_a
    conv, capped, diverges, curve = _converse_sup(h.phi, c, c + h.min_entropy())
    rc = critical_rate(rho_ae)
    exact = r <= rc + 1e-12
    return ExponentResult.of(_achievable(h.phi, c, 1.0, curve), conv, rc, exact, capped, diverges)


def comparator_exponent(
    rho_ae: State,
    log_a: float,
    r: float,
    n_grid: int = 16,
) -> float:
    """Half the supremum of s(2r - log|A| + Hup_{1/(1-s)}(A|E)) over (0,1).

    Uses the optimized sandwiched entropy of order 1/(1-s), minimized
    numerically with the conditioning state warm-started along the s grid.
    This comparator never exceeds the standard achievable exponent.
    """
    if r <= 0:
        raise ValueError("rate r must be positive")
    best = -math.inf
    sigma0 = None
    for s in np.linspace(0.02, 0.98, n_grid):
        alpha = 1.0 / (1.0 - float(s))
        res = minimized_conditioning(rho_ae, ["A"], ["E"], "sandwiched", alpha, sigma0=sigma0)
        sigma0 = res.sigma
        h_up = -res.value
        best = max(best, 0.5 * float(s) * (2.0 * r - log_a + h_up))
    return max(0.0, best)


# -- state merging ---------------------------------------------------------


def _merging_terms(state: State, a_labels, b_labels, r_labels):
    """H(A|R), the sandwiched H(A|R) and the Petz Hup(A|B) of one pure state, for merging."""
    purity = float(np.real(np.trace(state.density @ state.density)))
    if purity < 1.0 - 1e-8:
        raise ValueError(f"state is not pure (tr rho^2 = {purity:.6f})")
    ar = state.marginal(*(list(a_labels) + list(r_labels)))
    ab = state.marginal(*(list(a_labels) + list(b_labels)))
    return (cond_vn_entropy(ar, a_labels, r_labels), ConditionalEntropy(ar, a_labels, r_labels),
            PetzUpEntropy.of(ab, a_labels, b_labels))


def merging_exponents(state: State, a_labels, b_labels, r_labels, r: float, mode: str) -> ExponentResult:
    """Merging exponents for a pure tripartite state, distill or cost mode.

    distill: needs H(A|R) > 0 and 0 < r < H(A|R); objective
    f(s) = (s/2)(H_{1+s}(A|R) - r).  cost: needs H(A|R) < 0 and
    r > -H(A|R); the rate enters with the opposite sign.  The dual route
    through -Hup(A|B) is evaluated once, at the maximizer (``duality_gap``).
    """
    if mode not in ("distill", "cost"):
        raise ValueError("mode must be 'distill' or 'cost'")
    labels = tuple(a_labels), tuple(b_labels), tuple(r_labels)
    h_vn, h, h_dual = memo_on(state, ("merging",) + labels,
                              lambda: _merging_terms(state, *labels))
    sign = -1.0 if mode == "distill" else 1.0
    if mode == "distill" and not (h_vn > 0 and 0 < r < h_vn):
        raise ValueError(f"distill mode needs 0 < r < H(A|R) = {h_vn:.6f}")
    if mode == "cost" and not (h_vn < 0 and r > -h_vn):
        raise ValueError(f"cost mode needs r > -H(A|R) = {-h_vn:.6f}")

    c, phi = 0.5 * sign * r, _half(h.phi)
    conv, capped, diverges, curve = _converse_sup(phi, c, 0.5 * (h.min_entropy() + sign * r))
    ach = _achievable(phi, c, 1.0 - 1e-9, curve)
    dual = c * ach.argmax_s + 0.5 * h_dual.phi(ach.argmax_s)[0]
    rc = h.phi(1.0)[1]
    exact = (r >= rc - 1e-12) if mode == "distill" else (r <= -rc + 1e-12)
    return ExponentResult.of(
        ach, conv, rc if mode == "distill" else -rc, exact, capped, diverges,
        duality_gap=abs(ach.sup_value - dual),
    )


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


def _petz_exponents(coh: PetzUpEntropy, r: float, converse: bool) -> ExponentResult:
    """(s/2)(I_{1/(1+s)} - r) of one Petz entropy, with its converse if ``converse``.

    The critical rate is the slope of s I_{1/(1+s)} at s = 1; without the
    converse it is reported as vacuous (+inf) and the result as not exact.
    """
    phi, c = _half(coh.phi), -0.5 * r
    rc = coh.phi(1.0)[1]
    conv, capped, diverges, curve = (_converse_sup(phi, c, None) if converse
                                     else (math.inf, False, False, None))
    ach = _achievable(phi, c, 1.0 - 1e-9, curve)
    return ExponentResult.of(ach, conv, rc, converse and r >= rc - 1e-12, capped, diverges)


def distillation_exponent(rho_cd: State, c_labels, d_labels, r: float) -> ExponentResult:
    """Single-copy distillation exponent (s/2)(I_{1/(1+s)}(C>D) - r).

    Uses the Petz coherent information.  For maximally correlated states the
    matching converse applies and the result is exact at rates at or above
    the derivative threshold at s = 1; otherwise the converse is reported
    as vacuous (+inf).
    """
    if r < 0:
        raise ValueError("rate r must be nonnegative")
    c_labels, d_labels = tuple(c_labels), tuple(d_labels)
    coh = memo_on(rho_cd, ("distill", c_labels, d_labels),
                  lambda: PetzUpEntropy.of(rho_cd, c_labels, d_labels))
    max_corr = len(c_labels) == 1 and len(d_labels) == 1 and is_maximally_correlated(
        rho_cd.permuted(c_labels[0], d_labels[0])
    )
    return _petz_exponents(coh, r, max_corr)


def channel_coding_exponent(
    channel: Channel,
    r: float,
    restarts: int = 8,
    dephasing: bool = False,
) -> ExponentResult:
    """Quantum channel coding exponent (s/2)(I_{1/(1+s)}(channel) - r).

    With ``dephasing=True`` the channel input is pinned to the maximally
    entangled state (sufficient for basis-preserving channels built from a
    Gram matrix) and the matching converse with exactness at high rates
    applies; otherwise the input is optimized per s by multi-start ascent,
    only the achievable direction is reported, and the critical rate is the
    slope at s = 1 at the best input found there (Danskin's theorem).
    """
    if r < 0:
        raise ValueError("rate r must be nonnegative")
    if dephasing:
        coh = memo_on(channel, ("dephasing",), lambda: PetzUpEntropy(channel.choi, channel.din))
        return _petz_exponents(coh, r, True)
    rng = make_rng(0)
    warm: dict[str, np.ndarray | None] = {"x0": None}

    def best_input(s: float) -> tuple[float, State]:
        val, inp = channel_coherent_info(channel, 1.0 / (1.0 + s), restarts=restarts, rng=rng,
                                         x0=warm["x0"])
        vec = Spectrum.eigh(inp.density).vectors[:, -1]
        warm["x0"] = np.concatenate([vec.real, vec.imag])
        return val, inp

    ach = sup_on_interval(lambda s: 0.5 * s * (best_input(s)[0] - r), S_MIN, 1.0 - 1e-9, n_grid=24)
    out = apply_channel(channel, best_input(1.0)[1], "A")
    rc = PetzUpEntropy.of(out, ["R"], ["A"]).phi(1.0)[1]
    return ExponentResult.of(ach, math.inf, rc, False)
