"""Error-exponent formulas: one-dimensional suprema over s and critical rates.

Achievable exponents are suprema over s in (0, 1); converse exponents are
suprema over s > 0, evaluated by bracket doubling.  A converse supremum can
genuinely diverge (the bound is then vacuous); this is detected through the
asymptotic slope and reported as ``math.inf`` with a flag rather than as a
number at an arbitrary cutoff.  All rates and exponents are in bits.

The rate enters every objective linearly, so the expensive part, the
entropy at each s, depends on the input alone.  Each exponent function
keeps that part on its input ``State`` or ``Channel`` (see
``states.memo_on``): the entropy is memoized on s, and the critical rate
and the asymptotic slope are computed once.  A rate curve on one input
object therefore evaluates each (input, s) pair once.  Inputs are
immutable; changing a state's density in place would leave stale values.
The one exception is ``channel_coding_exponent`` without ``dephasing``,
whose randomized input search depends on call order and is not memoized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .channels import Channel
from .condentropy import (
    ConditionalEntropy,
    SimplexOptimizerConfig,
    _petz_coherent_of_output,
    channel_coherent_info,
    choi_cond_entropy,
    cond_vn_entropy,
    minimized_conditioning,
    petz_up_closed_form,
    sandwiched_cond_entropy,
)
from .linalg import Spectrum
from .states import State, make_rng, memo_on

S_MIN = 1e-4
S_CAP = 64.0


@dataclass(frozen=True)
class ExponentCurve:
    """Sampled objective s -> f(s) with its refined supremum."""

    grid: tuple[tuple[float, float], ...]
    argmax_s: float
    sup_value: float


@dataclass(frozen=True)
class ExponentResult:
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
    bounded scalar minimizer.  Exact for the concave objectives used here.
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
    grid = tuple((float(s), float(v)) for s, v in zip(grid_s, vals))
    return ExponentCurve(grid, best_s, best_v)


def _fd_derivative(g, x: float, h: float = 1e-4) -> float:
    """Central difference with one Richardson extrapolation step."""
    d1 = (g(x + h) - g(x - h)) / (2.0 * h)
    d2 = (g(x + h / 2.0) - g(x - h / 2.0)) / h
    return (4.0 * d2 - d1) / 3.0


def _converse_sup(f, asym_slope: float | None):
    """Supremum over s > 0: bracket doubling with divergence detection.

    Returns (value, capped, diverges).  ``asym_slope`` is the known
    limit of f(s)/s as s grows; a positive limit means the supremum is +inf.
    """
    if asym_slope is not None and asym_slope > 1e-9:
        return math.inf, False, True
    s_hi = 1.0
    while s_hi < S_CAP:
        ds = s_hi * 1e-5
        if (f(s_hi) - f(s_hi - ds)) / ds < 0:
            break
        s_hi *= 2.0
    s_hi = min(s_hi, S_CAP)
    capped = s_hi >= S_CAP
    curve = sup_on_interval(f, S_MIN, s_hi)
    # f(0+) = 0 for every objective here, so the true supremum is >= 0
    return max(0.0, curve.sup_value), capped, False


def _coherent_curve(owner, key, coh):
    """(coh memoized on s, the slope of s * coh(s) at s = 1), kept on ``owner``."""

    def make():
        cached = functools.cache(coh)
        return cached, _fd_derivative(lambda s: s * cached(s), 1.0)

    return memo_on(owner, key, make)


# -- decoupling ------------------------------------------------------------


def decoupling_achievable_exponent(rho_ae: State, channel: Channel) -> float:
    """sup over s in (0,1) of s(H(A|E) + H(A'|C)), clamped at zero."""
    h_ae = sandwiched_cond_entropy(rho_ae, ["A"], ["E"])
    h_ac = choi_cond_entropy(channel)
    curve = sup_on_interval(lambda s: s * (h_ae(1.0 + s) + h_ac(1.0 + s)), S_MIN, 1.0)
    return max(0.0, curve.sup_value)


def critical_rate(rho_ae: State) -> float:
    """Derivative of -(s/2) H_{1+s}(A|E) at s = 1, in bits; computed once per state."""
    h = sandwiched_cond_entropy(rho_ae, ["A"], ["E"])
    return memo_on(rho_ae, ("critical_rate",),
                   lambda: _fd_derivative(lambda s: -0.5 * s * h(1.0 + s), 1.0))


def standard_decoupling_exponents(rho_ae: State, log_a: float, r: float) -> ExponentResult:
    """Achievable and converse exponents for decoupling by a partial trace.

    Objective f(s) = s(2r - log|A| + H_{1+s}(A|E)); achievable over (0, 1],
    converse over s > 0.  Exact characterization holds for r at or below the
    critical rate.
    """
    if r <= 0:
        raise ValueError("rate r must be positive")
    h = sandwiched_cond_entropy(rho_ae, ["A"], ["E"])

    def f(s: float) -> float:
        return s * (2.0 * r - log_a + h(1.0 + s))

    ach_curve = sup_on_interval(f, S_MIN, 1.0)
    conv, capped, diverges = _converse_sup(f, 2.0 * r - log_a + h.min_entropy())
    rc = critical_rate(rho_ae)
    exact = r <= rc + 1e-12
    return ExponentResult.of(ach_curve, conv, rc, exact, capped, diverges)


def comparator_exponent(
    rho_ae: State,
    log_a: float,
    r: float,
    n_grid: int = 16,
    config: SimplexOptimizerConfig | None = None,
) -> float:
    """Half the supremum of s(2r - log|A| + Hup_{1/(1-s)}(A|E)) over (0,1).

    Uses the optimized sandwiched entropy of order 1/(1-s), minimized
    numerically with the conditioning state warm-started along the s grid.
    This comparator never exceeds the standard achievable exponent.
    """
    if r <= 0:
        raise ValueError("rate r must be positive")
    cfg = config or SimplexOptimizerConfig()
    best = -math.inf
    sigma0 = None
    for s in np.linspace(0.02, 0.98, n_grid):
        alpha = 1.0 / (1.0 - float(s))
        res = minimized_conditioning(
            rho_ae, ["A"], ["E"], "sandwiched", alpha, cfg, sigma0=sigma0
        )
        sigma0 = res.sigma
        h_up = -res.value
        best = max(best, 0.5 * float(s) * (2.0 * r - log_a + h_up))
    return max(0.0, best)


# -- state merging ---------------------------------------------------------


def _merging_terms(state: State, a_labels, b_labels, r_labels):
    """The rate-independent parts of the merging exponents of one pure state.

    Returns H(A|R), the sandwiched H_alpha(A|R), s -> -Hup_{1/(1+s)}(A|B)
    (Petz, memoized on s) and the slope of s * H_{1+s}(A|R) at s = 1.
    """
    purity = float(np.real(np.trace(state.density @ state.density)))
    if purity < 1.0 - 1e-8:
        raise ValueError(f"state is not pure (tr rho^2 = {purity:.6f})")
    ar = state.marginal(*(list(a_labels) + list(r_labels)))
    ab = state.marginal(*(list(a_labels) + list(b_labels)))
    h = ConditionalEntropy(ar, a_labels, r_labels)

    @functools.cache
    def h_dual(s: float) -> float:
        return -petz_up_closed_form(ab, a_labels, b_labels, 1.0 / (1.0 + s))

    rc = _fd_derivative(lambda s: s * h(1.0 + s), 1.0)
    return cond_vn_entropy(ar, a_labels, r_labels), h, h_dual, rc


def merging_exponents(state: State, a_labels, b_labels, r_labels, r: float, mode: str) -> ExponentResult:
    """Merging exponents for a pure tripartite state, distill or cost mode.

    distill: needs H(A|R) > 0 and 0 < r < H(A|R); objective
    f(s) = (s/2)(H_{1+s}(A|R) - r).  cost: needs H(A|R) < 0 and
    r > -H(A|R); the rate enters with the opposite sign.  The achievable
    value is cross-checked against the dual route through -Hup(A|B).
    """
    if mode not in ("distill", "cost"):
        raise ValueError("mode must be 'distill' or 'cost'")
    labels = tuple(a_labels), tuple(b_labels), tuple(r_labels)
    h_vn, h, h_dual, rc = memo_on(state, ("merging",) + labels,
                                  lambda: _merging_terms(state, *labels))
    sign = -1.0 if mode == "distill" else 1.0
    if mode == "distill" and not (h_vn > 0 and 0 < r < h_vn):
        raise ValueError(f"distill mode needs 0 < r < H(A|R) = {h_vn:.6f}")
    if mode == "cost" and not (h_vn < 0 and r > -h_vn):
        raise ValueError(f"cost mode needs r > -H(A|R) = {-h_vn:.6f}")

    def f(s: float) -> float:
        return 0.5 * s * (h(1.0 + s) + sign * r)

    def f_dual(s: float) -> float:
        return 0.5 * s * (h_dual(s) + sign * r)

    ach = sup_on_interval(f, S_MIN, 1.0 - 1e-9)
    ach_dual = sup_on_interval(f_dual, S_MIN, 1.0 - 1e-9)
    conv, capped, diverges = _converse_sup(f, 0.5 * (h.min_entropy() + sign * r))
    exact = (r >= rc - 1e-12) if mode == "distill" else (r <= -rc + 1e-12)
    return ExponentResult.of(
        ach, conv, rc if mode == "distill" else -rc, exact, capped, diverges,
        duality_gap=abs(ach.sup_value - ach_dual.sup_value),
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
    coh, rc = _coherent_curve(
        rho_cd, ("distill", c_labels, d_labels),
        lambda s: -petz_up_closed_form(rho_cd, c_labels, d_labels, 1.0 / (1.0 + s)))

    def f(s: float) -> float:
        return 0.5 * s * (coh(s) - r)

    ach = sup_on_interval(f, S_MIN, 1.0 - 1e-9)
    max_corr = len(c_labels) == 1 and len(d_labels) == 1 and is_maximally_correlated(
        rho_cd.permuted(c_labels[0], d_labels[0])
    )
    if not max_corr:
        return ExponentResult.of(ach, math.inf, rc, False)
    conv, capped, diverges = _converse_sup(f, None)
    return ExponentResult.of(ach, conv, rc, r >= rc - 1e-12, capped, diverges)


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
    applies; otherwise the input is optimized per s by multi-start ascent
    and only the achievable direction is reported.
    """
    if r < 0:
        raise ValueError("rate r must be nonnegative")
    if dephasing:
        coh, rc = _coherent_curve(
            channel, ("dephasing",),
            lambda s: _petz_coherent_of_output(channel.choi, channel.din, 1.0 / (1.0 + s)))
    else:
        rng = make_rng(0)
        warm: dict[str, np.ndarray | None] = {"x0": None}

        def coh(s: float) -> float:
            val, inp = channel_coherent_info(
                channel,
                1.0 / (1.0 + s),
                restarts=restarts,
                rng=rng,
                x0=warm["x0"],
            )
            vec = Spectrum.eigh(inp.density).vectors[:, -1]
            warm["x0"] = np.concatenate([vec.real, vec.imag])
            return val

    def f(s: float) -> float:
        return 0.5 * s * (coh(s) - r)

    ach = sup_on_interval(f, S_MIN, 1.0 - 1e-9, n_grid=24)
    if not dephasing:
        rc = _fd_derivative(lambda s: s * coh(s), 1.0)
        return ExponentResult.of(ach, math.inf, rc, False)
    conv, capped, diverges = _converse_sup(f, None)
    return ExponentResult.of(ach, conv, rc, r >= rc - 1e-12, capped, diverges)
