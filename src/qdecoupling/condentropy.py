"""Conditional Renyi entropies, coherent informations and their optimizers.

All quantities are in bits.  The non-optimized conditional entropy of a
bipartition (A, B) is -D(rho_AB || I_A x rho_B) for the chosen divergence
family; the optimized ("up-arrow") variant minimizes the divergence over
the conditioning state sigma_B instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import optimize

from .channels import Channel
from .divergences import ALPHA_ONE_GUARD, d_max, divergence, umegaki
from .linalg import Spectrum, as_hermitian, mat_pow, partial_trace, tensor
from .states import State, memo_on, tensor_power

_TINY = 1e-300

# Relative size below which a decrease of the objective cannot show in a float.
_RESOLUTION = 16.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class EntropyKind:
    """Which conditional entropy: family, Renyi order, up-arrow or not."""

    family: str  # "petz" or "sandwiched"
    alpha: float
    optimized: bool = field(default=False)

    def __post_init__(self):
        if self.family not in ("petz", "sandwiched"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class SimplexOptimizerConfig:
    """Knobs for the mirror-descent minimizer over density matrices."""

    max_iters: int = 500
    grad_tol: float = 1e-9
    stall_tol: float = 1e-12
    stall_iters: int = 50
    restarts: int = 1


@dataclass(frozen=True)
class MinimizeResult:
    value: float
    sigma: np.ndarray
    iters: int
    grad_norm: float
    exit: str  # why the minimizer stopped; see _mirror_descent


class OptimizerDivergence(RuntimeError):
    """The simplex minimizer ran out of iterations far from stationarity."""


def _split_blocks(state: State, a_labels, b_labels):
    """Density rearranged as (A block, B block) plus the two block sizes."""
    a_labels = list(a_labels)
    b_labels = list(b_labels)
    if sorted(a_labels + b_labels) != sorted(state.labels):
        raise ValueError("a_labels + b_labels must partition the state's subsystems")
    perm = state.permuted(*(a_labels + b_labels))
    da = int(np.prod([state.dim_of(l) for l in a_labels]))
    db = perm.total_dim // da
    return perm.density, da, db


def _herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def von_neumann_entropy(m: np.ndarray) -> float:
    return Spectrum.eigvalsh(_herm_part(m)).entropy()


def cond_vn_entropy(state: State, a_labels, b_labels) -> float:
    """Von Neumann conditional entropy H(A|B) = H(AB) - H(B)."""
    rho, da, db = _split_blocks(state, a_labels, b_labels)
    rho_b = partial_trace(rho, [da, db], [1])
    return von_neumann_entropy(rho) - von_neumann_entropy(rho_b)


class ConditionalEntropy:
    """Non-optimized H_alpha(A|B) = -D_alpha(rho_AB || I_A x rho_B) of one state.

    Construction splits the blocks, symmetrizes rho_AB and decomposes
    I_A x rho_B once.  A call at the order ``alpha`` reuses them and is
    memoized on the float ``alpha``; the exponents call it at alpha = 1 + s.
    """

    def __init__(self, state: State, a_labels, b_labels, family: str = "sandwiched"):
        rho, da, db = _split_blocks(state, a_labels, b_labels)
        self.rho = as_hermitian(rho)
        self.sigma = Spectrum.of(tensor(np.eye(da), partial_trace(rho, [da, db], [1])))
        self.family = family
        self._values: dict[float, float] = {}
        self._min_entropy: float | None = None

    def __call__(self, alpha: float) -> float:
        h = self._values.get(alpha)
        if h is None:
            h = self._values[alpha] = -divergence(self.rho, self.sigma, self.family, alpha)
        return h

    def min_entropy(self) -> float:
        """-D_max(rho_AB || I_A x rho_B), the sandwiched limit as alpha grows."""
        if self._min_entropy is None:
            self._min_entropy = -d_max(self.rho, self.sigma)
        return self._min_entropy


def sandwiched_cond_entropy(state: State, a_labels, b_labels) -> ConditionalEntropy:
    """The sandwiched :class:`ConditionalEntropy` of (A|B), built once per state."""
    key = ("sandwiched", tuple(a_labels), tuple(b_labels))
    return memo_on(state, key, lambda: ConditionalEntropy(state, a_labels, b_labels))


def choi_cond_entropy(channel: Channel) -> ConditionalEntropy:
    """Sandwiched H(A'|C) of the channel's Choi state omega_A'C, built once per channel."""
    return memo_on(channel, ("choi-sandwiched",), lambda: ConditionalEntropy(
        channel.choi_state(("Ain", "C")), ["Ain"], ["C"]))


# -- objectives for the sigma minimization --------------------------------
#
# Both take sigma by its eigenvalues w (clamped below at _TINY) and
# eigenvectors v, and return D_family(rho_AB || I_A x sigma) together with
# its exact gradient G, the Hermitian matrix with dD = tr(G dsigma).  All
# that does not depend on sigma is precomputed.  The derivative of sigma^c
# comes from the Daleckii-Krein formula d(sigma^c) = V (L o V^+ dsigma V) V^+,
# with L the divided differences of x^c at w.


def _pow_derivative(w: np.ndarray, v: np.ndarray, c: float, x: np.ndarray) -> np.ndarray:
    """The G with tr(G dsigma) = tr(x d(sigma^c)), for Hermitian x.

    L[i, j] = (w_i^c - w_j^c) / (w_i - w_j), c w_i^(c-1) where w_i = w_j, is
    written as (w_i w_j)^((c-1)/2) sinh(c u) / sinh(u) with u = log(w_i / w_j) / 2,
    which loses no digits to cancellation when w_i and w_j are close.
    """
    lw = np.log(w)
    u = 0.5 * (lw[:, None] - lw[None, :])
    same = u == 0.0
    ratio = np.where(same, c, np.sinh(c * u) / np.where(same, 1.0, np.sinh(u)))
    dd = np.exp(0.5 * (c - 1.0) * (lw[:, None] + lw[None, :])) * ratio
    return v @ (dd * (v.conj().T @ x @ v)) @ v.conj().T


def _petz_objective(rho: np.ndarray, da: int, alpha: float):
    db = rho.shape[0] // da
    m = _herm_part(partial_trace(mat_pow(rho, alpha), [da, db], [1]))
    c = 1.0 - alpha

    def f(w: np.ndarray, v: np.ndarray):
        # q = tr(m sigma^c), read in sigma's eigenbasis
        q = float(np.real(np.einsum("ij,ij,j->", v.conj(), m @ v, w**c)))
        if q <= 0:
            return math.inf, None
        scale = 1.0 / (q * math.log(2.0) * (alpha - 1.0))
        return math.log2(q) / (alpha - 1.0), scale * _pow_derivative(w, v, c, m)

    return f


def _sandwiched_objective(rho: np.ndarray, da: int, alpha: float):
    db = rho.shape[0] // da
    c = (1.0 - alpha) / (2.0 * alpha)
    # rho's db x db blocks: blocks[a, a'] = <a| rho |a'> on B
    blocks = np.ascontiguousarray(rho.reshape(da, db, da, db).transpose(0, 2, 1, 3))

    def f(w: np.ndarray, v: np.ndarray):
        conj = (v * w**c) @ v.conj().T
        # blocks of rho Gamma and of M = Gamma rho Gamma, Gamma = I_A x sigma^c
        rg = blocks @ conj
        big = (conj @ rg).transpose(0, 2, 1, 3).reshape(da * db, da * db)
        spec = Spectrum.eigh(_herm_part(big))
        sup = spec.support
        lam, vecs = spec.values[sup], spec.vectors[:, sup]
        q = float(np.sum(lam**alpha))
        if q <= 0:
            return math.inf, None
        # Z_B = tr_A(rho Gamma M^(alpha-1)) + h.c., M^(alpha-1) on the support
        mpow = ((vecs * lam ** (alpha - 1.0)) @ vecs.conj().T).reshape(da, db, da, db)
        z = np.sum(rg @ mpow.transpose(2, 0, 1, 3), axis=(0, 1))
        z = z + z.conj().T
        scale = alpha / (q * math.log(2.0) * (alpha - 1.0))
        return math.log2(q) / (alpha - 1.0), scale * _pow_derivative(w, v, c, z)

    return f


def _density_of_log(h: np.ndarray):
    """(eigenvalues clamped at _TINY, eigenvectors, log sigma) of sigma = exp(h) / tr exp(h)."""
    spec = Spectrum.eigh(h)
    # the shift by the top eigenvalue guards against overflow
    e = np.exp(spec.values - spec.values[-1])
    total = float(np.sum(e))
    log_sigma = h.copy()
    log_sigma[np.diag_indices_from(h)] -= spec.values[-1] + math.log(total)
    return np.maximum(e / total, _TINY), spec.vectors, log_sigma


def _mirror_descent(obj, sigma0: np.ndarray, cfg: SimplexOptimizerConfig):
    """Minimize ``obj`` over density matrices by mirror descent.

    The iterate is held as log sigma, and a step is normalize(exp(log sigma
    - eta * grad)), with a backtracking search on eta.  A trial point costs
    one eigendecomposition plus one evaluation of ``obj``.  ``exit`` says why
    it stopped:

    * ``"grad_tol"``: the projected gradient P = G - tr(G sigma) I has norm
      at most ``cfg.grad_tol``;
    * ``"resolution"``: before a trial point, the step's first-order decrease
      eta tr(P sigma P) is below _RESOLUTION max(1, |f|), too small to show
      in f; eta halves on every failed trial, so the line search ends;
    * ``"stall"``: f fell by less than ``cfg.stall_tol`` in ``cfg.stall_iters`` steps;
    * ``"max_iters"``: none of these; :class:`OptimizerDivergence` is raised
      instead if the gradient norm is above 1e-4.
    """
    spec = Spectrum.eigh(_herm_part(sigma0 / np.real(np.trace(sigma0))))
    w, v = np.maximum(spec.values, _TINY), spec.vectors
    sigma = (v * w) @ v.conj().T
    log_sigma = (v * np.log(w)) @ v.conj().T
    fval, grad = obj(w, v)
    eye = np.eye(len(w))
    eta = 1.0
    history = [fval]
    grad_norm = math.inf
    for it in range(cfg.max_iters):
        proj = grad - float(np.real(np.trace(grad @ sigma))) * eye
        grad_norm = float(np.linalg.norm(proj))
        if grad_norm <= cfg.grad_tol:
            return MinimizeResult(fval, sigma, it, grad_norm, "grad_tol")
        slope = float(np.real(np.vdot(proj, sigma @ proj)))
        floor = _RESOLUTION * max(1.0, abs(fval))
        while eta * slope >= floor:
            w, v, cand_log = _density_of_log(log_sigma - eta * grad)
            fc, gc = obj(w, v)
            if fc < fval - 1e-15:
                sigma, log_sigma, fval, grad = (v * w) @ v.conj().T, cand_log, fc, gc
                eta = min(eta * 1.3, 1e3)
                break
            eta *= 0.5
        else:
            return MinimizeResult(fval, sigma, it, grad_norm, "resolution")
        history.append(fval)
        if (
            len(history) > cfg.stall_iters
            and history[-cfg.stall_iters - 1] - fval < cfg.stall_tol
        ):
            return MinimizeResult(fval, sigma, it + 1, grad_norm, "stall")
    if grad_norm > 1e-4:
        raise OptimizerDivergence(
            f"simplex minimizer hit {cfg.max_iters} iterations, "
            f"projected gradient norm {grad_norm:.3e}"
        )
    return MinimizeResult(fval, sigma, cfg.max_iters, grad_norm, "max_iters")


def minimized_conditioning(
    state: State,
    a_labels,
    b_labels,
    family: str,
    alpha: float,
    config: SimplexOptimizerConfig | None = None,
    sigma0: np.ndarray | None = None,
) -> MinimizeResult:
    """inf over sigma_B of D(rho_AB || I_A x sigma_B), by mirror descent.

    Starts from ``sigma0`` when given, else from rho_B; with
    ``config.restarts > 1`` additional starts at the closed-form Petz
    optimizer and maximally mixed are tried and the best result kept.
    """
    cfg = config or SimplexOptimizerConfig()
    rho, da, db = _split_blocks(state, a_labels, b_labels)
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        sigma_b = partial_trace(rho, [da, db], [1])
        val = umegaki(rho, tensor(np.eye(da), sigma_b))
        return MinimizeResult(val, sigma_b, 0, 0.0, "closed_form")
    # The minimizer is supported on supp(rho_B): pinching with the support
    # projector leaves rho invariant and cannot increase the divergence, and
    # renormalizing the in-support block only decreases it.  Restricting to
    # that subspace keeps the iterates full rank, which the multiplicative
    # update needs to make progress.
    rho_b_full = partial_trace(rho, [da, db], [1])
    spec_b = Spectrum.of(rho_b_full)
    sup = spec_b.support
    basis = None
    if int(np.sum(sup)) < db:
        basis = spec_b.vectors[:, sup]
        db = basis.shape[1]
        iso = tensor(np.eye(da), basis)
        rho = iso.conj().T @ rho @ iso
        if sigma0 is not None:
            s0 = basis.conj().T @ np.asarray(sigma0, dtype=complex) @ basis
            tr0 = float(np.real(np.trace(s0)))
            sigma0 = s0 / tr0 if tr0 > 1e-12 else None
    obj = (_petz_objective if family == "petz" else _sandwiched_objective)(rho, da, alpha)
    starts = []
    if sigma0 is not None:
        starts.append(np.asarray(sigma0, dtype=complex))
    else:
        rho_b = partial_trace(rho, [da, db], [1])
        starts.append((1.0 - 1e-9) * rho_b + 1e-9 * np.eye(db) / db)
    if cfg.restarts > 1:
        m = partial_trace(mat_pow(rho, alpha), [da, db], [1])
        petz_opt = mat_pow(m, 1.0 / alpha)
        petz_opt = petz_opt / np.real(np.trace(petz_opt))
        starts.append((1.0 - 1e-9) * petz_opt + 1e-9 * np.eye(db) / db)
    if cfg.restarts > 2:
        starts.append(np.eye(db, dtype=complex) / db)
    best = None
    for s0 in starts[: max(cfg.restarts, 1)]:
        res = _mirror_descent(obj, s0, cfg)
        if best is None or res.value < best.value:
            best = res
    if basis is not None:
        best = replace(best, sigma=basis @ best.sigma @ basis.conj().T)
    return best


def petz_up_closed_form(state: State, a_labels, b_labels, alpha: float) -> float:
    """Optimized Petz conditional entropy via its closed-form expression.

    H_up(A|B) = (alpha/(1-alpha)) * log2 tr[(tr_A rho^alpha)^(1/alpha)].
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    rho, da, db = _split_blocks(state, a_labels, b_labels)
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        sigma_b = partial_trace(rho, [da, db], [1])
        return -umegaki(rho, tensor(np.eye(da), sigma_b))
    m = partial_trace(mat_pow(rho, alpha), [da, db], [1])
    t = float(np.real(np.trace(mat_pow(m, 1.0 / alpha))))
    return (alpha / (1.0 - alpha)) * math.log2(t)


def cond_entropy(
    state: State,
    a_labels,
    b_labels,
    kind: EntropyKind,
    config: SimplexOptimizerConfig | None = None,
) -> float:
    """Conditional Renyi entropy of the (A, B) partition, in bits."""
    if not kind.optimized:
        return ConditionalEntropy(state, a_labels, b_labels, kind.family)(kind.alpha)
    if kind.family == "petz":
        return petz_up_closed_form(state, a_labels, b_labels, kind.alpha)
    return -minimized_conditioning(
        state, a_labels, b_labels, kind.family, kind.alpha, config
    ).value


def coherent_info(
    state: State,
    a_labels,
    b_labels,
    family: str = "petz",
    alpha: float = 0.5,
    config: SimplexOptimizerConfig | None = None,
) -> float:
    """Renyi coherent information I(A>B): sign-flipped optimized entropy."""
    return -cond_entropy(
        state, a_labels, b_labels, EntropyKind(family, alpha, optimized=True), config
    )


def duality_pair(state: State, a_labels, b_labels, c_labels, s: float):
    """Both sides of the pure-state duality, for cross-checking.

    For pure rho_ABC returns (sandwiched H_{1+s}(A|C), -petz H_up_{1/(1+s)}(A|B));
    the two agree in exact arithmetic.
    """
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    purity = float(np.real(np.trace(state.density @ state.density)))
    if purity < 1.0 - 1e-8:
        raise ValueError(f"state is not pure (tr rho^2 = {purity:.6f})")
    ac = state.marginal(*(list(a_labels) + list(c_labels)))
    ab = state.marginal(*(list(a_labels) + list(b_labels)))
    lhs = cond_entropy(ac, a_labels, c_labels, EntropyKind("sandwiched", 1.0 + s))
    rhs = -petz_up_closed_form(ab, a_labels, b_labels, 1.0 / (1.0 + s))
    return lhs, rhs


def tensor_power_entropy(
    state: State, a_labels, b_labels, kind: EntropyKind, m: int
) -> float:
    """Per-copy conditional entropy of the m-fold tensor power."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if state.total_dim ** (2 * m) > 2**26:
        raise ValueError("tensor power exceeds the memory budget")
    big = tensor_power(state, m)
    a_all = [f"{l}#{k}" for k in range(m) for l in a_labels]
    b_all = [f"{l}#{k}" for k in range(m) for l in b_labels]
    return cond_entropy(big, a_all, b_all, kind) / m


# -- channel input optimization --------------------------------------------


def _petz_coherent_of_output(rho: np.ndarray, da: int, alpha: float) -> float:
    """I_alpha(A>B) of a bipartite density via the closed form, raw arrays."""
    db = rho.shape[0] // da
    spec = Spectrum.eigh(_herm_part(rho))
    pa = (spec.vectors * np.maximum(spec.values, 0.0) ** alpha) @ spec.vectors.conj().T
    m = partial_trace(pa, [da, db], [1])
    mw = np.maximum(Spectrum.eigvalsh(_herm_part(m)).values, 0.0)
    t = float(np.sum(mw ** (1.0 / alpha)))
    return -(alpha / (1.0 - alpha)) * math.log2(t)


def channel_coherent_info(
    channel: Channel,
    alpha: float,
    family: str = "petz",
    restarts: int = 32,
    rng: np.random.Generator | None = None,
    x0: np.ndarray | None = None,
) -> tuple[float, State]:
    """Best Petz-Renyi coherent information over pure channel inputs.

    Multi-start ascent: the maximally entangled input is always tried, plus
    ``restarts - 1`` random pure starts (and ``x0`` if given).  The channel
    input maximization is non-convex; the best value found is returned with
    its achieving input.  ``family`` must be ``"petz"``.
    """
    if family != "petz":
        raise ValueError(f"channel coherent information is Petz only, got {family!r}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    din, dout = channel.din, channel.dout
    w = channel.choi.reshape(din, dout, din, dout)
    n = din * din

    def neg(x: np.ndarray) -> float:
        v = x[:n] + 1j * x[n:]
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            return 0.0
        psi = (v / nrm).reshape(din, din)
        out = din * np.einsum("icjd,ri,sj->rcsd", w, psi, psi.conj())
        out = out.reshape(din * dout, din * dout)
        return -_petz_coherent_of_output(out, din, alpha)

    starts = []
    phi = np.eye(din).reshape(n) / np.sqrt(din)
    starts.append(np.concatenate([phi.real, phi.imag]))
    if x0 is not None:
        starts.append(np.asarray(x0, dtype=float))
    if rng is None:
        rng = np.random.default_rng(0)
    while len(starts) < restarts + (x0 is not None):
        g = rng.standard_normal(2 * n)
        starts.append(g / np.linalg.norm(g))
    best_val, best_x = math.inf, starts[0]
    for s0 in starts:
        res = optimize.minimize(neg, s0, method="L-BFGS-B")
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    v = best_x[:n] + 1j * best_x[n:]
    v /= np.linalg.norm(v)
    inp = State._trusted(np.outer(v, v.conj()), (("R", din), ("A", din)))
    return -best_val, inp
