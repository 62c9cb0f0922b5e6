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

from .channels import Channel
from .divergences import ALPHA_ONE_GUARD, d_max, divergence, umegaki
from .linalg import Spectrum, partial_trace, tensor
from .states import State, memo_on

_TINY = 1e-300
_LN2 = math.log(2.0)

# Relative size below which a decrease of the objective cannot show in a float.
_RESOLUTION = 16.0 * float(np.finfo(float).eps)

# The stopping rules of _mirror_descent.
_MAX_ITERS = 500
_GRAD_TOL = 1e-9


@dataclass(frozen=True)
class EntropyKind:
    """Which conditional entropy: family, Renyi order, up-arrow or not."""

    family: str  # "petz" or "sandwiched"
    alpha: float
    optimized: bool = field(default=False)

    def __post_init__(self):
        if self.family not in ("petz", "sandwiched"):
            raise ValueError(f"unknown family {self.family!r}")
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be a positive finite number")


@dataclass(frozen=True)
class MinimizeResult:
    value: float
    sigma: np.ndarray
    iters: int
    grad_norm: float  # ||P||_sigma of the last projected gradient; see _mirror_descent
    exit: str  # why the minimizer stopped; see _mirror_descent


class OptimizerDivergence(RuntimeError):
    """The simplex minimizer ran out of iterations far from stationarity."""


def _split_blocks(state: State, a_labels, b_labels):
    """Density rearranged as (A block, B block) plus the two block sizes."""
    order = list(a_labels) + list(b_labels)
    if sorted(order) != sorted(state.labels):
        raise ValueError("a_labels + b_labels must partition the state's subsystems")
    rho = state.density if tuple(order) == state.labels else state.permuted(*order).density
    da = int(np.prod([state.dim_of(l) for l in a_labels]))
    return rho, da, state.total_dim // da


def _herm_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def von_neumann_entropy(m: np.ndarray) -> float:
    return Spectrum.eigvalsh(_herm_part(m)).entropy()


def cond_vn_entropy(state: State, a_labels, b_labels) -> float:
    """Von Neumann conditional entropy H(A|B) = H(AB) - H(B)."""
    rho, da, db = _split_blocks(state, a_labels, b_labels)
    rho_b = partial_trace(rho, [da, db], [1])
    return von_neumann_entropy(rho) - von_neumann_entropy(rho_b)


def _psd(spec: Spectrum) -> Spectrum:
    """``spec`` after the check of :meth:`Spectrum.pow`, made once for many powers."""
    if float(spec.values[0]) < -spec.cutoff:
        raise ValueError(f"matrix is not PSD: min eigenvalue {spec.values[0]:.3e}")
    return spec


class ConditionalEntropy:
    """Non-optimized sandwiched H~_alpha(A|B) = -D~_alpha(rho_AB || I_A x rho_B) of one state.

    Construction splits the blocks, symmetrizes rho_AB, decomposes
    sigma = I_A x rho_B = V diag(w) V^+ once and keeps V^+ rho V, symmetrized, and
    ln w (0 on the kernel); :meth:`phi` reuses them.  The state was validated, so
    none of these matrices is validated again.
    """

    def __init__(self, state: State, a_labels, b_labels):
        rho, da, db = _split_blocks(state, a_labels, b_labels)
        self.rho = _herm_part(rho)
        self.sigma = _psd(Spectrum.eigh(tensor(np.eye(da), partial_trace(rho, [da, db], [1]))))
        self._sup = self.sigma.support
        self._ln_w = np.log(np.where(self._sup, self.sigma.values, 1.0))
        self._rho_t = _herm_part(self.sigma.vectors.conj().T @ self.rho @ self.sigma.vectors)
        self._phis: dict[float, tuple[float, float]] = {}
        self._min_entropy: float | None = None

    def phi(self, s):
        """phi(s) = s H~_{1+s}(A|B) = -log2 Q and its s-slope, sandwiched, at a float or 1-D array.

        Q = tr X^alpha, X = sigma^c rho sigma^c, c = (1 - alpha) / (2 alpha),
        alpha = 1 + s: one eigh of X gives Q and dQ/dalpha = sum_i x_i^alpha
        (ln x_i - <v_i| ln sigma |v_i> / alpha) over X's support, with X in
        sigma's eigenbasis, where ln sigma is diagonal.  phi is concave (log Q
        is convex in alpha; Mosonyi and Ogawa, CMP 2015).  Memoized (:func:`_phi_at`).
        """
        return _phi_at(s, self._phis, self._phi_stack)

    def _phi_stack(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        alpha = (1.0 + s)[:, None]
        g = np.exp(self._ln_w * ((1.0 - alpha) / (2.0 * alpha))) * self._sup
        x = Spectrum.eigh(g[:, :, None] * self._rho_t * g[:, None, :])
        sup = x.support
        lam = np.where(sup, x.values, 1.0)
        lam_a = np.where(sup, _pow(lam, alpha), 0.0)
        q = np.sum(lam_a, axis=-1)
        ln_sigma = self._ln_w @ np.abs(x.vectors) ** 2
        dq = np.sum(lam_a * (np.log(lam) - ln_sigma / alpha), axis=-1)
        return -np.log2(q), -dq / (q * _LN2)

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


class PetzUpEntropy:
    """Optimized Petz H_up_alpha(A|B) of one rho_AB, A first with |A| = ``da``.

    Closed form (Tomamichel, Berta and Hayashi, JMP 2014): (alpha/(1-alpha))
    log2 tr m^(1/alpha) with m = tr_A rho^alpha.  ``spec`` is rho's Spectrum,
    from :meth:`Spectrum.of` for an unvalidated matrix or :meth:`Spectrum.eigh` for
    one the package built or validated; rho's kernel is cut and its support factor W
    kept (:func:`_support_factor`).  A call sums mu^(1/alpha) over the support
    of m, at an ``alpha`` that must not be 1.
    """

    def __init__(self, spec: Spectrum, da: int):
        self.spec = spec
        self.dims = [da, len(spec.values) // da]
        vecs, lam = _support_factor(spec, self.dims)
        self._factor = vecs, lam, np.log(lam)
        self._phis: dict[float, tuple[float, float]] = {}

    @classmethod
    def of(cls, state: State, a_labels, b_labels) -> "PetzUpEntropy":
        """The entropy of the (A, B) partition of ``state``."""
        rho, da, _ = _split_blocks(state, a_labels, b_labels)
        return cls(Spectrum.eigh(rho), da)

    def marginal(self, alpha: float) -> np.ndarray:
        """m = tr_A rho^alpha = W lambda^alpha W^+, Hermitian up to roundoff."""
        vecs, lam, _ = self._factor
        return (vecs * lam**alpha) @ vecs.conj().T

    def __call__(self, alpha: float) -> float:
        mu = Spectrum.eigvalsh(self.marginal(alpha))
        t = float(np.sum(mu.values[mu.support] ** (1.0 / alpha)))
        return (alpha / (1.0 - alpha)) * math.log2(t)

    def value_and_gradient(self, alpha: float) -> tuple[float, np.ndarray]:
        """H_up at ``alpha`` and the Hermitian G with dH = tr(G drho).

        With T = tr m^(1/alpha), G = V (L o V^+ (I_A x m^(1/alpha-1)) V) V^+ /
        ((1 - alpha) T ln 2), L the divided differences of x^alpha at rho's
        eigenvalues (Daleckii-Krein), set to 0 on the kernel-kernel block: G holds
        for a drho with no such block, as when rho_AB is a channel's output on a
        pure input.  V^+ (I_A x Y) V = sum_a V_a^+ Y V_a over the row blocks V_a
        of V.  One eigh of m; rho's decomposition is reused.
        """
        mu = Spectrum.eigh(self.marginal(alpha))
        lam, vecs = mu.values[mu.support], mu.vectors[:, mu.support]
        t = float(np.sum(lam ** (1.0 / alpha)))
        y = (vecs * lam ** (1.0 / alpha - 1.0)) @ vecs.conj().T
        v, kernel = self.spec.vectors, ~self.spec.support
        xt = v.conj().T @ (y @ v.reshape(*self.dims, -1)).reshape(v.shape)
        dd = _divided_differences(np.where(kernel, _TINY, self.spec.values), alpha)
        dd[kernel[:, None] & kernel] = 0.0
        g = v @ (dd * xt) @ v.conj().T
        return (alpha / (1.0 - alpha)) * math.log2(t), g / ((1.0 - alpha) * t * math.log(2.0))

    def phi(self, s):
        """phi(s) = -s H_up_{1/(1+s)} = -log2 T and its s-slope, at a float or 1-D array.

        T = tr m^(1+s), m = tr_A rho^alpha, alpha = 1/(1+s): one eigh of m,
        with rho's eigenbasis and support, gives T and dT/ds = sum_j mu_j^(1+s)
        ln mu_j + (1+s) tr(m^s dm/ds), dm/ds = -alpha^2 tr_A(rho^alpha ln rho).
        With W rho's support eigenvectors as a |B| x (|A| r) matrix, kept by
        the constructor, m = W lambda^alpha W^+ (lambda tiled).  phi is s times
        the Petz coherent information, concave in s.  Memoized (:func:`_phi_at`).
        """
        return _phi_at(s, self._phis, self._phi_stack)

    def _phi_stack(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vecs, lam, ln_lam = self._factor
        s = s[:, None]
        alpha = 1.0 / (1.0 + s)
        lam_a = _pow(np.broadcast_to(lam, (len(s), len(lam))), alpha)
        mu = Spectrum.eigh((vecs * lam_a[:, None, :]) @ vecs.conj().T)
        sup = mu.support
        w = np.where(sup, mu.values, 1.0)
        t = np.sum(np.where(sup, _pow(w, 1.0 + s), 0.0), axis=-1)
        # (1 + s) alpha^2 = alpha
        uw = np.abs(mu.vectors.conj().swapaxes(-1, -2) @ vecs) ** 2
        dm_u = alpha * (uw @ (lam_a * ln_lam)[:, :, None])[..., 0]
        dt = np.sum(np.where(sup, _pow(w, s) * (w * np.log(w) - dm_u), 0.0), axis=-1)
        return -np.log2(t), -dt / (t * _LN2)


def _pow(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """x ** t for a stack x of shape (n, d) and orders t of shape (n, 1), t spread
    over d first: numpy's power with an exponent broadcast over a stack of n > 1
    takes another loop, whose last bits differ from those of one order alone."""
    return x ** np.repeat(t, x.shape[-1], axis=-1)


def _support_factor(spec: Spectrum, dims) -> tuple[np.ndarray, np.ndarray]:
    """rho's support eigenvectors x_k as one |B| x (|A| r) matrix W, column (a, k)
    holding <a|x_k>, and their eigenvalues tiled |A| times: tr_A f(rho) = W f(lambda) W^+."""
    sup, (da, db) = _psd(spec).support, dims
    vecs = spec.vectors[:, sup].reshape(da, db, -1).transpose(1, 0, 2)
    return vecs.reshape(db, -1), np.tile(spec.values[sup], da)


def _phi_at(s, memo: dict, stack):
    """phi and its slope at the float ``s`` (floats) or the 1-D array ``s`` (arrays).

    ``memo`` holds every order seen; ``stack`` computes the missing ones in one
    stacked eigh, a float being a stack of one.  Kernels enter through masks,
    so an order gives the same bits in any stack.
    """
    orders = np.ravel(s).tolist()
    new = [x for x in dict.fromkeys(orders) if x not in memo]
    if new:
        vals, slopes = stack(np.array(new))
        memo.update(zip(new, zip(vals.tolist(), slopes.tolist())))
    if np.ndim(s) == 0:
        return memo[orders[0]]
    return tuple(np.array([memo[x] for x in orders]).reshape(-1, 2).T)


# -- objectives for the sigma minimization --------------------------------
#
# Both are built from rho's support factor (W, lambda) of _support_factor and
# decompose nothing.  They take sigma = V diag(w) V^+, V in W's basis of B, by its
# eigenvalues w (at least 1e-9/|B| at the start of a descent, e^-30 after a step)
# and eigenvectors V, and return D_family(rho_AB || I_A x sigma) with a closure for
# its exact gradient G~ = V^+ G V in sigma's eigenbasis, dD = tr(G dsigma).  By
# Daleckii-Krein, V^+ d(sigma^c) V = L o V^+ dsigma V, L the divided differences of x^c at w.


def _divided_differences(w: np.ndarray, c: float) -> np.ndarray:
    """L[i, j] = (w_i^c - w_j^c) / (w_i - w_j), c w_i^(c-1) where w_i = w_j, written as
    (w_i w_j)^((c-1)/2) sinh(c u) / sinh(u) with u = log(w_i / w_j) / 2, which loses
    no digits to cancellation when w_i and w_j are close."""
    lw = np.log(w)
    u = 0.5 * (lw[:, None] - lw[None, :])
    same = u == 0.0
    ratio = np.where(same, c, np.sinh(c * u) / np.where(same, 1.0, np.sinh(u)))
    return np.exp(0.5 * (c - 1.0) * (lw[:, None] + lw[None, :])) * ratio


def _petz_objective(vecs: np.ndarray, lam: np.ndarray, alpha: float):
    """q = tr(m sigma^c) = sum_j w_j^c m~_jj, m = tr_A rho^alpha = W lambda^alpha W^+,
    m~ = V^+ m V, c = 1 - alpha, and G~ = L o m~ / ((alpha - 1) q ln 2)."""
    m = (vecs * lam**alpha) @ vecs.conj().T
    c = 1.0 - alpha

    def f(w: np.ndarray, v: np.ndarray):
        mt = v.conj().T @ m @ v
        q = float(np.real(np.diagonal(mt)) @ w**c)
        if q <= 0:
            return math.inf, None
        scale = 1.0 / (q * _LN2 * (alpha - 1.0))
        return math.log2(q) / (alpha - 1.0), lambda: scale * _divided_differences(w, c) * mt

    return f


def _sandwiched_objective(vecs: np.ndarray, lam: np.ndarray, da: int, alpha: float):
    """Q = tr M^alpha, M = Gamma rho Gamma, Gamma = I_A x sigma^c, c = (1 - alpha) / (2 alpha).

    rho = R R^+ with R = W lambda^(1/2), r = rank rho columns per a.  A call forms
    S = V^+ R and T_a = w^c S_a; K = sum_a T_a^+ T_a, r x r, has the spectrum of M.
    As dQ = alpha tr(Z d(sigma^(2c))), G~ = alpha L o Z~ / ((alpha - 1) Q ln 2),
    with L at the order 2c and Z~ = sum_a S_a K^(alpha-1) S_a^+ on K's support.
    """
    c = (1.0 - alpha) / (2.0 * alpha)
    factor, r = vecs * np.sqrt(lam), len(lam) // da

    def f(w: np.ndarray, v: np.ndarray):
        s = v.conj().T @ factor
        t = ((w**c)[:, None] * s).reshape(-1, r)  # the rows of every T_a
        spec = Spectrum.eigh(t.conj().T @ t)
        sup = spec.support
        kap, u = spec.values[sup], spec.vectors[:, sup]
        q = float(np.sum(kap**alpha))
        if q <= 0:
            return math.inf, None
        scale = alpha / (q * _LN2 * (alpha - 1.0))

        def grad():
            su = s.reshape(-1, r) @ u
            z = (su * kap ** (alpha - 1.0)).reshape(len(w), -1) @ su.reshape(len(w), -1).conj().T
            return scale * _divided_differences(w, 2.0 * c) * z

        return math.log2(q) / (alpha - 1.0), grad

    return f


def _mirror_descent(obj, sigma0: Spectrum):
    """Minimize ``obj`` over density matrices by mirror descent from the Spectrum ``sigma0``.

    The iterate sigma = V diag(w) V^+ is held as (w, V, ln w).  ``obj(w, V)``
    returns f and a closure for G~ = V^+ G V, called only at an accepted point.
    A step is normalize(exp(log sigma - eta G)), its log-eigenvalues floored at
    -30, with a backtracking search on eta: after a failed trial, eta goes to
    the minimizer of the quadratic through f(0), the slope -||P||_sigma^2 and
    f(eta), kept in [0.1 eta, 0.5 eta] (0.1 eta after an inf or NaN value;
    Nocedal and Wright, Numerical Optimization, 3.5); an accepted step grows it
    by 1.3.  A trial point costs one eigh of diag(ln w) - eta G~, whose
    eigenvectors U give V' = V U, plus one evaluation of ``obj``; sigma is
    formed only for the result.  It runs at most _MAX_ITERS steps, and
    ``exit`` says why it stopped, with the projected gradient P = G - tr(G sigma) I
    measured by ||P||_sigma = tr(P sigma P)^(1/2), which, unlike |P|, vanishes at
    a minimizer where sigma is rank-deficient:

    * ``"grad_tol"``: ||P||_sigma is at most _GRAD_TOL;
    * ``"resolution"``: before a trial point, the step's first-order decrease
      eta ||P||_sigma^2 is below _RESOLUTION max(1, |f|), too small to show
      in f; eta falls at least twofold on every failed trial, so the line
      search ends;
    * ``"max_iters"``: none of these; :class:`OptimizerDivergence` is raised
      instead if ||P||_sigma is above 1e-4.
    """
    w, v = sigma0.values, sigma0.vectors
    ln_w = np.log(w)
    fval, grad_at = obj(w, v)
    grad = grad_at()
    eye = np.eye(len(w))
    eta = 1.0
    grad_norm = math.inf
    for it in range(_MAX_ITERS):
        proj = grad - float(np.real(np.diagonal(grad)) @ w) * eye
        slope = float(np.sum(np.abs(proj) ** 2 @ w))  # tr(P sigma P)
        grad_norm = math.sqrt(slope)
        if grad_norm <= _GRAD_TOL:
            return MinimizeResult(fval, (v * w) @ v.conj().T, it, grad_norm, "grad_tol")
        floor = _RESOLUTION * max(1.0, abs(fval))
        while eta * slope >= floor:
            spec = Spectrum.eigh(np.diag(ln_w) - eta * grad)
            ln_c = spec.values - spec.values[-1]  # the shift guards against overflow
            ln_c -= math.log(float(np.sum(np.exp(ln_c))))
            # e^-30 = 9.4e-14 per eigenvalue, far inside the trace checks (1e-9), keeps
            # every eigenvector within reach of a step: from ln w near -690 it is not
            ln_c = np.maximum(ln_c, -30.0)
            cw, cv = np.exp(ln_c), v @ spec.vectors
            fc, gc = obj(cw, cv)
            if fc < fval - 1e-15:
                w, v, ln_w, fval, grad = cw, cv, ln_c, fc, gc()
                eta = min(eta * 1.3, 1e3)
                break
            # to the minimizer of the quadratic through f(0), f'(0) = -slope and f(eta)
            excess = fc - fval + eta * slope  # > 0 while eta slope is above the floor
            eta *= min(max(0.5 * eta * slope / excess, 0.1), 0.5) if excess < math.inf else 0.1
        else:
            return MinimizeResult(fval, (v * w) @ v.conj().T, it, grad_norm, "resolution")
    if grad_norm > 1e-4:
        raise OptimizerDivergence(
            f"simplex minimizer hit {_MAX_ITERS} iterations, "
            f"projected gradient norm {grad_norm:.3e}"
        )
    return MinimizeResult(fval, (v * w) @ v.conj().T, _MAX_ITERS, grad_norm, "max_iters")


def minimized_conditioning(
    state: State,
    a_labels,
    b_labels,
    family: str,
    alpha: float,
) -> MinimizeResult:
    """inf over sigma_B of D(rho_AB || I_A x sigma_B), by one mirror descent.

    The problem is convex at every order the library uses (sandwiched
    alpha >= 1/2, Petz alpha in (0, 2]), so one start suffices:
    (1 - 1e-9) rho_B + 1e-9 I / |B| on supp rho_B, rho_B = W lambda W^+ from rho's
    support factor (:func:`_support_factor`).  The descent runs on P^+ W, P the support
    eigenvectors of rho_B, and returns P sigma P^+.  At alpha near 1 the Umegaki value
    at sigma_B = rho_B is returned directly.
    """
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
    vecs, lam = _support_factor(Spectrum.eigh(rho), [da, db])
    spec_b = Spectrum.eigh((vecs * lam) @ vecs.conj().T)
    basis, w = spec_b.vectors[:, spec_b.support], spec_b.values[spec_b.support]
    vecs = basis.conj().T @ vecs
    obj = (_petz_objective(vecs, lam, alpha) if family == "petz"
           else _sandwiched_objective(vecs, lam, da, alpha))
    # the start in rho_B's eigenbasis, which is the identity in the basis of the descent
    sigma0 = Spectrum((1.0 - 1e-9) * w / np.sum(w) + 1e-9 / len(w), np.eye(len(w), dtype=complex))
    res = _mirror_descent(obj, sigma0)
    return replace(res, sigma=basis @ res.sigma @ basis.conj().T)


def petz_up_closed_form(state: State, a_labels, b_labels, alpha: float) -> float:
    """Optimized Petz H_up_alpha(A|B) by :class:`PetzUpEntropy`, or H(A|B) near alpha = 1."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be a positive finite number")
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        return cond_vn_entropy(state, a_labels, b_labels)
    return PetzUpEntropy.of(state, a_labels, b_labels)(alpha)


def cond_entropy(state: State, a_labels, b_labels, kind: EntropyKind) -> float:
    """Conditional Renyi entropy of the (A, B) partition, in bits."""
    if not kind.optimized:
        rho, da, db = _split_blocks(state, a_labels, b_labels)
        sigma = Spectrum.eigh(tensor(np.eye(da), partial_trace(rho, [da, db], [1])))
        return -divergence(rho, sigma, kind.family, kind.alpha)
    if kind.family == "petz":
        return petz_up_closed_form(state, a_labels, b_labels, kind.alpha)
    return -minimized_conditioning(state, a_labels, b_labels, kind.family, kind.alpha).value


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


# -- channel input optimization --------------------------------------------


def _input_objective(channel: Channel, entropy):
    """x -> (``entropy`` of the channel's output on psi, its gradient in x).

    x holds the real and imaginary parts of an unnormalized input v on R x A,
    |R| = |A| = din, and psi = v / |v|.  ``entropy`` maps the :class:`PetzUpEntropy` of
    the output rho_RB (one eigh; built here, not validated again) to a value and its
    gradient G in rho_RB, as ``coh.value_and_gradient(alpha)`` does for H_up_alpha(R|B);
    G is carried back through the channel and the normalization.
    """
    din, dout = channel.din, channel.dout
    choi = din * channel.choi.reshape(din, -1)  # din J[ic, jd], columns (c, j, d)
    n = din * din

    def f(x: np.ndarray) -> tuple[float, np.ndarray]:
        v = x[:n] + 1j * x[n:]
        nrm = np.linalg.norm(v)
        if nrm < 1e-12:
            return 0.0, np.zeros_like(x)
        psi = (v / nrm).reshape(din, din)
        # out[rc, sd] = din sum_ij psi[r, i] J[ic, jd] conj(psi[s, j])
        out = np.einsum("rcjd,sj->rcsd", (psi @ choi).reshape(din, dout, din, dout), psi.conj())
        rho = Spectrum.eigh(out.reshape(din * dout, din * dout))
        h, g = entropy(PetzUpEntropy(rho, din))
        # dh = 2 Re sum C dpsi, C[r, i] = din sum G[sd, rc] J[ic, jd] conj(psi[s, j])
        c = np.einsum("sdrc,sj->rcjd", g.reshape(din, dout, din, dout), psi.conj())
        c = c.reshape(din, -1) @ choi.T
        grad = np.concatenate([2.0 * c.real.ravel(), -2.0 * c.imag.ravel()])
        # through psi = v / |v|: drop the radial part and scale by 1 / |v|
        p = np.concatenate([psi.real.ravel(), psi.imag.ravel()])
        return h, (grad - (grad @ p) * p) / nrm

    return f


def input_search(channel: Channel, entropy, restarts: int, rng) -> tuple[float, State]:
    """Least value of :func:`_input_objective` with ``entropy``, and its pure input, by
    L-BFGS-B over the 2 din^2 real parameters from the maximally entangled input and
    ``restarts - 1`` random ones drawn from ``rng``: non-convex, so the best found."""
    from scipy import optimize  # here, not at the top: no CLI command imports scipy
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    din = channel.din
    n = din * din
    f = _input_objective(channel, entropy)
    phi = np.eye(din).reshape(n) / np.sqrt(din)
    starts = [np.concatenate([phi.real, phi.imag])]
    while len(starts) < restarts:
        g = rng.standard_normal(2 * n)
        starts.append(g / np.linalg.norm(g))
    best_val, best_x = math.inf, starts[0]
    for s0 in starts:
        res = optimize.minimize(f, s0, method="L-BFGS-B", jac=True)
        if res.fun < best_val:
            best_val, best_x = float(res.fun), res.x
    v = best_x[:n] + 1j * best_x[n:]
    v /= np.linalg.norm(v)
    return best_val, State._trusted(np.outer(v, v.conj()), (("R", din), ("A", din)))


def channel_coherent_info(channel: Channel, alpha: float, family: str = "petz", restarts: int = 32,
                          rng: np.random.Generator | None = None) -> tuple[float, State]:
    """Best Petz-Renyi coherent information over pure channel inputs, with its input:
    :func:`input_search` of H_up_alpha(R|B), 2 eigh per evaluation (rho_RB and
    tr_R rho^alpha).  ``family`` must be ``"petz"``."""
    if family != "petz":
        raise ValueError(f"channel coherent information is Petz only, got {family!r}")
    if rng is None:
        rng = np.random.default_rng(0)
    h, inp = input_search(channel, lambda coh: coh.value_and_gradient(alpha), restarts, rng)
    return -h, inp
