"""Conditional Renyi entropies, coherent informations and their optimizers.

All quantities are in bits.  The non-optimized conditional entropy of a
bipartition (A, B) is -D(rho_AB || I_A x rho_B) for the chosen divergence
family; the optimized ("up-arrow") variant minimizes the divergence over
the conditioning state sigma_B instead.  Both evaluate the one D(rho_AB || I_A x
sigma_B) per family of :func:`_conditioning`, which never forms I_A x sigma_B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channels import Channel
from .divergences import ALPHA_ONE_GUARD
from .linalg import Spectrum, partial_trace
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
    """A minimum over sigma_B and its minimizer.  ``value`` is fixed to about 1e-14, but
    ``sigma`` only to about ``grad_norm`` (1e-9 to 3e-7 at a ``resolution`` exit): the
    objective is flat to second order at the minimum, so a last-bit change in it moves
    sigma that far."""

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


def von_neumann_entropy(m: np.ndarray) -> float:
    return Spectrum.eigvalsh(0.5 * (m + m.conj().T)).entropy()


def cond_vn_entropy(state: State, a_labels, b_labels) -> float:
    """Von Neumann conditional entropy H(A|B) = H(AB) - H(B)."""
    rho, da, db = _split_blocks(state, a_labels, b_labels)
    rho_b = partial_trace(rho, [da, db], [1])
    return von_neumann_entropy(rho) - von_neumann_entropy(rho_b)


class ConditionalEntropy:
    """Non-optimized sandwiched H~_alpha(A|B) = -D~_alpha(rho_AB || I_A x rho_B) of one state.

    Construction runs :func:`_conditioning_basis` and keeps S = P^+ W lambda^(1/2) and
    ln w; :meth:`phi` and :meth:`min_entropy` decompose only the r x r Gram matrices of
    :func:`_gram`, r = rank rho.  The state was validated, so nothing is validated again.
    """

    def __init__(self, state: State, a_labels, b_labels):
        _, vecs, lam, w, da = _conditioning_basis(state, a_labels, b_labels)
        self._s, self._r, self._ln_w = vecs * np.sqrt(lam), len(lam) // da, np.log(w)
        self._ln_rows = np.repeat(self._ln_w, da)  # ln w_i at the row (i, a) of T
        self._phis: dict[float, tuple[float, float]] = {}
        self._min_entropy: float | None = None

    def phi(self, s):
        """phi(s) = s H~_{1+s}(A|B) = -log2 Q and its s-slope, sandwiched, at a float or 1-D array.

        Q = tr X^alpha, X = sigma^c rho sigma^c, c = (1 - alpha) / (2 alpha), alpha = 1 + s:
        one eigh of K = T^+ T (:func:`_gram`, g = w^c) gives Q = sum kappa^alpha and dQ/dalpha =
        sum kappa^alpha (ln kappa - <v| ln sigma |v> / alpha) over K's support, with X's
        eigenvector v = T u / kappa^(1/2), so <v| ln sigma |v> = sum_rows |(T u)_row|^2 ln w_row /
        kappa.  phi is concave (log Q is convex in alpha; Mosonyi and Ogawa, CMP 2015).
        """
        return _phi_at(s, self._phis, self._phi_stack)

    def _phi_stack(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        alpha = (1.0 + s)[:, None]
        k, t = _gram(np.exp(self._ln_w * ((1.0 - alpha) / (2.0 * alpha))), self._s, self._r)
        sup = k.support
        kap = np.where(sup, k.values, 1.0)
        kap_a = np.where(sup, _pow(kap, alpha), 0.0)
        q = np.sum(kap_a, axis=-1)
        ln_sigma = (self._ln_rows @ np.abs(t @ k.vectors) ** 2) / kap
        dq = np.sum(kap_a * (np.log(kap) - ln_sigma / alpha), axis=-1)
        return -np.log2(q), -dq / (q * _LN2)

    def min_entropy(self) -> float:
        """-D_max(rho_AB || I_A x rho_B) = -log2 of K's top eigenvalue at c = -1/2."""
        if self._min_entropy is None:
            k, _ = _gram(np.exp(-0.5 * self._ln_w), self._s, self._r)
            self._min_entropy = -math.log2(float(k.values[-1]))
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
    if float(spec.values[0]) < -spec.cutoff:
        raise ValueError(f"matrix is not PSD: min eigenvalue {spec.values[0]:.3e}")
    sup, (da, db) = spec.support, dims
    vecs = spec.vectors[:, sup].reshape(da, db, -1).transpose(1, 0, 2)
    return vecs.reshape(db, -1), np.tile(spec.values[sup], da)


def _conditioning_basis(state: State, a_labels, b_labels):
    """(P, P^+ W, lambda, w, |A|): the support factor (W, lambda) (:func:`_support_factor`) of
    rho_AB, rotated into the support eigenvectors P of rho_B = W lambda W^+, eigenvalues w."""
    rho, da, db = _split_blocks(state, a_labels, b_labels)
    vecs, lam = _support_factor(Spectrum.eigh(rho), [da, db])
    spec_b = Spectrum.eigh((vecs * lam) @ vecs.conj().T)
    basis = spec_b.vectors[:, spec_b.support]
    return basis, basis.conj().T @ vecs, lam, spec_b.values[spec_b.support], da


def _gram(g: np.ndarray, s: np.ndarray, r: int) -> tuple[Spectrum, np.ndarray]:
    """K = T^+ T's Spectrum and T = g S, rows (i, a), r columns: S = P^+ R, rho = R R^+,
    in a basis of supp rho_B where sigma_B = diag(w), and g = w^c, a row or a stack of
    rows.  K, r x r, has the nonzero spectrum of (I_A x sigma^c) rho (I_A x sigma^c)."""
    t = (g[..., :, None] * s).reshape(*g.shape[:-1], -1, r)
    return Spectrum.eigh(t.conj().swapaxes(-1, -2) @ t), t


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
# Both take rho's support factor (W, lambda) in the basis of rho_B's support
# (_conditioning_basis), and sigma = V diag(w) V^+ in that basis by its eigenvalues w
# (at least 1e-9/|B| at the start of a descent, e^-30 after a step) and eigenvectors V.
# They return D_family(rho_AB || I_A x sigma) with a closure for its exact gradient
# G~ = V^+ G V in sigma's eigenbasis, dD = tr(G dsigma).  By Daleckii-Krein,
# V^+ d(sigma^c) V = L o V^+ dsigma V, L the divided differences of x^c at w.


def _divided_differences(w: np.ndarray, c: float) -> np.ndarray:
    """L[i, j] = (w_i^c - w_j^c) / (w_i - w_j), c w_i^(c-1) where w_i = w_j, written as
    (w_i w_j)^((c-1)/2) sinh(c u) / sinh(u) with u = log(w_i / w_j) / 2, which loses
    no digits to cancellation when w_i and w_j are close."""
    lw = np.log(w)
    u = 0.5 * (lw[:, None] - lw)
    same, den = u == 0.0, np.sinh(u)
    den[same] = 1.0  # no 0 / 0 at a tie, where c is written below
    ratio = np.sinh(c * u) / den
    ratio[same] = c
    ratio *= np.exp(0.5 * (c - 1.0) * (lw[:, None] + lw))
    return ratio


def _petz_objective(vecs: np.ndarray, lam: np.ndarray, alpha: float):
    """q = tr(m sigma^c) = sum_j w_j^c m~_jj, m = tr_A rho^alpha = W lambda^alpha W^+,
    m~ = V^+ m V, c = 1 - alpha, and G~ = L o m~ / ((alpha - 1) q ln 2).  No term overflows:
    lambda^alpha is summed as (lambda / lambda_max)^alpha and w^c as (w / w*)^c, w* the w
    of the largest w^c, so L / q takes the divided differences at w / w*, over w*."""
    top = float(lam.max())
    m = (vecs * (lam / top) ** alpha) @ vecs.conj().T
    c = 1.0 - alpha

    def f(w: np.ndarray, v: np.ndarray):
        mt = v.conj().T @ m @ v
        ws = float(w.max() if c > 0 else w.min())
        q = float(np.real(np.diagonal(mt)) @ (w / ws) ** c)
        if q <= 0:
            return math.inf, None
        scale = 1.0 / (q * ws * _LN2 * (alpha - 1.0))
        return ((math.log2(q) + alpha * math.log2(top) + c * math.log2(ws)) / (alpha - 1.0),
                lambda: scale * _divided_differences(w / ws, c) * mt)

    return f


def _sandwiched_objective(vecs: np.ndarray, lam: np.ndarray, da: int, alpha: float):
    """Q = tr M^alpha, M = Gamma rho Gamma, Gamma = I_A x sigma^c, c = (1 - alpha) / (2 alpha).

    rho = R R^+ with R = W lambda^(1/2); a call forms K = sum_a T_a^+ T_a, T_a = w^c S_a,
    S = V^+ R, by :func:`_gram`.  As dQ = alpha tr(Z d(sigma^(2c))), G~ = alpha L o Z~ /
    ((alpha - 1) Q ln 2), L at the order 2c, Z~ = sum_a S_a K^(alpha-1) S_a^+ on K's support.
    Q and K^(alpha-1) are taken over kappa_max^alpha, as in ``divergences.sandwiched_renyi``,
    so no term overflows.
    """
    c = (1.0 - alpha) / (2.0 * alpha)
    c2, am1 = 2.0 * c, alpha - 1.0
    factor, r = vecs * np.sqrt(lam), len(lam) // da

    def f(w: np.ndarray, v: np.ndarray):
        s = v.conj().T @ factor
        spec, _ = _gram(w**c, s, r)
        sup = spec.support
        kap, u = spec.values[sup], spec.vectors[:, sup]
        if not kap.size:
            return math.inf, None
        top = float(kap[-1])
        q = float(((kap / top) ** alpha).sum())
        scale = alpha / (q * top * _LN2 * am1)

        def grad():
            su = s.reshape(-1, r) @ u
            z = (su * (kap / top) ** am1).reshape(len(w), -1) @ su.reshape(len(w), -1).conj().T
            z *= scale * _divided_differences(w, c2)
            return z

        return (alpha * math.log2(top) + math.log2(q)) / am1, grad

    return f


def _conditioning(state: State, a_labels, b_labels, family: str, alpha: float):
    """(P, w, f): :func:`_conditioning_basis` of the (A, B) blocks, and f(w', V) =
    D_family(rho_AB || I_A x sigma_B) at sigma_B = P V diag(w') V^+ P^+; f(w, I) is at rho_B."""
    basis, vecs, lam, w, da = _conditioning_basis(state, a_labels, b_labels)
    obj = (_petz_objective(vecs, lam, alpha) if family == "petz"
           else _sandwiched_objective(vecs, lam, da, alpha))
    return basis, w, obj


def _mirror_descent(obj, sigma0: Spectrum):
    """Minimize ``obj`` over density matrices by mirror descent from the Spectrum ``sigma0``.

    The iterate sigma = V diag(w) V^+ is held as (w, V, ln w).  ``obj(w, V)``
    returns f and a closure for G~ = V^+ G V, called only at an accepted point.
    A step is normalize(exp(log sigma - eta G)), its log-eigenvalues floored at
    -30, with a backtracking search on eta: after a failed trial, eta goes to
    the minimizer of the quadratic through f(0), the slope -||P||_sigma^2 and
    f(eta), kept in [0.1 eta, 0.5 eta] (0.1 eta after an inf or NaN value;
    Nocedal and Wright, Numerical Optimization, 3.5); an accepted step grows it
    by 1.3.  A trial point costs one eigh of diag(ln w) - eta G~ (formed in place),
    whose eigenvectors U give V' = V U, plus ``obj``: 2 eigh for the sandwiched family.
    sigma is formed only for the result.  It runs at most _MAX_ITERS steps, and
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
    eta = 1.0
    grad_norm = math.inf
    for it in range(_MAX_ITERS):
        proj = grad.copy()
        proj.flat[:: len(w) + 1] -= float(np.real(np.diagonal(grad)) @ w)
        slope = float((np.abs(proj) ** 2 @ w).sum())  # tr(P sigma P)
        grad_norm = math.sqrt(slope)
        if grad_norm <= _GRAD_TOL:
            return MinimizeResult(fval, (v * w) @ v.conj().T, it, grad_norm, "grad_tol")
        floor = _RESOLUTION * max(1.0, abs(fval))
        while eta * slope >= floor:
            step = grad * -eta
            step.flat[:: len(w) + 1] += ln_w
            spec = Spectrum.eigh(step)
            ln_c = spec.values - spec.values[-1]  # the shift guards against overflow
            ln_c -= math.log(float(np.exp(ln_c).sum()))
            # e^-30 = 9.4e-14 per eigenvalue, far inside the trace checks (1e-9), keeps
            # every eigenvector within reach of a step: from ln w near -690 it is not
            np.maximum(ln_c, -30.0, out=ln_c)
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


def minimized_conditioning(state: State, a_labels, b_labels, family: str,
                           alpha: float) -> MinimizeResult:
    """inf over sigma_B of D(rho_AB || I_A x sigma_B), by one mirror descent.

    The problem is convex at every order the library uses (sandwiched
    alpha >= 1/2, Petz alpha in (0, 2]), so one start suffices: (1 - 1e-9) rho_B +
    1e-9 I / |B| on supp rho_B.  The descent runs on :func:`_conditioning`'s objective and
    returns P sigma P^+, fixed only to about ||P||_sigma at exit (1e-9 to 3e-7), while the
    value is fixed to about 1e-14 (:class:`MinimizeResult`).  Near alpha = 1 it returns
    -H(A|B) = H(w) - H(lambda) at sigma_B = rho_B = P diag(w) P^+, from the support
    eigenvalues of :func:`_conditioning_basis`.
    """
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        basis, _, lam, w, da = _conditioning_basis(state, a_labels, b_labels)
        h = Spectrum(lam[: len(lam) // da]).entropy() - Spectrum(w).entropy()
        return MinimizeResult(-h, (basis * w) @ basis.conj().T, 0, 0.0, "closed_form")
    basis, w, obj = _conditioning(state, a_labels, b_labels, family, alpha)
    # The minimizer lives on supp(rho_B): pinching with its projector leaves rho invariant
    # and cannot increase D, and renormalizing the in-support block only decreases it.
    # There the iterates stay full rank, as the multiplicative update needs; the start is
    # in rho_B's eigenbasis, the identity in the basis of the descent.
    sigma0 = Spectrum((1.0 - 1e-9) * w / np.sum(w) + 1e-9 / len(w), np.eye(len(w), dtype=complex))
    res = _mirror_descent(obj, sigma0)
    return replace(res, sigma=basis @ res.sigma @ basis.conj().T)


def petz_up_closed_form(state: State, a_labels, b_labels, alpha: float) -> float:
    """Optimized Petz H_up_alpha(A|B), :func:`cond_entropy` of its :class:`EntropyKind`."""
    return cond_entropy(state, a_labels, b_labels, EntropyKind("petz", alpha, optimized=True))


def cond_entropy(state: State, a_labels, b_labels, kind: EntropyKind) -> float:
    """Conditional Renyi entropy of the (A, B) partition, in bits: H(A|B) near alpha = 1;
    else :func:`_conditioning`'s objective once at sigma_B = rho_B for the plain kinds, the
    closed form of :class:`PetzUpEntropy` or :func:`minimized_conditioning` optimized."""
    if abs(kind.alpha - 1.0) < ALPHA_ONE_GUARD:
        return cond_vn_entropy(state, a_labels, b_labels)
    if kind.optimized and kind.family == "petz":
        return PetzUpEntropy.of(state, a_labels, b_labels)(kind.alpha)
    if kind.optimized:
        return -minimized_conditioning(state, a_labels, b_labels, kind.family, kind.alpha).value
    _, w, obj = _conditioning(state, a_labels, b_labels, kind.family, kind.alpha)
    return -obj(w, np.eye(len(w)))[0]


def merging_entropies(state: State, a_labels, b_labels, c_labels):
    """The sandwiched :class:`ConditionalEntropy` of (A|C) and the :class:`PetzUpEntropy`
    of (A|B) of a pure rho_ABC, built once per state.  By duality (Tomamichel, Berta and
    Hayashi, JMP 2014), H~_{1+s}(A|C) = -H_up_{1/(1+s)}(A|B): their phis agree."""
    def build():
        purity = float(np.real(np.trace(state.density @ state.density)))
        if purity < 1.0 - 1e-8:
            raise ValueError(f"state is not pure (tr rho^2 = {purity:.6f})")
        ac = state.marginal(*(list(a_labels) + list(c_labels)))
        ab = state.marginal(*(list(a_labels) + list(b_labels)))
        return ConditionalEntropy(ac, a_labels, c_labels), PetzUpEntropy.of(ab, a_labels, b_labels)

    return memo_on(state, ("merging", tuple(a_labels), tuple(b_labels), tuple(c_labels)), build)


def duality_pair(state: State, a_labels, b_labels, c_labels, s: float):
    """Both sides of the pure-state duality, for cross-checking: (sandwiched H_{1+s}(A|C),
    -petz H_up_{1/(1+s)}(A|B)) of a pure rho_ABC, read as phi(s) / s of the two entropies of
    :func:`merging_entropies`.  They agree in exact arithmetic."""
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    h, h_dual = merging_entropies(state, a_labels, b_labels, c_labels)
    return h.phi(s)[0] / s, h_dual.phi(s)[0] / s


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
