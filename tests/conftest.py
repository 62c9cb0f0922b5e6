import math

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power
from scipy.optimize import brentq, minimize_scalar

from qdecoupling.channels import kraus_operators
from qdecoupling.divergences import ALPHA_ONE_GUARD
from qdecoupling.linalg import Spectrum
from qdecoupling.states import State, make_rng


@pytest.fixture
def rng():
    return make_rng(20240817)


def random_herm(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def commuting_pair(d, rng):
    """Two random densities diagonal in a common Haar basis, plus the weights."""
    from qdecoupling.states import haar_unitary

    u = haar_unitary(d, rng)
    p = rng.dirichlet(np.ones(d))
    q = rng.dirichlet(np.ones(d))
    rho = (u * p) @ u.conj().T
    sig = (u * q) @ u.conj().T
    return rho, sig, p, q


def classical_divergence_oracle(
    p: np.ndarray, q: np.ndarray, kind: str, alpha: float | None = None
) -> float:
    """Scalar-sum evaluation on probability vectors, for commuting cross-checks.

    ``kind`` is one of "umegaki", "petz", "sandwiched", "max"; the two Renyi
    families coincide classically.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("probability vectors must be nonnegative")
    sup_p = p > 0
    if kind == "umegaki":
        if np.any(sup_p & (q == 0)):
            return math.inf
        return float(np.sum(p[sup_p] * (np.log2(p[sup_p]) - np.log2(q[sup_p]))))
    if kind == "max":
        if np.any(sup_p & (q == 0)):
            return math.inf
        return float(np.max(np.log2(p[sup_p] / q[sup_p])))
    if kind in ("petz", "sandwiched"):
        if alpha is None:
            raise ValueError("Renyi kinds need alpha")
        if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
            return classical_divergence_oracle(p, q, "umegaki")
        if alpha > 1 and np.any(sup_p & (q == 0)):
            return math.inf
        mask = sup_p & (q > 0)
        s = float(np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha)))
        if s <= 0:
            return math.inf
        return (math.log2(s) - math.log2(float(np.sum(p)))) / (alpha - 1.0)
    raise ValueError(f"unknown divergence kind {kind!r}")


def purify(state: State, label: str = "P") -> State:
    """Pure extension on one extra subsystem of size rank(state)."""
    spec = Spectrum.of(state.density)
    vals, vecs = spec.values, spec.vectors
    sup = np.flatnonzero(spec.support)
    rank = max(len(sup), 1)
    d = state.total_dim
    vec = np.zeros(d * rank, dtype=complex)
    for k, i in enumerate(sup):
        vec += np.sqrt(vals[i]) * np.kron(vecs[:, i], np.eye(rank)[:, k])
    tr = min(float(np.sum(vals[sup])), 1.0) if len(sup) else 0.0
    nrm = np.linalg.norm(vec)
    if nrm > 0:
        vec = vec / nrm * np.sqrt(tr)
    return State._trusted(np.outer(vec, vec.conj()), state.dims + ((label, rank),))


def apply_kraus(channel, state, on):
    """Independent route: apply the channel to subsystem ``on`` through its Kraus operators."""
    rest = [l for l in state.labels if l != on]
    perm = state.permuted(on, *rest)
    d_rest = perm.total_dim // channel.din
    out = np.zeros((channel.dout * d_rest,) * 2, dtype=complex)
    for k in kraus_operators(channel):
        big = np.kron(k, np.eye(d_rest))
        out += big @ perm.density @ big.conj().T
    new_dims = ((on, channel.dout),) + tuple((l, state.dim_of(l)) for l in rest)
    return State._trusted(out, new_dims).permuted(*state.labels)


def classical_coherent_info(gram):
    """s -> I_{1/(1+s)} of the dephasing channel of ``gram``, by a closed scalar formula.

    The Choi state is maximally correlated with coefficient matrix c = gram^T / d,
    so tr_A rho^alpha is diagonal with entries (c^alpha)_xx.
    """
    c = gram.T / gram.shape[0]

    def coh(s):
        alpha = 1.0 / (1.0 + s)
        ca = fractional_matrix_power(c, alpha)
        total = float(np.sum(np.real(np.diag(ca)) ** (1.0 / alpha)))
        return (alpha / (alpha - 1.0)) * math.log2(total)

    return coh


def classical_dephasing_oracle(gram, r):
    """Independent route: closed scalar formula for a maximally correlated Choi."""
    coh = classical_coherent_info(gram)
    res = minimize_scalar(lambda s: -0.5 * s * (coh(s) - r), bounds=(1e-6, 1 - 1e-9),
                          method="bounded", options={"xatol": 1e-12})
    return max(0.0, float(-res.fun))


def classical_dephasing_converse_oracle(gram, r):
    """sup over s in (0, 64] of (s/2)(I_{1/(1+s)} - r), from the same scalar formula.

    A geometric grid of 257 points locates the best cell, which a bounded
    scalar search then polishes.
    """
    coh = classical_coherent_info(gram)

    def f(s):
        return 0.5 * s * (coh(s) - r)

    grid = np.geomspace(1e-6, 64.0, 257)
    vals = [f(float(s)) for s in grid]
    i = int(np.argmax(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, len(grid) - 1)])
    res = minimize_scalar(lambda s: -f(s), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    return max(0.0, vals[i], float(-res.fun))


def brentq_concave_sup(phi, c, lo, hi):
    """(argmax, sup) of c s + phi(s) on [lo, hi] for one c, phi at floats: the endpoint
    whose slope says so, else scipy's brentq on the slope, xtol = rtol = 1e-12."""
    if c + phi(lo)[1] <= 0.0:
        s = lo
    elif c + phi(hi)[1] >= 0.0:
        s = hi
    else:
        s = brentq(lambda x: c + phi(x)[1], lo, hi, xtol=1e-12, rtol=1e-12)
    return s, c * s + phi(s)[0]


def brentq_exponents(phi, c, asym_slope, hi, converse, s_min=1e-4, s_cap=64.0):
    """Exponents of c s + phi(s) at one rate by :func:`brentq_concave_sup`, rate by rate.

    Returns (achievable, converse, argmax_s, capped, diverges).  The converse
    (if ``converse``) is +inf past a positive ``asym_slope``, else the supremum
    on [s_min, s_hi], s_hi doubled from 1 while the slope is > 0, up to s_cap;
    the achievable supremum on [s_min, hi] is read off the converse maximizer
    where it lies below hi and searched on its own where there is none.
    """
    conv, capped, diverges, curve = math.inf, False, False, None
    if converse and asym_slope is not None and asym_slope > 1e-9:
        diverges = True
    elif converse:
        s_hi = 1.0
        while s_hi < s_cap and c + phi(s_hi)[1] > 0.0:
            s_hi *= 2.0
        capped = c + phi(s_hi)[1] > 0.0
        curve = brentq_concave_sup(phi, c, s_min, s_hi)
        conv = max(0.0, curve[1])
    if curve is None:
        curve = brentq_concave_sup(phi, c, s_min, hi)
    elif curve[0] > hi:
        curve = hi, c * hi + phi(hi)[0]
    return max(0.0, curve[1]), conv, curve[0], capped, diverges
