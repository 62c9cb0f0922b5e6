"""Quantum divergences with extended-real (+inf) semantics, base-2 logs.

Inputs are density-like matrices (first argument a possibly sub-normalized
state, second any PSD operator; the second argument is deliberately never
renormalized).  The second argument may also be given as its
:class:`Spectrum`, so a caller that holds the decomposition of sigma passes
it in and nothing decomposes sigma again.  Support violations yield
``math.inf`` instead of raising.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import SUPPORT_LEAK_TOL, Spectrum, as_hermitian

# Dispatch to the Umegaki divergence this close to alpha = 1; the
# 1/(alpha - 1) prefactor is numerically catastrophic nearer.
ALPHA_ONE_GUARD = 1e-6

# A float overlap <u|v> of unit eigenvectors is off by about d eps, so a squared
# overlap at or below this floor has no correct digit and may stand for an exact 0.
_OVERLAP_FLOOR = (64.0 * float(np.finfo(float).eps)) ** 2


def _spectrum(p) -> Spectrum:
    return p if isinstance(p, Spectrum) else Spectrum.of(p)


def support_contained(rho: np.ndarray, sigma) -> bool:
    """Whether supp(rho) fits inside supp(sigma), up to a leak of ``SUPPORT_LEAK_TOL``;
    ``sigma`` is a PSD matrix or its :class:`Spectrum`."""
    proj = _spectrum(sigma).projector()
    return float(np.einsum("ij,ji->", rho, np.eye(len(proj)) - proj).real) <= SUPPORT_LEAK_TOL


def supports_overlap(rho: np.ndarray, sigma) -> bool:
    """Whether tr(rho P_sigma) > SUPPORT_LEAK_TOL for PSD rho; sigma may be a :class:`Spectrum`."""
    overlap = float(np.einsum("ij,ji->", rho, _spectrum(sigma).projector()).real)
    return overlap > SUPPORT_LEAK_TOL


def umegaki(rho: np.ndarray, sigma) -> float:
    """Relative entropy tr(rho(log rho - log sigma)) in bits; +inf off-support."""
    rho = as_hermitian(rho)
    sig = _spectrum(sigma)
    if not support_contained(rho, sig):
        return math.inf
    return -Spectrum.eigvalsh(rho).entropy() - float(np.einsum("ij,ji->", rho, sig.log2()).real)


def petz_renyi(rho: np.ndarray, sigma, alpha: float) -> float:
    """Quasi-entropy family built on Q = tr(rho^a sigma^(1-a)), in bits.

    Q is the Nussbaum-Szkola sum over the support eigenpairs (lambda_i, u_i) of
    rho and (mu_j, v_j) of sigma, sum_ij lambda_i^a mu_j^(1-a) |<u_i|v_j>|^2
    (Nussbaum and Szkola, Ann. Stat. 2009), summed as logs with the largest term
    scaled out, so it is finite at any finite order.  A squared overlap at or
    below ``_OVERLAP_FLOOR`` has no correct digit; where the terms of such
    overlaps are above 1e-12 of the sum, the value has none either and nan is
    returned (the CLI's exit 6).  So D(rho || rho) is 0 to roundoff while
    kappa^a eps^2 is small, kappa the ratio of rho's largest to smallest
    support eigenvalue, and nan beyond: the overlaps of distinct eigenvectors,
    0 in exact arithmetic, are about eps^2 in floats, and their terms weigh
    (lambda_i / lambda_j)^a.  It would read up to log2 kappa there otherwise.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be a positive finite number")
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        return umegaki(rho, sigma)
    rho = as_hermitian(rho)
    r, s = Spectrum.of(rho), _spectrum(sigma)
    if alpha > 1 and not support_contained(rho, s):
        return math.inf
    if alpha < 1 and not supports_overlap(rho, s):
        return math.inf
    if float(r.values[0]) < -r.cutoff:
        raise ValueError(f"matrix is not PSD: min eigenvalue {r.values[0]:.3e}")
    lam, mu = r.values[r.support], s.values[s.support]
    w = np.abs(r.vectors[:, r.support].conj().T @ s.vectors[:, s.support]) ** 2
    i, j = np.nonzero(w > 0.0)
    if not len(i):
        return math.inf
    terms = alpha * np.log(lam[i]) + (1.0 - alpha) * np.log(mu[j]) + np.log(w[i, j])
    top = float(terms.max())
    share = np.exp(terms - top)
    total = float(np.sum(share))
    if float(np.sum(share[w[i, j] <= _OVERLAP_FLOOR])) > 1e-12 * total:
        return math.nan
    log2_q = (top + math.log(total)) / math.log(2.0)
    tr_rho = float(np.real(np.trace(rho)))
    return (log2_q - math.log2(tr_rho)) / (alpha - 1.0)


def sandwiched_renyi(rho: np.ndarray, sigma, alpha: float) -> float:
    """Sandwiched family built on tr((sigma^c rho sigma^c)^a), c=(1-a)/2a, in bits, as
    a/(a-1) log2 x_max + (log2 sum (x / x_max)^a - log2 tr rho)/(a-1) over the sandwich's
    eigenvalues x on its support: no term overflows, so it is finite at any finite order."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be a positive finite number")
    if abs(alpha - 1.0) < ALPHA_ONE_GUARD:
        return umegaki(rho, sigma)
    rho = as_hermitian(rho)
    s = _spectrum(sigma)
    if alpha > 1 and not support_contained(rho, s):
        return math.inf
    if alpha < 1 and not supports_overlap(rho, s):
        return math.inf
    conj = s.pow(0.5 / alpha - 0.5)
    mid = Spectrum.of(conj @ rho @ conj)
    x = mid.values[mid.support]
    if not x.size:
        return math.inf
    log_sum = math.log2(float(np.sum((x / x[-1]) ** alpha)))
    tr_rho = float(np.real(np.trace(rho)))
    return alpha / (alpha - 1.0) * math.log2(x[-1]) + (log_sum - math.log2(tr_rho)) / (alpha - 1.0)


def d_max(rho: np.ndarray, sigma) -> float:
    """Smallest lambda with rho <= 2^lambda sigma; +inf off-support."""
    rho = as_hermitian(rho)
    s = _spectrum(sigma)
    if not support_contained(rho, s):
        return math.inf
    inv_sqrt = s.pow(-0.5)
    top = float(np.max(Spectrum.eigvalsh(as_hermitian(inv_sqrt @ rho @ inv_sqrt)).values))
    if top <= 0:
        return -math.inf
    return math.log2(top)


def divergence(rho: np.ndarray, sigma, kind: str, alpha: float | None = None) -> float:
    """Uniform dispatch used by the CLI and the verify suites."""
    if kind == "umegaki":
        return umegaki(rho, sigma)
    if kind == "max":
        return d_max(rho, sigma)
    if kind in ("petz", "sandwiched"):
        if alpha is None:
            raise ValueError("Renyi kinds need alpha")
        fn = petz_renyi if kind == "petz" else sandwiched_renyi
        return fn(rho, sigma, alpha)
    raise ValueError(f"unknown divergence kind {kind!r}")
