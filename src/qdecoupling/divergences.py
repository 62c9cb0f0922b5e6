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


def _spectrum(p) -> Spectrum:
    return p if isinstance(p, Spectrum) else Spectrum.of(p)


def support_contained(rho: np.ndarray, sigma):
    """Whether supp(rho) fits inside supp(sigma), up to a leak of ``SUPPORT_LEAK_TOL``.

    ``sigma`` is a PSD matrix or its :class:`Spectrum`.  ``rho`` may be a
    stack, shape ``(..., d, d)``; the answer is then a boolean array with
    one entry per matrix.
    """
    proj = _spectrum(sigma).projector()
    leak = np.einsum("...ij,ji->...", rho, np.eye(proj.shape[0]) - proj).real
    return leak <= SUPPORT_LEAK_TOL


def supports_overlap(rho: np.ndarray, sigma) -> bool:
    """Whether tr(rho P_sigma) > SUPPORT_LEAK_TOL for PSD rho; sigma may be a :class:`Spectrum`."""
    overlap = float(np.einsum("ij,ji->", rho, _spectrum(sigma).projector()).real)
    return overlap > SUPPORT_LEAK_TOL


def umegaki(rho: np.ndarray, sigma):
    """Relative entropy tr(rho(log rho - log sigma)) in bits; +inf off-support.

    ``rho`` may be a stack, shape ``(..., d, d)``, scored against the one
    ``sigma``; the result is then an array with one value per matrix, whose
    entropies come from one stacked eigenvalue solve.
    """
    rho = as_hermitian(rho)
    sig = _spectrum(sigma)
    vals = -Spectrum.eigvalsh(rho).entropy() - np.einsum("...ij,ji->...", rho, sig.log2()).real
    out = np.where(support_contained(rho, sig), vals, math.inf)
    return float(out) if out.ndim == 0 else out


def petz_renyi(rho: np.ndarray, sigma, alpha: float) -> float:
    """Quasi-entropy family built on tr(rho^a sigma^(1-a)), in bits."""
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
    q = float(np.real(np.trace(r.pow(alpha) @ s.pow(1.0 - alpha))))
    if q <= 0:
        return math.inf
    tr_rho = float(np.real(np.trace(rho)))
    return (math.log2(q) - math.log2(tr_rho)) / (alpha - 1.0)


def sandwiched_renyi(rho: np.ndarray, sigma, alpha: float) -> float:
    """Sandwiched family built on tr((sigma^c rho sigma^c)^a), c=(1-a)/2a, in bits."""
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
    conj = s.pow((1.0 - alpha) / (2.0 * alpha))
    mid = Spectrum.of(conj @ rho @ conj)
    q = float(np.sum(mid.values[mid.support] ** alpha))
    if q <= 0:
        return math.inf
    tr_rho = float(np.real(np.trace(rho)))
    return (math.log2(q) - math.log2(tr_rho)) / (alpha - 1.0)


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
    """Uniform dispatch used by the CLI and the conditional-entropy layer."""
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
