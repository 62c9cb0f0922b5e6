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
