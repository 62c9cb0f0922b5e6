"""Dense complex Hermitian linear algebra and functional calculus.

Operators are plain complex numpy arrays.  Conventions used everywhere in
this package:

* logarithms are base 2 unless a function explicitly says otherwise,
* ``math.inf`` is the sentinel for quantities that diverge,
* :class:`Spectrum` is the one place that decomposes Hermitian matrices and
  applies the rank-revealing support cutoff (:attr:`Spectrum.cutoff`); every
  other module reaches numpy's eigensolvers through it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# Relative tolerance for accepting an almost-Hermitian input; larger
# asymmetry is treated as a caller bug, not roundoff.
HERMITICITY_RTOL = 1e-8

# Relative tolerance for merging nearly equal eigenvalues into one cluster.
CLUSTER_RTOL = 1e-8

# Tolerance for deciding how much of one operator may stick out of the
# support of another before we call the supports incompatible.
SUPPORT_LEAK_TOL = 1e-10

_EPS = float(np.finfo(float).eps)


def as_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate and symmetrize an (almost) Hermitian matrix or stack of them.

    ``m`` has shape ``(..., d, d)``.  Asymmetry up to
    ``HERMITICITY_RTOL * max(1, |m|_max)``, with each matrix of a stack
    judged on its own scale, is absorbed by averaging with the adjoint;
    anything larger raises ``ValueError``.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    adj = m.conj().swapaxes(-1, -2)
    if m.size:
        scale = np.maximum(np.abs(m).max(axis=(-2, -1)), 1.0)
        asym = np.abs(m - adj).max(axis=(-2, -1))
        if (asym > HERMITICITY_RTOL * scale).any():
            raise ValueError(f"matrix is not Hermitian: max asymmetry {asym.max():.3e}")
    out = m + adj
    out *= 0.5
    return out


def _eig_call(solver: Callable, h: np.ndarray):
    """``solver(h)`` with a non-converged eigensolve raised as ``RuntimeError``."""
    try:
        return solver(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc


def herm_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real ascending eigenvalues
    and eigenvectors as the columns of a unitary matrix.
    """
    return _eig_call(np.linalg.eigh, as_hermitian(h))


class Spectrum:
    """Ascending eigenvalues of a Hermitian matrix, eigenvectors if computed.

    Eigenvalues at or below :attr:`cutoff` form the kernel, and every
    function of the spectrum applies that cutoff: :meth:`pow`,
    :meth:`projector`, :meth:`log2` and :meth:`entropy` map the kernel to 0.
    :meth:`eigvalsh` also takes a stack of matrices, shape ``(..., d, d)``;
    :attr:`support` and :meth:`entropy` then hold one entry per matrix of
    the stack.  A non-converged eigensolve raises ``RuntimeError``.
    """

    __slots__ = ("values", "vectors")

    def __init__(self, values: np.ndarray, vectors: np.ndarray | None = None):
        self.values = values
        self.vectors = vectors

    @classmethod
    def of(cls, h: np.ndarray) -> "Spectrum":
        """Eigendecomposition of ``h`` after :func:`as_hermitian` validation."""
        return cls(*herm_eig(h))

    @classmethod
    def eigh(cls, h: np.ndarray) -> "Spectrum":
        """Eigendecomposition of ``h`` as given; only its lower triangle is read."""
        return cls(*_eig_call(np.linalg.eigh, h))

    @classmethod
    def eigvalsh(cls, h: np.ndarray) -> "Spectrum":
        """Eigenvalues only of ``h`` (or a stack) as given; only lower triangles are read."""
        return cls(_eig_call(np.linalg.eigvalsh, h))

    @property
    def cutoff(self) -> float | np.ndarray:
        """Rank-revealing cutoff ``dim * eps * max(|lambda|_max, 1)``: a float for one matrix,
        with a trailing axis for a stack.  The eigenvalues ascend, so one matrix compares
        |lambda_0| and |lambda_-1| as floats, with no reduction."""
        v = self.values
        if v.ndim == 1:
            return len(v) * _EPS * (max(-float(v[0]), float(v[-1]), 1.0) if len(v) else 1.0)
        top = np.abs(v).max(axis=-1, keepdims=True, initial=0.0)
        return v.shape[-1] * _EPS * np.maximum(top, 1.0)

    @property
    def support(self) -> np.ndarray:
        """Mask of the eigenvalues above the cutoff."""
        return self.values > self.cutoff

    def _rebuild(self, new_values: np.ndarray) -> np.ndarray:
        return (self.vectors * new_values) @ self.vectors.conj().T

    def pow(self, t: float) -> np.ndarray:
        """Power of a PSD matrix with the pseudo-inverse convention.

        The kernel maps to 0 for every ``t != 0``; ``t == 0`` gives the
        support projector.
        """
        if float(self.values[0]) < -self.cutoff:
            raise ValueError(f"matrix is not PSD: min eigenvalue {self.values[0]:.3e}")
        sup = self.support
        out = np.zeros(len(self.values))
        out[sup] = 1.0 if t == 0 else self.values[sup] ** t
        return self._rebuild(out)

    def projector(self) -> np.ndarray:
        """Projector onto the support of a PSD matrix."""
        return self.pow(0)

    def log2(self) -> np.ndarray:
        """Base-2 logarithm on the support, 0 on the kernel."""
        sup = self.support
        out = np.zeros(len(self.values))
        out[sup] = np.log2(self.values[sup])
        return self._rebuild(out)

    def entropy(self) -> float | np.ndarray:
        """Von Neumann entropy ``-sum lambda log2 lambda`` over the support."""
        v = np.where(self.support, self.values, 1.0)
        h = -np.sum(v * np.log2(v), axis=-1)
        return float(h) if h.ndim == 0 else h


def mat_pow(p: np.ndarray, t: float) -> np.ndarray:
    """Power of a PSD matrix (see :meth:`Spectrum.pow`)."""
    return Spectrum.of(p).pow(t)


def positive_part_trace(h: np.ndarray) -> float:
    """Trace of the positive part of a Hermitian ``h`` (not validated): the sum of
    its positive eigenvalues."""
    vals = Spectrum.eigvalsh(h).values
    return float(np.sum(vals[vals > 0.0]))


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def partial_trace(
    x: np.ndarray, dims: Sequence[int], keep: Sequence[int]
) -> np.ndarray:
    """Partial trace of a matrix over the subsystems not listed in ``keep``.

    ``dims`` are the subsystem dimensions in tensor order; the result keeps
    the subsystems in ``keep`` in their original relative order.
    """
    dims = list(dims)
    keep = sorted(set(keep))
    n = len(dims)
    x = np.asarray(x, dtype=complex)
    total = int(np.prod(dims))
    if x.shape != (total, total):
        raise ValueError(f"matrix shape {x.shape} does not match dims {dims}")
    if not keep or any(i < 0 or i >= n for i in keep):
        raise ValueError(f"invalid keep set {keep} for {n} subsystems")
    t = x.reshape(dims + dims)
    row = list(range(n))
    col = [i if i not in keep else n + i for i in range(n)]
    out_idx = [i for i in keep] + [n + i for i in keep]
    out = np.einsum(t, row + col, out_idx)
    dk = int(np.prod([dims[i] for i in keep]))
    return out.reshape(dk, dk)


def eigenvalue_clusters(h: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """Cluster nearly equal eigenvalues and return (value, projector) pairs.

    Single-linkage clustering on the sorted spectrum with gap threshold
    ``CLUSTER_RTOL * max(1, |lambda|_max)``.  ``h`` is Hermitian and not validated.
    """
    spec = Spectrum.eigh(h)
    vals, vecs = spec.values, spec.vectors
    tol = CLUSTER_RTOL * max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    clusters: list[tuple[float, np.ndarray]] = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > tol:
            block = vecs[:, start:i]
            clusters.append((float(np.mean(vals[start:i])), block @ block.conj().T))
            start = i
    return clusters


def distinct_eigenvalue_count(h: np.ndarray) -> int:
    """Number of eigenvalue clusters after tolerance-based merging."""
    return len(eigenvalue_clusters(h))
