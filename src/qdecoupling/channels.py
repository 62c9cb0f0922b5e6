"""Quantum channels in Choi form, plus the structured families used here.

Every channel is CPTP: completely positive and trace preserving.  The Choi
state of a channel ``T`` with input dimension ``din`` is stored normalized
(trace 1), on the ordered pair (input copy, output); applying the channel to
a labelled subsystem contracts the input indices of the Choi state against
that subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, as_hermitian, eigenvalue_clusters, partial_trace
from .states import State, memo_on


@dataclass(frozen=True)
class Channel:
    """CPTP map in normalized-Choi representation.

    The Choi matrix is PSD with marginal I/din on the input copy.  A channel
    is immutable: per-channel work is kept on it (``states.memo_on``), so
    its Choi matrix must not be changed in place.
    """

    din: int
    dout: int
    choi: np.ndarray

    def __post_init__(self):
        c = as_hermitian(self.choi)
        if c.shape != (self.din * self.dout, self.din * self.dout):
            raise ValueError("Choi matrix shape does not match din * dout")
        min_eig = float(Spectrum.eigvalsh(c).values[0])
        if min_eig < -1e-9:
            raise ValueError(f"Choi matrix is not PSD (min eig {min_eig:.3e})")
        marg = partial_trace(c, [self.din, self.dout], [0])
        if float(np.max(np.abs(marg - np.eye(self.din) / self.din))) > 1e-9:
            raise ValueError("Choi marginal on the input copy is not I/din")
        object.__setattr__(self, "choi", c)

    @classmethod
    def _trusted(cls, din: int, dout: int, choi: np.ndarray) -> "Channel":
        """A channel whose Hermitian Choi matrix the package wrote itself, CPTP by
        construction, so none of the constructor's checks runs (as ``State._trusted``)."""
        self = object.__new__(cls)
        for name, value in (("din", din), ("dout", dout), ("choi", choi)):
            object.__setattr__(self, name, value)
        return self

    def choi_state(self, labels: tuple[str, str] = ("Ain", "C")) -> State:
        return State._trusted(self.choi, ((labels[0], self.din), (labels[1], self.dout)))

    def output_of_max_mixed(self) -> np.ndarray:
        """Image of I/din: the marginal of the Choi state on the output."""
        return partial_trace(self.choi, [self.din, self.dout], [1])


def _kraus_choi(kraus) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators as one read-only (k, dout, din) array, and their normalized Choi matrix."""
    kraus = np.array(kraus, dtype=complex)
    kraus.flags.writeable = False
    _, dout, din = kraus.shape
    choi = np.zeros((din * dout, din * dout), dtype=complex)
    for k in kraus:
        # vectorized |i><j| -> K|i><j|K* contribution, index order (i, c)
        m = k.T.reshape(din * dout)  # m[i*dout + c] = K[c, i]
        choi += np.outer(m, m.conj())
    return kraus, choi / din


def channel_from_kraus(kraus) -> Channel:
    """Channel of Kraus operators (a list or a (k, dout, din) array), kept on it."""
    kraus, choi = _kraus_choi(kraus)
    channel = Channel(kraus.shape[2], kraus.shape[1], choi)
    memo_on(channel, ("kraus",), lambda: kraus)
    return channel


def _trusted_kraus_channel(kraus) -> Channel:
    """:func:`channel_from_kraus` for Kraus operators that the package wrote, which
    form a CPTP map by construction: the Choi matrix is not validated."""
    kraus, choi = _kraus_choi(kraus)
    channel = Channel._trusted(kraus.shape[2], kraus.shape[1], choi)
    memo_on(channel, ("kraus",), lambda: kraus)
    return channel


def kraus_operators(channel: Channel) -> np.ndarray:
    """Kraus operators as one read-only (k, dout, din) array: those the channel
    was built from, else the eigenvectors of the unnormalized Choi matrix."""

    def from_choi():
        spec = Spectrum.of(channel.choi * channel.din)
        vecs = spec.vectors[:, spec.support] * np.sqrt(spec.values[spec.support])
        kraus = vecs.T.reshape(-1, channel.din, channel.dout).transpose(0, 2, 1)
        kraus.flags.writeable = False
        return kraus

    return memo_on(channel, ("kraus",), from_choi)


def identity_channel(d: int) -> Channel:
    return _trusted_kraus_channel([np.eye(d)])


def partial_trace_channel(d_keep: int, d_drop: int) -> Channel:
    """Trace out the second factor of an input split as keep x drop."""
    kraus = [np.kron(np.eye(d_keep), np.eye(d_drop)[j : j + 1, :]) for j in range(d_drop)]
    return _trusted_kraus_channel(kraus)


def full_trace_channel(d: int) -> Channel:
    """Trace out everything; output is the trivial one-dimensional system."""
    kraus = [np.eye(d)[j : j + 1, :] for j in range(d)]
    return _trusted_kraus_channel(kraus)


def pinching_channel(h: np.ndarray) -> Channel:
    """Dephasing with respect to the clustered spectral projectors of ``h``."""
    projs = [p for _, p in eigenvalue_clusters(h)]
    return channel_from_kraus(projs)


def generalized_dephasing(overlaps: np.ndarray) -> Channel:
    """Basis-preserving channel built from a Gram matrix of state overlaps.

    Maps ``rho`` to the matrix with entries ``rho[x, y] * conj(overlaps[x, y])``
    in the computational basis; requires ``overlaps`` PSD with unit diagonal.
    """
    g = as_hermitian(overlaps)
    d = g.shape[0]
    if float(np.max(np.abs(np.diag(g) - 1.0))) > 1e-10:
        raise ValueError("Gram matrix must have unit diagonal")
    if float(Spectrum.eigvalsh(g).values[0]) < -1e-10:
        raise ValueError("Gram matrix must be PSD")
    choi = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            choi[i * d + i, j * d + j] = g[j, i] / d
    return Channel(d, d, choi)


def random_channel(din: int, dout: int, rng: np.random.Generator) -> Channel:
    """Random CPTP map from a normalized full-rank Ginibre-induced Choi matrix."""
    n = din * dout
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    marg = partial_trace(m, [din, dout], [0])
    inv_sqrt = Spectrum.of(marg).pow(-0.5)
    corr = np.kron(inv_sqrt, np.eye(dout))
    choi = corr @ m @ corr / din
    return Channel(din, dout, choi)


def choi_contract(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """``(T x id)(rho)`` by the Choi contraction identity.

    ``rho`` is an operator on (channel input, rest) with the input factor
    first; the result has the channel's output factor first.
    """
    din, dout = channel.din, channel.dout
    d_rest = rho.shape[-1] // din
    w = channel.choi.reshape(din, dout, din, dout)
    out = din * np.einsum("icjd,iejf->cedf", w, rho.reshape(din, d_rest, din, d_rest))
    return out.reshape(dout * d_rest, dout * d_rest)


def apply_channel(channel: Channel, state: State, on: str) -> State:
    """Apply a channel to one labelled subsystem of a multipartite state.

    Uses the Choi contraction identity; the acted-on subsystem keeps its
    label but takes the channel's output dimension.
    """
    if state.dim_of(on) != channel.din:
        raise ValueError(
            f"subsystem {on!r} has dimension {state.dim_of(on)}, channel input is {channel.din}"
        )
    rest = [l for l in state.labels if l != on]
    perm = state.permuted(on, *rest)
    out = choi_contract(channel, perm.density)
    new_dims = ((on, channel.dout),) + tuple((l, state.dim_of(l)) for l in rest)
    return State._trusted(out, new_dims).permuted(*state.labels)

