"""Multipartite density operators, random ensembles and structured states."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Spectrum, as_hermitian, partial_trace, tensor


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based seeded generator; (seed, stream) pins the draws."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class State:
    """Density operator together with an ordered, labelled subsystem split.

    ``dims`` is a tuple of (label, dimension) pairs in tensor order.  The
    matrix is symmetrized on construction and must be PSD with trace 1
    (to 1e-10).  Only this public constructor validates: states derived
    inside the package from valid ones come from :meth:`_trusted`.  A state is
    immutable: the exponent functions keep per-state work on it
    (:func:`memo_on`), so its density must not be changed in place.
    """

    density: np.ndarray
    dims: tuple[tuple[str, int], ...]

    def __post_init__(self):
        self._set_structure()
        spec = Spectrum.eigvalsh(self.density)
        if float(spec.values[0]) < -spec.cutoff - 1e-10:
            raise ValueError(f"density is not PSD (min eigenvalue {spec.values[0]:.3e})")
        tr = float(np.real(np.trace(self.density)))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"state has trace {tr:.12f} != 1")

    def _set_structure(self) -> None:
        """Symmetrize the density and check it against the subsystem dims."""
        m = as_hermitian(self.density)
        dims = tuple((str(l), int(d)) for l, d in self.dims)
        total = int(np.prod([d for _, d in dims])) if dims else 1
        if m.shape != (total, total):
            raise ValueError(
                f"matrix dimension {m.shape[0]} != product of subsystem dims {total}"
            )
        if len({l for l, _ in dims}) != len(dims):
            raise ValueError("subsystem labels must be unique")
        object.__setattr__(self, "density", m)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _trusted(cls, density, dims) -> "State":
        """A state derived from valid states, with the structural checks only.

        Partial traces, permutations, tensor products, channels and unitary
        rotations keep a state PSD with trace 1, up to roundoff, so
        the spectral and trace checks of the public constructor are skipped.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "dims", dims)
        self._set_structure()
        return self

    # -- structure helpers ------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(l for l, _ in self.dims)

    def dim_of(self, label: str) -> int:
        for l, d in self.dims:
            if l == label:
                return d
        raise KeyError(f"no subsystem labelled {label!r}")

    @property
    def total_dim(self) -> int:
        return self.density.shape[0]

    def index_of(self, label: str) -> int:
        for i, (l, _) in enumerate(self.dims):
            if l == label:
                return i
        raise KeyError(f"no subsystem labelled {label!r}")

    def marginal(self, *labels: str) -> "State":
        """Reduced state on the given subsystems (original relative order)."""
        keep = sorted(self.index_of(l) for l in labels)
        sizes = [d for _, d in self.dims]
        m = partial_trace(self.density, sizes, keep)
        return State._trusted(m, tuple(self.dims[i] for i in keep))

    def permuted(self, *labels: str) -> "State":
        """Same state with subsystems reordered to the given label order."""
        perm = [self.index_of(l) for l in labels]
        if sorted(perm) != list(range(len(self.dims))):
            raise ValueError("permutation must mention every subsystem exactly once")
        n = len(self.dims)
        sizes = [d for _, d in self.dims]
        t = self.density.reshape(sizes + sizes)
        t = np.transpose(t, perm + [n + p for p in perm])
        return State._trusted(
            t.reshape(self.total_dim, self.total_dim), tuple(self.dims[p] for p in perm)
        )

    def tensor_with(self, other: "State") -> "State":
        return State._trusted(tensor(self.density, other.density), self.dims + other.dims)

    def relabeled(self, mapping: dict[str, str]) -> "State":
        dims = tuple((mapping.get(l, l), d) for l, d in self.dims)
        return State._trusted(self.density, dims)


def memo_on(obj, key, make):
    """``make()`` computed once per ``key`` and kept on the input ``obj``.

    ``obj`` is a :class:`State` or a ``Channel``.  Inputs are never mutated in
    place, so a value derived from one stays valid for the object's lifetime;
    the memo dies with the object, and nothing is cached at module level.
    """
    memo = vars(obj).get("_memo")
    if memo is None:
        memo = {}
        object.__setattr__(obj, "_memo", memo)
    if key not in memo:
        memo[key] = make()
    return memo[key]


def tensor_power(state: State, m: int) -> State:
    """m-fold tensor power; copy k gets labels suffixed with ``#k``."""
    out = state.relabeled({l: f"{l}#0" for l in state.labels})
    for k in range(1, m):
        out = out.tensor_with(state.relabeled({l: f"{l}#{k}" for l in state.labels}))
    return out


# -- standard states ------------------------------------------------------


def max_entangled(d: int, labels: tuple[str, str] = ("A", "B")) -> State:
    vec = np.eye(d).reshape(d * d) / np.sqrt(d)
    return State(np.outer(vec, vec.conj()), ((labels[0], d), (labels[1], d)))


def max_mixed(d: int, label: str = "A") -> State:
    return State(np.eye(d) / d, ((label, d),))


def maximally_correlated(coeffs: np.ndarray, labels: tuple[str, str] = ("A", "B")) -> State:
    """State supported on the span of |x x>, with coefficient matrix ``coeffs``."""
    c = as_hermitian(coeffs)
    d = c.shape[0]
    rho = np.zeros((d * d, d * d), dtype=complex)
    for x in range(d):
        for y in range(d):
            rho[x * d + x, y * d + y] = c[x, y]
    return State(rho, ((labels[0], d), (labels[1], d)))


# -- random ensembles -----------------------------------------------------


def _ginibre(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-distributed unitaries, shape ``(n, d, d)``.

    Ginibre + QR with phase-fixed diagonals, in one draw: the real then the
    imaginary part of each sample, the same numbers in the same order as n
    successive :func:`haar_unitary` calls.
    """
    g = rng.standard_normal((n, 2, d, d))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[:, None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via Ginibre + QR with phase-fixed diagonal."""
    return haar_unitaries(d, 1, rng)[0]


def random_density(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre-induced random density matrix of the requested rank."""
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in [1, {dim}], got {rank}")
    g = _ginibre(dim, rank, rng)
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def random_state(
    dims: tuple[tuple[str, int], ...], rank: int, rng: np.random.Generator
) -> State:
    total = int(np.prod([d for _, d in dims]))
    return State(random_density(total, rank, rng), dims)


def random_pure(dims: tuple[tuple[str, int], ...], rng: np.random.Generator) -> State:
    total = int(np.prod([d for _, d in dims]))
    v = _ginibre(total, 1, rng)[:, 0]
    v /= np.linalg.norm(v)
    return State(np.outer(v, v.conj()), dims)


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


# -- group ensembles and exact moments ------------------------------------


def heisenberg_weyl(d: int) -> list[np.ndarray]:
    """The d^2 shift/clock unitaries X^a Z^b."""
    shift = np.roll(np.eye(d), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    out = []
    for a in range(d):
        for b in range(d):
            out.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b))
    return out


def _embed_swap(d: int, n_sys: int, i: int, j: int) -> np.ndarray:
    """Swap operator between subsystems i and j of n_sys systems of size d."""
    total = d**n_sys
    t = np.eye(total, dtype=complex).reshape([d] * (2 * n_sys))
    perm = list(range(n_sys))
    perm[i], perm[j] = perm[j], perm[i]
    t = np.transpose(t, perm + list(range(n_sys, 2 * n_sys)))
    return t.reshape(total, total)


def haar_second_moment_exact(d: int) -> np.ndarray:
    """Exact Haar average of two copies of a rotated maximally entangled state.

    Returns E_U[(U x I) Phi (U x I)* tensor (U x I) Phi (U x I)*] on four
    systems of size d ordered (A, A', A~, A~'), where the same unitary acts
    on A and A~.  Derived by second-moment (Weingarten) integration; the
    result is a state (Hermitian, PSD, trace 1).
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    ident = np.eye(d**4, dtype=complex)
    f_a = _embed_swap(d, 4, 0, 2)
    f_ap = _embed_swap(d, 4, 1, 3)
    c_main = 1.0 / (d * d * (d * d - 1))
    c_cross = 1.0 / (d**3 * (d * d - 1))
    return c_main * (ident + f_a @ f_ap) - c_cross * (f_a + f_ap)
