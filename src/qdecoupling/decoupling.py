"""Decoupling error, its Monte Carlo estimation, and the one-shot bounds.

The decoupling error of a channel T acting on the A part of rho_AE is the
Haar average over unitaries U on A of D(T(U rho U*) || omega_C x rho_E),
with omega_C = T(I_A/|A|), in bits; the one-shot upper bound holds for it in nats.

:func:`mc_decoupling_error` estimates it on stacks of Haar samples from one
factor R of rho_AE = R R*: each sample is the small matrix M with columns
(K_k U x I) R_j, its output is M M*, and its entropy comes from the smaller of
M M* and M* M.  :func:`decoupling_error_sample` computes a single sample
through ``State``, ``apply_channel`` and ``umegaki``; it is the exact
reference that the estimator is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, apply_channel, kraus_operators, partial_trace_channel
from .divergences import sandwiched_renyi, support_contained, umegaki
from .exponents import S_MIN, concave_sup, decoupling_phi
from .linalg import SUPPORT_LEAK_TOL, Spectrum, distinct_eigenvalue_count, positive_part_trace, tensor
from .states import State, haar_unitaries, make_rng

LN2 = math.log(2.0)


def prefactor(s: float) -> float:
    """c_s = s^s (1-s)^(1-s), with the continuous limits at the endpoints."""
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    if s == 1.0:
        return 1.0
    return math.exp(s * math.log(s) + (1.0 - s) * math.log(1.0 - s))


@dataclass(frozen=True)
class DecouplingInstance:
    """A state rho_AE together with the decoupling channel on A."""

    rho_ae: State
    channel: Channel

    def __post_init__(self):
        if tuple(self.rho_ae.labels) != ("A", "E"):
            raise ValueError("rho_ae must carry labels ('A', 'E')")
        if self.rho_ae.dim_of("A") != self.channel.din:
            raise ValueError("channel input dimension does not match subsystem A")

    @property
    def dim_a(self) -> int:
        return self.rho_ae.dim_of("A")

    @property
    def omega_c(self) -> np.ndarray:
        """Channel output on the maximally mixed input."""
        return self.channel.output_of_max_mixed()

    @property
    def rho_e(self) -> np.ndarray:
        return self.rho_ae.marginal("E").density


def standard_instance(rho_ae: State, d_a1: int, d_a2: int) -> DecouplingInstance:
    """Standard decoupling: trace out a d_a2-dimensional factor of A."""
    if d_a1 < 1 or d_a2 < 1 or d_a1 * d_a2 != rho_ae.dim_of("A"):
        raise ValueError("d_a1 and d_a2 must be >= 1 with d_a1 * d_a2 = |A|")
    return DecouplingInstance(rho_ae, partial_trace_channel(d_a1, d_a2))


@dataclass(frozen=True)
class MCEstimate:
    """Sample mean and error of the decoupling error over Haar draws, and the samples."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    per_sample: np.ndarray = field(compare=False)  # an array has no truth value for ==
    n_infinite: int = field(default=0)

    @property
    def is_finite(self) -> bool:
        return self.n_infinite == 0


def decoupling_error_sample(inst: DecouplingInstance, u: np.ndarray) -> float:
    """D(T(U rho_AE U*) || omega_C x rho_E) for one unitary on A.

    The one-sample reference for :func:`mc_decoupling_error`, which
    evaluates the same quantity on stacks of unitaries.
    """
    big = tensor(u, np.eye(inst.rho_ae.dim_of("E")))
    rotated = State._trusted(big @ inst.rho_ae.density @ big.conj().T, inst.rho_ae.dims)
    out = apply_channel(inst.channel, rotated, "A")
    target = tensor(inst.omega_c, inst.rho_e)
    return umegaki(out.density, target)


# Haar samples per stacked evaluation in mc_decoupling_error: enough to
# amortize the per-call overhead, few enough that a stack's temporaries stay
# small.  Stacks of 500 raised the peak RSS of a process running 500-sample
# decouple-mc jobs at |A| = 4 by about 1.4 MB.
MC_CHUNK = 64


def mc_decoupling_error(
    inst: DecouplingInstance,
    n_samples: int = 500,
    seed: int = 0,
) -> MCEstimate:
    """Monte Carlo estimate of the Haar-averaged decoupling error.

    rho_AE is decomposed once and kept as its support factor R, rho_AE = R R*,
    rank r.  The samples are drawn in stacks of :data:`MC_CHUNK`; for each
    unitary U, the channel's Kraus operators K_k give M, rows (c, e), columns
    (k, j), holding (K_k U x I) R_j, so that the output is M M*.  Its entropy
    comes from one stacked eigenvalue solve of the smaller of M M* (|C||E|)
    and M* M (K r), which share their nonzero spectrum.  log2(omega_C x rho_E)
    and the projector off its support are built once, and one product reads
    each sample's cross term and support leak; a leak above
    ``SUPPORT_LEAK_TOL`` makes the sample +inf, as in :func:`umegaki`.  M M*
    is PSD by construction, so no stack is validated.  Per sample this is
    :func:`decoupling_error_sample` up to roundoff.

    Infinite samples (support violations of single draws) are counted and
    surfaced through ``n_infinite`` and as NaN in ``per_sample`` rather than
    dropped; the mean and stderr are then reported over the finite samples only.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = make_rng(seed)
    da, de = inst.dim_a, inst.rho_ae.dim_of("E")
    kraus = kraus_operators(inst.channel)
    nk, dout = kraus.shape[:2]
    spec = Spectrum.eigh(inst.rho_ae.density)
    sup = spec.support
    rank = int(np.count_nonzero(sup))
    factor = (spec.vectors[:, sup] * np.sqrt(spec.values[sup])).reshape(da, de * rank)
    target = Spectrum.eigh(tensor(inst.omega_c, inst.rho_e))
    # log2 sigma and I - P_sigma, transposed and flattened: vec(out) @ weights
    # gives tr(out log2 sigma) and tr(out (I - P_sigma)) of each sample
    weights = np.stack([target.log2(), np.eye(dout * de) - target.projector()])
    weights = weights.transpose(0, 2, 1).reshape(2, -1).T
    kraus = kraus.reshape(-1, da)  # rows (k, c)
    chunks = []
    for start in range(0, n_samples, MC_CHUNK):
        n = min(MC_CHUNK, n_samples - start)
        x = (haar_unitaries(da, n, rng).reshape(-1, da) @ factor).reshape(n, da, -1)  # U R
        m = (kraus @ x).reshape(n, nk, dout, de, rank).transpose(0, 2, 3, 1, 4)
        m = m.reshape(n, dout * de, nk * rank)
        m_adj = m.conj().swapaxes(-1, -2)
        out = m @ m_adj
        gram = out if dout * de <= nk * rank else m_adj @ m
        cross, leak = (out.reshape(n, -1) @ weights).real.T
        vals = -Spectrum.eigvalsh(gram).entropy() - cross
        chunks.append(np.where(leak <= SUPPORT_LEAK_TOL, vals, math.inf))
    vals = np.concatenate(chunks)
    infinite = np.isinf(vals)
    n_inf = int(np.count_nonzero(infinite))
    vals[infinite] = np.nan
    finite = vals[~np.isnan(vals)]
    if len(finite) >= 2:
        mean = float(np.mean(finite))
        stderr = float(np.std(finite, ddof=1) / math.sqrt(len(finite)))
    else:
        mean, stderr = math.inf, math.inf
    return MCEstimate(
        mean=mean,
        stderr=stderr,
        n_samples=n_samples,
        seed=seed,
        per_sample=vals,
        n_infinite=n_inf,
    )


def decoupling_error_upper_bound(inst: DecouplingInstance, s: float) -> float:
    """One-shot upper bound (c_s/s) * 2^(-s * (H(A|E) + H(A'|C))) at fixed s on the
    decoupling error in nats, bits times ln 2 (as in :func:`sharp_trace_inequality`):
    2^(-s H) in bits is e^(-s H) in nats, so the bound has no unit of its own."""
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    return (prefactor(s) / s) * 2.0 ** -decoupling_phi(inst.rho_ae, inst.channel)(s)[0]


def decoupling_error_upper_bound_optimized(inst: DecouplingInstance) -> tuple[float, float]:
    """Minimum of the one-shot upper bound (on the error in nats) over s in (0, 1);
    returns (bound, s*).

    The log of the bound, ln(c_s / s) - ln 2 phi(s) with phi the concave
    :func:`exponents.decoupling_phi`, is convex in s.  Its minimizer is the root
    of its slope ln s - ln(1 - s) - 1/s - ln 2 phi'(s), which tends to +inf at 1,
    found by :func:`exponents.concave_sup` on the negated log.
    """
    phi = decoupling_phi(inst.rho_ae, inst.channel)

    def neg_log(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        v, d = phi(s)
        logit = np.log(s / (1.0 - s))
        return LN2 * v + (1.0 - s) * logit, 1.0 / s + LN2 * d - logit  # ln(c_s/s) = -(1-s) logit

    s = float(concave_sup(neg_log, 0.0, S_MIN, 1.0 - 1e-9).argmax_s[0])
    return decoupling_error_upper_bound(inst, s), s


def decoupling_error_lower_bound(rho_ae: State, d_a1: int, d_a2: int) -> float:
    """One-shot converse for standard decoupling (partial trace over A2).

    (1/v) * tr(rho_AE - 9 v (|A2|/|A1|) I_A x rho_E)_+ with v the number of
    distinct eigenvalues of rho_E.
    """
    da = rho_ae.dim_of("A")
    if d_a1 < 1 or d_a2 < 1 or d_a1 * d_a2 != da:
        raise ValueError("d_a1 and d_a2 must be >= 1 with d_a1 * d_a2 = |A|")
    rho_e = rho_ae.marginal("E").density
    v = distinct_eigenvalue_count(rho_e)
    shift = 9.0 * v * (d_a2 / d_a1) * tensor(np.eye(da), rho_e)
    return positive_part_trace(rho_ae.density - shift) / v


# -- inequality checkers ---------------------------------------------------


def sharp_trace_inequality(rho: np.ndarray, sigma: np.ndarray, s: float):
    """Both sides of tr(rho(log(rho+sigma) - log sigma)) <= rhs, in bits.

    The right-hand side is (c_s/(s ln 2)) * 2^(s * D_{1+s}(rho||sigma)) with
    the sandwiched divergence in bits; the 1/ln 2 converts the natural-log
    statement of the inequality to the base-2 left-hand side.
    """
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    sig = Spectrum.of(sigma)
    if not support_contained(rho, sig):
        raise ValueError("supp(rho) must be contained in supp(sigma)")
    lhs = float(np.real(np.trace(rho @ (Spectrum.of(rho + sigma).log2() - sig.log2()))))
    d = sandwiched_renyi(rho, sigma, 1.0 + s)
    rhs = (prefactor(s) / (s * LN2)) * 2.0 ** (s * d)
    return lhs, rhs


@dataclass(frozen=True)
class SweepReport:
    """Max violations found by a random-ensemble inequality sweep."""

    superadditivity_violation: float
    relent_floor_violation: float
    n_samples: int
    seed: int

    @property
    def max_violation(self) -> float:
        return max(self.superadditivity_violation, self.relent_floor_violation)


def positive_part_inequality_sweep(n_samples: int, seed: int = 0) -> SweepReport:
    """Random sweep of two positive-part inequalities on 4 x 4 matrices.

    Checks tr(sum_x A_x - lam I)_+ >= sum_x tr(A_x - lam I)_+ for three PSD
    A_x, and D(rho||sigma) >= tr(rho - 9 sigma)_+ for random state pairs.
    """
    dim = 4
    rng = make_rng(seed)
    worst_super = 0.0
    worst_floor = 0.0
    for _ in range(n_samples):
        mats = []
        for _ in range(3):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mats.append(g @ g.conj().T / dim)
        lam = float(rng.uniform(0.0, 2.0))
        eye = np.eye(dim)
        lhs = positive_part_trace(sum(mats) - lam * eye)
        rhs = sum(positive_part_trace(a - lam * eye) for a in mats)
        worst_super = max(worst_super, rhs - lhs)

        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = g @ g.conj().T
        rho /= np.real(np.trace(rho))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        sig = g @ g.conj().T
        sig /= np.real(np.trace(sig))
        d = umegaki(rho, sig)
        floor = positive_part_trace(rho - 9.0 * sig)
        worst_floor = max(worst_floor, floor - d)
    return SweepReport(worst_super, worst_floor, n_samples, seed)
