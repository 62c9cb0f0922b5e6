"""Decoupling error, its Monte Carlo estimation, and the one-shot bounds.

The decoupling error of a channel T acting on the A part of rho_AE is the
Haar average over unitaries U on A of D(T(U rho U*) || omega_C x rho_E),
with omega_C = T(I_A/|A|).  Everything is in bits.

:func:`mc_decoupling_error` estimates it on stacks of Haar samples: each
stack is drawn, rotated and passed through T as arrays, and one stacked
``umegaki`` call scores it against the one decomposition of
omega_C x rho_E.  :func:`decoupling_error_sample` computes a single sample
through ``State``, ``apply_channel`` and ``umegaki``; it is the exact
reference that the estimator is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, apply_channel, choi_contract, partial_trace_channel
from .condentropy import EntropyKind, choi_cond_entropy, cond_entropy, sandwiched_cond_entropy
from .divergences import sandwiched_renyi, support_contained, umegaki
from .exponents import S_MIN, sup_on_interval
from .linalg import (
    Spectrum,
    as_hermitian,
    distinct_eigenvalue_count,
    positive_part_trace,
    tensor,
)
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
    """Sample mean and error of the decoupling error over Haar draws."""

    mean: float
    stderr: float
    n_samples: int
    seed: int
    n_infinite: int = field(default=0)
    per_sample: tuple[float, ...] | None = field(default=None)

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
# amortize the per-call overhead, few enough that a stack's temporaries
# stay under 1 MB at |A||E| = 12.  Stacks of 128 raised the peak memory of
# a decouple-mc process by about 2 MB, stacks of 64 by about 0.5 MB.
MC_CHUNK = 64


def mc_decoupling_error(
    inst: DecouplingInstance,
    n_samples: int = 500,
    seed: int = 0,
    keep_samples: bool = False,
) -> MCEstimate:
    """Monte Carlo estimate of the Haar-averaged decoupling error.

    The samples are drawn and scored in stacks of :data:`MC_CHUNK`: each
    stack of unitaries is applied to rho_AE and passed through the channel
    as one array, and one stacked :func:`umegaki` call scores it against
    the one decomposition of the fixed target omega_C x rho_E.  Per sample
    this is :func:`decoupling_error_sample` up to roundoff.

    Infinite samples (support violations of single draws) are counted and
    surfaced through ``n_infinite`` rather than dropped; the mean and
    stderr are then reported over the finite samples only.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = make_rng(seed)
    da, de = inst.dim_a, inst.rho_ae.dim_of("E")
    rho = inst.rho_ae.density.reshape(da, de, da, de)
    target = Spectrum.of(tensor(inst.omega_c, inst.rho_e))
    chunks = []
    for start in range(0, n_samples, MC_CHUNK):
        u = haar_unitaries(da, min(MC_CHUNK, n_samples - start), rng)
        rotated = np.einsum("nab,bedf,ncd->naecf", u, rho, u.conj(), optimize=True)
        rotated = as_hermitian(rotated.reshape(len(u), da * de, da * de))
        chunks.append(umegaki(choi_contract(inst.channel, rotated), target))
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
        n_infinite=n_inf,
        per_sample=tuple(vals) if keep_samples else None,
    )


def _entropy_sum(inst: DecouplingInstance, s: float) -> float:
    """H_{1+s}(A|E)_rho + H_{1+s}(A'|C)_omega, sandwiched, non-optimized.

    Both entropies are kept on the state and the channel, so a search over s
    splits and decomposes each of them once.
    """
    h_ae = sandwiched_cond_entropy(inst.rho_ae, ["A"], ["E"])
    return h_ae(1.0 + s) + choi_cond_entropy(inst.channel)(1.0 + s)


def decoupling_error_upper_bound(inst: DecouplingInstance, s: float) -> float:
    """One-shot upper bound (c_s/s) * 2^(-s * (H(A|E) + H(A'|C))) at fixed s."""
    if not 0 < s <= 1:
        raise ValueError("s must lie in (0, 1]")
    return (prefactor(s) / s) * 2.0 ** (-s * _entropy_sum(inst, s))


def decoupling_error_upper_bound_optimized(inst: DecouplingInstance) -> tuple[float, float]:
    """Minimum of the one-shot upper bound over s in (0, 1]; returns (bound, s*).

    The search is :func:`exponents.sup_on_interval` on the negated bound.
    """
    curve = sup_on_interval(lambda s: -decoupling_error_upper_bound(inst, s), S_MIN, 1.0, 48)
    return -curve.sup_value, curve.argmax_s


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


def isometry_decoupling_bound(
    rho_ar: State, a_label: str, d_tilde: int, s: float
) -> float:
    """Upper bound for decoupling through a rank-d_tilde partial isometry.

    (c_s/s) * (|Atilde|^(1+s)/|A|) * 2^(-s * H_{1+s}(A|R)), sandwiched.
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0, 1)")
    da = rho_ar.dim_of(a_label)
    if not 1 <= d_tilde <= da:
        raise ValueError("d_tilde must lie in [1, |A|]")
    rest = [l for l in rho_ar.labels if l != a_label]
    h = cond_entropy(rho_ar, [a_label], rest, EntropyKind("sandwiched", 1.0 + s))
    return (prefactor(s) / s) * (d_tilde ** (1.0 + s) / da) * 2.0 ** (-s * h)


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
