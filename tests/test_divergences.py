import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecoupling.channels import apply_channel, random_channel
from qdecoupling.divergences import (
    ALPHA_ONE_GUARD,
    d_max,
    divergence,
    petz_renyi,
    sandwiched_renyi,
    support_contained,
    supports_overlap,
    umegaki,
)
from qdecoupling.linalg import Spectrum
from qdecoupling.states import State, make_rng, random_density

from conftest import classical_divergence_oracle, commuting_pair

ALL_KINDS = [("umegaki", None), ("max", None), ("petz", 0.5), ("petz", 2.0),
             ("sandwiched", 0.5), ("sandwiched", 2.0)]


@pytest.mark.parametrize("kind,alpha", ALL_KINDS)
def test_self_divergence_zero(kind, alpha, rng):
    rho = random_density(4, 4, rng)
    assert divergence(rho, rho, kind, alpha) == pytest.approx(0.0, abs=1e-9)


def test_dmax_examples():
    ket0 = np.diag([1.0, 0.0])
    assert d_max(ket0, np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    rho = np.diag([0.75, 0.25])
    assert d_max(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_umegaki_hand_example():
    p = np.diag([0.5, 0.5])
    q = np.diag([0.25, 0.75])
    expect = 0.5 * math.log2(2.0) + 0.5 * math.log2(2.0 / 3.0)
    assert umegaki(p, q) == pytest.approx(expect, abs=1e-12)


def test_support_predicates():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert not support_contained(a, b)
    assert not supports_overlap(a, b)
    assert support_contained(a, np.eye(2) / 2)
    assert supports_overlap(a, np.eye(2) / 2)


def test_orthogonal_supports_give_inf():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert umegaki(a, b) == math.inf
    assert d_max(a, b) == math.inf
    assert petz_renyi(a, b, 2.0) == math.inf
    assert petz_renyi(a, b, 0.5) == math.inf
    assert sandwiched_renyi(a, b, 2.0) == math.inf
    assert sandwiched_renyi(a, b, 0.5) == math.inf


def test_umegaki_scores_each_matrix_against_one_sigma(rng):
    """Five matrices scored one at a time against one sigma with a kernel, given as
    a matrix and as its Spectrum; the two that leak out of its support are +inf."""
    sigma = np.diag([0.5, 0.3, 0.2, 0.0])
    spec = Spectrum.of(sigma)
    inside = [np.pad(random_density(3, r, rng), ((0, 1), (0, 1))) for r in (1, 2, 3)]
    mats = inside + [random_density(4, 2, rng), np.diag([0.0, 0.0, 0.0, 0.5])]
    contained = [support_contained(m, spec) for m in mats]
    vals = [umegaki(m, spec) for m in mats]
    assert contained == [True, True, True, False, False]
    for c, v, m in zip(contained, vals, mats):
        assert c == support_contained(m, sigma)
        assert v == pytest.approx(umegaki(m, sigma), abs=1e-13)
    for v, m in zip(vals, inside):
        assert v == pytest.approx(umegaki(m[:3, :3], sigma[:3, :3]), abs=1e-13)
    assert vals[3] == vals[4] == math.inf


def test_partial_support_alpha_below_one_finite():
    # alpha < 1 only needs overlapping supports
    rho = np.diag([0.5, 0.5, 0.0])
    sig = np.diag([0.0, 0.5, 0.5])
    assert petz_renyi(rho, sig, 2.0) == math.inf
    assert math.isfinite(petz_renyi(rho, sig, 0.5))
    assert math.isfinite(sandwiched_renyi(rho, sig, 0.5))


def test_alpha_one_guard(rng):
    rho = random_density(3, 3, rng)
    sig = random_density(3, 3, rng)
    base = umegaki(rho, sig)
    eps = 0.1 * ALPHA_ONE_GUARD
    assert petz_renyi(rho, sig, 1.0 + eps) == base
    assert sandwiched_renyi(rho, sig, 1.0 - eps) == base


def test_alpha_validation(rng):
    rho = random_density(2, 2, rng)
    with pytest.raises(ValueError):
        petz_renyi(rho, rho, -1.0)
    with pytest.raises(ValueError):
        divergence(rho, rho, "petz", None)
    with pytest.raises(ValueError):
        divergence(rho, rho, "nope", None)


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.3, 0.5, 0.8, 1.5, 2.0, 3.0]))
def test_commuting_matches_classical_oracle(seed, alpha):
    rng = make_rng(seed)
    rho, sig, p, q = commuting_pair(4, rng)
    for kind in ("umegaki", "max"):
        assert divergence(rho, sig, kind, None) == pytest.approx(
            classical_divergence_oracle(p, q, kind), abs=1e-8
        )
    oracle = classical_divergence_oracle(p, q, "petz", alpha)
    assert petz_renyi(rho, sig, alpha) == pytest.approx(oracle, abs=1e-8)
    assert sandwiched_renyi(rho, sig, alpha) == pytest.approx(oracle, abs=1e-8)


def test_classical_petz_half_symmetry(rng):
    p = rng.dirichlet(np.ones(5))
    q = rng.dirichlet(np.ones(5))
    assert classical_divergence_oracle(p, q, "petz", 0.5) == pytest.approx(
        classical_divergence_oracle(q, p, "petz", 0.5), abs=1e-12
    )


def test_subnormalized_first_argument(rng):
    rho = 0.5 * random_density(3, 3, rng)
    sig = random_density(3, 3, rng)
    # D(c rho || sigma) with the trace-normalizing convention
    full = petz_renyi(2.0 * rho, sig, 2.0)
    sub = petz_renyi(rho, sig, 2.0)
    # Q is homogeneous of degree alpha in rho; the normalization removes
    # one power of the scale, leaving (alpha - 1) log2 c / (alpha - 1)
    assert sub == pytest.approx(full + math.log2(0.5), abs=1e-9)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6))
def test_data_processing(seed):
    rng = make_rng(seed)
    rho = random_density(3, 3, rng)
    sig = random_density(3, 3, rng)
    ch = random_channel(3, 3, rng)
    n_rho = apply_channel(ch, State(rho, (("X", 3),)), "X").density
    n_sig = apply_channel(ch, State(sig, (("X", 3),)), "X").density
    for kind, alpha in [("umegaki", None), ("max", None), ("petz", 0.5),
                        ("petz", 1.8), ("sandwiched", 0.6), ("sandwiched", 2.5)]:
        before = divergence(rho, sig, kind, alpha)
        after = divergence(n_rho, n_sig, kind, alpha)
        assert after <= before + 1e-8


def test_monotone_in_alpha_and_family_order(rng):
    rho = random_density(4, 3, rng)
    sig = random_density(4, 4, rng)
    alphas = [0.3, 0.6, 0.9, 1.2, 2.0, 4.0]
    for fam in (petz_renyi, sandwiched_renyi):
        vals = [fam(rho, sig, a) for a in alphas]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    # sandwiched never exceeds Petz, and d_max dominates every sandwiched value
    dm = d_max(rho, sig)
    for a in alphas:
        assert sandwiched_renyi(rho, sig, a) <= petz_renyi(rho, sig, a) + 1e-9
        assert sandwiched_renyi(rho, sig, a) <= dm + 1e-9


@pytest.mark.filterwarnings("error")
def test_sandwiched_is_finite_below_d_max_at_large_orders():
    """x^alpha of the sandwich's eigenvalues overflows at these orders; the value,
    taken relative to the largest eigenvalue, stays finite, below D_max and
    non-decreasing in alpha."""
    rng = make_rng(3)
    rho, sig = random_density(3, 3, rng), random_density(3, 3, rng)
    dm = d_max(rho, sig)
    vals = [sandwiched_renyi(rho, sig, a) for a in (2.0, 200.0, 1e3, 1e6)]
    assert all(math.isfinite(v) and v <= dm + 1e-12 for v in vals), (vals, dm)
    assert all(b >= a for a, b in zip(vals, vals[1:])), vals
    assert vals[-1] == pytest.approx(dm, abs=1e-5)


def _petz_renyi_reference(rho, sigma, alpha: float, dps: int = 60) -> float:
    """D_alpha(rho || sigma) of full-rank rho and sigma by the Nussbaum-Szkola sum
    sum_ij lambda_i^a mu_j^(1-a) |<u_i|v_j>|^2, in mpmath with ``dps`` digits."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        (lam, u), (mu, v) = (mp.eighe(mp.matrix(m.tolist())) for m in (rho, sigma))
        n = len(lam)
        q = mp.fsum(lam[i] ** a * mu[j] ** (1 - a)
                    * abs(mp.fsum(mp.conj(u[k, i]) * v[k, j] for k in range(n))) ** 2
                    for i in range(n) for j in range(n))
        return float(mp.log(q, 2) / (a - 1))


@pytest.mark.filterwarnings("error")
def test_petz_renyi_matches_a_60_digit_reference_at_large_orders():
    """The Petz divergence of two full-rank states against a 60-digit reference.

    Multiplying rho^alpha and sigma^(1-alpha) as matrices gave nan from
    alpha = 200 on these states (the reference: 6.11384, 6.12114 and 6.12295
    at 200, 1e3 and 1e6); the Nussbaum-Szkola sum with its largest term
    scaled out stays within 1e-12 relative at every order.
    """
    rng = make_rng(3)
    rho, sig = random_density(3, 3, rng), random_density(3, 3, rng)
    for alpha in (2.0, 50.0, 200.0, 1e3, 1e6):
        ref = _petz_renyi_reference(rho, sig, alpha)
        assert abs(petz_renyi(rho, sig, alpha) - ref) <= 1e-12 * abs(ref), alpha


@pytest.mark.filterwarnings("error")
def test_petz_self_divergence_is_zero_or_nan():
    """D(rho || rho) is 0 while the roundoff overlaps of distinct eigenvectors weigh
    nothing, and nan (the CLI's exit 6) once their terms weigh more than 1e-12 of the
    sum; it never reads as a wrong finite value, as the log2 kappa = 8.63 it would
    approach at large orders here.  Exact overlaps, of diagonal states, stay 0."""
    rho = random_density(3, 3, make_rng(3))
    assert [abs(petz_renyi(rho, rho, a)) <= 1e-14 for a in (0.5, 2.0, 5.0)] == [True] * 3
    assert all(math.isnan(petz_renyi(rho, rho, a)) for a in (20.0, 200.0, 1e6))
    diag = np.diag([0.46, 0.54])
    assert [abs(petz_renyi(diag, diag, a)) <= 1e-15 for a in (50.0, 1e6)] == [True] * 2
