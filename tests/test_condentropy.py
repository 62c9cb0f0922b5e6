import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecoupling.channels import generalized_dephasing, identity_channel
from qdecoupling.condentropy import (
    EntropyKind,
    OptimizerDivergence,
    _petz_objective,
    _sandwiched_objective,
    SimplexOptimizerConfig,
    channel_coherent_info,
    coherent_info,
    cond_entropy,
    cond_vn_entropy,
    duality_pair,
    minimized_conditioning,
    petz_up_closed_form,
    tensor_power_entropy,
    von_neumann_entropy,
)
from qdecoupling.linalg import tensor
from qdecoupling.states import (
    State,
    make_rng,
    max_entangled,
    purify,
    random_density,
    random_pure,
    random_state,
)

KINDS = [
    EntropyKind("petz", 0.6),
    EntropyKind("petz", 1.7),
    EntropyKind("sandwiched", 0.6),
    EntropyKind("sandwiched", 1.7),
    EntropyKind("petz", 0.6, optimized=True),
    EntropyKind("petz", 1.7, optimized=True),
    EntropyKind("sandwiched", 0.6, optimized=True),
    EntropyKind("sandwiched", 1.7, optimized=True),
]


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_product_state_entropy(kind, rng):
    sig = random_density(3, 3, rng)
    st_ = State(tensor(np.eye(2) / 2, sig), (("A", 2), ("B", 3)))
    assert cond_entropy(st_, ["A"], ["B"], kind) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_max_entangled_entropy(kind):
    phi = max_entangled(3)
    assert cond_entropy(phi, ["A"], ["B"], kind) == pytest.approx(-math.log2(3), abs=1e-6)


def test_von_neumann_examples(rng):
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)
    phi = max_entangled(2)
    assert cond_vn_entropy(phi, ["A"], ["B"]) == pytest.approx(-1.0, abs=1e-10)
    sig = random_density(2, 2, rng)
    prod = State(tensor(np.eye(2) / 2, sig), (("A", 2), ("B", 2)))
    assert cond_vn_entropy(prod, ["A"], ["B"]) == pytest.approx(1.0, abs=1e-10)


def test_optimized_dominates_fixed(rng):
    st_ = random_state((("A", 2), ("B", 3)), 4, rng)
    for family in ("petz", "sandwiched"):
        for alpha in (0.5, 1.6):
            lo = cond_entropy(st_, ["A"], ["B"], EntropyKind(family, alpha))
            hi = cond_entropy(st_, ["A"], ["B"], EntropyKind(family, alpha, optimized=True))
            assert hi >= lo - 1e-8


@settings(deadline=None, max_examples=15)
@given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.4, 0.6, 0.9, 1.5]))
def test_petz_up_closed_form_matches_numeric(seed, alpha):
    rng = make_rng(seed)
    st_ = random_state((("A", 2), ("B", 2)), int(rng.integers(1, 5)), rng)
    closed = petz_up_closed_form(st_, ["A"], ["B"], alpha)
    res = minimized_conditioning(st_, ["A"], ["B"], "petz", alpha,
                                 SimplexOptimizerConfig(restarts=2))
    assert -res.value == pytest.approx(closed, abs=1e-6)


def test_coherent_info_is_negated_up_entropy(rng):
    st_ = random_state((("A", 2), ("B", 2)), 3, rng)
    assert coherent_info(st_, ["A"], ["B"], "petz", 0.7) == pytest.approx(
        -petz_up_closed_form(st_, ["A"], ["B"], 0.7), abs=1e-12
    )


def test_duality_on_max_entangled_with_spectator():
    phi = max_entangled(2)
    spectator = State(np.diag([1.0, 0.0]).astype(complex), (("C", 2),))
    psi = phi.tensor_with(spectator)
    for s in (0.2, 0.5, 0.9):
        lhs, rhs = duality_pair(psi, ["A"], ["B"], ["C"], s)
        assert lhs == pytest.approx(rhs, abs=1e-8)
        # H(A|C) of Phi x |0><0| is the unconditional entropy of I/2
        assert lhs == pytest.approx(1.0, abs=1e-8)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10**6), s=st.sampled_from([0.1, 0.4, 0.7, 1.0]))
def test_duality_random_pure_tripartite(seed, s):
    rng = make_rng(seed)
    dims = (("A", 2), ("B", 2), ("C", 3)) if seed % 2 == 0 else (("A", 2), ("B", 3), ("C", 2))
    psi = random_pure(dims, rng)
    lhs, rhs = duality_pair(psi, ["A"], ["B"], ["C"], s)
    assert lhs == pytest.approx(rhs, abs=1e-6)


def test_duality_rejects_mixed(rng):
    st_ = random_state((("A", 2), ("B", 2), ("C", 2)), 4, rng)
    with pytest.raises(ValueError):
        duality_pair(st_, ["A"], ["B"], ["C"], 0.5)


def test_tensor_power_single_copy_and_additivity(rng):
    st_ = random_state((("A", 2), ("B", 2)), 3, rng)
    kind = EntropyKind("sandwiched", 1.5)
    single = cond_entropy(st_, ["A"], ["B"], kind)
    assert tensor_power_entropy(st_, ["A"], ["B"], kind, 1) == pytest.approx(single, abs=1e-12)
    per_copy = tensor_power_entropy(st_, ["A"], ["B"], kind, 2)
    assert per_copy == pytest.approx(single, abs=1e-6)


def test_tensor_power_memory_budget(rng):
    st_ = random_state((("A", 4), ("B", 4)), 4, rng)
    with pytest.raises(ValueError):
        tensor_power_entropy(st_, ["A"], ["B"], EntropyKind("petz", 2.0), 6)


def test_channel_coherent_info_identity():
    val, inp = channel_coherent_info(identity_channel(2), 0.5, restarts=4)
    assert val == pytest.approx(1.0, abs=1e-6)
    # the optimal input is maximally entangled with the reference
    assert np.allclose(inp.marginal("A").density, np.eye(2) / 2, atol=1e-4)


def test_channel_coherent_info_full_dephasing():
    ch = generalized_dephasing(np.eye(2))
    val, _ = channel_coherent_info(ch, 0.5, restarts=4)
    assert val <= 1e-6


def test_channel_coherent_info_is_petz_only():
    with pytest.raises(ValueError):
        channel_coherent_info(identity_channel(2), 0.5, family="sandwiched")


def test_minimized_conditioning_reports_convergence(rng):
    st_ = random_state((("A", 2), ("B", 2)), 2, rng)
    res = minimized_conditioning(st_, ["A"], ["B"], "sandwiched", 2.0)
    assert res.exit in ("resolution", "grad_tol")
    assert res.sigma.shape == (2, 2)
    assert np.trace(res.sigma).real == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.6, 1.5, 2.0])
@pytest.mark.parametrize("db", [2, 3])
def test_minimized_conditioning_of_a_classical_state(db, alpha):
    """Diagonal rho_AB against its closed form (alpha/(alpha-1)) log2 sum_b |p(., b)|_alpha.

    At |B| = 3 the last b has no weight, so the minimizer runs on the
    support of rho_B and its result is mapped back to the full space.
    """
    p = make_rng(db, stream=12).dirichlet(np.ones(3 * db)).reshape(3, db)
    if db == 3:
        p[:, -1] = 0.0
        p /= p.sum()
    st_ = State(np.diag(p.ravel()).astype(complex), (("A", 3), ("B", db)))
    exact = (alpha / (alpha - 1.0)) * math.log2(
        np.sum(np.sum(p**alpha, axis=0) ** (1.0 / alpha)))
    res = minimized_conditioning(st_, ["A"], ["B"], "sandwiched", alpha)
    assert abs(res.value - exact) <= 1e-12
    assert res.exit in ("resolution", "grad_tol")
    assert res.sigma.shape == (db, db)
    try:
        short = minimized_conditioning(st_, ["A"], ["B"], "sandwiched", alpha,
                                       SimplexOptimizerConfig(max_iters=2))
    except OptimizerDivergence:
        return
    assert short.exit == "max_iters"


def _divergence_to_conditioning(rho, da, family, alpha, sigma):
    """D(rho_AB || I_A x sigma) from full eigendecompositions, apart from the library.

    Eigenvalues below 1e-12 count as 0: raised to a power below 1, the
    roundoff eigenvalues of a rank-deficient rho move the central difference
    by up to 3e-4 relative.
    """
    w, v = np.linalg.eigh(sigma)
    if family == "petz":
        u, x = np.linalg.eigh(rho)
        rho_a = (x * np.where(u > 1e-12, u, 0.0) ** alpha) @ x.conj().T
        q = np.trace(rho_a @ np.kron(np.eye(da), (v * w ** (1.0 - alpha)) @ v.conj().T))
    else:
        g = np.kron(np.eye(da), (v * w ** ((1.0 - alpha) / (2.0 * alpha))) @ v.conj().T)
        u = np.linalg.eigvalsh(g @ rho @ g)
        q = np.sum(np.where(u > 1e-12, u, 0.0) ** alpha)
    return math.log2(float(np.real(q))) / (alpha - 1.0)


@pytest.mark.parametrize("family,alphas", [("sandwiched", (0.6, 0.8, 1.5, 2.0, 3.0)),
                                           ("petz", (0.4, 0.6, 1.5))])
@pytest.mark.parametrize("db", [2, 3, 4])
def test_objective_gradient_matches_central_difference(family, alphas, db):
    """The analytic gradient against a central difference over a Hermitian basis.

    rho_AB has rank 3, below full rank; sigma is full rank with
    lambda_min >= 0.02, and the step is 1e-5 lambda_min(sigma).
    """
    rng = make_rng(db, stream=7)
    make = _petz_objective if family == "petz" else _sandwiched_objective
    basis = []
    for i in range(db):
        for j in range(i, db):
            for phase in ((1.0,) if i == j else (1.0, 1j)):
                e = np.zeros((db, db), dtype=complex)
                e[i, j] = phase
                e[j, i] = np.conj(phase)
                basis.append(e / np.linalg.norm(e))
    for alpha in alphas:
        rho = random_density(2 * db, 3, rng)
        sigma = random_density(db, db, rng)
        while np.linalg.eigvalsh(sigma)[0] < 0.02:
            sigma = random_density(db, db, rng)
        _, grad = make(rho, 2, alpha)(*np.linalg.eigh(sigma))
        h = 1e-5 * np.linalg.eigvalsh(sigma)[0]
        fd = sum((_divergence_to_conditioning(rho, 2, family, alpha, sigma + h * e)
                  - _divergence_to_conditioning(rho, 2, family, alpha, sigma - h * e))
                 / (2.0 * h) * e for e in basis)
        assert np.linalg.norm(grad - fd) <= 1e-7 * np.linalg.norm(fd), (family, db, alpha)


@pytest.mark.parametrize("seed", range(101, 111))
def test_duality_of_minimized_pairs_on_rank_two_b4(seed):
    """D*_alpha(A|B) + D*_beta(A|C) = 0 for 1/alpha + 1/beta = 2 on |A| = 2, |B| = 4.

    Rank-2 rho_AB gives minimizers with small eigenvalues, where a
    finite-difference gradient missed duality by up to 4.8e-6.
    """
    rng = np.random.default_rng([2, seed])
    for alpha in (0.6, 0.8, 1.5, 2.0):
        beta = 1.0 / (2.0 - 1.0 / alpha)
        ab = State(random_density(8, 2, rng), (("A", 2), ("B", 4)))
        ac = purify(ab, "C").marginal("A", "C")
        d_b = minimized_conditioning(ab, ["A"], ["B"], "sandwiched", alpha).value
        d_c = minimized_conditioning(ac, ["A"], ["C"], "sandwiched", beta).value
        assert abs(d_b + d_c) <= 1e-10, (alpha, d_b + d_c)
