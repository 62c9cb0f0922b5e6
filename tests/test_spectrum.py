"""The one spectral primitive and the single validation point of ``State``.

Every eigensolve goes through ``linalg.Spectrum``, each operand is
decomposed at most once per call, states derived from valid states skip
the spectral check that the public constructor runs, a rate curve on
one state decomposes each of its operands once per distinct order, and
the Monte Carlo estimator solves one stack of samples at a time.
"""

import sys

import numpy as np
import pytest
from scipy import optimize

from qdecoupling import linalg
from qdecoupling.channels import (
    apply_channel,
    channel_from_kraus,
    generalized_dephasing,
    random_channel,
)
from qdecoupling.condentropy import (
    EntropyKind,
    PetzUpEntropy,
    channel_coherent_info,
    cond_entropy,
    cond_vn_entropy,
    minimized_conditioning,
    petz_up_closed_form,
    sandwiched_cond_entropy,
)
from qdecoupling.decoupling import (
    decoupling_error_sample,
    decoupling_error_upper_bound_optimized,
    mc_decoupling_error,
    standard_instance,
)
from qdecoupling.divergences import d_max, petz_renyi, sandwiched_renyi, umegaki
from qdecoupling.exponents import (
    dephasing_channel_curve,
    distillation_curve,
    standard_decoupling_curve,
)
from qdecoupling.linalg import Spectrum
from qdecoupling.states import (
    State,
    haar_unitary,
    make_rng,
    maximally_correlated,
    random_density,
    random_state,
)


def test_spectrum_calculus_on_a_diagonal_matrix():
    spec = Spectrum.of(np.diag([0.0, 0.25, 0.75]))
    assert np.array_equal(spec.support, [False, True, True])
    assert np.allclose(spec.pow(0.5), np.diag([0.0, 0.5, np.sqrt(0.75)]), atol=1e-15)
    assert np.allclose(spec.pow(-1.0), np.diag([0.0, 4.0, 4.0 / 3.0]), atol=1e-14)
    assert np.allclose(spec.projector(), np.diag([0.0, 1.0, 1.0]), atol=1e-15)
    assert np.allclose(spec.log2(), np.diag([0.0, -2.0, np.log2(0.75)]), atol=1e-15)
    h = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
    assert spec.entropy() == pytest.approx(h, abs=1e-15)
    assert np.array_equal(Spectrum.eigvalsh(np.diag([0.75, 0.0, 0.25])).values, spec.values)


def test_stacked_spectrum_matches_each_matrix(rng):
    """Cutoff, support and entropy of a stack, row by row.

    The rows include a rank-deficient matrix, whose roundoff eigenvalues
    must fall below its own cutoff, and a matrix of norm 100.
    """
    stack = np.array([random_density(4, 4, rng), random_density(4, 2, rng),
                      100.0 * random_density(4, 3, rng), np.diag([0.0, 0.0, 0.5, 0.5])])
    spec = Spectrum.eigvalsh(stack)
    assert spec.entropy().shape == (4,)
    for k, m in enumerate(stack):
        row = Spectrum.eigvalsh(m)
        assert spec._cutoffs()[k, 0] == row.cutoff
        assert np.array_equal(spec.support[k], row.support)
        assert spec.entropy()[k] == pytest.approx(row.entropy(), abs=1e-13)
    assert np.count_nonzero(spec.support[1]) == 2
    assert spec.entropy()[3] == pytest.approx(1.0, abs=1e-15)


def test_spectrum_pow_rejects_negative():
    with pytest.raises(ValueError):
        Spectrum.of(np.diag([1.0, -0.5])).pow(0.5)


@pytest.fixture
def solves(monkeypatch):
    """count(fn, *args) -> (eigh calls, eigvalsh calls) made by fn(*args).

    ``count.matrices`` is then (eigh matrices, eigvalsh matrices): a call on
    a stack of k matrices counts once above and k times here.
    ``count.largest`` is the largest matrix side that either solver saw, and
    ``count.sides`` lists the sides in the order of the calls.
    """
    counts = {"eigh": 0, "eigvalsh": 0}
    mats = dict(counts)
    sides = []
    for name in counts:
        def counted(h, *args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            mats[_name] += int(np.prod(np.shape(h)[:-2]))
            sides.append(np.shape(h)[-1])
            return _orig(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(fn, *args):
        counts.update(eigh=0, eigvalsh=0)
        mats.update(counts)
        sides.clear()
        fn(*args)
        count.matrices = mats["eigh"], mats["eigvalsh"]
        count.largest = max(sides, default=0)
        count.sides = list(sides)
        return counts["eigh"], counts["eigvalsh"]

    return count


def test_eigensolves_per_call(solves, partial_traces, rng):
    """Eigensolves of one call of each spectral entry point.

    The plain conditional entropies evaluate the objective of the sigma
    minimization at sigma_B = rho_B, on the prologue that decomposes rho_AE,
    for its support factor, and rho_E = W lambda W^+ from that factor: the
    sandwiched kind then decomposes the rank x rank Gram matrix K, 3 eigh on
    sides |A||E|, |E| and rank rho, and the Petz kind none, 2 eigh.  Neither
    takes a partial trace.  Through ``divergences`` they decomposed rho_AE and
    the |A||E| x |A||E| matrix I_A x rho_E, (2, 0) on sides |A||E| and
    |A||E|, after one partial trace for rho_E.
    """
    rho = random_density(3, 3, rng)
    sigma = random_density(3, 3, rng)
    state = random_state((("A", 4), ("E", 2)), 8, rng)
    inst = standard_instance(state, 2, 2)
    u = haar_unitary(4, rng)
    assert solves(umegaki, rho, sigma) == (1, 1)
    assert solves(sandwiched_renyi, rho, sigma, 1.5) == (2, 0)
    # below alpha = 1 the support overlap is tr(rho P_sigma): rho is not decomposed
    assert solves(sandwiched_renyi, rho, sigma, 0.7) == (2, 0)
    assert solves(petz_renyi, rho, sigma, 0.7) == (2, 0)
    assert solves(petz_renyi, rho, sigma, 1.5) == (2, 0)
    assert solves(d_max, rho, sigma) == (1, 1)
    for family, pinned in (("sandwiched", (3, 0)), ("petz", (2, 0))):
        kind = EntropyKind(family, 1.5)
        assert solves(cond_entropy, state, ["A"], ["E"], kind) == pinned
        assert solves.sides == [8, 2, 8][:sum(pinned)]
        assert partial_traces(cond_entropy, state, ["A"], ["E"], kind) == 0
    # rho_AE once, and the eigenvalues of tr_A rho^alpha
    assert solves(petz_up_closed_form, state, ["A"], ["E"], 0.7) == (1, 1)
    assert solves(decoupling_error_sample, inst, u) == (1, 1)
    assert solves(state.marginal, "E") == (0, 0)
    assert solves(state.permuted, "E", "A") == (0, 0)
    assert solves(State, rho, (("A", 3),)) == (0, 1)


def test_eigensolves_of_mc(solves):
    """Two eigh, of rho_AE for its support factor and of the fixed target, and
    one stacked eigvalsh per chunk of 64, on the smaller Gram side of each
    sample's factor M: K r = 4 (2 Kraus operators, rank 2) against
    |C||E| = 6 here, and 2 at rank 1.

    The stacked outputs were 6 x 6 (1, 8) before the factor route; the
    per-sample loop before them made 2 eigh per sample, 1000 in all.
    """
    for rank, side in ((2, 4), (1, 2)):
        state = random_state((("A", 4), ("E", 3)), rank, make_rng(2))
        inst = standard_instance(state, 2, 2)
        assert solves(mc_decoupling_error, inst, 500) == (2, 8)
        assert solves.matrices == (2, 500)
        assert solves.sides == [12, 6] + [side] * 8


def test_eigensolves_of_a_rate_curve(solves):
    """A 20-rate standard decoupling curve on one 8 x 8 state of rank 3.

    The entropy's prologue decomposes rho_AE, for its support factor, and
    rho_E at 2 x 2.  Every other matrix is the 3 x 3 Gram matrix K of rho's
    support factor: once at c = -1/2 for the min-entropy, and once per
    distinct s of the sandwiched phi, which returns the value with its exact
    slope.  One root search per rate serves both directions and asks for 32
    distinct s over the 20 rates, and the converse s-ladder, one call on
    S_MIN and 1, 2, 4, ..., 64, adds the 4 it lacks.  The searches advance in
    lockstep, so the 36 matrices of phi take 9 stacked eigh calls; when the
    ladder doubled s one call at a time, 32 took 12, (15, 0) calls on
    (35, 0) matrices in all.  A search per rate made one call per matrix,
    and a 64-point grid with a bounded polish per search and
    finite-difference slopes made 298 eigh.  Before the Gram route, the
    entropy decomposed the 8 x 8 I_A x rho_E in place of rho_AE and rho_E,
    each phi matrix was the 8 x 8 sandwich, whose slopes differ in the last
    bits and led the searches to 31 distinct s, and the min-entropy was an
    eigvalsh in d_max: (13, 1) calls on (32, 1) matrices.
    """
    state = random_state((("A", 4), ("E", 2)), 3, make_rng(1))
    rates = np.linspace(0.1, 2.0, 20)

    assert solves(standard_decoupling_curve, state, 2.0, rates) == (12, 0)
    assert solves.matrices == (39, 0)
    assert solves.largest == 8
    # the second curve on the same state finds every value in its memo
    assert solves(standard_decoupling_curve, state, 2.0, rates) == (0, 0)
    # on a fresh copy with its entropy built first, every solve of the curve is 3 x 3
    state = random_state((("A", 4), ("E", 2)), 3, make_rng(1))
    assert solves(sandwiched_cond_entropy, state, ["A"], ["E"]) == (2, 0)
    assert solves(standard_decoupling_curve, state, 2.0, rates) == (10, 0)
    assert solves.matrices == (37, 0)
    assert solves.largest == 3


def test_eigensolves_of_a_distillation_curve(solves, monkeypatch):
    """A 20-rate distillation curve on one 3 x 3 maximally correlated state.

    rho_CD is decomposed once; each distinct s asked of the Petz phi costs
    one matrix, tr_C rho^alpha, whose eigh gives the value and its exact
    slope (88 here).  The converse s-ladder takes one call on S_MIN and
    1, 2, 4, ..., 64, and the lockstep root searches stack the rest, 13
    calls in all; when the ladder doubled s one call at a time, (16, 0)
    calls on (86, 0) matrices at 85 distinct s.  A search per rate made one
    call per matrix, a second search per rate made 125 distinct s, and a
    grid with a bounded polish per search and finite-difference slopes made
    631 eigvalsh for this curve.
    """
    state = maximally_correlated(random_density(3, 3, make_rng(3)), ("C", "D"))
    orders = set()
    phi = PetzUpEntropy.phi

    def recorded(self, s):
        orders.update(np.ravel(s).tolist())
        return phi(self, s)

    monkeypatch.setattr(PetzUpEntropy, "phi", recorded)
    rates = np.linspace(0.05, 1.2, 20)

    assert solves(distillation_curve, state, ["C"], ["D"], rates) == (13, 0)
    assert solves.matrices == (89, 0)
    assert len(orders) == 88
    assert solves(distillation_curve, state, ["C"], ["D"], rates) == (0, 0)


def test_eigensolves_of_the_bound_search(solves):
    """One minimization of the one-shot decoupling bound over s, |A| = 4, |E| = 3.

    The prologue of each of the two entropies decomposes its state, rho_AE
    and omega_A'C, and then that state's B marginal at |B| x |B|; every
    other matrix is the rank x rank Gram matrix of one of the two sandwiched
    phi at one distinct s of the root search of the log-bound's slope.  The
    two endpoints share one call per phi, so the 28 matrices take 26 calls.
    When each entropy decomposed I_A x rho_B at full size instead, it was
    (24, 0) calls on (26, 0) matrices; a 48-point grid with a bounded polish
    made 116.
    """
    state = random_state((("A", 4), ("E", 3)), 2, make_rng(2))
    inst = standard_instance(state, 2, 2)
    assert solves(decoupling_error_upper_bound_optimized, inst) == (26, 0)
    assert solves.matrices == (28, 0)


def test_eigensolves_of_mirror_descent(solves, partial_traces):
    """One sandwiched minimization at |B| = 2 and at |B| = 4, alpha = 1.5.

    Three eigh set up (rho for its support factor W, then rho_B = W lambda W^+
    from the factor, whose eigenbasis the start shares, then the start's
    objective), and no partial trace: rho_B comes from the factor, and the
    descent takes no other marginal.  Each trial point of the line
    search costs one eigh for the iterate, in the old eigenbasis, and one of
    the r x r Gram matrix K, whose spectrum is that of I x sigma^c rho
    I x sigma^c, whatever |B|.  A finite-difference gradient made 4 |B|^2
    more per iteration.  After a failed trial the step goes to the minimizer
    of the quadratic through f(0), the slope and the failed value, so few
    trials fail.  The descent stops once a step's first-order decrease is
    below the objective's float resolution, so no line search runs through
    steps that cannot succeed.  The objective sums (kappa / kappa_max)^alpha and
    adds alpha log2 kappa_max, so it stays finite at any order; its last bits
    moved with that, and at |B| = 4 the descent stops after 8 steps and 27 eigh,
    where the unscaled sum took 9 and 29.
    """
    per_iter = {}
    for db, pinned, iters in ((2, (23, 0), 7), (4, (27, 0), 8)):
        state = random_state((("A", 2), ("B", db)), 2 * db, make_rng(db, stream=11))
        res = []
        count = solves(lambda: res.append(
            minimized_conditioning(state, ["A"], ["B"], "sandwiched", 1.5)))
        assert (count, res[0].iters) == (pinned, iters)
        assert partial_traces(minimized_conditioning, state, ["A"], ["B"], "sandwiched", 1.5) == 0
        per_iter[db] = sum(count) / res[0].iters
    assert per_iter[4] <= 1.5 * per_iter[2]


def test_minimized_conditioning_near_alpha_one(solves, partial_traces):
    """Near alpha = 1 the minimization returns -H(A|B) = H(w) - H(lambda) from its
    prologue: 2 eigh, of rho_AB and of rho_B at |B| x |B|, and no partial trace.
    Through cond_vn_entropy it decomposed both again, (2, 2) and 1 partial trace.
    Each B is mapped isometrically into |B| + 1 dimensions, so rho_B has a kernel.
    """
    for db, rank in ((2, 3), (3, 2), (3, 6)):
        rng = make_rng(db + rank, stream=15)
        x = random_state((("A", 2), ("B", db)), rank, rng)
        iso = np.kron(np.eye(2), haar_unitary(db + 1, rng)[:, :db])
        state = State(iso @ x.density @ iso.conj().T, (("A", 2), ("B", db + 1)))
        for family in ("petz", "sandwiched"):
            args = state, ["A"], ["B"], family, 1.0
            assert solves(minimized_conditioning, *args) == (2, 0)
            assert solves.sides == [2 * db + 2, db + 1]
            assert partial_traces(minimized_conditioning, *args) == 0
            res = minimized_conditioning(*args)
            assert res.value == pytest.approx(-cond_vn_entropy(state, ["A"], ["B"]), abs=1e-14)
            assert res.sigma == pytest.approx(state.marginal("B").density, abs=1e-14)


def test_eigensolves_of_the_channel_input_search(solves, monkeypatch):
    """One Petz channel coherent information on a fixed 3 -> 2 channel of Kraus rank 2.

    Every evaluation of the input objective returns the value with its exact
    gradient for 2 eigh (rho_RB and tr_R rho^alpha), so L-BFGS-B's 25
    evaluations over its two starts cost 50.  A finite-difference gradient
    would cost 2 * 3^2 + 1 evaluations per gradient.
    """
    evals = []
    minimize = optimize.minimize

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        evals.append(res.nfev)
        return res

    monkeypatch.setattr(optimize, "minimize", counted)
    iso = haar_unitary(4, make_rng(3, stream=12))[:, :3]
    channel = channel_from_kraus([iso[:2], iso[2:]])
    rng = make_rng(3, stream=13)
    assert solves(channel_coherent_info, channel, 0.7, "petz", 2, rng) == (50, 0)
    assert sum(evals) == 25


def _package_calls(monkeypatch, name):
    """count(fn, *args) -> the number of ``linalg.<name>`` calls fn(*args) makes,
    through every module of the package that imported it."""
    calls = [0]
    orig = getattr(linalg, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.startswith("qdecoupling") and getattr(module, name, None) is orig:
            monkeypatch.setattr(module, name, counted)

    def count(fn, *args):
        calls[0] = 0
        fn(*args)
        return calls[0]

    return count


@pytest.fixture
def validations(monkeypatch):
    return _package_calls(monkeypatch, "as_hermitian")


@pytest.fixture
def partial_traces(monkeypatch):
    return _package_calls(monkeypatch, "partial_trace")


def test_optimizers_validate_only_at_the_input_boundary(validations, monkeypatch):
    """No matrix that the optimizers build from a validated State is validated again.

    The mirror descents of test_eigensolves_of_mirror_descent (7 and 8 steps)
    make no validation; before, the identity permutation, rho_B and rho made
    three.  The channel-input search of
    test_eigensolves_of_the_channel_input_search validates once, for the
    State it returns, whatever the number of evaluations; before, each
    evaluation validated its output rho_RB.  A 20-rate decoupling curve
    validates nothing: the min-entropy comes from the Gram matrix of rho's
    support factor; before, d_max validated twice for it, and earlier the
    ConditionalEntropy it builds validated rho, I_A x rho_B and V^+ rho V too.
    A 20-rate dephasing-channel curve validates nothing: the Channel validated
    its Choi matrix; before, the curve validated it again.
    """
    state = random_state((("A", 4), ("E", 2)), 3, make_rng(5, stream=11))
    assert validations(standard_decoupling_curve, state, 2.0, np.linspace(0.1, 2.0, 20)) == 0
    channel = generalized_dephasing(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    assert validations(dephasing_channel_curve, channel, np.linspace(0.05, 0.5, 20)) == 0
    steps = []
    for db in (2, 4):
        state = random_state((("A", 2), ("B", db)), 2 * db, make_rng(db, stream=11))
        assert validations(lambda: steps.append(
            minimized_conditioning(state, ["A"], ["B"], "sandwiched", 1.5).iters)) == 0
    assert steps == [7, 8]
    evals = []
    minimize = optimize.minimize

    def counted(*args, **kwargs):
        res = minimize(*args, **kwargs)
        evals.append(res.nfev)
        return res

    monkeypatch.setattr(optimize, "minimize", counted)
    iso = haar_unitary(4, make_rng(3, stream=12))[:, :3]
    channel = channel_from_kraus([iso[:2], iso[2:]])
    per_search = []
    for restarts in (1, 2, 4):
        evals.clear()
        rng = make_rng(3, stream=13)
        assert validations(channel_coherent_info, channel, 0.7, "petz", restarts, rng) == 1
        per_search.append(sum(evals))
    assert per_search[0] < per_search[1] == 25 < per_search[2]


def test_derived_states_match_the_public_constructor(rng):
    state = random_state((("A", 2), ("B", 3)), 4, rng)
    channel = random_channel(2, 2, rng)
    marg = state.marginal("B")
    perm = state.permuted("B", "A")
    out = apply_channel(channel, state, "A")
    for derived in (marg, perm, out):
        public = State(derived.density, derived.dims)
        assert np.array_equal(derived.density, public.density)
        assert derived.dims == public.dims
    # the public constructor still validates its input
    with pytest.raises(ValueError):
        State(np.diag([1.5, -0.5]), (("A", 2),))
    with pytest.raises(ValueError):
        State(np.eye(2) * 0.6, (("A", 2),))
