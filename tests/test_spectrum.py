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
    Channel,
    apply_channel,
    channel_from_kraus,
    full_trace_channel,
    generalized_dephasing,
    identity_channel,
    partial_trace_channel,
    pinching_channel,
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
    decoupling_error_lower_bound,
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

from conftest import reference_cutoffs


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
        assert spec.cutoff[k, 0] == row.cutoff
        assert np.array_equal(spec.support[k], row.support)
        assert spec.entropy()[k] == pytest.approx(row.entropy(), abs=1e-13)
    assert np.count_nonzero(spec.support[1]) == 2
    assert spec.entropy()[3] == pytest.approx(1.0, abs=1e-15)


def test_cutoffs_read_the_end_eigenvalues_bit_for_bit(rng):
    """The cutoff from -lambda_0 and lambda_-1 has the bits of the reduction over |lambda|:
    spectra whose largest |lambda| is negative, above and below 1, the empty spectrum,
    and stacks, with their support masks."""
    spectra = [np.array([-3.0, 0.5, 2.0]), np.array([-0.7, -0.2]), np.array([-2.5]),
               np.array([1e-17, 0.3, 0.7]), np.array([-1e-16, 0.0, 150.0]), np.zeros(0)]
    spectra += [np.sort(rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3, d))
                for d in (1, 2, 5, 16) for _ in range(5)]
    for vals in spectra:
        spec = Spectrum(vals)
        ref = reference_cutoffs(vals)
        assert isinstance(spec.cutoff, float)
        assert np.array_equal(spec.cutoff, ref[0])
        assert np.array_equal(spec.support, vals > ref)
    stacks = [np.sort(rng.standard_normal((3, 4)) * [[1e-2], [1.0], [40.0]], axis=-1),
              np.array([[-5.0, 1.0], [0.0, 0.0]]), np.zeros((3, 0)),
              np.sort(rng.standard_normal((2, 3, 5)), axis=-1)]
    for vals in stacks:
        spec = Spectrum(vals)
        assert np.array_equal(spec.cutoff, reference_cutoffs(vals))
        assert np.array_equal(spec.support, vals > reference_cutoffs(vals))


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
    slope.  One root search per rate serves both directions.  Its first phi
    call takes 15 orders, S_MIN, the grid 1/8, ..., 7/8, 1, 2, 4, ..., 32
    and 64, and the searches, each started on the grid cell of its root,
    ask for 24 more in lockstep: 39 matrices of phi in 9 stacked eigh calls,
    (12, 0) calls on (42, 0) matrices in all.  Before the grid, a call on
    S_MIN and the ladder 1, 2, 4, ..., 64 came first, and each search
    started on [S_MIN, s_hi], s_hi the first ladder point where the slope is
    <= 0: 36 matrices of phi in the same 9 calls, (12, 0) on (39, 0); when
    the ladder doubled s one call at a time, 32 took 12, (15, 0) calls on
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
    assert solves.matrices == (42, 0)
    assert solves.largest == 8
    # the second curve on the same state finds every value in its memo
    assert solves(standard_decoupling_curve, state, 2.0, rates) == (0, 0)
    # on a fresh copy with its entropy built first, every solve of the curve is 3 x 3
    state = random_state((("A", 4), ("E", 2)), 3, make_rng(1))
    assert solves(sandwiched_cond_entropy, state, ["A"], ["E"]) == (2, 0)
    assert solves(standard_decoupling_curve, state, 2.0, rates) == (10, 0)
    assert solves.matrices == (40, 0)
    assert solves.largest == 3


def test_eigensolves_of_a_distillation_curve(solves, monkeypatch):
    """A 20-rate distillation curve on one 3 x 3 maximally correlated state.

    rho_CD is decomposed once; each distinct s asked of the Petz phi costs
    one matrix, tr_C rho^alpha, whose eigh gives the value and its exact
    slope (79 here).  After phi(1) for the critical rate, the root search's
    first call takes S_MIN, the grid 1/8, ..., 7/8, 2, 4, ..., 32 and 64,
    the lockstep searches, each started on the grid cell of its root, stack
    the rest, and phi(1 - 1e-9) is the achievable value past the maximizer:
    12 calls in all.  When a call on S_MIN and the converse s-ladder 1, 2,
    4, ..., 64 came first and each search started on [S_MIN, s_hi], it was
    (13, 0) calls on (89, 0) matrices at 88 distinct s; when the ladder
    doubled s one call at a time, (16, 0)
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

    assert solves(distillation_curve, state, ["C"], ["D"], rates) == (12, 0)
    assert solves.matrices == (80, 0)
    assert len(orders) == 79
    assert solves(distillation_curve, state, ["C"], ["D"], rates) == (0, 0)


def test_eigensolves_of_the_bound_search(solves):
    """One minimization of the one-shot decoupling bound over s, |A| = 4, |E| = 3.

    The prologue of each of the two entropies decomposes its state, rho_AE
    and omega_A'C, and then that state's B marginal at |B| x |B|; every
    other matrix is the rank x rank Gram matrix of one of the two sandwiched
    phi at one distinct s of the root search of the log-bound's slope.  The
    first call per phi takes S_MIN, 1 - 1e-9 and the grid 1/8, ..., 7/8, and
    Brent's method, started on the grid cell of the root, takes 4 more
    steps: (14, 0) calls on (30, 0) matrices.  When the two endpoints shared
    the first call and Brent started on [S_MIN, 1 - 1e-9], the 28 matrices
    took 26 calls, the first steps spent near s = 1, where the slope has a
    log singularity.  When each entropy decomposed I_A x rho_B at full size
    instead, it was
    (24, 0) calls on (26, 0) matrices; a 48-point grid with a bounded polish
    made 116.
    """
    state = random_state((("A", 4), ("E", 3)), 2, make_rng(2))
    inst = standard_instance(state, 2, 2)
    assert solves(decoupling_error_upper_bound_optimized, inst) == (14, 0)
    assert solves.matrices == (30, 0)


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
    test_eigensolves_of_the_channel_input_search validates nothing, whatever
    the number of evaluations: the State it returns is derived; before, it
    validated that State, and earlier each evaluation its output rho_RB.  A
    20-rate decoupling curve validates nothing: the min-entropy comes from the
    Gram matrix of rho's support factor; before, d_max validated twice for it,
    and earlier the ConditionalEntropy it builds validated rho, I_A x rho_B and
    V^+ rho V too.  A 20-rate dephasing-channel curve validates nothing: the
    Channel validated its Choi matrix; before, the curve validated it again.
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
        assert validations(channel_coherent_info, channel, 0.7, "petz", restarts, rng) == 0
        per_search.append(sum(evals))
    assert per_search[0] < per_search[1] == 25 < per_search[2]


def test_channels_and_decoupling_validate_only_their_inputs(validations):
    """A decouple-mc job on a loaded state validates nothing past the state: rho_E,
    the Choi state, omega_C x rho_E, and the lower bound's positive part and
    eigenvalue clusters are derived; before, the three calls validated 2, 1 and 3
    of them.  The Kraus constructor checks trace preservation only, and the
    dephasing channel validates its Gram matrix once; before, they validated the
    Choi matrix too.
    """
    state = random_state((("A", 4), ("E", 2)), 3, make_rng(5, stream=11))
    inst = standard_instance(state, 2, 2)
    assert validations(mc_decoupling_error, inst, 50, 0) == 0
    assert validations(decoupling_error_upper_bound_optimized, inst) == 0
    assert validations(decoupling_error_lower_bound, state, 2, 2) == 0
    iso = haar_unitary(4, make_rng(3, stream=12))[:, :3]
    assert validations(channel_from_kraus, [iso[:2], iso[2:]]) == 0
    assert validations(generalized_dephasing, np.array([[1.0, 0.5], [0.5, 1.0]])) == 1


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


def test_derived_channels_match_the_public_constructor(rng):
    """The channels that the package builds through ``Channel._trusted`` store the
    Choi matrix that the public constructor stores for them, to the bit."""
    u = haar_unitary(3, rng)
    h = (u * [0.3, 0.3, 0.7]) @ u.conj().T  # two clusters, projectors of rank 2 and 1
    gram = np.array([[1.0, 0.5j, 0.2], [-0.5j, 1.0, 0.1], [0.2, 0.1, 1.0]])
    for derived in (identity_channel(3), partial_trace_channel(2, 3), full_trace_channel(4),
                    pinching_channel(h), generalized_dephasing(gram)):
        public = Channel(derived.din, derived.dout, derived.choi)
        assert np.array_equal(derived.choi, public.choi)
        assert np.array_equal(derived.choi, derived.choi.conj().T)
