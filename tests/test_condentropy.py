import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecoupling import condentropy
from qdecoupling.channels import (
    apply_channel,
    channel_from_kraus,
    generalized_dephasing,
    identity_channel,
)
from qdecoupling.condentropy import (
    ConditionalEntropy,
    EntropyKind,
    OptimizerDivergence,
    PetzUpEntropy,
    _input_objective,
    _petz_objective,
    _sandwiched_objective,
    _support_factor,
    channel_coherent_info,
    cond_entropy,
    cond_vn_entropy,
    duality_pair,
    minimized_conditioning,
    petz_up_closed_form,
    von_neumann_entropy,
)
from qdecoupling.divergences import d_max, petz_renyi, sandwiched_renyi
from qdecoupling.exponents import S_MIN, _coding_entropy
from qdecoupling.linalg import Spectrum, partial_trace, tensor
from qdecoupling.states import (
    State,
    haar_unitary,
    make_rng,
    max_entangled,
    random_density,
    random_pure,
    random_state,
)

from conftest import brentq_concave_sup, purify

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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1e3, 1e4, 1e6])
def test_sandwiched_entropy_of_max_entangled_at_large_orders(alpha):
    """H~_alpha(A|B) = -1 of a Bell pair at every order, with no overflow of x^alpha."""
    value = cond_entropy(max_entangled(2), ["A"], ["B"], EntropyKind("sandwiched", alpha))
    assert value == pytest.approx(-1.0, abs=1e-12)


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
    res = minimized_conditioning(st_, ["A"], ["B"], "petz", alpha)
    assert -res.value == pytest.approx(closed, abs=1e-6)


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


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
def test_orders_outside_the_positive_reals_are_rejected(alpha, rng):
    st_ = random_state((("A", 2), ("B", 2)), 3, rng)
    with pytest.raises(ValueError, match="alpha must be a positive finite number"):
        EntropyKind("petz", alpha, optimized=True)
    with pytest.raises(ValueError, match="alpha must be a positive finite number"):
        petz_up_closed_form(st_, ["A"], ["B"], alpha)


def test_channel_coherent_info_identity():
    val, inp = channel_coherent_info(identity_channel(2), 0.5, restarts=4)
    assert val == pytest.approx(1.0, abs=1e-6)
    # the optimal input is maximally entangled with the reference
    assert np.allclose(inp.marginal("A").density, np.eye(2) / 2, atol=1e-4)


def test_channel_coherent_info_full_dephasing():
    ch = generalized_dephasing(np.eye(2))
    val, _ = channel_coherent_info(ch, 0.5, restarts=4)
    assert val <= 1e-6


def _kraus_rank_two_channel(din: int, dout: int, rng):
    g = rng.standard_normal((2 * dout, din)) + 1j * rng.standard_normal((2 * dout, din))
    iso = np.linalg.qr(g)[0]
    return channel_from_kraus([iso[:dout], iso[dout:]])


_GRADIENT_CHANNELS = {
    "identity": lambda rng: identity_channel(2),
    "2to2-rank2": lambda rng: _kraus_rank_two_channel(2, 2, rng),
    "3to2-rank2": lambda rng: _kraus_rank_two_channel(3, 2, rng),
}


# rates at which the coding exponent's s* lies inside (S_MIN, 1) at the test's input
_CODING_RATES = {"identity": 0.3, "2to2-rank2": 0.02, "3to2-rank2": 0.02}


def _coding_reference(r: float):
    """coh -> -sup_s (s/2)(I_{1/(1+s)} - r) on [S_MIN, 1), the root by scipy's brentq,
    asserting that the maximizer is interior."""
    def reference(coh):
        half = lambda s: tuple(0.5 * v for v in coh.phi(s))
        s, sup = brentq_concave_sup(half, -0.5 * r, S_MIN, 1.0 - 1e-9)
        assert S_MIN < s < 1.0 - 1e-9
        return -sup

    return reference


@pytest.mark.parametrize("entropy", ["0.5", "0.7", "0.9", "coding"])
@pytest.mark.parametrize("name", list(_GRADIENT_CHANNELS))
def test_input_gradient_matches_central_difference(name, entropy):
    """The exact gradient of the channel-input objective against a central difference.

    The channels have Kraus rank 1 or 2, so the output rho_RB of a pure
    input has rank at most 2, a kernel, and the zeroed kernel-kernel block
    of the divided differences is exercised.  x is not a unit vector, so the chain rule
    through psi = v / |v| is too.  The entropy maps are H_up_alpha(R|B) at three
    orders and the coding exponent's -sup_s (s/2)(I_{1/(1+s)} - r), whose gradient
    is Danskin's, at a rate where the maximizer s* is interior.  The value is the
    Petz closed form of the output that apply_channel builds, its s-supremum by brentq.
    """
    if entropy == "coding":
        r = _CODING_RATES[name]
        entropy_map, reference = _coding_entropy(r), _coding_reference(r)
    else:
        alpha = float(entropy)
        entropy_map = lambda coh: coh.value_and_gradient(alpha)
        reference = lambda coh: coh(alpha)
    rng = make_rng(13)
    ch = _GRADIENT_CHANNELS[name](rng)
    n = ch.din * ch.din
    f = _input_objective(ch, entropy_map)
    x = 1.3 * rng.standard_normal(2 * n)
    value, grad = f(x)
    h = 1e-6
    fd = np.array([(f(x + h * e)[0] - f(x - h * e)[0]) / (2.0 * h) for e in np.eye(2 * n)])
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd), (name, entropy)
    v = (x[:n] + 1j * x[n:]) / np.linalg.norm(x)
    out = apply_channel(ch, State(np.outer(v, v.conj()), (("R", ch.din), ("A", ch.din))), "A")
    assert abs(value - reference(PetzUpEntropy.of(out, ["R"], ["A"]))) <= 1e-13


_MARGINAL_STATES = {
    "full-rank": lambda rng: random_state((("A", 2), ("B", 3)), 6, rng),
    "rank-2": lambda rng: random_state((("A", 2), ("B", 3)), 2, rng),
    # rank 2 of 6 on (R, B), its kernel eigenvalues roundoff of either sign
    "channel-output": lambda rng: apply_channel(
        _kraus_rank_two_channel(3, 2, rng), random_pure((("R", 3), ("A", 3)), rng), "A"),
}


@pytest.mark.parametrize("name", list(_MARGINAL_STATES))
def test_petz_marginal_on_the_support_factor_matches_the_rebuild(name):
    """tr_A rho^alpha as W lambda^alpha W^+ on rho's support factor, against the
    route it replaced: rho^alpha rebuilt as a full matrix, then partial-traced.

    rho validated at the input boundary (Spectrum.of) and decomposed as the
    optimizers do, without a second validation (PetzUpEntropy.of, Spectrum.eigh),
    gives the same bits from every entry point.
    """
    state = _MARGINAL_STATES[name](make_rng(17))
    rho, da = state.density, state.dims[0][1]
    spec = Spectrum.of(rho)
    validated = PetzUpEntropy(spec, da)
    unvalidated = PetzUpEntropy.of(state, state.labels[:1], state.labels[1:])
    for alpha in (0.5, 0.7, 0.9, 1.5):
        rebuilt = partial_trace(spec.pow(alpha), [da, rho.shape[0] // da], [1])
        assert np.max(np.abs(validated.marginal(alpha) - rebuilt)) <= 1e-14, alpha
        assert validated(alpha) == unvalidated(alpha)
        v1, g1 = validated.value_and_gradient(alpha)
        v2, g2 = unvalidated.value_and_gradient(alpha)
        assert v1 == v2 and np.array_equal(g1, g2)
    s = np.array([0.05, 0.5, 1.0, 4.0])
    assert all(np.array_equal(a, b) for a, b in zip(validated.phi(s), unvalidated.phi(s)))
    assert validated.phi(0.3) == unvalidated.phi(0.3)


def _dephasing_choi(rng):
    g = rng.standard_normal((3, 6)).view(complex)
    m = g @ g.conj().T
    d = np.sqrt(np.real(np.diag(m)))
    return generalized_dephasing(m / np.outer(d, d)).choi_state(("A", "B"))


_SLOPE_STATES = {
    "full-rank": lambda rng: random_state((("A", 2), ("B", 3)), 6, rng),
    "rank-1": lambda rng: random_pure((("A", 2), ("B", 3)), rng),
    "rank-3": lambda rng: random_state((("A", 2), ("B", 3)), 3, rng),
    "dephasing-choi": _dephasing_choi,
    # rank 3, with a kernel in rho_B: sigma^c is 0 there at every order
    "rho-b-kernel": lambda rng: _embedded_in_b3(int(rng.integers(1000))),
    # B listed first: the entropy objects take the (A, B) blocks of the permuted state
    "listed-b-a": lambda rng: random_state((("B", 3), ("A", 2)), 4, rng),
}
_PHIS = {
    # (phi object, s H_{1+s} or s times the coherent information by the value routes)
    "sandwiched": lambda st: (ConditionalEntropy(st, ["A"], ["B"]), lambda e, s: s * cond_entropy(
        st, ["A"], ["B"], EntropyKind("sandwiched", 1.0 + s))),
    "petz": lambda st: (PetzUpEntropy.of(st, ["A"], ["B"]),
                        lambda e, s: -s * e(1.0 / (1.0 + s))),
}


@pytest.mark.parametrize("family", list(_PHIS))
@pytest.mark.parametrize("name", list(_SLOPE_STATES))
def test_phi_slope_matches_central_difference_and_falls(family, name):
    """The exact s-slope of phi against a central difference, and its concavity.

    The exponents find each supremum as the one root of c + phi'(s), so the
    slope must be exact and non-increasing in s.  The states include a kernel
    (rank 1 and 3 of 6), the rank-deficient Choi state of a dephasing
    channel, whose kernel must be cut at small Petz orders, a state whose
    rho_B has a kernel, which the sandwiched phi leaves out of its basis of
    supp rho_B, and a state listed as (B, A).  The sandwiched min-entropy,
    read off the Gram matrix at c = -1/2, is checked against d_max of the
    full-size rho_AB and I_A x rho_B.
    """
    state = _SLOPE_STATES[name](make_rng(31))
    ent, value = _PHIS[family](state)
    for s in (1e-3, 0.05, 0.5, 1.0, 4.0, 16.0, 60.0):
        v, slope = ent.phi(s)
        assert abs(v - value(ent, s)) <= 1e-12 * max(1.0, abs(v)), (s, v)
        h = 1e-4 * s
        fd = (ent.phi(s + h)[0] - ent.phi(s - h)[0]) / (2.0 * h)
        assert abs(slope - fd) <= 1e-6 * max(abs(fd), 1e-3), (s, slope, fd)
    slopes = [ent.phi(float(s))[1] for s in np.geomspace(1e-4, 64.0, 200)]
    assert max(np.diff(slopes)) <= 1e-12
    if family == "sandwiched":
        rho, da, db = state.permuted("A", "B").density, state.dim_of("A"), state.dim_of("B")
        ref = -d_max(rho, tensor(np.eye(da), partial_trace(rho, [da, db], [1])))
        assert abs(ent.min_entropy() - ref) <= 1e-12 * max(1.0, abs(ref)), (ent.min_entropy(), ref)


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
def test_minimized_conditioning_of_a_classical_state(db, alpha, monkeypatch):
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
    monkeypatch.setattr(condentropy, "_MAX_ITERS", 2)
    try:
        short = minimized_conditioning(st_, ["A"], ["B"], "sandwiched", alpha)
    except OptimizerDivergence:
        return
    assert short.exit == "max_iters"


def _attainment_states():
    """rho_B full rank at |B| = 2, 3 and 4; rho_B with a kernel (|B| = 3, supported on two
    levels); and a state listed as (B, A), whose blocks the minimizer permutes."""
    rng = make_rng(4, stream=15)
    states = [random_state((("A", 2), ("B", db)), 2 * db, rng) for db in (2, 3, 4)]
    return states + [_embedded_in_b3(4), random_state((("B", 3), ("A", 2)), 3, rng)]


@pytest.mark.parametrize("family,alphas", [("sandwiched", (0.6, 1.5, 2.0)),
                                           ("petz", (0.6, 1.5))])
def test_value_is_attained_at_the_returned_sigma(family, alphas):
    """The value is D(rho_AB || I_A x sigma) at the sigma returned, to 1e-12.

    The descent runs in the eigenbasis of rho_B's support and rotates its
    sigma back to B, so this checks that rotation, with and without a kernel.
    """
    div = sandwiched_renyi if family == "sandwiched" else petz_renyi
    for st_ in _attainment_states():
        rho, db = st_.permuted("A", "B").density, st_.dim_of("B")
        for alpha in alphas:
            res = minimized_conditioning(st_, ["A"], ["B"], family, alpha)
            assert res.sigma.shape == (db, db)
            ref = div(rho, tensor(np.eye(2), res.sigma), alpha)
            assert abs(res.value - ref) <= 1e-12, (family, db, alpha)


# D*_{1/2}(A|B) of the states of the test below as reached by an earlier form of the
# descent, which took the gradient through the divided differences of sigma^(1/2) and
# measured P by the Euclidean norm: every run stopped by "resolution", 2e-11 to 8.7e-8
# above the minimum.
_HALF_ORDER_EARLIER = (-0.4889076211532187, -0.322309838668343, -0.5155694467502345,
                         -0.3314829436551431, -0.47107483863799915)


@pytest.mark.parametrize("seed", range(5))
def test_rank_deficient_minimizer_at_alpha_one_half(seed):
    """At alpha = 1/2 the sandwiched minimizer has lambda_min(sigma) of about 1e-17.

    ||P||_sigma vanishes there and the Euclidean |P| does not: with |P| in the
    divergence guard, this descent raised OptimizerDivergence at seed 0 (|P| =
    0.69 after 500 steps).  The value lies below the earlier form's (by 2e-11
    to 8e-9), and sigma keeps trace 1.
    """
    st_ = random_state((("A", 2), ("B", 3)), 4, make_rng(seed))
    res = minimized_conditioning(st_, ["A"], ["B"], "sandwiched", 0.5)
    assert res.value < _HALF_ORDER_EARLIER[seed]
    assert abs(np.trace(res.sigma).real - 1.0) <= 1e-12


def test_divergence_guard_raises_after_one_step(monkeypatch):
    """With one step allowed, ||P||_sigma > 1e-4 raises on 180 interior problems:
    full-rank rho_AB, |B| in {2, 3, 4}, alpha in {0.6, 1.5, 2}, seeds 0-19."""
    monkeypatch.setattr(condentropy, "_MAX_ITERS", 1)
    for seed in range(20):
        for db in (2, 3, 4):
            st_ = random_state((("A", 2), ("B", db)), 2 * db, make_rng(seed))
            for alpha in (0.6, 1.5, 2.0):
                with pytest.raises(OptimizerDivergence):
                    minimized_conditioning(st_, ["A"], ["B"], "sandwiched", alpha)


def _sweep_states():
    """360 states: per seed in 0-39, one rng draws |B| in (2, 3, 4) by rank in (1, 2, 2|B|)."""
    for seed in range(40):
        rng = make_rng(seed, stream=3)
        for db in (2, 3, 4):
            for rank in (1, 2, 2 * db):
                yield random_state((("A", 2), ("B", db)), rank, rng)


# D*_{1/2}(A|B) of the _sweep_states as reached before the log floor of the descent
# and its interpolating backtrack; None where that descent raised OptimizerDivergence
# (5 states, at rank 2: it parked an eigenvalue of sigma at 1e-300 and then crept).
_HALF_ORDER_SWEEP_BEFORE = (
    0.33325077503605627, -0.622412021993736, -0.6006432135754002, 0.16984724080396035,
    -0.36487442878367765, -0.6807212753954096, 0.40707749316387654, 0.16421364639108635,
    -0.679015169324598, 0.12667686265896805, -0.698183617010445, -0.5659637834442924,
    0.5012582251175325, None, -0.6128823063552297, 0.6328014913395387, 0.23720216155559487,
    -0.713966310662996, 0.032317776178582516, 0.09400013156809335, -0.7670744458502817,
    0.41410816513899074, 0.2945453326062437, -0.5433286479984273, 0.2928445066893073,
    -0.03424555531624618, -0.7419136235090634, 0.7528436867837307, -0.4884588292618918,
    -0.5750541756245706, 0.17261273980742536, -0.2712076737931935, -0.661103691216134,
    0.2807160880312284, -0.13126216512931063, -0.6503012462601178, 0.1913304100218795,
    -0.02712655067428314, -0.7237292270302014, 0.5989126172223526, -0.036068050907548,
    -0.7017070810739827, 0.2578902134673408, -0.4781015868873034, -0.6535093407950993,
    0.029490416907929168, -0.3623001138758419, -0.8064915960959731, 0.44108457375557414,
    -0.2979474738070933, -0.8376896305366021, 0.35917475162689955, None, -0.6704939134305802,
    0.06405753501332746, -0.31428932151092254, -0.7672087766668997, 0.3895245142382719,
    -0.3362656466352661, -0.692101632687117, 0.7018987646989832, 0.02097181465223175,
    -0.6124106603426852, 0.016966136295722946, 0.03793402815605866, -0.7455945794344233,
    0.12084424966949975, 0.12743677545977555, -0.6255128540277773, 0.13304910918002189,
    0.2341561991061005, -0.6548783237351854, 0.6425011134088161, -0.28940190602144966,
    -0.8501345136417832, 0.0394124902804153, 0.0182280955251127, -0.6298286147950024,
    0.4166033291778717, -0.073369600780432, -0.7731703003066953, 0.02171116097698247,
    -0.45890131282086133, -0.6468129947841977, 0.4930614901005668, 0.2553270085340981,
    -0.6686033089215171, 0.16709935380322463, 0.06428718150821655, -0.693235435863241,
    0.11850100068693818, 0.07296753199634118, -0.3955707620823686, 0.2656700748139038,
    -0.24051168996478645, -0.7059646821783239, 0.21621397668155878, None, -0.6964740279904277,
    0.06903950329483162, -0.8340417801649509, -0.6664946676647945, 0.3900186568941833,
    -0.38132894065716844, -0.6697662278899387, 0.2519052283428555, -0.2982480181889275,
    -0.6465358834837293, 0.4363726918237439, -0.4461574009545381, -0.7599998103773726,
    0.4862499490801515, -0.49536933277116746, -0.5737161725558977, 0.7074147770200608,
    -0.2826342272605293, -0.6884208307703109, 0.540217563715732, -0.48584502693230597,
    -0.6749461814384489, 0.6280745748217349, -0.24794671577609723, -0.7029230342638454,
    0.6829914361151069, -0.20018118166927185, -0.6850045204957075, 0.11529356155688589,
    -0.11759959213679749, -0.7993840360815373, 0.6514080729268122, -0.28327043788791484,
    -0.7009781234460553, 0.4418489531357538, -0.06533718564329534, -0.6824817631382606,
    0.2996061347236344, -0.3734109764445516, -0.6514031394994058, 0.27203130742686665,
    -0.47513187211105584, -0.566913298141003, 0.5408886481695335, -0.16239326574718774,
    -0.6195739120429784, 0.36847153202241806, -0.23751838501478328, -0.6055072687100546,
    0.36425274533268476, -0.36840333082158044, -0.7748247727815457, 0.45342643356312334,
    0.04951760756421911, -0.6942018134390378, 0.058593051125371984, -0.5064347014882746,
    -0.8297000222066621, 0.37686269087354984, -0.36543184058237793, -0.5174139873395953,
    0.3385030940063179, 0.13158912325238253, -0.542108954337774, 0.34215491679610593,
    -0.729157514968903, -0.735422366353613, 0.17837643497267577, -0.5055848360568955,
    -0.736022432247306, 0.433723638179091, -0.06941289440090388, -0.7784962854270481,
    0.27085371331634095, -0.8158635295018346, -0.6892763816386865, 0.6384342008584322,
    -0.14370080747766784, -0.5791502804754302, 0.38687464556477663, 0.12247571803557909,
    -0.6578724914205935, 0.01084814470167972, -0.6649388158335386, -0.8481385599047361,
    0.23785404529731183, None, -0.6191213038225704, 0.6197966026227595, 0.12094741993230386,
    -0.6969699634130597, 0.08638769894073249, -0.23952523371597692, -0.7898003424766779,
    0.397684789488245, -0.38058028038177094, -0.7292966919344182, 0.2939628940312988,
    -0.299316390005677, -0.6752930121425837, 0.07788955400518142, -0.5136903787487203,
    -0.7434827978961317, 0.017542317728310934, 2.4511836802328058e-06, -0.6752077659792568,
    0.4416759548082193, 0.0943022179765012, -0.719058017959857, 0.14470629764619145,
    -0.6345207922526053, -0.7512363944582412, 0.04342578915595333, -0.022027322734293985,
    -0.8378202644879164, 0.6281203909484651, 0.013879882369773921, -0.6355396978739847,
    0.03194348815713413, 0.02489296657626114, -0.9362157401246228, 0.1912728458965672, None,
    -0.6936852330992491, 0.33924547077585765, 0.16884258773046104, -0.6493600625903259,
    0.14877491033572127, -0.14676843977211937, -0.6547347420259193, 0.143813338970879,
    -0.2980596416960677, -0.5418062635945009, 0.23134188706615874, -0.35913938288275793,
    -0.5979173720955051, 0.025291982315919708, -0.4782633189819217, -0.7338070601082864,
    0.2178163468001743, -0.4326022211549353, -0.6846053396091161, 0.138515714531852,
    -0.21588509288671198, -0.7044598663492343, 0.2436115464338295, -0.07677230838136728,
    -0.810878804134097, 0.2338923570949759, -0.3036059404386247, -0.6735342732844599,
    0.6603367921845273, 0.07791681711022454, -0.6582067379535828, 0.27620996362664074,
    -0.33629281104830344, -0.7824042203702558, 0.5449754901969827, -0.03670328471564407,
    -0.7312492798051856, 0.43182184903478205, -0.3249784774507147, -0.7120856119567186,
    0.04654012891885893, -0.5268427187271879, -0.6734234773058664, 0.18389050442830132,
    -0.6309159929940076, -0.5802537923909115, 0.1882711291995692, 0.21512947850082367,
    -0.6791066817658659, 0.12414224363570205, -0.08413524662743853, -0.8328872290146483,
    0.07847368582340875, -0.24307795696174891, -0.7133960397600461, 0.1847642105312446,
    -0.07204877521848892, -0.7046403667023231, 0.26442438629167797, -0.1781390828106354,
    -0.7446420484547327, 0.14611469851128062, -0.14539410130229133, -0.7590002486412973,
    0.4849778551498775, 0.029761218501707994, -0.7129360106709703, 0.26556459542918215,
    -0.12332939003184204, -0.6674524129737643, 0.3012857723805066, -0.3524994798800063,
    -0.6906651596191298, 0.21536552235968082, -0.009954135690438222, -0.7575065141371515,
    0.10860724285155444, -0.5778106467014068, -0.7000805891900749, 0.5217021964093915,
    -0.36176236503131026, -0.7525302559846573, 0.2688075799128822, -0.3696889061645684,
    -0.680734850733809, 0.14344427014321737, -0.28217925974520136, -0.48360001466416963,
    0.4481107241429472, -0.06838396891734483, -0.7403603220997317, 0.329880349553994,
    -0.16331997450212266, -0.7219028534727253, 0.09761004533786635, -0.44777058138340875,
    -0.7669882848696212, 0.14248285938104902, -0.16996723648499834, -0.7197966100521759,
    0.15931338702239545, -0.3422443553268719, -0.7022287164548124, 0.029371633496599468,
    0.01977022020106307, -0.5624893264605353, 0.21280007206398002, -0.2221696340123049,
    -0.85231957679602, 0.128671494513689, 0.11953220869806265, -0.5961675771674103,
    0.19018817519243505, -0.392198525433335, -0.8570375612056882, 0.2803117936908578,
    -0.1846395604901789, -0.6535941063943216, 0.31300457157312145, -0.47659383109287623,
    -0.7873623073281125, 0.21849620206897497, -0.1604215540339694, -0.5089434397136886,
    0.153159937348097, 0.029756594777795218, -0.5797912903813099, 0.4247808674354578,
    0.06426034581408507, -0.6816383537378036, 0.008513469528401554, -0.49386757948166005,
    -0.7262375680443381, 0.19718320876849585, -0.19119400873853606, -0.4042759295209666,
    0.43060038692193586, -0.035045164325517505, -0.6264915107604482,
)


@pytest.mark.parametrize("alpha", [0.5, 0.51, 0.6])
def test_sweep_near_the_order_one_half(alpha):
    """No descent raises, each stops by ``grad_tol`` or ``resolution`` within 200 steps
    (173 at most when written), and at alpha = 1/2 no value lies above the one reached
    before the log floor."""
    results = [minimized_conditioning(st_, ["A"], ["B"], "sandwiched", alpha)
               for st_ in _sweep_states()]
    assert {r.exit for r in results} <= {"grad_tol", "resolution"}
    assert max(r.iters for r in results) <= 200
    if alpha == 0.5:
        pairs = [(r.value, before) for r, before in zip(results, _HALF_ORDER_SWEEP_BEFORE)
                 if before is not None]
        assert len(pairs) == 355
        assert all(value <= before + 1e-12 for value, before in pairs)


def _recorded(objective, bad=None):
    """``objective`` wrapped to record each trial point: its value, whether the descent
    accepted it (asked for its gradient) and that gradient; with ``bad`` set, every
    point after the start returns (bad, None), as the q <= 0 branch does."""
    trials = []

    def make(*args):
        f = objective(*args)

        def wrapped(w, v):
            fc, grad_at = f(w, v)
            if bad is not None and trials:
                fc, grad_at = bad, None
            trial = {"w": w, "f": fc, "grad": None}
            trials.append(trial)

            def grad():
                trial["grad"] = grad_at()
                return trial["grad"]

            return fc, grad

        return wrapped

    return make, trials


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_a_trial_without_a_value_cuts_the_step_tenfold(bad, monkeypatch):
    """Every trial fails with an infinite or NaN value: eta falls tenfold per trial, so
    the line search reaches the resolution stop after 14 trials (44 when it halved)."""
    make, trials = _recorded(_sandwiched_objective, bad)
    monkeypatch.setattr(condentropy, "_sandwiched_objective", make)
    st_ = random_state((("A", 2), ("B", 3)), 6, make_rng(0))
    res = minimized_conditioning(st_, ["A"], ["B"], "sandwiched", 1.5)
    assert (res.exit, res.iters, res.value) == ("resolution", 0, trials[0]["f"])
    assert len(trials) - 1 == 14


def test_failed_trials_step_to_the_quadratic_model(monkeypatch):
    """After a failed trial at eta, the next eta is the minimizer of the quadratic
    through f(0), the slope -||P||_sigma^2 and f(eta), within [0.1 eta, 0.5 eta].

    The run is recorded through the objective and through the eigh of each
    step's matrix diag(ln w) - eta G~, whose off-diagonal part is -eta G~: two
    trials of one line search share G~, so their off-diagonal entries give the
    ratio of their etas.
    """
    make, trials = _recorded(_sandwiched_objective)
    monkeypatch.setattr(condentropy, "_sandwiched_objective", make)
    steps = []
    eigh = condentropy.Spectrum.eigh

    def recorded_eigh(m):
        if trials and m.shape == (3, 3):  # after the start; K is 2 x 2
            steps.append(m)
        return eigh(m)

    monkeypatch.setattr(condentropy.Spectrum, "eigh", recorded_eigh)
    st_ = random_state((("A", 2), ("B", 3)), 2, make_rng(1, stream=3))
    minimized_conditioning(st_, ["A"], ["B"], "sandwiched", 0.5)
    assert len(steps) == len(trials) - 1
    base, ratios = trials[0], []
    for k in range(1, len(trials) - 1):
        trial = trials[k]
        if trial["grad"] is not None:  # accepted: the next line search starts here
            base = trial
            continue
        g, w = base["grad"], base["w"]
        proj = g - float(np.real(np.diagonal(g)) @ w) * np.eye(3)
        slope = float(np.sum(np.abs(proj) ** 2 @ w))  # ||P||_sigma^2
        off = ~np.eye(3, dtype=bool)
        i = np.argmax(np.abs(steps[k - 1]) * off)
        eta = -steps[k - 1].flat[i] / g.flat[i]
        ratio = (steps[k].flat[i] / steps[k - 1].flat[i]).real
        model = 0.5 * eta.real * slope / (trial["f"] - base["f"] + eta.real * slope)
        assert ratio == pytest.approx(min(max(model, 0.1), 0.5), rel=1e-9)
        ratios.append(ratio)
    assert len(ratios) >= 20
    assert all(0.1 - 1e-12 <= r <= 0.5 + 1e-12 for r in ratios)
    assert min(ratios) < 0.45


def _embedded_in_b3(seed: int) -> State:
    """A rank-3 rho_AB with |A| = |B| = 2, its B mapped isometrically into |B| = 3."""
    rng = make_rng(seed, stream=14)
    x = random_state((("A", 2), ("B", 2)), 3, rng)
    iso = tensor(np.eye(2), haar_unitary(3, rng)[:, :2])
    return State(iso @ x.density @ iso.conj().T, (("A", 2), ("B", 3)))


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

    The objective returns the gradient in sigma's eigenbasis, rotated back
    here.  rho_AB has rank 3, below full rank; sigma is full rank with
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
        w, v = np.linalg.eigh(sigma)
        vecs, lam = _support_factor(Spectrum.eigh(rho), [2, db])
        obj = make(vecs, lam, alpha) if family == "petz" else make(vecs, lam, 2, alpha)
        _, grad_t = obj(w, v)
        grad = v @ grad_t() @ v.conj().T
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
