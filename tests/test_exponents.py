import gc
import json
import math
import os
import subprocess
import sys
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest

from qdecoupling import exponents
from qdecoupling.channels import (
    Channel,
    generalized_dephasing,
    identity_channel,
    random_channel,
)
from qdecoupling.cli import CURVE_TASKS
from qdecoupling.condentropy import (
    ConditionalEntropy,
    PetzUpEntropy,
    cond_vn_entropy,
    sandwiched_cond_entropy,
)
from qdecoupling.exponents import (
    GRID,
    S_CAP,
    S_MIN,
    channel_coding_exponent,
    comparator_exponent,
    concave_sup,
    critical_rate,
    decoupling_phi,
    dephasing_channel_curve,
    distillation_curve,
    distillation_exponent,
    is_maximally_correlated,
    merging_curve,
    merging_exponents,
    standard_decoupling_curve,
    standard_decoupling_exponents,
    sup_on_interval,
)
from qdecoupling.linalg import Spectrum, tensor
from qdecoupling.states import (
    State,
    make_rng,
    max_entangled,
    maximally_correlated,
    random_density,
    random_pure,
    random_state,
)

from conftest import (
    brentq_exponents,
    classical_dephasing_converse_oracle,
    classical_dephasing_oracle,
    per_order_coding_exponent,
)


def test_sup_on_interval_examples():
    # linear objective: supremum at the right endpoint
    c = sup_on_interval(lambda s: 2 * 0.3 * s, 1e-4, 1.0)
    assert c.sup_value == pytest.approx(0.6, abs=1e-8)
    assert c.argmax_s == pytest.approx(1.0, abs=1e-6)
    # concave objective with an interior maximum
    c = sup_on_interval(lambda s: s * (1 - s), 1e-4, 1.0)
    assert c.sup_value == pytest.approx(0.25, abs=1e-10)
    assert c.argmax_s == pytest.approx(0.5, abs=1e-5)
    # refinement never loses to the raw grid
    assert c.sup_value >= max(s * (1 - s) for s in np.geomspace(1e-4, 1.0, 64))


def test_sup_on_interval_rejects_nonfinite():
    with pytest.raises(ValueError):
        sup_on_interval(lambda s: math.inf, 1e-4, 1.0)


def test_concave_sup_endpoints_and_interior_root():
    """c s - s^2: the slope c - 2s is <= 0 at lo, >= 0 at hi, or has the root s* = c/2.

    The first phi call takes lo, each hi and the grid points between them, once
    each.  With hi = 1 or S_CAP, both grid points, the root is searched in its
    grid cell, or the maximizer is hi; a root on a grid point is that point,
    from the first call alone; with hi below 1/8 the first call is {lo, hi}.  A
    NaN slope at any point of the first call raises, also past the root, where
    no Brent step would look.
    """
    asked = []

    def phi(s):
        asked.append(np.ravel(s).tolist())
        return -s * s, -2.0 * s

    lo_case = concave_sup(phi, -1.0, 1e-4, 1.0)
    assert lo_case.argmax_s == 1e-4
    assert lo_case.sup_value == pytest.approx(-1e-4 - 1e-8, rel=1e-15)
    hi_case = concave_sup(phi, 5.0, 1e-4, 1.0)
    assert (hi_case.argmax_s, hi_case.sup_value) == (1.0, 4.0)
    for c in (0.3, 1.0, 1.7):
        mid = concave_sup(phi, c, 1e-4, 1.0)
        assert mid.argmax_s == pytest.approx(c / 2.0, abs=1e-12)
        assert mid.sup_value == pytest.approx(c * c / 4.0, abs=1e-15)
    # all three cases in one lockstep call, each with its own hi
    both = concave_sup(phi, np.array([-1.0, 5.0, 1.0, 1.0]), 1e-4, np.array([1.0, 1.0, 1.0, 4.0]))
    assert both.argmax_s.tolist() == [1e-4, 1.0, pytest.approx(0.5, abs=1e-12),
                                      pytest.approx(0.5, abs=1e-12)]
    # a NaN slope inside the bracket ends the search, as scipy's brentq does
    with pytest.raises(ValueError, match="NaN"):
        concave_sup(lambda s: (-s * s, np.where(s > 0.4, np.nan, 1.0 - 2.0 * s)), 0.0, 1e-4, 1.0)
    # a slope with a triple root exhausts brentq's 100 iterations
    with pytest.raises(RuntimeError, match="100 iterations"):
        concave_sup(lambda s: (0.0 * s, np.arctan(1.3 - s) ** 3), 0.0, 1e-4, 4.0)
    for c, hi, want in ((50.0, S_CAP, 25.0), (200.0, S_CAP, S_CAP), (0.3, 1.0, 0.15),
                        (3.0, 1.0, 1.0)):
        asked.clear()
        sup = concave_sup(phi, c, 1e-4, hi)
        assert sup.argmax_s[0] == pytest.approx(want, abs=1e-12), (c, hi)
        assert asked[0] == sorted({1e-4, hi, *(g for g in GRID if 1e-4 < g < hi)})
    # roots on grid points: the first call and the value at the maximizer
    for c, hi, root in ((1.5, 1.0, 0.75), (64.0, S_CAP, 32.0), (2.0, S_CAP, 1.0)):
        asked.clear()
        assert concave_sup(phi, c, 1e-4, hi).argmax_s[0] == root
        assert asked[1:] == [[root]]
    # hi below the first interior point: the grid is {lo, hi}
    asked.clear()
    below = concave_sup(phi, 0.1, 1e-4, 0.1)
    assert asked[0] == [1e-4, 0.1]
    assert below.argmax_s[0] == pytest.approx(0.05, abs=1e-12)
    # one call for several hi: each hi once, the grid up to the largest
    asked.clear()
    several = concave_sup(phi, np.array([0.1, 1.0, 50.0]), 1e-4, np.array([0.1, 1.0, S_CAP]))
    assert asked[0] == [1e-4, 0.1, *GRID[:-1], S_CAP]
    assert several.argmax_s.tolist() == pytest.approx([0.05, 0.5, 25.0], abs=1e-12)
    for nan_at in (0.25, 0.5, 0.75, 16.0):
        slope = lambda s: np.where(s == nan_at, np.nan, 0.6 - 2.0 * s)
        with pytest.raises(ValueError, match="NaN"):
            concave_sup(lambda s: (-s * s, slope(s)), 0.0, 1e-4, S_CAP)


def test_converse_flags_around_the_divergence_rate():
    """The converse of standard decoupling below, at and past r* = (log|A| - H_min) / 2.

    Past r* the objective's asymptotic slope 2r - log|A| + H_min is positive and the
    supremum is +inf.  At r* the slope of the objective stays positive up to the
    cap S_CAP, so the value is finite and flagged as capped.  Below r* the slope
    has a root, and the value is the finite supremum.
    """
    state = random_state((("A", 4), ("E", 2)), 3, make_rng(7))
    r_star = (2.0 - sandwiched_cond_entropy(state, ["A"], ["E"]).min_entropy()) / 2.0
    below = standard_decoupling_exponents(state, 2.0, r_star - 0.05)
    assert math.isfinite(below.converse)
    assert not below.converse_capped and not below.converse_diverges
    at = standard_decoupling_exponents(state, 2.0, r_star)
    assert math.isfinite(at.converse) and at.converse_capped and not at.converse_diverges
    past = standard_decoupling_exponents(state, 2.0, r_star + 1e-6)
    assert past.converse == math.inf and past.converse_diverges and not past.converse_capped


def product_rho_ae(rng, da=4, de=2):
    sig = random_density(de, de, rng)
    return State(tensor(np.eye(da) / da, sig), (("A", da), ("E", de)))


def test_product_instance_closed_form(rng):
    rho = product_rho_ae(rng)
    # H(A|E) = log|A| for the maximally mixed product, so f(s) = 2rs
    for r in (0.2, 0.5, 0.9):
        res = standard_decoupling_exponents(rho, 2.0, r)
        assert res.achievable == pytest.approx(2 * r, abs=1e-8)
        assert res.converse == math.inf
        assert res.converse_diverges
    assert critical_rate(rho) == pytest.approx(-1.0, abs=1e-6)


def test_max_entangled_instance_closed_form():
    for d in (2, 3):
        phi = max_entangled(d, ("A", "E"))
        # H(A|E) = -log d at every order, so f(s) = s(2r - 2 log d)
        for r in (0.3, d * 0.7, 2.0 * d):
            res = standard_decoupling_exponents(phi, math.log2(d), r)
            assert res.achievable == pytest.approx(max(0.0, 2 * r - 2 * math.log2(d)), abs=1e-8)
        assert critical_rate(phi) == pytest.approx(0.5 * math.log2(d), abs=1e-6)


def test_rate_validation(rng):
    rho = product_rho_ae(rng)
    with pytest.raises(ValueError):
        standard_decoupling_exponents(rho, 2.0, -0.1)
    with pytest.raises(ValueError):
        comparator_exponent(rho, 2.0, 0.0)


def exactness_cases():
    out = []
    seed = 0
    while len(out) < 6 and seed < 60:
        rng = make_rng(seed)
        rho = random_pure((("A", 4), ("E", int(rng.integers(2, 5)))), rng)
        if critical_rate(rho) > 0.05:
            out.append(rho)
        seed += 1
    return out


def test_exactness_mechanism():
    for rho in exactness_cases():
        rc = critical_rate(rho)
        lo = standard_decoupling_exponents(rho, 2.0, 0.9 * rc)
        assert lo.exact
        assert abs(lo.achievable - lo.converse) <= 1e-6
        hi = standard_decoupling_exponents(rho, 1.5 * rc if 1.5 * rc > 0 else 0.1, 1.5 * rc)
        assert not hi.exact
        assert hi.achievable <= hi.converse + 1e-6


def test_comparator_never_exceeds_achievable():
    for seed in range(4):
        rng = make_rng(seed + 100)
        rho = random_state((("A", 4), ("E", 2)), int(rng.integers(1, 5)), rng)
        for r in (0.4, 1.1):
            res = standard_decoupling_exponents(rho, 2.0, r)
            comp = comparator_exponent(rho, 2.0, r, n_grid=10)
            assert comp <= res.achievable + 1e-6


def test_decoupling_achievable_exponent_matches_partial_trace_route(rng):
    """The general-channel supremum of s(H(A|E) + H(A'|C)) over the partial trace of
    A2 is the standard achievable exponent at r = log|A2|: there 2r - log|A| =
    log|A2| - log|A1| = H_{1+s}(A'|C) for every s."""
    from qdecoupling.decoupling import standard_instance

    for rho in (random_pure((("A", 4), ("E", 2)), rng), random_state((("A", 4), ("E", 2)), 8, rng)):
        ch = standard_instance(rho, 2, 2).channel
        general = concave_sup(decoupling_phi(rho, ch), 0.0, S_MIN, 1.0)
        standard = standard_decoupling_exponents(rho, 2.0, 1.0)
        assert max(0.0, general.sup_value[0]) == pytest.approx(standard.achievable, abs=1e-12)
        assert general.argmax_s[0] == pytest.approx(standard.argmax_s, abs=1e-9)
    assert standard.achievable > 0.0  # the mixed state's exponent is not the clamp


def test_merging_max_entangled_closed_forms():
    # Phi_AR x spectator B: H(A|R) = -log d, so only cost mode applies
    d = 2
    psi = max_entangled(d, ("A", "R")).tensor_with(
        State(np.diag([1.0, 0.0]).astype(complex), (("B", 2),))
    )
    for r in (1.4, 2.0, 3.0):
        res = merging_exponents(psi, ["A"], ["B"], ["R"], r, "cost")
        # H_{1+s}(A|R) = -log d at every order: f(s) = (s/2)(r - log d)
        assert res.achievable == pytest.approx(0.5 * (r - math.log2(d)), abs=1e-6)
        # flat spectrum: the s > 0 supremum of the linear objective diverges
        assert res.converse_diverges and res.converse == math.inf
        assert res.duality_gap <= 1e-6
    # Phi_AB x spectator R: H(A|R) = log d, distill mode
    psi2 = max_entangled(d, ("A", "B")).tensor_with(
        State(np.diag([1.0, 0.0]).astype(complex), (("R", 2),))
    )
    for r in (0.2, 0.7):
        res = merging_exponents(psi2, ["A"], ["B"], ["R"], r, "distill")
        assert res.achievable == pytest.approx(0.5 * (math.log2(d) - r), abs=1e-6)
        assert res.duality_gap <= 1e-6


def test_merging_preconditions(rng):
    psi = random_pure((("A", 2), ("B", 2), ("R", 3)), rng)
    with pytest.raises(ValueError):
        merging_exponents(psi, ["A"], ["B"], ["R"], 0.5, "teleport")
    mixed = random_state((("A", 2), ("B", 2), ("R", 2)), 3, rng)
    with pytest.raises(ValueError):
        merging_exponents(mixed, ["A"], ["B"], ["R"], 0.5, "distill")


def test_is_maximally_correlated(rng):
    phi = max_entangled(3, ("C", "D"))
    assert is_maximally_correlated(phi)
    assert not is_maximally_correlated(random_state((("C", 2), ("D", 2)), 2, rng))
    assert not is_maximally_correlated(random_state((("C", 2), ("D", 3)), 2, rng))


def test_distillation_max_entangled_closed_form():
    phi = max_entangled(3, ("C", "D"))
    for r in (0.2, 0.8, 1.3):
        res = distillation_exponent(phi, ["C"], ["D"], r)
        # I(C>D) = log 3 at every order: f(s) = (s/2)(log 3 - r)
        assert res.achievable == pytest.approx(max(0.0, 0.5 * (math.log2(3) - r)), abs=1e-6)
        assert math.isfinite(res.converse)
    generic = random_state((("C", 2), ("D", 2)), 2, make_rng(3))
    res = distillation_exponent(generic, ["C"], ["D"], 0.3)
    assert res.converse == math.inf
    assert not res.exact
    with pytest.raises(ValueError):
        distillation_exponent(phi, ["C"], ["D"], -0.2)


def test_channel_coding_identity():
    for r in (0.2, 0.5, 0.9):
        res = channel_coding_exponent(identity_channel(2), r, restarts=3)
        assert res.achievable == pytest.approx(0.5 * (1.0 - r), abs=1e-4)
        assert res.converse == math.inf
        # s I_{1/(1+s)} = s at every input-optimal order, so the slope at s = 1 is 1
        assert res.critical_rate == pytest.approx(1.0, abs=1e-6)


def test_channel_coding_reaches_the_per_order_route():
    """One input search with the s-supremum inside it reaches the supremum over s
    of a cold input search at each order, up to L-BFGS-B's default stop."""
    ch = random_channel(2, 2, make_rng(5))
    res = channel_coding_exponent(ch, 0.1, restarts=3)
    assert res.achievable >= per_order_coding_exponent(ch, 0.1, restarts=3) - 2e-11


def test_channel_coding_runs_two_input_searches(monkeypatch):
    """One L-BFGS-B run per start for the exponent and one per start for the
    critical rate; an input search at each s would make about 59 per start."""
    from scipy import optimize

    minimize, calls = optimize.minimize, []

    def counted(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize", counted)
    channel_coding_exponent(random_channel(2, 2, make_rng(5)), 0.1, restarts=3)
    assert 0 < len(calls) <= 2 * 3


def test_channel_coding_argmax_is_the_maximizer_at_the_best_input():
    """On the dephasing channel of a symmetric Gram matrix the maximally entangled
    input is optimal, so ``argmax_s`` is the interior s* of
    :func:`dephasing_channel_curve`, which pins that input."""
    ch = generalized_dephasing(np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex))
    res = channel_coding_exponent(ch, 0.14, restarts=3)
    pinned = dephasing_channel_curve(ch, [0.14])[0]
    assert S_MIN < pinned.argmax_s < 1.0 - 1e-9
    assert S_MIN <= res.argmax_s < 1.0
    assert res.argmax_s == pytest.approx(pinned.argmax_s, abs=1e-6)
    assert res.achievable >= pinned.achievable - 2e-11


def test_channel_coding_dephasing_matches_classical_oracle():
    g = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    ch = generalized_dephasing(g)
    for r in (0.05, 0.2, 0.5):
        res = dephasing_channel_curve(ch, [r])[0]
        assert res.achievable == pytest.approx(classical_dephasing_oracle(g, r), abs=1e-8)
        assert math.isfinite(res.converse)


def test_dephasing_converse_matches_classical_oracle():
    """The converse sup over s in (0, 64] on a complex Gram matrix of full rank.

    At large s the order 1/(1+s) is small, so the Choi state's kernel must
    be cut: its roundoff eigenvalues raised to that power would count.
    """
    g = np.random.default_rng(1).standard_normal((3, 6)).view(complex)
    m = g @ g.conj().T
    d = np.sqrt(np.real(np.diag(m)))
    gram = m / np.outer(d, d)
    np.fill_diagonal(gram, 1.0)
    ch = generalized_dephasing(gram)
    for r in (0.01, 0.05, 0.1):
        res = dephasing_channel_curve(ch, [r])[0]
        assert abs(res.converse - classical_dephasing_converse_oracle(gram, r)) <= 1e-10


# -- per-input memo --------------------------------------------------------


def _pure_with_h_ar(dims, sign, rng):
    """A random pure (A, B, R) state with sign * H(A|R) > 0.3, and H(A|R)."""
    while True:
        psi = random_pure(dims, rng)
        h = cond_vn_entropy(psi.marginal("A", "R"), ["A"], ["R"])
        if sign * h > 0.3:
            return psi, h


def _memo_cases():
    """Two inputs per curve task, and rates that are valid for both."""
    rng = make_rng(606)
    gram = lambda g: generalized_dephasing(np.array([[1.0, g], [np.conj(g), 1.0]]))
    (d1, h1), (d2, h2) = (_pure_with_h_ar((("A", 2), ("B", 4), ("R", 2)), +1, rng)
                          for _ in range(2))
    (c1, k1), (c2, k2) = (_pure_with_h_ar((("A", 2), ("B", 2), ("R", 4)), -1, rng)
                          for _ in range(2))
    return {
        "standard-decoupling": (random_state((("A", 2), ("E", 2)), 2, rng),
                                random_state((("A", 2), ("E", 3)), 3, rng), (0.3, 0.9, 1.6)),
        "merging-d": (d1, d2, tuple(f * min(h1, h2) for f in (0.2, 0.7))),
        "merging-c": (c1, c2, tuple(-min(k1, k2) + x for x in (0.1, 0.6))),
        "distill": (maximally_correlated(random_density(2, 2, rng), ("C", "D")),
                    maximally_correlated(random_density(3, 2, rng), ("C", "D")), (0.05, 0.4)),
        "channel": (gram(0.5), gram(0.2 + 0.3j), (0.05, 0.3)),
    }


# Results at each rate, each on a fresh copy of one input, in a process that
# holds no other input: a cache shared between inputs cannot reach them.
_FRESH_COPY_RESULTS = """
import json, sys
from dataclasses import astuple
from types import SimpleNamespace
import numpy as np
from qdecoupling.channels import Channel
from qdecoupling.cli import CURVE_TASKS
from qdecoupling.states import State
doc = json.load(sys.stdin)
m = np.array(doc["re"]) + 1j * np.array(doc["im"])
curve = CURVE_TASKS[doc["task"]][1]
out = []
for r in doc["rates"]:
    if doc["dims"] is None:
        inp = Channel(doc["din"], doc["dout"], m.copy())
    else:
        inp = State(m.copy(), tuple(map(tuple, doc["dims"])))
    out.append(astuple(curve(inp, [r], SimpleNamespace(log_a=None))[0]))
print(json.dumps(out))
"""


def _fresh_copy_results(task, inp, rates):
    import qdecoupling

    m = inp.choi if isinstance(inp, Channel) else inp.density
    doc = {"task": task, "rates": list(rates), "re": m.real.tolist(), "im": m.imag.tolist(),
           "dims": None if isinstance(inp, Channel) else inp.dims,
           "din": getattr(inp, "din", 0), "dout": getattr(inp, "dout", 0)}
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdecoupling.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", _FRESH_COPY_RESULTS], input=json.dumps(doc),
                          capture_output=True, text=True, env=env, check=True)
    return [tuple(row) for row in json.loads(proc.stdout)]


def _same_result(a, b) -> bool:
    """Every field equal, NaN equal to NaN."""
    return all(x == y or (x != x and y != y) for x, y in zip(a, b))


@pytest.mark.parametrize("task", list(CURVE_TASKS))
def test_reused_input_matches_a_fresh_copy(task):
    """A rate curve on one input object gives what fresh inputs give, rate by rate.

    The fresh inputs take one rate each.  The two reused inputs alternate,
    first on the last rate alone and then on the whole grid, so a memo that
    leaked from one input to the other, or a result that depended on the
    other rates of its grid, would change a result.
    """
    first, second, rates = _memo_cases()[task]
    fresh = {id(inp): _fresh_copy_results(task, inp, rates) for inp in (first, second)}
    curve = CURVE_TASKS[task][1]
    args = SimpleNamespace(log_a=None)
    for part in (slice(-1, None), slice(None)):
        for inp in (first, second):
            for r, res, want in zip(rates[part], curve(inp, rates[part], args),
                                    fresh[id(inp)][part]):
                assert _same_result(astuple(res), want), (task, r, astuple(res), want)


# -- one root per rate, all rates in lockstep -------------------------------


def _half(phi):
    return lambda s: tuple(0.5 * x for x in phi(s))


def _grid_cases():
    """Per curve task: (the grid function on its input, phi of a fresh entropy object,
    c of r, the asymptotic slope of r or None, the achievable hi, whether a converse is
    computed, the exact flag of r, 20 rates)."""
    rng = make_rng(707)
    std = random_state((("A", 4), ("E", 2)), 3, rng)
    (dst, hd), (cst, hc) = (_pure_with_h_ar((("A", 2), ("B", 4), ("R", 2)), +1, rng),
                            _pure_with_h_ar((("A", 2), ("B", 2), ("R", 4)), -1, rng))
    mc = maximally_correlated(random_density(3, 3, rng), ("C", "D"))
    cd = random_state((("C", 2), ("D", 2)), 3, rng)
    g = rng.standard_normal((3, 6)).view(complex)
    m = g @ g.conj().T
    d = np.sqrt(np.real(np.diag(m)))
    gram = m / np.outer(d, d)
    np.fill_diagonal(gram, 1.0)
    ch = generalized_dephasing(gram)
    h_std = sandwiched_cond_entropy(State(std.density, std.dims), ["A"], ["E"])
    h_d, h_c = (ConditionalEntropy(st.marginal("A", "R"), ["A"], ["R"]) for st in (dst, cst))
    p_mc, p_cd = PetzUpEntropy.of(mc, ["C"], ["D"]), PetzUpEntropy.of(cd, ["C"], ["D"])
    p_ch = PetzUpEntropy(Spectrum.of(ch.choi), ch.din)
    hi = 1.0 - 1e-9
    grid = np.linspace(0.02, 1.0, 20)
    petz = lambda e, conv: (_half(e.phi), lambda r: -0.5 * r, lambda r: None, hi, conv,
                            lambda r: conv and r >= e.phi(1.0)[1] - 1e-12)
    return {
        "standard": (lambda rates: standard_decoupling_curve(std, 2.0, rates),
                     h_std.phi, lambda r: 2.0 * r - 2.0,
                     lambda r: 2.0 * r - 2.0 + h_std.min_entropy(), 1.0, True,
                     lambda r: r <= -0.5 * h_std.phi(1.0)[1] + 1e-12, 2.0 * grid),
        "merging-d": (lambda rates: merging_curve(dst, ["A"], ["B"], ["R"], rates, "distill"),
                      _half(h_d.phi), lambda r: -0.5 * r, lambda r: 0.5 * (h_d.min_entropy() - r),
                      hi, True, lambda r: r >= h_d.phi(1.0)[1] - 1e-12, 0.98 * hd * grid),
        "merging-c": (lambda rates: merging_curve(cst, ["A"], ["B"], ["R"], rates, "cost"),
                      _half(h_c.phi), lambda r: 0.5 * r, lambda r: 0.5 * (h_c.min_entropy() + r),
                      hi, True, lambda r: r <= -h_c.phi(1.0)[1] + 1e-12, -hc + 2.0 * grid),
        "distill": (lambda rates: distillation_curve(mc, ["C"], ["D"], rates),
                    *petz(p_mc, True), 1.6 * grid),
        "distill-not-max-corr": (lambda rates: distillation_curve(cd, ["C"], ["D"], rates),
                                 *petz(p_cd, False), 1.6 * grid),
        "channel": (lambda rates: dephasing_channel_curve(ch, rates), *petz(p_ch, True),
                    1.6 * grid),
    }


@pytest.mark.parametrize("task", list(_grid_cases()))
def test_curves_match_a_brentq_search_per_rate(task):
    """Every grid function against scipy's brentq, one rate at a time.

    The lockstep search starts each rate's Brent steps on the grid cell of
    its root, and brentq on [S_MIN, s_hi] or [S_MIN, hi]; both stop within
    1e-12 of the root.  So the exponents and the maximizer must agree to
    1e-12, and every flag exactly, with that search per rate on a fresh
    entropy object.
    """
    curve, phi, c_of, asym_of, hi, converse, exact_of, rates = _grid_cases()[task]
    flags = set()
    for r, res in zip(rates, curve(rates)):
        r = float(r)
        ach, conv, s, capped, diverges = brentq_exponents(phi, c_of(r), asym_of(r), hi, converse)
        assert abs(res.achievable - ach) <= 1e-12, (task, r)
        assert res.converse == conv or abs(res.converse - conv) <= 1e-12, (task, r)
        assert abs(res.argmax_s - s) <= 1e-12, (task, r)
        assert (res.exact, res.converse_capped, res.converse_diverges) == (
            exact_of(r), capped, diverges), (task, r)
        flags.add((res.exact, res.converse_diverges))
    # each grid with a converse crosses a critical or a divergence rate
    assert len(flags) >= (1 if task == "distill-not-max-corr" else 2)


@pytest.mark.parametrize("task", ["standard", "merging-d", "merging-c", "distill", "channel"])
def test_one_root_per_rate_matches_a_direct_achievable_search(task, monkeypatch):
    """The achievable exponents read off the converse's roots, against their own search.

    The objective is concave, so its supremum on [S_MIN, hi] is at the
    converse maximizer s* when s* <= hi and at hi otherwise.  A direct
    ``concave_sup`` on [S_MIN, hi] on a fresh entropy object must give the
    same values and maximizers.  A curve makes one search per rate in all,
    in one lockstep call: up to S_CAP where the converse is finite, or up to
    hi for the rates whose converse diverges.
    """
    curve, phi, c_of, _, hi, _, _, rates = _grid_cases()[task]
    search = exponents.concave_sup
    calls = []
    monkeypatch.setattr(exponents, "concave_sup", lambda *a: calls.append(a) or search(*a))
    results = curve(rates)
    assert len(calls) == 1 and len(np.atleast_1d(calls[0][1])) == len(rates)
    direct = search(phi, np.array([c_of(float(r)) for r in rates]), S_MIN, hi)
    for res, s, v in zip(results, direct.argmax_s, direct.sup_value):
        assert abs(res.achievable - max(0.0, v)) <= 1e-12, task
        assert abs(res.argmax_s - s) <= 1e-12, task
    assert {res.argmax_s == hi for res in results} == {True, False}


def test_a_curve_leaves_no_reference_cycles():
    """A rate curve frees all it makes by reference counting.

    scipy's brentq wrapped its callable in a closure that refers to itself,
    so each root search left a cycle that kept the objects it reached alive
    until a cyclic garbage collection.
    """
    rates = np.linspace(0.1, 2.0, 20)
    dims = (("A", 4), ("E", 2))
    standard_decoupling_curve(random_state(dims, 3, make_rng(5)), 2.0, rates)
    gc.collect()
    gc.disable()
    try:
        results = standard_decoupling_curve(random_state(dims, 3, make_rng(6)), 2.0, rates)
        del results
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_phi_on_a_stack_matches_phi_at_each_float():
    """phi of a 1-D array gives, bit for bit, phi at each of its floats.

    Each order is computed on a fresh object, once in a stack (with a
    repeat) and once alone; the inputs include a rho_B with a kernel and a
    rank-deficient Petz rho.
    """
    rng = make_rng(909)
    kernel_b = np.zeros((6, 6), dtype=complex)
    kernel_b[np.ix_([0, 1, 3, 4], [0, 1, 3, 4])] = random_density(4, 4, rng)
    dims = (("A", 2), ("B", 3))
    states = [random_state(dims, 6, rng), random_state(dims, 2, rng), State(kernel_b, dims),
              random_state((("A", 2), ("B", 4)), 5, rng)]
    # integer orders 1 + s and 1 / (1 + s) included: numpy's power can round them
    # differently in a stack than alone
    ss = [1e-4, 0.3, 1.0 - 1e-9, 0.3, 0.5, 1.0, 2.0, 3.0, 7.0, 64.0]
    for st in states:
        for make in (lambda: ConditionalEntropy(st, ["A"], ["B"]),
                     lambda: PetzUpEntropy.of(st, ["A"], ["B"])):
            vals, slopes = make().phi(np.array(ss))
            singles = [make().phi(s) for s in ss]
            assert all(isinstance(x, float) for pair in singles for x in pair)
            assert vals.tolist() == [v for v, _ in singles]
            assert slopes.tolist() == [d for _, d in singles]


@pytest.mark.parametrize("mode", ["distill", "cost"])
def test_merging_duality_gap_is_pointwise(mode, monkeypatch):
    """duality_gap checks H~_{1+s}(A|R) = -Hup_{1/(1+s)}(A|B) at the one maximizer.

    The dual route makes one phi evaluation per rate, and on random pure
    states the two routes agree to roundoff at every rate.
    """
    dual = []
    phi = PetzUpEntropy.phi
    monkeypatch.setattr(PetzUpEntropy, "phi",
                        lambda self, s: dual.extend(np.ravel(s).tolist()) or phi(self, s))
    rng = make_rng(808 if mode == "distill" else 809)
    dims, sign = (((("A", 2), ("B", 4), ("R", 2)), +1) if mode == "distill"
                  else ((("A", 2), ("B", 2), ("R", 4)), -1))
    for _ in range(3):
        psi, h = _pure_with_h_ar(dims, sign, rng)
        grid = np.linspace(0.02, 1.0, 20)
        for r in (0.98 * h * grid if mode == "distill" else -h + 2.0 * grid):
            dual.clear()
            res = merging_exponents(psi, ["A"], ["B"], ["R"], float(r), mode)
            assert dual == [res.argmax_s]
            assert res.duality_gap <= 1e-10, (mode, r, res.duality_gap)
