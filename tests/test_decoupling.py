import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdecoupling.decoupling as decoupling
from qdecoupling.channels import (
    channel_from_kraus,
    full_trace_channel,
    identity_channel,
    random_channel,
)
from qdecoupling.decoupling import (
    DecouplingInstance,
    decoupling_error_lower_bound,
    decoupling_error_sample,
    decoupling_error_upper_bound,
    decoupling_error_upper_bound_optimized,
    mc_decoupling_error,
    positive_part_inequality_sweep,
    prefactor,
    sharp_trace_inequality,
    standard_instance,
)
from qdecoupling.exponents import S_MIN, decoupling_phi
from qdecoupling.linalg import positive_part_trace, tensor
from qdecoupling.states import (
    State,
    haar_unitaries,
    haar_unitary,
    make_rng,
    max_entangled,
    random_density,
    random_state,
)

from conftest import brentq_concave_sup


def product_instance(rng, da1=2, da2=2, de=2):
    sig = random_density(de, de, rng)
    rho = State(tensor(np.eye(da1 * da2) / (da1 * da2), sig),
                (("A", da1 * da2), ("E", de)))
    return standard_instance(rho, da1, da2)


def test_prefactor_values():
    assert prefactor(1.0) == 1.0
    assert prefactor(0.5) == pytest.approx(0.5, abs=1e-12)
    for s in (0.1, 0.3, 0.7, 0.99):
        assert 0.0 < prefactor(s) <= 1.0
    with pytest.raises(ValueError):
        prefactor(0.0)
    with pytest.raises(ValueError):
        prefactor(1.5)


def test_instance_validation(rng):
    st_ = random_state((("E", 2), ("A", 4)), 2, rng)
    with pytest.raises(ValueError):
        DecouplingInstance(st_, full_trace_channel(4))
    with pytest.raises(ValueError):
        standard_instance(random_state((("A", 4), ("E", 2)), 2, rng), 2, 3)


def test_decoupled_instance_has_zero_error(rng):
    inst = product_instance(rng)
    for _ in range(5):
        u = haar_unitary(4, rng)
        assert decoupling_error_sample(inst, u) == pytest.approx(0.0, abs=1e-10)
    est = mc_decoupling_error(inst, n_samples=10, seed=5)
    assert est.mean == pytest.approx(0.0, abs=1e-10)
    assert est.stderr == pytest.approx(0.0, abs=1e-10)
    assert est.n_infinite == 0


def test_full_trace_makes_error_zero(rng):
    rho = random_state((("A", 4), ("E", 2)), 3, rng)
    inst = DecouplingInstance(rho, full_trace_channel(4))
    u = haar_unitary(4, rng)
    assert decoupling_error_sample(inst, u) == pytest.approx(0.0, abs=1e-10)


def test_max_entangled_instance_sample_value():
    # tracing out half of a maximally entangled state of two qubits leaves
    # I/2 x I/2 vs the actual joint state: D = log2(4) = 2
    phi = max_entangled(4, ("A", "E"))
    inst = standard_instance(phi, 2, 2)
    rng = make_rng(0)
    vals = [decoupling_error_sample(inst, haar_unitary(4, rng)) for _ in range(5)]
    for v in vals:
        assert v == pytest.approx(2.0, abs=1e-8)


def test_mc_reproducibility(rng):
    inst = standard_instance(random_state((("A", 4), ("E", 2)), 3, rng), 2, 2)
    a = mc_decoupling_error(inst, n_samples=20, seed=9)
    b = mc_decoupling_error(inst, n_samples=20, seed=9)
    assert np.array_equal(a.per_sample, b.per_sample)
    c = mc_decoupling_error(inst, n_samples=20, seed=10)
    assert not np.array_equal(a.per_sample, c.per_sample)


def _equivalence_instances():
    rng = make_rng(808)
    out = [(f"e{de}-rank{rank}",
            standard_instance(random_state((("A", 4), ("E", de)), rank, rng), 2, 2))
           for de in (2, 3) for rank in (1, 2, 3, 4)]
    out.append(("product", product_instance(rng)))
    out.append(("full-trace",
                DecouplingInstance(random_state((("A", 4), ("E", 2)), 3, rng),
                                   full_trace_channel(4))))
    # a random channel A -> C with |A| = 4, |C| = 3: two Kraus operators
    # cut from a 6 x 4 isometry
    iso = haar_unitary(6, rng)[:, :4]
    kraus = channel_from_kraus([iso[:3], iso[3:]])
    out.append(("kraus", DecouplingInstance(random_state((("A", 4), ("E", 3)), 2, rng), kraus)))
    # Kraus rank 1, and a full-rank Choi matrix whose 8 Kraus operators come
    # from its eigendecomposition (the instances above have rank 2 or 4)
    out.append(("identity", DecouplingInstance(random_state((("A", 4), ("E", 2)), 3, rng),
                                               identity_channel(4))))
    out.append(("random", DecouplingInstance(random_state((("A", 4), ("E", 3)), 2, rng),
                                             random_channel(4, 2, rng))))
    return out


@pytest.mark.parametrize("name, inst", _equivalence_instances())
def test_mc_matches_the_per_sample_loop(name, inst):
    """Stacked estimator == decoupling_error_sample on the same Haar draws.

    The draws are sequential, so the first n of a 300-sample loop are the
    draws of an n-sample run.  With chunks of 64, 2 is one partial chunk,
    128 two full ones, and 129 and 300 end 1 and 44 samples into a chunk.
    """
    rng = make_rng(31)
    ref = np.array([decoupling_error_sample(inst, haar_unitary(inst.dim_a, rng))
                    for _ in range(300)])
    assert np.all(np.isfinite(ref))
    for n in (2, 128, 129, 300):
        est = mc_decoupling_error(inst, n_samples=n, seed=31)
        assert len(est.per_sample) == n and est.n_infinite == 0
        assert np.max(np.abs(est.per_sample - ref[:n])) <= 1e-13
        assert est.mean == pytest.approx(np.mean(ref[:n]), abs=1e-13)
        assert est.stderr == pytest.approx(np.std(ref[:n], ddof=1) / math.sqrt(n), abs=1e-13)


def test_mc_peak_memory():
    """The traced peak of a 500-sample run at |A| = 4, |E| = 3 stays under 512 KB.

    With stacks of MC_CHUNK = 64 the Kraus route peaks near 365 KB; building
    each stack's rotated rho_AE, or raising the chunk size, pushes it past
    the bound (about 730 KB for the rotated stack).
    """
    inst = standard_instance(random_state((("A", 4), ("E", 3)), 2, make_rng(2)), 2, 2)
    mc_decoupling_error(inst, 20)  # the Kraus memo and numpy's lazy set-up
    tracemalloc.start()
    try:
        mc_decoupling_error(inst, 500)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024


class _LeakyTarget(DecouplingInstance):
    """Identity channel on a qutrit A, scored against (I/2 + 0) x rho_E.

    The target misses |2>, so a unitary that keeps A inside span{|0>, |1>}
    gives a finite sample and a generic one leaks out of the support.
    """

    @property
    def omega_c(self):
        return np.diag([0.5, 0.5, 0.0])


def test_mc_leaking_samples_are_infinite(monkeypatch):
    rng = make_rng(44)
    rho_a = np.zeros((3, 3), dtype=complex)
    rho_a[:2, :2] = random_density(2, 2, rng)
    rho = State(np.kron(rho_a, random_density(2, 2, rng)), (("A", 3), ("E", 2)))
    inst = _LeakyTarget(rho, identity_channel(3))

    drawn = []

    def sampler(d, n, rng):
        u = haar_unitaries(d, n, rng)
        u[::3] = 0.0  # every third sample of a stack: a unitary on span{|0>, |1>}
        u[::3, :2, :2] = haar_unitaries(2, len(u[::3]), rng)
        u[::3, 2, 2] = 1.0
        drawn.append(u)
        return u

    monkeypatch.setattr(decoupling, "haar_unitaries", sampler)
    est = mc_decoupling_error(inst, n_samples=200, seed=3)
    unitaries = np.concatenate(drawn)
    ref = np.array([decoupling_error_sample(inst, u) for u in unitaries])
    finite = np.isfinite(ref)
    # exactly the samples that keep A inside span{|0>, |1>} stay finite
    assert len(ref) == 200
    assert np.array_equal(finite, np.abs(unitaries[:, 2, 2]) == 1.0)
    n_finite = np.count_nonzero(finite)
    assert 0 < n_finite < 200 and est.n_infinite == 200 - n_finite and not est.is_finite
    assert np.all(np.isnan(est.per_sample[~finite]))
    assert np.max(np.abs(est.per_sample[finite] - ref[finite])) <= 1e-13
    assert est.mean == pytest.approx(np.mean(ref[finite]), abs=1e-13)
    assert est.stderr == pytest.approx(
        np.std(ref[finite], ddof=1) / math.sqrt(n_finite), abs=1e-13)


def test_upper_bound_dominates_mc(rng):
    """The one-shot bound holds for the error in nats (bits times ln 2).  On 2 x 2
    splits the error in bits stays below it too; on 4 x 2, 4 x 4 and 8 x 2 splits
    the error in bits can exceed it."""
    for _ in range(5):
        inst = standard_instance(random_state((("A", 4), ("E", 2)), 4, rng), 2, 2)
        est = mc_decoupling_error(inst, n_samples=80, seed=1)
        bound, s_star = decoupling_error_upper_bound_optimized(inst)
        assert 0 < s_star <= 1.0
        assert est.mean - 3 * est.stderr <= bound
        # the optimized bound is the minimum over the s grid
        for s in (0.1, 0.5, 0.9, 1.0):
            assert bound <= decoupling_error_upper_bound(inst, s) + 1e-9
    for d1, d2 in ((4, 2), (4, 4), (8, 2)):
        for de, rank in ((1, 1), (2, 1), (2, 3)):
            state = random_state((("A", d1 * d2), ("E", de)), rank, rng)
            inst = standard_instance(state, d1, d2)
            est = mc_decoupling_error(inst, n_samples=80, seed=1)
            bound, s_star = decoupling_error_upper_bound_optimized(inst)
            assert 0 < s_star <= 1.0
            assert (est.mean - 3 * est.stderr) * math.log(2.0) <= bound


def test_bound_search_matches_a_brentq_search():
    """The optimized bound against scipy's brentq on the log-bound's slope.

    The reference runs on fresh copies of each input, with phi at floats,
    over [S_MIN, 1 - 1e-9] from its two endpoints; the search under test
    starts on the grid cell that holds the root.  Both stop within 1e-12 of
    the root, and the bound is flat there, so s* agrees to 1e-12 and the
    bound to 1e-14 relative, on |A| = 4 states of every rank with |E| = 2, 3.
    """
    rng = make_rng(31)
    cases = [random_state((("A", 4), ("E", de)), rank, rng)
             for de in (2, 3) for rank in range(1, 4 * de + 1)]
    assert len(cases) == 20
    for state in cases:
        bound, s = decoupling_error_upper_bound_optimized(standard_instance(state, 2, 2))
        fresh = standard_instance(State(state.density, state.dims), 2, 2)
        phi = decoupling_phi(fresh.rho_ae, fresh.channel)

        def neg_log(x):
            v, d = phi(x)
            logit = math.log(x / (1.0 - x))
            return math.log(2.0) * v + (1.0 - x) * logit, 1.0 / x + math.log(2.0) * d - logit

        s_ref, _ = brentq_concave_sup(neg_log, 0.0, S_MIN, 1.0 - 1e-9)
        assert abs(s - s_ref) <= 1e-12, (state.dims, s, s_ref)
        ref = decoupling_error_upper_bound(fresh, s_ref)
        assert abs(bound - ref) <= 1e-14 * ref, (state.dims, bound, ref)


def test_lower_bound_sandwich(rng):
    for _ in range(5):
        rho = random_state((("A", 4), ("E", 2)), 2, rng)
        inst = standard_instance(rho, 2, 2)
        lower = decoupling_error_lower_bound(rho, 2, 2)
        est = mc_decoupling_error(inst, n_samples=80, seed=2)
        assert lower >= 0.0
        assert lower <= est.mean + 3 * est.stderr


def test_lower_bound_validation(rng):
    with pytest.raises(ValueError):
        decoupling_error_lower_bound(random_state((("A", 4), ("E", 2)), 2, rng), 3, 2)


def test_sharp_trace_equal_arguments(rng):
    rho = random_density(4, 4, rng)
    for s in (0.1, 0.5, 1.0):
        lhs, rhs = sharp_trace_inequality(rho, rho, s)
        assert lhs <= rhs + 1e-9
    # lhs is tr(rho(log 2rho - log rho)) = 1 exactly
    lhs, _ = sharp_trace_inequality(rho, rho, 0.5)
    assert lhs == pytest.approx(1.0, abs=1e-9)


def test_sharp_trace_support_precondition():
    rho = np.diag([1.0, 0.0])
    sig = np.diag([0.0, 1.0])
    with pytest.raises(ValueError):
        sharp_trace_inequality(rho, sig, 0.5)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), s=st.floats(0.05, 1.0))
def test_sharp_trace_random(seed, s):
    rng = make_rng(seed)
    d = int(rng.integers(2, 9))
    lhs, rhs = sharp_trace_inequality(random_density(d, d, rng), random_density(d, d, rng), s)
    assert lhs <= rhs + 1e-9


def test_positive_part_superadditivity_two_terms(rng):
    for _ in range(20):
        g1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        g2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a, b = g1 @ g1.conj().T / 4, g2 @ g2.conj().T / 4
        lam = float(rng.uniform(0.0, 2.0))
        eye = np.eye(4)
        lhs = positive_part_trace(a + b - lam * eye)
        rhs = positive_part_trace(a - lam * eye) + positive_part_trace(b - lam * eye)
        assert lhs >= rhs - 1e-10


def test_positive_part_sweep_clean():
    rep = positive_part_inequality_sweep(300, seed=17)
    assert rep.superadditivity_violation <= 1e-9
    assert rep.relent_floor_violation <= 1e-9
    assert rep.max_violation <= 1e-9
    assert rep.n_samples == 300
