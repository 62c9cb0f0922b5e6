import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecoupling.linalg import tensor
from qdecoupling.states import (
    State,
    _embed_swap,
    haar_second_moment_exact,
    haar_unitaries,
    haar_unitary,
    heisenberg_weyl,
    make_rng,
    max_entangled,
    maximally_correlated,
    random_density,
    random_pure,
    random_state,
)
from qdecoupling import verify
from qdecoupling.verify import SUITES, haar2_deviations

from conftest import purify


def test_state_validation():
    with pytest.raises(ValueError):
        State(np.eye(4) / 4, (("A", 2), ("B", 3)))  # dim mismatch
    with pytest.raises(ValueError):
        State(np.eye(4) / 4, (("A", 2), ("A", 2)))  # duplicate labels
    with pytest.raises(ValueError):
        State(np.diag([1.5, -0.5]), (("A", 2),))  # not PSD
    with pytest.raises(ValueError):
        State(np.eye(2), (("A", 2),))  # trace 2
    with pytest.raises(ValueError):
        State(np.eye(2) / 4, (("A", 2),))  # trace 0.5


def test_state_permute_marginal_roundtrip(rng):
    st_ = random_state((("A", 2), ("B", 3), ("C", 2)), 5, rng)
    perm = st_.permuted("C", "A", "B")
    assert perm.labels == ("C", "A", "B")
    back = perm.permuted("A", "B", "C")
    assert np.allclose(back.density, st_.density, atol=1e-14)
    # marginals commute with permutation
    m1 = st_.marginal("A", "C").density
    m2 = perm.marginal("C", "A").permuted("A", "C").density
    assert np.allclose(m1, m2, atol=1e-12)


def test_max_entangled_properties():
    phi = max_entangled(2)
    assert np.allclose(phi.marginal("A").density, np.eye(2) / 2, atol=1e-14)
    assert np.trace(phi.density @ phi.density).real == pytest.approx(1.0, abs=1e-12)


def test_haar_unitary_d1_and_unitarity(rng):
    u1 = haar_unitary(1, rng)
    assert abs(abs(u1[0, 0]) - 1.0) < 1e-12
    u = haar_unitary(5, rng)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


def _ginibre_qr_unitary(d, rng):
    """One draw as Ginibre + QR with a phase-fixed diagonal, written out."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    ph = np.diag(r)
    return q * (ph / np.abs(ph))


@pytest.mark.parametrize("d", [1, 2, 4, 5])
def test_haar_unitaries_are_the_haar_unitary_draws(d):
    rngs = [make_rng(3) for _ in range(3)]
    stacked = haar_unitaries(d, 7, rngs[0])
    assert stacked.shape == (7, d, d)
    assert np.array_equal(stacked, [haar_unitary(d, rngs[1]) for _ in range(7)])
    assert np.array_equal(stacked, [_ginibre_qr_unitary(d, rngs[2]) for _ in range(7)])
    # all three leave the generator at the same point
    assert len({r.standard_normal() for r in rngs}) == 1


def _haar2_loop(n, rng):
    """haar2_deviations as one outer product per Haar sample."""
    worst_mc, worst_twirl = -math.inf, 0.0
    for d in (2, 3):
        exact = haar_second_moment_exact(d)
        phi = np.eye(d).reshape(d * d) / np.sqrt(d)
        acc = np.zeros((d**4, d**4), dtype=complex)
        acc2 = np.zeros((d**4, d**4))
        for _ in range(n):
            vec = np.kron(haar_unitary(d, rng), np.eye(d)) @ phi
            samp = np.outer(np.kron(vec, vec), np.kron(vec, vec).conj())
            acc += samp
            acc2 += np.abs(samp) ** 2
        mean = acc / n
        stderr = np.sqrt(np.maximum(acc2 / n - np.abs(mean) ** 2, 0.0) / n)
        worst_mc = max(worst_mc, float(np.max(np.abs(mean - exact) - 4.0 * stderr)))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        tw = sum(u @ m @ u.conj().T for u in heisenberg_weyl(d)) / d**2
        worst_twirl = max(worst_twirl, float(np.max(np.abs(tw - np.trace(m) * np.eye(d) / d))))
    return worst_mc, worst_twirl


@pytest.mark.parametrize("n", [1, 64, 65, 300])
def test_haar2_deviations_match_the_per_sample_loop(n):
    """The stacks of 64 give the loop's values; n = 64, 65 and 300 end a stack
    exactly, one sample into a new stack, and part way through the fifth."""
    rngs = [make_rng(3), make_rng(3)]
    got, want = haar2_deviations(n, rngs[0]), _haar2_loop(n, rngs[1])
    assert got[0] == pytest.approx(want[0], rel=0, abs=1e-15)
    assert got[1] == pytest.approx(want[1], rel=0, abs=1e-15)
    # the same draws, in the same order
    assert rngs[0].standard_normal() == rngs[1].standard_normal()


def test_haar2_suite_gates_every_entry_at_once(monkeypatch):
    """The haar2 suite fails only past 6 standard errors, Bonferroni over the 256 + 6561
    entries: a false alarm in at most 1.35e-5 of runs.  The draw that
    ``verify --suite all --trials 50 --seed 3`` gives it (stream 4) has one entry at
    4.005 standard errors, which failed correct code at 4; it passes.  An exact moment
    without its cross terms, 72 standard errors off at n = 1000, still fails."""
    assert sum(d**8 for d in (2, 3)) * math.erfc(6.0 / math.sqrt(2.0)) < 1.35e-5
    assert haar2_deviations(1000, make_rng(3, stream=4))[0] > 0  # the 4-se rule fails it
    assert haar2_deviations(1000, make_rng(3, stream=4), 6.0)[0] < 0
    worst, tol, _ = SUITES["haar2"](50, make_rng(3, stream=4))
    assert worst <= tol

    def without_cross_terms(d):  # c_main (I + F_A F_A'), the c_cross term dropped
        f_a, f_ap = _embed_swap(d, 4, 0, 2), _embed_swap(d, 4, 1, 3)
        return (np.eye(d**4) + f_a @ f_ap) / (d * d * (d * d - 1))

    monkeypatch.setattr(verify, "haar_second_moment_exact", without_cross_terms)
    worst, tol, _ = SUITES["haar2"](50, make_rng(3, stream=4))
    assert worst > 0.05


def test_make_rng_determinism():
    a = make_rng(42).standard_normal(8)
    b = make_rng(42).standard_normal(8)
    c = make_rng(42, stream=1).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_haar_second_moment_is_a_state():
    for d in (2, 3):
        m = haar_second_moment_exact(d)
        assert np.allclose(m, m.conj().T, atol=1e-14)
        vals = np.linalg.eigvalsh(m)
        assert vals[0] > -1e-14
        assert np.trace(m).real == pytest.approx(1.0, abs=1e-12)


def test_haar_second_moment_fixed_points():
    # the average must be invariant under further rotation by any unitary
    d = 2
    m = haar_second_moment_exact(d)
    rng = make_rng(11)
    v = haar_unitary(d, rng)
    big = tensor(v, np.eye(d), v, np.eye(d))
    assert np.allclose(big @ m @ big.conj().T, m, atol=1e-12)


def test_heisenberg_weyl_small():
    assert len(heisenberg_weyl(1)) == 1
    assert np.allclose(heisenberg_weyl(1)[0], np.array([[1.0]]))
    ops = heisenberg_weyl(2)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    refs = [np.eye(2), z, x, x @ z]
    for got, ref in zip(ops, refs):
        # equal up to a global phase
        ov = abs(np.trace(got.conj().T @ ref)) / 2
        assert ov == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_heisenberg_weyl_twirl_oracle(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    tw = sum(u @ m @ u.conj().T for u in heisenberg_weyl(d)) / d**2
    assert np.allclose(tw, np.trace(m) * np.eye(d) / d, atol=1e-12)


def test_maximally_correlated_examples(rng):
    p = np.array([0.2, 0.5, 0.3])
    cls = maximally_correlated(np.diag(p))
    expect = np.zeros((9, 9))
    for x in range(3):
        expect[x * 3 + x, x * 3 + x] = p[x]
    assert np.allclose(cls.density, expect, atol=1e-14)

    c = np.full((2, 2), 0.5)
    phi = maximally_correlated(c)
    assert np.allclose(phi.density, max_entangled(2).density, atol=1e-14)

    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    coeffs = g @ g.conj().T
    coeffs /= np.trace(coeffs).real
    mc = maximally_correlated(coeffs)
    assert np.allclose(mc.marginal("A").density, np.diag(np.diag(coeffs)), atol=1e-12)
    assert np.allclose(mc.marginal("B").density, np.diag(np.diag(coeffs)), atol=1e-12)


def test_random_density_rank_and_mean(rng):
    pure = random_density(4, 1, rng)
    assert np.trace(pure @ pure).real == pytest.approx(1.0, abs=1e-10)
    mean = sum(random_density(3, 3, rng) for _ in range(3000)) / 3000
    assert np.max(np.abs(mean - np.eye(3) / 3)) < 0.02


def test_purify_max_mixed():
    psi = purify(State(np.eye(2) / 2, (("A", 2),)))
    assert np.trace(psi.density @ psi.density).real == pytest.approx(1.0, abs=1e-10)
    phi = max_entangled(2, ("A", "P"))
    assert np.allclose(psi.density, phi.density, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), rank=st.integers(1, 4))
def test_purify_marginal_recovers_state(seed, rank):
    rng = make_rng(seed)
    st_ = random_state((("A", 2), ("B", 2)), rank, rng)
    psi = purify(st_)
    assert np.allclose(psi.marginal("A", "B").density, st_.density, atol=1e-10)


def test_random_pure_is_pure(rng):
    psi = random_pure((("A", 2), ("B", 3)), rng)
    assert np.trace(psi.density @ psi.density).real == pytest.approx(1.0, abs=1e-12)
