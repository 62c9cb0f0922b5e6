import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecoupling.linalg import (
    as_hermitian,
    distinct_eigenvalue_count,
    eigenvalue_clusters,
    fidelity,
    mat_pow,
    partial_trace,
    positive_part_trace,
    purified_distance,
    tensor,
    trace_norm,
)
from qdecoupling.states import make_rng

from conftest import random_herm


def test_mat_pow_examples():
    assert np.allclose(mat_pow(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]), atol=1e-13)
    assert np.allclose(
        mat_pow(np.diag([0.2, 0.8]), 2.0), np.diag([0.04, 0.64]), atol=1e-14
    )


def test_mat_pow_kernel_and_projector():
    p = np.diag([0.7, 0.0, 0.3])
    assert np.allclose(mat_pow(p, -1.0), np.diag([1 / 0.7, 0.0, 1 / 0.3]), atol=1e-12)


def test_mat_pow_rejects_negative():
    with pytest.raises(ValueError):
        mat_pow(np.diag([1.0, -0.5]), 0.5)


def test_positive_part_trace_examples():
    assert positive_part_trace(np.diag([0.3, -0.1])) == pytest.approx(0.3, abs=1e-14)
    assert positive_part_trace(-np.eye(3)) == 0.0


def test_tensor_examples():
    assert np.allclose(tensor(np.eye(2), np.eye(3)), np.eye(6))
    assert np.allclose(tensor(np.diag([1.0, 2.0]), np.diag([3.0])), np.diag([3.0, 6.0]))
    z = np.diag([1.0, -1.0])
    assert np.allclose(tensor(z, z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_partial_trace_product():
    rng = make_rng(2)
    rho = random_herm(2, rng)
    sig = random_herm(3, rng)
    out = partial_trace(tensor(rho, sig), [2, 3], [0])
    assert np.allclose(out, rho * np.trace(sig), atol=1e-12)
    out2 = partial_trace(tensor(rho, sig), [2, 3], [1])
    assert np.allclose(out2, sig * np.trace(rho), atol=1e-12)


def test_partial_trace_keep_all_and_errors():
    rho = np.eye(4) / 4
    assert np.allclose(partial_trace(rho, [2, 2], [0, 1]), rho)
    with pytest.raises(ValueError):
        partial_trace(rho, [2, 2], [])
    with pytest.raises(ValueError):
        partial_trace(rho, [2, 2], [2])


def test_fidelity_and_distances_self():
    rng = make_rng(3)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert purified_distance(rho, rho) == pytest.approx(0.0, abs=1e-5)


def test_fidelity_orthogonal():
    a = np.diag([1.0, 0.0])
    b = np.diag([0.0, 1.0])
    assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)


def test_distinct_eigenvalue_count_examples():
    assert distinct_eigenvalue_count(np.diag([0.5, 0.25, 0.25])) == 2
    assert distinct_eigenvalue_count(np.eye(4)) == 1
    # a split below the clustering tolerance is merged
    assert distinct_eigenvalue_count(np.diag([0.3, 0.3 + 1e-12, 0.4])) == 2


def test_eigenvalue_clusters_projectors_resolve_identity():
    h = random_herm(5, make_rng(4))
    clusters = eigenvalue_clusters(h)
    total = sum(p for _, p in clusters)
    assert np.allclose(total, np.eye(5), atol=1e-12)
    rebuilt = sum(v * p for v, p in clusters)
    assert np.allclose(rebuilt, h, atol=1e-8)


def test_as_hermitian_rejects_asymmetric():
    with pytest.raises(ValueError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        as_hermitian(np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_as_hermitian_checks_each_matrix_of_a_stack():
    rng = make_rng(6)
    stack = np.array([random_herm(3, rng) for _ in range(4)])
    stack[2, 0, 1] += 1e-12  # roundoff-level asymmetry is absorbed
    sym = as_hermitian(stack)
    for m, s in zip(stack, sym):
        assert np.array_equal(s, as_hermitian(m))
    # a small matrix is judged on its own scale, not on the stack's
    bad = np.array([1e6 * np.eye(2), [[0.0, 1e-3], [0.0, 0.0]]])
    with pytest.raises(ValueError, match="not Hermitian"):
        as_hermitian(bad)
    stack[3, 1, 1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        as_hermitian(stack)


def test_trace_norm_matches_abs_eigvals():
    h = random_herm(4, make_rng(5))
    assert trace_norm(h) == pytest.approx(float(np.sum(np.abs(np.linalg.eigvalsh(h)))), abs=1e-10)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), d1=st.integers(2, 3), d2=st.integers(2, 3))
def test_partial_trace_preserves_trace(seed, d1, d2):
    rng = make_rng(seed)
    g = rng.standard_normal((d1 * d2, d1 * d2)) + 1j * rng.standard_normal((d1 * d2, d1 * d2))
    m = g @ g.conj().T
    t0 = np.trace(m).real
    assert np.trace(partial_trace(m, [d1, d2], [0])).real == pytest.approx(t0, rel=1e-10)
    assert np.trace(partial_trace(m, [d1, d2], [1])).real == pytest.approx(t0, rel=1e-10)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), t=st.floats(0.1, 3.0))
def test_mat_pow_multiplicative(seed, t):
    rng = make_rng(seed)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = g @ g.conj().T
    assert np.allclose(mat_pow(p, t) @ mat_pow(p, 1.0 - t), p, atol=1e-8 * np.trace(p).real)
