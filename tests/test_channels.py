import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdecoupling.channels import (
    Channel,
    apply_channel,
    channel_from_kraus,
    full_trace_channel,
    generalized_dephasing,
    identity_channel,
    kraus_operators,
    partial_trace_channel,
    pinching_channel,
    random_channel,
)
from qdecoupling.linalg import distinct_eigenvalue_count, partial_trace, tensor
from qdecoupling.states import State, make_rng, random_density, random_state

from conftest import apply_kraus


def test_identity_channel(rng):
    st_ = random_state((("A", 3), ("B", 2)), 4, rng)
    out = apply_channel(identity_channel(3), st_, "A")
    assert np.allclose(out.density, st_.density, atol=1e-12)


def test_partial_trace_channel_on_product(rng):
    rho = random_density(2, 2, rng)
    sig = random_density(3, 3, rng)
    st_ = State(tensor(rho, sig), (("A", 6),))
    out = apply_channel(partial_trace_channel(2, 3), st_, "A")
    assert np.allclose(out.density, rho, atol=1e-12)


def test_full_trace_channel(rng):
    st_ = random_state((("A", 3),), 3, rng)
    out = apply_channel(full_trace_channel(3), st_, "A")
    assert out.density.shape == (1, 1)
    assert out.density[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_pinching_nondegenerate_fully_dephases(rng):
    h = np.diag([1.0, 2.0, 5.0])
    ch = pinching_channel(h)
    rho = random_density(3, 3, rng)
    out = apply_channel(ch, State(rho, (("A", 3),)), "A")
    assert np.allclose(out.density, np.diag(np.diag(rho)), atol=1e-12)


def test_pinching_degenerate_keeps_block(rng):
    h = np.diag([1.0, 1.0, 5.0])
    ch = pinching_channel(h)
    rho = random_density(3, 3, rng)
    out = apply_channel(ch, State(rho, (("A", 3),)), "A").density
    assert np.allclose(out[:2, :2], rho[:2, :2], atol=1e-12)
    assert np.allclose(out[:2, 2], 0.0, atol=1e-12)


def test_pinching_operator_inequality(rng):
    # v * pinched(sigma) >= sigma with v the number of distinct eigenvalues
    for _ in range(25):
        d = int(rng.integers(2, 6))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = 0.5 * (g + g.conj().T)
        sig = random_density(d, d, rng)
        ch = pinching_channel(h)
        out = apply_channel(ch, State(sig, (("A", d),)), "A").density
        v = distinct_eigenvalue_count(h)
        assert float(np.min(np.linalg.eigvalsh(v * out - sig))) > -1e-10


def test_generalized_dephasing_identity_gram(rng):
    ch = generalized_dephasing(np.eye(3))
    rho = random_density(3, 3, rng)
    out = apply_channel(ch, State(rho, (("A", 3),)), "A")
    assert np.allclose(out.density, np.diag(np.diag(rho)), atol=1e-12)


def test_generalized_dephasing_entrywise(rng):
    g = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
    ch = generalized_dephasing(g)
    rho = random_density(2, 2, rng)
    out = apply_channel(ch, State(rho, (("A", 2),)), "A").density
    assert np.allclose(out, rho * g.conj(), atol=1e-12)


def test_generalized_dephasing_validation():
    with pytest.raises(ValueError):
        generalized_dephasing(np.diag([1.0, 0.5]))
    with pytest.raises(ValueError):
        generalized_dephasing(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_choi_marginal_is_max_mixed(rng):
    ch = random_channel(3, 2, rng)
    marg = partial_trace(ch.choi, [3, 2], [0])
    assert np.allclose(marg, np.eye(3) / 3, atol=1e-10)


def test_kraus_roundtrip(rng):
    ch = random_channel(2, 3, rng)
    rebuilt = channel_from_kraus(kraus_operators(ch))
    assert np.allclose(rebuilt.choi, ch.choi, atol=1e-10)
    total = sum(k.conj().T @ k for k in kraus_operators(ch))
    assert np.allclose(total, np.eye(2), atol=1e-10)


def test_kraus_built_channel_returns_its_own_operators(rng):
    iso = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0]
    given = [iso[:3], iso[3:]]
    expected = np.array(given)
    ch = channel_from_kraus(given)
    kraus = kraus_operators(ch)
    assert kraus.shape == (2, 3, 2) and np.array_equal(kraus, expected)
    assert kraus_operators(ch) is kraus and not kraus.flags.writeable
    given[0][:] = 0.0  # the channel keeps a copy, not the caller's arrays
    assert np.array_equal(kraus_operators(ch), expected)


def test_random_channel_roundtrips_through_kraus_array(rng):
    ch = random_channel(3, 2, rng)
    kraus = kraus_operators(ch)
    assert kraus.shape == (6, 2, 3)  # a full-rank Choi matrix
    assert np.allclose(np.einsum("kci,kcj->ij", kraus.conj(), kraus), np.eye(3), atol=1e-10)
    assert np.allclose(channel_from_kraus(kraus).choi, ch.choi, atol=1e-10)


def test_channel_validation():
    with pytest.raises(ValueError, match="marginal"):
        Channel(2, 2, np.eye(4))  # marginal is I/2 only after /4 scaling
    with pytest.raises(ValueError, match="PSD"):
        Channel(2, 2, -np.eye(4) / 4)
    not_psd = np.eye(4) / 4
    not_psd[0, 3] = not_psd[3, 0] = 0.5  # diagonal blocks intact, so the marginal is I/2
    with pytest.raises(ValueError, match="PSD"):
        Channel(2, 2, not_psd)
    with pytest.raises(ValueError, match="marginal"):
        channel_from_kraus([np.eye(2), np.eye(2)])  # not trace preserving


@pytest.mark.parametrize("make, args", [(identity_channel, (3,)), (partial_trace_channel, (2, 3)),
                                        (full_trace_channel, (4,))])
def test_package_channels_skip_validation_and_match_the_checked_route(make, args, monkeypatch):
    """The channels the package writes itself are built unchecked, with the bits of the
    checked route: the public constructor accepts their Choi matrix unchanged."""
    ch = make(*args)
    checked = Channel(ch.din, ch.dout, ch.choi)
    assert np.array_equal(checked.choi, ch.choi)
    assert np.array_equal(channel_from_kraus(kraus_operators(ch)).choi, ch.choi)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or eigvalsh(*a, **k))
    make(*args)
    assert calls == []


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6))
def test_choi_and_kraus_routes_agree(seed):
    rng = make_rng(seed)
    ch = random_channel(2, 2, rng)
    st_ = random_state((("A", 2), ("B", 2)), 3, rng)
    a = apply_channel(ch, st_, "A")
    b = apply_kraus(ch, st_, "A")
    assert np.allclose(a.density, b.density, atol=1e-10)
    assert a.dims == b.dims


def test_apply_channel_changes_dimension(rng):
    ch = random_channel(2, 3, rng)
    st_ = random_state((("B", 2), ("A", 2)), 2, rng)
    out = apply_channel(ch, st_, "A")
    assert out.dims == (("B", 2), ("A", 3))
    assert np.trace(out.density).real == pytest.approx(1.0, abs=1e-10)
    # the untouched marginal is preserved
    assert np.allclose(out.marginal("B").density, st_.marginal("B").density, atol=1e-10)
