"""The one spectral primitive and the single validation point of ``State``.

Every eigensolve goes through ``linalg.Spectrum``, each operand is
decomposed at most once per call, states derived from valid states skip
the spectral check that the public constructor runs, a rate curve on
one state decomposes each of its operands once per distinct order, and
the Monte Carlo estimator solves one stack of samples at a time.
"""

import numpy as np
import pytest

from qdecoupling.channels import apply_channel, random_channel
from qdecoupling.condentropy import EntropyKind, cond_entropy, minimized_conditioning
from qdecoupling.decoupling import (
    decoupling_error_sample,
    mc_decoupling_error,
    standard_instance,
)
from qdecoupling.divergences import d_max, petz_renyi, sandwiched_renyi, umegaki
from qdecoupling.exponents import standard_decoupling_exponents
from qdecoupling.linalg import Spectrum
from qdecoupling.states import State, haar_unitary, make_rng, random_density, random_state


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
    """count(fn, *args) -> (eigh calls, eigvalsh calls) made by fn(*args)."""
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        def counted(*args, _name=name, _orig=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def count(fn, *args):
        counts.update(eigh=0, eigvalsh=0)
        fn(*args)
        return counts["eigh"], counts["eigvalsh"]

    return count


def test_eigensolves_per_call(solves, rng):
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
    kind = EntropyKind("sandwiched", 1.5)
    assert solves(cond_entropy, state, ["A"], ["E"], kind) == (2, 0)
    assert solves(decoupling_error_sample, inst, u) == (1, 1)
    assert solves(state.marginal, "E") == (0, 0)
    assert solves(state.permuted, "E", "A") == (0, 0)
    assert solves(State, rho, (("A", 3),)) == (0, 1)


def test_eigensolves_of_mc(solves):
    """One eigh of the fixed target and one stacked eigvalsh per chunk of 64.

    The per-sample loop it replaced made 2 eigh per sample, 1000 in all.
    """
    state = random_state((("A", 4), ("E", 3)), 2, make_rng(2))
    inst = standard_instance(state, 2, 2)
    assert solves(mc_decoupling_error, inst, 500) == (1, 8)


def test_eigensolves_of_a_rate_curve(solves):
    """A 20-rate standard decoupling sweep on one 8 x 8 state of rank 3.

    I_A x rho_E is decomposed once and rho_AE's d_max kernel once; every
    other eigh is one distinct order 1 + s of the sandwiched entropy.
    """
    state = random_state((("A", 4), ("E", 2)), 3, make_rng(1))

    def sweep():
        for r in np.linspace(0.1, 2.0, 20):
            standard_decoupling_exponents(state, 2.0, float(r))

    assert solves(sweep) == (298, 1)
    # the second sweep on the same state finds every value in its memo
    assert solves(sweep) == (0, 0)


def test_eigensolves_of_mirror_descent(solves):
    """One sandwiched minimization at |B| = 2 and at |B| = 4, alpha = 1.5.

    Three eigh set up (rho_B, the start and its objective); each trial
    point of the line search costs one eigh for the iterate and one for
    I x sigma^c rho I x sigma^c, whatever |B|.  A finite-difference
    gradient made 4 |B|^2 more per iteration.  The descent stops once a
    step's first-order decrease is below the objective's float resolution,
    so no line search runs through halvings that cannot succeed.
    """
    per_iter = {}
    for db, pinned, iters in ((2, (33, 0), 10), (4, (39, 0), 13)):
        state = random_state((("A", 2), ("B", db)), 2 * db, make_rng(db, stream=11))
        res = []
        count = solves(lambda: res.append(
            minimized_conditioning(state, ["A"], ["B"], "sandwiched", 1.5)))
        assert (count, res[0].iters) == (pinned, iters)
        per_iter[db] = sum(count) / res[0].iters
    assert per_iter[4] <= 1.5 * per_iter[2]


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
