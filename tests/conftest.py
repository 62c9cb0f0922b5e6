import math

import numpy as np
import pytest
from scipy.linalg import fractional_matrix_power
from scipy.optimize import minimize_scalar

from qdecoupling.states import make_rng


@pytest.fixture
def rng():
    return make_rng(20240817)


def random_herm(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + g.conj().T)


def commuting_pair(d, rng):
    """Two random densities diagonal in a common Haar basis, plus the weights."""
    from qdecoupling.states import haar_unitary

    u = haar_unitary(d, rng)
    p = rng.dirichlet(np.ones(d))
    q = rng.dirichlet(np.ones(d))
    rho = (u * p) @ u.conj().T
    sig = (u * q) @ u.conj().T
    return rho, sig, p, q


def classical_dephasing_oracle(gram, r):
    """Independent route: closed scalar formula for a maximally correlated Choi."""
    c = gram.T / gram.shape[0]

    def coh(s):
        alpha = 1.0 / (1.0 + s)
        ca = fractional_matrix_power(c, alpha)
        total = float(np.sum(np.real(np.diag(ca)) ** (1.0 / alpha)))
        return (alpha / (alpha - 1.0)) * math.log2(total)

    res = minimize_scalar(lambda s: -0.5 * s * (coh(s) - r), bounds=(1e-6, 1 - 1e-9),
                          method="bounded", options={"xatol": 1e-12})
    return max(0.0, float(-res.fun))
