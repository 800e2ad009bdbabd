import math

import numpy as np
import pytest

from drifteig import ModelParams, transcend


@pytest.fixture
def params():
    return ModelParams(alpha=0.2, kappa=1.0, m0=0.4)


@pytest.fixture
def rng():
    return np.random.default_rng(0xE16E)


def _dirichlet_gap_coefficient(pair, m, alpha):
    """C in lambda_inf - lambda_beta = C / beta + O(beta^-2) as beta -> inf.

    Hellmann-Feynman in beta gives d lambda / d beta = (phi(0)^2 + phi(1)^2)
    / int m e^{alpha m} phi^2, and for large beta the Robin condition gives
    phi(0) ~ e^{alpha m(0)} phi'(0) / beta (likewise at 1), so

        C = [e^{2 alpha m(0)} phi'(0)^2 + e^{2 alpha m(1)} phi'(1)^2]
            / int m e^{alpha m} phi^2

    taken from the Dirichlet eigenpair.  The end-element slopes are second
    order accurate: phi'' = -lambda m phi vanishes where phi does.
    """
    x, phi = pair.nodes, pair.phi
    h = np.diff(x)
    v = m.eval_many(0.5 * (x[:-1] + x[1:]))
    diffusion = np.exp(alpha * v)
    flux0 = diffusion[0] * (phi[1] - phi[0]) / h[0]
    flux1 = diffusion[-1] * (phi[-1] - phi[-2]) / h[-1]
    # exact P1 integral of phi^2 per element, weighted by m e^{alpha m}
    cell = h / 3.0 * (phi[:-1] ** 2 + phi[:-1] * phi[1:] + phi[1:] ** 2)
    norm = float(np.sum(v * diffusion * cell))
    return (flux0**2 + flux1**2) / norm


@pytest.fixture
def dirichlet_gap_coefficient():
    return _dirichlet_gap_coefficient


@pytest.fixture
def failing_dirichlet_root(monkeypatch):
    """Every transcendental root raises RootNotFoundError at beta = inf.

    The Dirichlet row is a closed-form root that no real input fails, so
    the tests of a failed sweep row inject the failure.
    """
    root = transcend.transcendental_root

    def root_or_raise(xi, beta, tp):
        if beta == math.inf:
            raise transcend.RootNotFoundError(f"no Dirichlet root at xi={xi:.6g}")
        return root(xi, beta, tp)

    monkeypatch.setattr(transcend, "transcendental_root", root_or_raise)
