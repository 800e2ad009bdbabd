"""The Riccati sign test of the exact problem, and the grid brackets it gives."""

import math

import numpy as np
import pytest

from drifteig import (
    BangBangInterval,
    Boundary,
    ModelParams,
    TranscendParams,
    eigen_cov,
    make_discretization,
    principal_eigenvalue,
    random_admissible,
    riccati,
    transcendental_root,
)
from drifteig.eigensolve import (
    COARSE_REL,
    LAMBDA_FLOOR,
    _cov_forms,
    _lambda_bracket,
    _mu_from_forms,
    _quadruple,
    _sweep,
    assemble,
)
from drifteig.kernels import halve
from drifteig.optimize import delta_star

BOUNDARIES = [Boundary.neumann(), Boundary.robin(1.0), Boundary.robin(10.0), Boundary.dirichlet()]
MU_LAMS = (-20.0, 7.5, 60.0)


def _exact_lambda(forms):
    """The sweep's bracket of the exact lambda, halved to rounding."""
    above = _sweep(forms)
    return halve(above, *_quadruple(above, LAMBDA_FLOOR, 1.0), 0.0, 4e-15)


def _exact_mu(forms, lam, grid_mu):
    """The sweep's bracket of the exact mu(lam), at or below the grid's."""
    lo = -float(np.max(lam * forms.weight)) - 1.0  # k^2 < 0 on every piece: definite
    return halve(_sweep(forms, lam), lo, grid_mu + 1.0, 1e-12, 4e-15)


def test_constant_weight_dirichlet_is_pi_squared():
    # phi = sin(pi x): the test flips at pi^2, by the tan branch alone
    pieces = [(1.0, 1.0, 1.0)]
    assert riccati.definite(pieces, math.inf, math.pi**2 * (1.0 - 1e-14))
    assert not riccati.definite(pieces, math.inf, math.pi**2 * (1.0 + 1e-14))
    # mu(0) of the Dirichlet Laplacian is pi^2 too, through k^2 = mu / p
    assert riccati.definite(pieces, math.inf, 0.0, math.pi**2 * (1.0 - 1e-14))
    assert not riccati.definite(pieces, math.inf, 0.0, math.pi**2 * (1.0 + 1e-14))


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.55, 10.0, math.inf], ids=str)
@pytest.mark.parametrize("alpha, kappa, m0", [(0.2, 1.0, 0.4), (1.0, 5.0, 0.2), (1.5, 5.0, 0.2)])
def test_bracket_holds_the_transcendental_root(alpha, kappa, m0, beta):
    # on the interval family the sweep over the forms' pieces is exact: its
    # sign flips within 1e-13 of the closed-form root, and the solver's
    # bracket holds the root, 1/128 wide when the root lies above 1
    p = ModelParams(alpha, kappa, m0)
    tp = TranscendParams(p, delta_star(p))
    for xi in (0.0, 0.5 * (1.0 - tp.delta)):
        m = BangBangInterval(xi, tp.delta, p).weight()
        forms = assemble(m, p, Boundary(beta), make_discretization(500, m))
        root = transcendental_root(xi, beta, tp)
        assert riccati.definite(forms.pieces, beta, root * (1.0 - 1e-13)), xi
        assert not riccati.definite(forms.pieces, beta, root * (1.0 + 1e-13)), xi
        lo, hi = _lambda_bracket(forms)
        assert lo <= root <= hi
        if root > 1.0:
            assert 1.0 <= lo and hi - lo <= 0.5 * COARSE_REL * hi


@pytest.mark.parametrize("bc", BOUNDARIES, ids=str)
def test_grid_lies_at_or_above_the_sweep(params, rng, bc):
    # every grid lambda and mu is a Rayleigh quotient of a P1 vector, so by
    # min-max it lies at or above the exact one, lambda by no more than the
    # P1 error: of second order, and relative to lambda of order
    # (k h)^2 / 12 with k^2 ~ lambda, so within max(20, lambda) / n^2
    # (e n^2 / lambda reads at most 0.21 on these weights, lambda up to 6,000)
    for _ in range(3):
        m = random_admissible(params, rng)
        for n in (500, 2000):
            disc = make_discretization(n, m)
            forms = assemble(m, params, bc, disc)
            lam = principal_eigenvalue(m, params, bc, disc).lam
            lo, _ = _exact_lambda(forms)
            assert 0.0 <= (lam - lo) / lo <= max(20.0, lam) / n**2, (bc, n)
            for at in MU_LAMS:
                mu = _mu_from_forms(forms, at)
                assert mu >= _exact_mu(forms, at, mu)[0], (bc, n, at)


@pytest.mark.parametrize("bc", BOUNDARIES, ids=str)
def test_eigen_cov_forms_lie_at_or_above_the_sweep(params, rng, bc):
    # the drift-free forms of the change of variable have their own pieces,
    # whose exact lambda is the x problem's: eigen_cov's lambda and mu lie
    # at or above it as the direct solve's do
    for _ in range(3):
        m = random_admissible(params, rng)
        n = 2000
        disc = make_discretization(n, m)
        forms, _ = _cov_forms(m, params, bc, disc)
        lo, _ = _exact_lambda(forms)
        assert lo == pytest.approx(_exact_lambda(assemble(m, params, bc, disc))[0], rel=1e-12)
        lam = eigen_cov(m, params, bc, disc).lam
        assert 0.0 <= (lam - lo) / lo <= max(20.0, lam) / n**2, bc
        for at in MU_LAMS:
            mu = _mu_from_forms(forms, at)
            assert mu >= _exact_mu(forms, at, mu)[0], (bc, at)


@pytest.mark.parametrize("offset", [-5.0, 5.0])
def test_an_end_the_grid_rejects_moves(params, monkeypatch, offset):
    # a sweep whose roots sit offset away: the grid's test rejects one end
    # of each bracket, lambda's moves by the 4x rule (its lower end
    # quartered, its upper quadrupled) and mu's to the unswept bracket's;
    # the answers are those of the true sweep to rounding, and the grid's
    # test certifies them without the spring path
    from drifteig import eigensolve, kernels, mu_of_lambda

    m = BangBangInterval(0.1, 0.3, params).weight()
    bc, disc = Boundary.robin(1.0), make_discretization(500, m)
    lam, mu = principal_eigenvalue(m, params, bc, disc).lam, mu_of_lambda(m, params, bc, disc, 7.5)
    sweep = eigensolve._sweep
    monkeypatch.setattr(
        eigensolve, "_sweep", lambda forms, at=None: (lambda s, t=sweep(forms, at): t(s - offset))
    )
    springs, spring = [], kernels.springs
    monkeypatch.setattr(kernels, "springs", lambda *args: springs.append(1) or spring(*args))
    pair = principal_eigenvalue(m, params, bc, disc)
    assert pair.lam == pytest.approx(lam, rel=1e-14) and pair.probes > 3
    assert mu_of_lambda(m, params, bc, disc, 7.5) == pytest.approx(mu, rel=0.0, abs=1e-12)
    assert springs == []


def test_quadrupling_tests_the_limit_before_it_gives_up():
    # from powers of 4 the last step is capped at BRACKET_LIMIT; from any
    # other end too, so no lambda at or below the limit goes untested
    from drifteig.eigensolve import BRACKET_LIMIT, BracketError

    assert _quadruple(lambda s: s > 9e7, 1.0, 4.0) == (4.0**13, BRACKET_LIMIT)
    shifts = []
    with pytest.raises(BracketError, match="no sign change below"):
        _quadruple(lambda s: shifts.append(s) or False, 1e7, 3e7)
    assert shifts == [3e7, BRACKET_LIMIT]


def test_grid_lambda_near_the_limit_above_the_sweeps_bracket(monkeypatch):
    # a grid lambda of 6e7 above the sweep's bracket [2.7e7, 3e7]: 4 times
    # the upper end passes the limit, and the grid's test at the limit
    # itself still brackets it
    from drifteig import PiecewiseWeight, eigensolve

    p = ModelParams(0.2, 1.0, 0.4)
    m = PiecewiseWeight((0.0, 0.3, 0.6, 1.0), (0.0, 8e-8, 0.0))
    bc, disc = Boundary.robin(1.0), make_discretization(200, m)
    lam = principal_eigenvalue(m, p, bc, disc).lam
    assert 5e7 < lam < 4.0**13
    monkeypatch.setattr(eigensolve, "_lambda_bracket", lambda forms: (0.45 * lam, 0.5 * lam))
    assert principal_eigenvalue(m, p, bc, disc).lam == pytest.approx(lam, rel=1e-12)


@pytest.mark.parametrize("bc", BOUNDARIES, ids=str)
def test_forms_with_many_pieces_skip_the_sweep(params, monkeypatch, bc):
    # 40 pieces on about 540 elements: the sweep would cost more than the
    # grid tests it saves, so lambda and mu take the grid's own brackets,
    # and agree with the swept answers to rounding
    from drifteig import PiecewiseWeight, eigensolve, mu_of_lambda

    values = [params.kappa if i % 8 == 3 else -1.0 + 0.01 * i for i in range(40)]
    m = PiecewiseWeight(tuple(np.linspace(0.0, 1.0, 41)), tuple(values))
    disc = make_discretization(500, m)
    forms = assemble(m, params, bc, disc)
    assert not eigensolve._swept(forms) and len(forms.pieces) == 40
    monkeypatch.setattr(eigensolve, "SWEEP_ELEMENTS", 1)
    swept = principal_eigenvalue(m, params, bc, disc), mu_of_lambda(m, params, bc, disc, 7.5)
    monkeypatch.undo()

    def no_sweep(*args):
        raise AssertionError("sweep called")

    monkeypatch.setattr(riccati, "definite", no_sweep)
    pair = principal_eigenvalue(m, params, bc, disc)
    assert pair.lam == pytest.approx(swept[0].lam, rel=1e-14) and pair.probes > swept[0].probes
    assert mu_of_lambda(m, params, bc, disc, 7.5) == pytest.approx(swept[1], rel=0.0, abs=1e-12)
