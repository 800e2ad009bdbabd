"""Discretized solver: assembly values, mu curve, principal eigenvalues."""

import math

import numpy as np
import pytest
import scipy.linalg

from drifteig import (
    BangBangInterval,
    Boundary,
    ModelParams,
    PiecewiseWeight,
    TranscendParams,
    ZeroRegime,
    eigen_cov,
    exp_mass,
    make_discretization,
    mu_curve,
    mu_of_lambda,
    principal_eigenvalue,
    random_admissible,
    transcendental_root,
)
from drifteig.eigensolve import AssemblyError, Discretization, assemble, principal_lambda

ONE = PiecewiseWeight((0.0, 1.0), (1.0,))
PI2 = math.pi**2


def test_assemble_textbook_values():
    # two equal elements, unit coefficient: interior stiffness 4, mass 1/3
    disc = Discretization(n=2, nodes=np.array([0.0, 0.5, 1.0]))
    forms = assemble(ONE, ModelParams(0.0, 1.0, 0.4), Boundary.dirichlet(), disc)
    kd, ke = forms.reduced(forms.kd, forms.ke)
    md, me = forms.reduced(forms.md, forms.me)
    assert kd[0] == pytest.approx(4.0)
    assert md[0] == pytest.approx(1.0 / 3.0)
    assert ke.size == 0 and me.size == 0


def test_assemble_neumann_kernel(params):
    m = BangBangInterval(0.2, 0.3, params).weight()
    disc = make_discretization(50, m)
    forms = assemble(m, params, Boundary.neumann(), disc)
    ones = np.ones(forms.nodes.size)
    y = forms.kd * ones
    y[:-1] += forms.ke
    y[1:] += forms.ke
    assert np.max(np.abs(y)) <= 1e-13 * np.max(forms.kd)


def test_assemble_positive_definite(params, rng):
    m = random_admissible(params, rng)
    disc = make_discretization(40, m)
    for bc in (Boundary.robin(2.0), Boundary.dirichlet()):
        forms = assemble(m, params, bc, disc)
        kd, ke = forms.reduced(forms.kd, forms.ke)
        dense = np.diag(kd) + np.diag(ke, 1) + np.diag(ke, -1)
        assert np.min(np.linalg.eigvalsh(dense)) > 0.0
    forms = assemble(m, params, Boundary.neumann(), disc)
    dense = np.diag(forms.kd) + np.diag(forms.ke, 1) + np.diag(forms.ke, -1)
    assert np.min(np.linalg.eigvalsh(dense)) > -1e-12


def test_assemble_requires_breakpoint_nodes(params):
    m = BangBangInterval(0.2, 0.3, params).weight()
    disc = Discretization(n=4, nodes=np.linspace(0.0, 1.0, 5))
    with pytest.raises(AssemblyError):
        assemble(m, params, Boundary.neumann(), disc)


class TestMuCurve:
    def test_dirichlet_mu0_is_pi_squared(self):
        p = ModelParams(0.0, 1.0, 0.4)
        disc = make_discretization(2000, ONE)
        mu0 = mu_of_lambda(ONE, p, Boundary.dirichlet(), disc, 0.0)
        assert mu0 == pytest.approx(PI2, rel=1e-3)

    def test_neumann_mu0_is_zero(self, params, rng):
        m = random_admissible(params, rng)
        disc = make_discretization(1000, m)
        assert abs(mu_of_lambda(m, params, Boundary.neumann(), disc, 0.0)) < 1e-12

    def test_neumann_slope_is_minus_exp_mass(self, params, rng):
        for _ in range(3):
            m = random_admissible(params, rng)
            disc = make_discretization(2000, m)
            h = 3e-5
            fd = (
                mu_of_lambda(m, params, Boundary.neumann(), disc, h)
                - mu_of_lambda(m, params, Boundary.neumann(), disc, -h)
            ) / (2.0 * h)
            assert fd == pytest.approx(-exp_mass(m, params.alpha), abs=1e-6)

    def test_matches_dense_generalized_eig(self, params, rng):
        # oracle: dense generalized eigensolver on a small grid
        m = random_admissible(params, rng)
        disc = make_discretization(60, m)
        forms = assemble(m, params, Boundary.robin(1.0), disc)
        for lam in (0.0, 3.0, 25.0):
            a = np.diag(forms.kd - lam * forms.bd)
            a += np.diag(forms.ke - lam * forms.be, 1) + np.diag(forms.ke - lam * forms.be, -1)
            mm = np.diag(forms.md) + np.diag(forms.me, 1) + np.diag(forms.me, -1)
            target = scipy.linalg.eigh(a, mm, eigvals_only=True)[0]
            got = mu_of_lambda(m, params, Boundary.robin(1.0), disc, lam)
            assert got == pytest.approx(target, rel=1e-9, abs=1e-9)

    def test_concavity_on_random_triples(self, params, rng):
        m = random_admissible(params, rng)
        disc = make_discretization(2000, m)
        for _ in range(15):
            l1, l2 = sorted(rng.uniform(-30.0, 150.0, size=2))
            t = float(rng.uniform(0.05, 0.95))
            pts = mu_curve(
                m, params, Boundary.robin(1.0), disc, [l1, l2, t * l1 + (1 - t) * l2]
            )
            chord = t * pts[0].mu + (1 - t) * pts[1].mu
            assert pts[2].mu >= chord - 1e-9


class TestPrincipalEigenvalue:
    def test_constant_weight_dirichlet_pi_squared(self):
        disc = make_discretization(2000, ONE)
        for alpha in (0.0, 0.3, 1.0):
            p = ModelParams(alpha, 1.0, 0.4)
            pair = principal_eigenvalue(ONE, p, Boundary.dirichlet(), disc)
            assert pair.lam == pytest.approx(PI2, rel=1e-3)

    def test_one_unknown_dirichlet(self):
        # n = 2 leaves one interior node: K = 4 e^{0.1}, B = e^{0.1} / 6
        m = PiecewiseWeight((0.0, 1.0), (0.5,))
        p = ModelParams(0.2, 1.0, 0.4)
        disc = make_discretization(2, m)
        bc = Boundary.dirichlet()
        assert principal_eigenvalue(m, p, bc, disc).lam == pytest.approx(24.0, rel=1e-9)
        assert principal_lambda(m, p, bc, disc) == pytest.approx(24.0, rel=1e-9)

    def test_neumann_constant_kappa_zero_regime(self, params):
        disc = make_discretization(100, ONE)
        assert isinstance(
            principal_eigenvalue(ONE, params, Boundary.neumann(), disc), ZeroRegime
        )

    def test_matches_transcendental_root(self, params):
        w = BangBangInterval(0.0, 0.3, params).weight()
        disc = make_discretization(4000, w)
        pair = principal_eigenvalue(w, params, Boundary.robin(1.0), disc)
        tp = TranscendParams(params=params, delta=0.3, beta=1.0)
        assert pair.lam == pytest.approx(transcendental_root(0.0, 1.0, tp), rel=1e-4)

    def test_rejects_nonpositive_weight(self, params):
        m = PiecewiseWeight((0.0, 1.0), (-0.5,))
        disc = make_discretization(50, m)
        with pytest.raises(ValueError):
            principal_eigenvalue(m, params, Boundary.robin(1.0), disc)

    def test_normalization_and_positivity(self, params, rng):
        for _ in range(5):
            m = random_admissible(params, rng)
            disc = make_discretization(1500, m)
            pair = principal_eigenvalue(m, params, Boundary.robin(1.0), disc)
            # independent elementwise quadrature of int m e^{am} phi^2
            x, phi = pair.nodes, pair.phi
            h = np.diff(x)
            mid = 0.5 * (x[:-1] + x[1:])
            w = m.eval_many(mid) * np.exp(params.alpha * m.eval_many(mid))
            cell = h / 3.0 * (phi[:-1] ** 2 + phi[:-1] * phi[1:] + phi[1:] ** 2)
            assert abs(float(np.sum(w * cell)) - 1.0) <= 1e-8
            assert np.min(phi[1:-1]) > 0.0
            assert pair.residual < 1e-7

    def test_beta_monotonicity(self, params, rng):
        for _ in range(5):
            m = random_admissible(params, rng)
            disc = make_discretization(1000, m)
            lams = []
            for beta in (0.0, 0.7, 3.0, 12.0):
                r = principal_eigenvalue(m, params, Boundary.robin(beta), disc)
                lams.append(0.0 if isinstance(r, ZeroRegime) else r.lam)
            r = principal_eigenvalue(m, params, Boundary.dirichlet(), disc)
            lams.append(r.lam)
            assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))

    def test_richardson_slope_second_order(self, params):
        w = BangBangInterval(0.0, 0.3, params).weight()
        lams = [
            principal_eigenvalue(w, params, Boundary.robin(1.0), make_discretization(n, w)).lam
            for n in (250, 500, 1000)
        ]
        slope = math.log2(abs(lams[0] - lams[1]) / abs(lams[1] - lams[2]))
        assert 1.8 <= slope <= 2.2

    def test_optimal_eigenfunction_is_unimodal(self, params):
        # centered optimal design: discrete derivative changes sign once
        w = BangBangInterval(0.35, 0.3, params).weight()
        disc = make_discretization(2000, w)
        pair = principal_eigenvalue(w, params, Boundary.robin(10.0), disc)
        dphi = np.diff(pair.phi)
        signs = np.sign(dphi[np.abs(dphi) > 1e-12 * np.max(np.abs(dphi))])
        flips = np.sum(np.diff(signs) != 0.0)
        assert flips == 1

    def test_rejects_zero_weight(self, params):
        with pytest.raises(ValueError):
            principal_eigenvalue(
                PiecewiseWeight((0.0, 1.0), (0.0,)),
                params,
                Boundary.robin(1.0),
                make_discretization(20, PiecewiseWeight((0.0, 1.0), (0.0,))),
            )

    def test_bracket_failure_reports_mu_samples(self, params):
        # a sliver of resources pushes the eigenvalue beyond the bracket cap
        from drifteig.eigensolve import BracketError

        m = PiecewiseWeight((0.0, 0.5, 0.5 + 1e-5, 1.0), (-1.0, 1.0, -1.0))
        disc = make_discretization(200, m)
        with pytest.raises(BracketError, match="mu samples"):
            principal_eigenvalue(m, params, Boundary.robin(1.0), disc)


class TestEigenCov:
    def test_alpha_zero_identical(self, params):
        p0 = ModelParams(0.0, params.kappa, params.m0)
        w = BangBangInterval(0.0, 0.3, p0).weight()
        disc = make_discretization(500, w)
        a = principal_eigenvalue(w, p0, Boundary.robin(1.0), disc)
        b = eigen_cov(w, p0, Boundary.robin(1.0), disc)
        assert b.lam == pytest.approx(a.lam, rel=1e-12)

    def test_agrees_with_direct_solver(self, params):
        w = BangBangInterval(0.2, 0.3, params).weight()
        disc = make_discretization(4000, w)
        a = principal_eigenvalue(w, params, Boundary.robin(1.0), disc)
        b = eigen_cov(w, params, Boundary.robin(1.0), disc)
        assert b.lam == pytest.approx(a.lam, rel=1e-4)
        assert np.min(b.phi[1:-1]) > 0.0

    def test_zero_regime_passthrough(self, params):
        disc = make_discretization(100, ONE)
        assert isinstance(eigen_cov(ONE, params, Boundary.neumann(), disc), ZeroRegime)
