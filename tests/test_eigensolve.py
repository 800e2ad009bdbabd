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
    alpha_star,
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

# Neumann principal eigenvalues of random_admissible(ModelParams(0.2, 1, 0.4),
# default_rng(seed)) at alpha = alpha*(1 - eps), from a 60-digit mpmath
# transfer-matrix sweep over the weight's pieces (mpmath is not a dependency)
NEAR_ALPHA_STAR_EXACT = {
    (0, 1e-2): 0.2922846517553654,
    (0, 1e-4): 0.0028657924517641576,
    (0, 1e-6): 2.865229207720074e-05,
    (0, 1e-8): 2.8652236366264017e-07,
    (5, 1e-2): 0.13001699811040482,
    (5, 1e-4): 0.0012898927327063226,
    (5, 1e-6): 1.2897905703459688e-05,
    (5, 1e-8): 1.2897895524081123e-07,
}


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


@pytest.mark.parametrize(
    "nodes, error",
    [
        ([0.0, 0.6, 0.5, 1.0], AssemblyError),  # not increasing
        ([0.0, 0.5, 0.5, 1.0], AssemblyError),  # a duplicated node
        ([-0.25, 0.0, 0.5, 1.0], ValueError),  # reaches below 0
        ([0.0, 0.5, 1.0, 1.25], ValueError),  # reaches above 1
        ([0.0, 0.5, math.nan, 1.0], AssemblyError),  # once assembled into NaN forms
    ],
    ids=["decreasing", "duplicate", "below-0", "above-1", "nan"],
)
def test_assemble_rejects_bad_nodes(params, nodes, error):
    # nodes that miss a breakpoint: test_assemble_requires_breakpoint_nodes
    m = PiecewiseWeight((0.0, 0.5, 1.0), (1.0, -1.0))
    disc = Discretization(n=len(nodes) - 1, nodes=np.array(nodes))
    with pytest.raises(error):
        assemble(m, params, Boundary.neumann(), disc)


def _old_forms(nodes, values_at, coefficients, beta):
    """Forms arrays built as assembly once did: element values read at the
    midpoints, every product computed where it is used."""
    diffusion, weight = coefficients(values_at(0.5 * (nodes[:-1] + nodes[1:])))
    h = np.diff(nodes)
    kd, bd, md = np.zeros(nodes.size), np.zeros(nodes.size), np.zeros(nodes.size)
    kd[:-1] += diffusion / h
    kd[1:] += diffusion / h
    bd[:-1] += weight * h / 3.0
    bd[1:] += weight * h / 3.0
    md[:-1] += h / 3.0
    md[1:] += h / 3.0
    if 0.0 < beta < math.inf:
        kd[0] += beta
        kd[-1] += beta
    return {"diffusion": diffusion, "weight": weight, "h": h, "h3": h / 3.0,
            "kd": kd, "ke": -diffusion / h, "bd": bd, "be": weight * h / 6.0,
            "md": md, "me": h / 6.0}


def _old_merge(n, breakpoints, length):
    bp = np.asarray(breakpoints, dtype=float)
    base = np.linspace(0.0, length, n + 1)
    idx = np.searchsorted(bp, base)
    left = bp[np.clip(idx - 1, 0, bp.size - 1)]
    right = bp[np.clip(idx, 0, bp.size - 1)]
    dist = np.minimum(np.abs(base - left), np.abs(base - right))
    return np.union1d(bp, base[dist > 0.25 * length / n])


def _assert_same_bits(forms, ref):
    for name, want in ref.items():
        got = getattr(forms, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name


# A thin, high piece after a negative one: its y-length 0.02 e^-40 is below
# half an ulp of the y before it, so two of eigen_cov's y-breakpoints coincide.
STIFF = ModelParams(1.0, 40.0, 0.4)
THIN_HIGH = PiecewiseWeight((0.0, 0.5, 0.52, 0.8, 1.0), (-1.0, 40.0, 0.5, -1.0))


@pytest.mark.parametrize("n", [2, 3, 7, 500, 2000])
def test_assembly_is_bit_identical_to_midpoint_reference(params, rng, n):
    # nodes from a sorted union, element values read at the midpoints:
    # the index-based assembly must reproduce them bit for bit, on the x
    # grid of assemble and the y grid of eigen_cov
    from drifteig.eigensolve import _assemble_on_nodes, _element_values, _merge_nodes
    from drifteig.rearrange import change_of_variable_forward

    # ends on the uniform grid, as in the benchmark's battery, random ones
    # and a weight whose y-breakpoints coincide
    cases = [(params, BangBangInterval(0.1, 0.3, params).weight())]
    cases += [(params, random_admissible(params, rng)) for _ in range(4)]
    cases += [(STIFF, THIN_HIGH)]
    for p, m in cases:

        def drift(v):
            diffusion = np.exp(p.alpha * v)
            return diffusion, v * diffusion

        def drift_free(v):
            return np.ones_like(v), v * np.exp(2.0 * p.alpha * v)

        nodes = make_discretization(n, m).nodes
        assert np.array_equal(nodes, _old_merge(n, m.breakpoints, 1.0))
        for bc in (Boundary.neumann(), Boundary.robin(1.0), Boundary.dirichlet()):
            ref = _old_forms(nodes, m.eval_many, drift, bc.beta)
            _assert_same_bits(assemble(m, p, bc, Discretization(n, nodes)), ref)
        # eigen_cov's forms: the drift-free problem on the y grid
        cov, mt = change_of_variable_forward(m, p.alpha)
        ynodes = _merge_nodes(n, mt.breakpoints, cov.total)
        assert np.array_equal(ynodes, _old_merge(n, mt.breakpoints, cov.total))
        h, v = _element_values(ynodes, mt.breakpoints, mt.values)

        def y_values_at(y):  # the piece that holds each y, as a search once found it
            piece = np.searchsorted(mt.breakpoints, y, side="right") - 1
            return np.asarray(mt.values)[np.clip(piece, 0, len(mt.values) - 1)]

        _assert_same_bits(
            _assemble_on_nodes(ynodes, h, *drift_free(v), 1.0),
            _old_forms(ynodes, y_values_at, drift_free, 1.0),
        )


@pytest.mark.parametrize("n", [2, 3, 500, 2000, 8000])
def test_merge_nodes_matches_union_reference(params, rng, n):
    # _merge_nodes tests only the uniform nodes next to each breakpoint; the
    # reference measures every node's distance to its nearest breakpoints
    # and takes np.union1d.  Random breakpoints, ones on the uniform grid
    # and a quarter cell off it, coinciding ones, and eigen_cov's
    # y-breakpoints on [0, c(1)]
    from drifteig.eigensolve import _merge_nodes
    from drifteig.rearrange import change_of_variable_forward

    cases = []
    for _ in range(12):
        inner = rng.uniform(0.0, 1.0, rng.integers(0, 6))
        edges = np.concatenate([rng.integers(0, n + 1, 2), rng.integers(0, n, 2) + [0.25, 0.75]]) / n
        for bp in (inner, np.concatenate([inner, edges]), np.concatenate([inner, inner[:2]])):
            bp = np.concatenate([[0.0], np.sort(bp), [1.0]])
            cases += [(bp * length, length) for length in (1.0, 0.37, 2.9)]
    for p, m in [(params, random_admissible(params, rng)) for _ in range(6)] + [(STIFF, THIN_HIGH)]:
        cov, mt = change_of_variable_forward(m, p.alpha)
        cases += [(m.breakpoints, 1.0), (mt.breakpoints, cov.total)]
    assert any(np.diff(bp).min() == 0.0 for bp, _ in cases)  # coinciding ones are covered
    for bp, length in cases:
        got, want = _merge_nodes(n, bp, length), _old_merge(n, bp, length)
        assert got.dtype == want.dtype and np.array_equal(got, want), (bp, length)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 1e200], ids=str)
    def test_non_finite_bracket_rejected(self, lam):
        # at lam = 1e200 the bracket end -max(lam * weight) overflows, as
        # the weight reaches 50 e^300; without the check mu is NaN
        p = ModelParams(6.0, 50.0, 0.4)
        m = BangBangInterval(0.1, 0.3, p).weight()
        disc = make_discretization(200, m)
        with pytest.raises(ValueError, match="is not finite"):
            mu_of_lambda(m, p, Boundary.robin(1.0), disc, lam)
        with pytest.raises(ValueError, match="is not finite"):
            mu_curve(m, p, Boundary.robin(1.0), disc, [1.0, lam])


    @pytest.mark.parametrize(
        "bc, n, lam, mu, bisections",
        [
            (Boundary.robin(1.0), 2000, 5.0, 1.6713389826916316, 1),
            (Boundary.robin(1.0), 2000, 20.0, -4.834241374139949, 1),
            # dpttrf rejects the certificate's shift and so does the spring
            # test, which then bisects the bracket again: mu is the quotient
            # of the solve with its pivots at the lower end
            (Boundary.neumann(), 8000, 1e-8, 2.066906992805163e-09, 1),
        ],
        ids=str,
    )
    def test_mu_bits(self, params, monkeypatch, bc, n, lam, mu, bisections):
        # mu to the last bit, with the kernel bisections that found it: the
        # coarse one, whose Rayleigh quotient a probe certifies
        m = BangBangInterval(0.1, 0.3, params).weight()
        disc = make_discretization(n, m)
        calls = _count_calls(monkeypatch)
        assert mu_of_lambda(m, params, bc, disc, lam) == mu
        assert calls["smallest_pencil_eigenvalue"] == bisections


class TestPrincipalEigenvalue:
    def test_constant_weight_dirichlet_pi_squared(self):
        disc = make_discretization(2000, ONE)
        for alpha in (0.0, 0.3, 1.0):
            p = ModelParams(alpha, 1.0, 0.4)
            pair = principal_eigenvalue(ONE, p, Boundary.dirichlet(), disc)
            assert pair.lam == pytest.approx(PI2, rel=1e-3)

    def test_one_unknown_dirichlet(self):
        # n = 2 leaves one interior node: K = 4 e^{0.1}, B = e^{0.1} / 6 and
        # M0 = 1 / 3, so every pencil is 1x1 and its solve a division
        m = PiecewiseWeight((0.0, 1.0), (0.5,))
        p = ModelParams(0.2, 1.0, 0.4)
        disc = make_discretization(2, m)
        bc = Boundary.dirichlet()
        assert principal_eigenvalue(m, p, bc, disc).lam == pytest.approx(24.0, rel=1e-9)
        assert principal_lambda(m, p, bc, disc) == pytest.approx(24.0, rel=1e-9)
        assert eigen_cov(m, p, bc, disc).lam == pytest.approx(24.0, rel=1e-9)
        # mu(10) = (4 - 10 / 6) e^{0.1} / (1 / 3)
        assert mu_of_lambda(m, p, bc, disc, 10.0) == pytest.approx(7.0 * math.exp(0.1), rel=1e-12)

    def test_neumann_constant_kappa_zero_regime(self, params):
        disc = make_discretization(100, ONE)
        assert isinstance(
            principal_eigenvalue(ONE, params, Boundary.neumann(), disc), ZeroRegime
        )

    def test_principal_lambda_in_zero_regime_is_zero(self, params):
        disc = make_discretization(100, ONE)
        assert principal_lambda(ONE, params, Boundary.neumann(), disc) == 0.0

    def test_one_cell_rejected(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            make_discretization(1, ONE)

    def test_eigenfunction_breakdown_raises(self, params, monkeypatch):
        # with every dpttrs solve failing, the refinement's inverse iteration
        # fails, and so does the spring path's one solve: no vector gives a
        # quotient, and both solves raise rather than return
        from drifteig import _kernels_py
        from drifteig.eigensolve import SolverError

        m = BangBangInterval(0.1, 0.3, params).weight()
        disc = make_discretization(200, m)
        _kernels_py.lapack()  # bind LAPACK's before replacing dpttrs
        monkeypatch.setattr(_kernels_py, "dpttrs", lambda d, e, b: (b, 1))
        with pytest.raises(SolverError, match="no certificate"):
            principal_lambda(m, params, Boundary.robin(1.0), disc)
        with pytest.raises(SolverError, match="no certificate"):
            principal_eigenvalue(m, params, Boundary.robin(1.0), disc)

    def test_matches_transcendental_root(self, params):
        w = BangBangInterval(0.0, 0.3, params).weight()
        disc = make_discretization(4000, w)
        pair = principal_eigenvalue(w, params, Boundary.robin(1.0), disc)
        tp = TranscendParams(params=params, delta=0.3)
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

    def test_bracket_failure_names_the_cap(self, params):
        # a sliver of resources pushes the eigenvalue beyond the bracket cap
        from drifteig.eigensolve import BracketError

        m = PiecewiseWeight((0.0, 0.5, 0.5 + 1e-5, 1.0), (-1.0, 1.0, -1.0))
        disc = make_discretization(200, m)
        with pytest.raises(BracketError, match=r"^no sign change below 100000000\.0$"):
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

    @pytest.mark.parametrize("bc", [Boundary.robin(1.0), Boundary.dirichlet()], ids=str)
    def test_coinciding_y_breakpoints(self, bc):
        # the thin piece's y-length rounds to zero, so its weight would be
        # lost without an element: a typed error, not a wrong eigenvalue
        from drifteig.rearrange import change_of_variable_forward

        _, mt = change_of_variable_forward(THIN_HIGH, STIFF.alpha)
        assert np.any(np.diff(mt.breakpoints) == 0.0)
        with pytest.raises(AssemblyError, match=r"pieces \[1\] round to zero"):
            eigen_cov(THIN_HIGH, STIFF, bc, make_discretization(200, THIN_HIGH))


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _count_calls(monkeypatch):
    """Count definiteness probes, kernel bisections, the factorizations
    the solver makes outside the probes, wherever they are made, and the
    spring-form sweeps."""
    from drifteig import _kernels_py, kernels

    calls = {"pencil_inertia": 0, "smallest_pencil_eigenvalue": 0, "dpttrf": 0, "springs": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    probe = counted("pencil_inertia", _kernels_py.pencil_inertia)
    # the kernel bisection calls its own module's pencil_inertia
    monkeypatch.setattr(_kernels_py, "pencil_inertia", probe)
    monkeypatch.setattr(kernels, "pencil_inertia", probe)
    monkeypatch.setattr(
        kernels,
        "smallest_pencil_eigenvalue",
        counted("smallest_pencil_eigenvalue", kernels.smallest_pencil_eigenvalue),
    )
    # the probes factor through _kernels_py's own ldlt, so this counts only
    # the factorizations the solver makes itself, through kernels.ldlt, for
    # a shift that no probe has factored
    monkeypatch.setattr(kernels, "ldlt", counted("dpttrf", kernels.ldlt))
    monkeypatch.setattr(kernels, "springs", counted("springs", kernels.springs))
    return calls


class TestCertifiedRefinement:
    """The Rayleigh refinement of lambda and mu, and its two-probe certificate."""

    @pytest.mark.parametrize(
        "bc", [Boundary.robin(1.0), Boundary.robin(10.0), Boundary.dirichlet()], ids=str
    )
    def test_lambda_matches_dense_reference(self, params, rng, bc):
        # K is positive definite here, so 1/lambda is the largest eigenvalue
        # of the dense pencil (B, K)
        weights = [BangBangInterval(0.23, 0.29, params).weight()]
        weights += [random_admissible(params, rng) for _ in range(3)]
        for m in weights:
            disc = make_discretization(400, m)
            kd, ke, bd, be, _, _ = assemble(m, params, bc, disc).interior()
            nu = scipy.linalg.eigh(_dense(bd, be), _dense(kd, ke), eigvals_only=True)
            lam = principal_lambda(m, params, bc, disc)
            assert type(lam) is float
            assert abs(lam * nu[-1] - 1.0) <= 1e-11

    @pytest.mark.parametrize(
        "bc", [Boundary.neumann(), Boundary.robin(1.0), Boundary.dirichlet()], ids=str
    )
    def test_lambda_is_certified(self, params, bc):
        from drifteig import kernels
        from drifteig.eigensolve import CERT_REL

        m = BangBangInterval(0.1, 0.3, params).weight()
        disc = make_discretization(2000, m)
        kd, ke, bd, be, _, _ = assemble(m, params, bc, disc).interior()
        lam = principal_lambda(m, params, bc, disc)
        assert kernels.pencil_inertia(kd, ke, bd, be, lam * (1.0 - CERT_REL))[0] == 0
        assert kernels.pencil_inertia(kd, ke, bd, be, lam * (1.0 + CERT_REL))[0] == 1

    def test_spring_certifies_what_dpttrf_cannot(self, monkeypatch):
        # dpttrf reads the certificate's shift below the coarse Rayleigh
        # quotient as not definite, and the spring test reads it as definite:
        # lambda is that quotient, 8.6e-11 relative above the root, found by
        # one kernel bisection
        from drifteig import kernels
        from drifteig.eigensolve import CERT_REL

        p = ModelParams(1.0, 5.0, 0.2)
        delta = (1.0 - p.m0) / (p.kappa + 1.0)
        m = BangBangInterval(0.0, delta, p).weight()
        disc = make_discretization(8000, m)
        forms = assemble(m, p, Boundary.robin(1.0), disc)
        calls = _count_calls(monkeypatch)
        pair = principal_eigenvalue(m, p, Boundary.robin(1.0), disc)
        assert pair.lam == 0.013135810076016313
        assert calls["smallest_pencil_eigenvalue"] == 1
        below = pair.lam - CERT_REL * pair.lam
        kd, ke, bd, be, _, _ = forms.interior()
        assert kernels.pencil_inertia(kd, ke, bd, be, below)[0] == 1
        assert kernels.springs(-forms.ke, below * forms.weight * forms.h, 1.0) is not None
        kq, bq, _ = forms.quadratics(pair.phi)
        assert pair.lam == pytest.approx(kq / bq, rel=1e-12)
        assert pair.lam >= transcendental_root(0.0, 1.0, TranscendParams(p, delta))

    @pytest.mark.parametrize("n", [2000, 8000])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_high_contrast_lambda_at_or_above_the_root(self, alpha, n):
        # every grid lambda is the Rayleigh quotient of a P1 vector, so by
        # min-max it lies at or above the exact root, by the P1 error of
        # second order: 0 <= (lam - root) / root <= 20 / n^2
        from drifteig.optimize import delta_star

        p = ModelParams(alpha, 5.0, 0.2)
        tp = TranscendParams(p, delta_star(p))
        for xi in (0.0, 0.5 * (1.0 - tp.delta)):
            m = BangBangInterval(xi, tp.delta, p).weight()
            disc = make_discretization(n, m)
            for beta in (1.0, 10.0, math.inf):
                lam = principal_eigenvalue(m, p, Boundary(beta), disc).lam
                root = transcendental_root(xi, beta, tp)
                assert 0.0 <= (lam - root) / root <= 20.0 / n**2, (xi, beta)

    @pytest.mark.parametrize(
        "bc",
        [Boundary.neumann(), Boundary.robin(1.0), Boundary.robin(10.0), Boundary.dirichlet()],
        ids=str,
    )
    def test_probe_count_at_n_2000(self, params, rng, monkeypatch, bc):
        # a lambda above 1 takes three grid tests: the sweep brackets it to
        # 1/128, the grid's test confirms the bracket's two ends, the
        # kernel's bisection to 1/64 has nothing to halve, and one test
        # certifies; the refinement reuses the factors of the test at the
        # bracket's lower end, and the eigenfunction those of the
        # certificate, so LAPACK factors once per test and no more
        from drifteig import _kernels_py

        _kernels_py.lapack()
        factored, dpttrf = [], _kernels_py.dpttrf
        monkeypatch.setattr(_kernels_py, "dpttrf", lambda *a, **k: factored.append(1) or dpttrf(*a, **k))
        calls = _count_calls(monkeypatch)
        for m in (BangBangInterval(0.1, 0.3, params).weight(), random_admissible(params, rng)):
            calls.update(pencil_inertia=0, smallest_pencil_eigenvalue=0)
            factored.clear()
            pair = principal_eigenvalue(m, params, bc, make_discretization(2000, m))
            assert pair.lam > 1.0 and calls["pencil_inertia"] == pair.probes <= 3
            assert calls["smallest_pencil_eigenvalue"] == 1
            assert len(factored) == pair.probes

    @pytest.mark.parametrize(
        "n, bc",
        [
            (2000, Boundary.neumann()),
            (2000, Boundary.robin(1.0)),
            (2000, Boundary.dirichlet()),
            (8000, Boundary.neumann()),  # misfires at the floor, which lambda > 1 does not test
        ],
        ids=str,
    )
    def test_probes_are_the_kernel_calls(self, params, monkeypatch, n, bc):
        # EigenPair.probes is the number of definiteness tests, all made by
        # the lambda solve: the eigenfunction's solve makes none.  The
        # kernel bisection calls _kernels_py's own test.
        from drifteig import _kernels_py, kernels

        calls = []
        probe = _kernels_py.pencil_inertia

        def counted(*args):
            calls.append(args[-1])
            return probe(*args)

        monkeypatch.setattr(_kernels_py, "pencil_inertia", counted)
        monkeypatch.setattr(kernels, "pencil_inertia", counted)
        m = BangBangInterval(0.1, 0.3, params).weight()
        disc = make_discretization(n, m)
        pair = principal_eigenvalue(m, params, bc, disc)
        assert pair.probes == len(calls) > 0
        calls.clear()
        assert eigen_cov(m, params, bc, disc).probes == len(calls) > 0

    def test_near_alpha_star_lambda_bits(self, monkeypatch):
        # within pivot noise of singular dpttrf's test is not monotone and
        # certifies no Rayleigh quotient; the spring test bisects the bracket
        # again and certifies the quotient of the solve with its pivots at
        # the lower end, to the last bit
        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(5))
        a_star = alpha_star(m)
        disc = make_discretization(2000, m)
        expected = {1e-4: 0.0012898934048412882, 1e-6: 1.2897912425503611e-05,
                    1e-8: 1.2897902278477492e-07}
        calls = _count_calls(monkeypatch)
        for eps, lam in expected.items():
            p = ModelParams(a_star * (1.0 - eps), 1.0, 0.4)
            calls.update(springs=0)
            assert principal_lambda(m, p, Boundary.neumann(), disc) == lam
            assert calls["springs"] > 40

    def test_spring_quotient_is_one_solve_with_the_spring_pivots(self, monkeypatch):
        # near alpha* the spring path gives lambda: its vector is one dpttrs
        # solve of M0 times the ones vector with the spring pivots at the
        # spring bisection's lower end, and the solver factors nothing itself
        from drifteig import _kernels_py, kernels
        from drifteig.eigensolve import _tri_mv

        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(5))
        p = ModelParams(alpha_star(m) * (1.0 - 1e-6), 1.0, 0.4)
        disc = make_discretization(2000, m)
        _kernels_py.lapack()
        solved, dpttrs = [], _kernels_py.dpttrs

        def recorded(d, e, b):
            y, info = dpttrs(d, e, b)
            solved.append((d.copy(), e.copy(), b.copy(), y))
            return y, info

        monkeypatch.setattr(_kernels_py, "dpttrs", recorded)
        calls = _count_calls(monkeypatch)
        ends, halve = [], kernels.halve  # the kernel bisection halves through _kernels_py's own
        monkeypatch.setattr(kernels, "halve", lambda *args: ends.append(halve(*args)) or ends[-1])
        lam = principal_lambda(m, p, Boundary.neumann(), disc)
        assert calls["dpttrf"] == 0 and len(ends) == 1
        forms = assemble(m, p, Boundary.neumann(), disc)
        d, s = kernels.springs(-forms.ke, ends[0][0] * forms.weight * forms.h, 0.0)
        pd, pe, rhs, y = solved[-1]
        assert pd.tobytes() == d.tobytes() and pe.tobytes() == (-s / d[:-1]).tobytes()
        _, _, _, _, md, me = forms.interior()
        assert rhs.tobytes() == _tri_mv(md, me, np.ones(md.size)).tobytes()
        kq, bq, _ = forms.quadratics(y / max(y.max(), -y.min()))
        assert kq / bq == lam

    def test_spring_lambda_gives_the_eigenfunction(self):
        # the eigenfunction is one more solve with the spring pivots that
        # certified lambda, the certificate's width below it
        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(5))
        p = ModelParams(alpha_star(m) * (1.0 - 1e-4), 1.0, 0.4)
        disc = make_discretization(2000, m)
        pair = principal_eigenvalue(m, p, Boundary.neumann(), disc)
        assert pair.lam == 0.0012898934048412882
        assert np.min(pair.phi) > 0.0
        kq, bq, _ = assemble(m, p, Boundary.neumann(), disc).quadratics(pair.phi)
        # unit weighted mass, a sum whose terms cancel near alpha*
        assert bq == pytest.approx(1.0, rel=1e-10)
        assert kq / bq == pytest.approx(pair.lam, rel=1e-8)

    @pytest.mark.parametrize(
        "solve, bc, lam, probes",
        [
            (principal_eigenvalue, Boundary.neumann(), 5.122794904717575, 3),
            (principal_eigenvalue, Boundary.robin(1.0), 10.546258833995697, 3),
            (principal_eigenvalue, Boundary.robin(10.0), 20.675249992344682, 3),
            (principal_eigenvalue, Boundary.dirichlet(), 26.60175430686269, 3),
            (eigen_cov, Boundary.robin(1.0), 10.546261858421305, 3),
        ],
        ids=lambda v: getattr(v, "__name__", str(v)),
    )
    def test_certified_lambda_bits(self, params, solve, bc, lam, probes):
        # certified eigenvalues to the last bit, with the tests that found
        # them: a change to the bracket, the bisection or the refinement
        # shows here; each lambda > 1 takes the grid's tests at the sweep
        # bracket's two ends and the certificate's
        m = BangBangInterval(0.1, 0.3, params).weight()
        pair = solve(m, params, bc, make_discretization(2000, m))
        assert (pair.lam, pair.probes) == (lam, probes)

    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-6, 1e-8])
    def test_eigenfunction_near_alpha_star_matches_dense(self, eps):
        # as int m e^{alpha m} phi^2 -> 0 near alpha*, B x has almost no
        # component along phi, so a vector converged against B at a shift
        # below lambda loses digits; phi must stay the dense eigenvector of
        # mu(lambda) = 0, the smallest of the pencil (K - lambda B, M0)
        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(5))
        p = ModelParams(alpha_star(m) * (1.0 - eps), 1.0, 0.4)
        disc = make_discretization(800, m)
        pair = principal_eigenvalue(m, p, Boundary.neumann(), disc)
        kd, ke, bd, be, md, me = assemble(m, p, Boundary.neumann(), disc).interior()
        _, vec = scipy.linalg.eigh(
            _dense(kd - pair.lam * bd, ke - pair.lam * be), _dense(md, me), subset_by_index=[0, 0]
        )
        v = vec[:, 0] * (vec[:, 0] @ pair.phi) / (vec[:, 0] @ vec[:, 0])
        assert np.max(np.abs(v - pair.phi)) <= 1e-9 * np.max(np.abs(pair.phi))

    @pytest.mark.parametrize("n", [800, 2000, 8000])
    def test_eigenfunction_just_above_the_floor(self, n):
        # seed 6 at alpha*(1 - 1e-10): the weighted mass int m e^{alpha m}
        # phi^2 is of order lambda, a sum whose terms cancel; phi has unit
        # weighted mass, phi'K phi = lambda, to the rounding of those sums.
        # The exact root, 1.448877482576622e-08, is above LAMBDA_FLOOR, but
        # one ulp of alpha moves it by 1.23e-6 relative, more than the P1
        # error at n = 8000 (which reads e = -7.4e-8 against it).  The root
        # of the coefficients e^{alpha v} and v e^{alpha v} rounded as
        # assemble rounds them, 3.0e-7 lower, is the one the grid converges
        # to, by the sweep of NEAR_ALPHA_STAR_EXACT
        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(6))
        p = ModelParams(alpha_star(m) * (1.0 - 1e-10), 1.0, 0.4)
        disc = make_discretization(n, m)
        pair = principal_eigenvalue(m, p, Boundary.neumann(), disc)
        exact = 1.448877046158444e-08
        assert 0.0 <= (pair.lam - exact) / exact <= 20.0 / n**2
        assert np.min(pair.phi) > 0.0
        kq, bq, _ = assemble(m, p, Boundary.neumann(), disc).quadratics(pair.phi)
        assert bq == pytest.approx(1.0, rel=1e-5)
        assert kq / pair.lam == pytest.approx(1.0, rel=1e-5)

    def test_eigen_cov_dirichlet_edge_matches_dense(self):
        # a thin piece of weight 5 e^15 in y: the eigenfunction of the
        # y-forms is the dense eigenvector of mu = 0 to rounding
        from drifteig.eigensolve import _cov_forms
        from drifteig.optimize import delta_star

        p = ModelParams(1.5, 5.0, 0.2)
        m = BangBangInterval(0.0, delta_star(p), p).weight()
        disc = make_discretization(500, m)
        pair = eigen_cov(m, p, Boundary.dirichlet(), disc)
        kd, ke, bd, be, md, me = _cov_forms(m, p, Boundary.dirichlet(), disc)[0].interior()
        _, vec = scipy.linalg.eigh(
            _dense(kd - pair.lam * bd, ke - pair.lam * be), _dense(md, me), subset_by_index=[0, 0]
        )
        phi = pair.phi[1:-1]
        v = vec[:, 0] * (vec[:, 0] @ phi) / (vec[:, 0] @ vec[:, 0])
        assert np.max(np.abs(v - phi)) <= 1e-9 * np.max(phi)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 10.0])
    def test_eigenfunction_is_the_certificates_solve(self, monkeypatch, beta):
        # the eigenfunction is one dpttrs solve with the factors of the test
        # that certified lambda: lambda < 1 tests the floor, so that is the
        # spring test of K - lam (1 - CERT_REL) B, whose pivots are the
        # factors; phi is the eigenvector of mu = 0 on a high-contrast weight
        from drifteig import _kernels_py, kernels
        from drifteig.eigensolve import CERT_REL
        from drifteig.optimize import delta_star

        p = ModelParams(1.5, 5.0, 0.2)
        delta = delta_star(p)
        m = BangBangInterval(0.5 * (1.0 - delta), delta, p).weight()
        bc = Boundary.robin(beta)
        disc = make_discretization(800, m)
        _kernels_py.lapack()
        solved, dpttrs = [], _kernels_py.dpttrs
        monkeypatch.setattr(_kernels_py, "dpttrs", lambda d, e, b: solved.append(d) or dpttrs(d, e, b))
        calls = _count_calls(monkeypatch)
        pair = principal_eigenvalue(m, p, bc, disc)
        assert (calls["dpttrf"], calls["springs"]) == (0, 2)  # the floor's and the certificate's
        forms = assemble(m, p, bc, disc)
        below = pair.lam - CERT_REL * pair.lam
        pivots = kernels.springs(-forms.ke, below * forms.weight * forms.h, beta)[0]
        assert solved[-1].tobytes() == pivots.tobytes()
        assert np.min(pair.phi) > 0.0
        assert forms.quadratics(pair.phi)[1] == pytest.approx(1.0, rel=1e-12)
        kd, ke, bd, be, md, me = forms.interior()
        _, vec = scipy.linalg.eigh(
            _dense(kd - pair.lam * bd, ke - pair.lam * be), _dense(md, me), subset_by_index=[0, 0]
        )
        v = vec[:, 0] * (vec[:, 0] @ pair.phi) / (vec[:, 0] @ vec[:, 0])
        assert np.max(np.abs(v - pair.phi)) <= 1e-7 * np.max(pair.phi)

    def test_neumann_floor_misfire_is_decided_by_spring(self, monkeypatch):
        # lambda = 0.396 < 1, so the floor bounds the bracket and is tested,
        # in spring form: at n = 8000 dpttrf's test fires falsely there, and
        # the spring test does not
        from drifteig import kernels
        from drifteig.eigensolve import LAMBDA_FLOOR

        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(5))
        p = ModelParams(alpha_star(m) * 0.97, 1.0, 0.4)
        disc = make_discretization(8000, m)
        forms = assemble(m, p, Boundary.neumann(), disc)
        kd, ke, bd, be, _, _ = forms.interior()
        assert kernels.pencil_inertia(kd, ke, bd, be, LAMBDA_FLOOR)[0] == 1
        assert kernels.springs(-forms.ke, LAMBDA_FLOOR * forms.weight * forms.h, 0.0) is not None
        calls = _count_calls(monkeypatch)
        pair = principal_eigenvalue(m, p, Boundary.neumann(), disc)
        assert pair.lam == 0.3963913544520687 and pair.probes == 11
        # the floor's spring test, then lambda's coarse bracket and its
        # certificate, which, the floor being tested, is a spring test too
        assert (calls["springs"], calls["smallest_pencil_eigenvalue"]) == (2, 1)
        kq, bq, _ = forms.quadratics(pair.phi)
        assert pair.lam == pytest.approx(kq / bq, rel=1e-12)

    @pytest.mark.parametrize(
        "bc, lam, residual",
        [
            # the floor misfires here, which a lambda above 1 no longer tests
            (Boundary.neumann(), 5.122792017486489, 1.3907481223411656e-09),
            (Boundary.dirichlet(), 26.60173305664583, 2.715228208430418e-10),
        ],
        ids=str,
    )
    def test_eigenpair_bits_at_n_8000(self, params, bc, lam, residual):
        # lambda and its eigenfunction's residual to the last bit: a change
        # to the bracket, the refinement or the eigenfunction's solve shows
        m = BangBangInterval(0.1, 0.3, params).weight()
        pair = principal_eigenvalue(m, params, bc, make_discretization(8000, m))
        assert (pair.lam, pair.residual) == (lam, residual)

    @pytest.mark.parametrize(
        "bc", [Boundary.neumann(), Boundary.robin(1.0), Boundary.dirichlet()], ids=str
    )
    def test_lambda_above_one_makes_no_floor_probe(self, params, monkeypatch, bc):
        # the sweep reads the exact lambda above 1, so the grid's first test
        # is at the lower end of the sweep's bracket, and none at the floor
        from drifteig import _kernels_py, kernels
        from drifteig.eigensolve import LAMBDA_FLOOR, _lambda_bracket

        shifts = []
        probe = _kernels_py.pencil_inertia

        def counted(*args):
            shifts.append(args[-1])
            return probe(*args)

        monkeypatch.setattr(_kernels_py, "pencil_inertia", counted)
        monkeypatch.setattr(kernels, "pencil_inertia", counted)
        m = BangBangInterval(0.1, 0.3, params).weight()
        disc = make_discretization(8000, m)
        pair = principal_eigenvalue(m, params, bc, disc)
        lo, hi = _lambda_bracket(assemble(m, params, bc, disc))
        assert pair.lam > 1.0 and shifts[:2] == [lo, hi] and lo > 1.0
        assert LAMBDA_FLOOR not in shifts

    def test_no_shift_is_factored_twice(self, params, rng, monkeypatch):
        # every factorization, a probe's or the solver's own, is of a matrix
        # A - sigma*C that no earlier one in the same solve has factored
        from drifteig import _kernels_py, kernels

        seen = []
        factor = _kernels_py.ldlt

        def recorded(ad, ae, cd, ce, sigma):
            seen.append((ad.tobytes(), cd.tobytes(), sigma))
            return factor(ad, ae, cd, ce, sigma)

        monkeypatch.setattr(_kernels_py, "ldlt", recorded)
        monkeypatch.setattr(kernels, "ldlt", recorded)
        bang = BangBangInterval(0.1, 0.3, params).weight()
        mis = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(5))
        near = ModelParams(alpha_star(mis) * 0.97, 1.0, 0.4)
        solves = [
            lambda n=n, bc=bc: principal_eigenvalue(bang, params, bc, make_discretization(n, bang))
            for n in (2000, 8000)
            for bc in (Boundary.neumann(), Boundary.robin(1.0), Boundary.dirichlet())
        ]
        m = random_admissible(params, rng)
        disc = make_discretization(2000, m)
        solves += [
            lambda: eigen_cov(m, params, Boundary.robin(10.0), disc),
            lambda: mu_curve(m, params, Boundary.neumann(), disc, [0.0, 7.5, 60.0]),
            lambda: principal_eigenvalue(mis, near, Boundary.neumann(), make_discretization(8000, mis)),
        ]
        for solve in solves:
            seen.clear()
            solve()
            assert len(set(seen)) == len(seen) > 0

    def test_eigenvalue_below_floor_still_raises(self):
        # the exact roots are 2.9e-9 and 1.3e-9, below LAMBDA_FLOOR
        from drifteig.eigensolve import BracketError

        for seed in (0, 5):
            m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(seed))
            p = ModelParams(alpha_star(m) * (1.0 - 1e-10), 1.0, 0.4)
            with pytest.raises(BracketError, match="resolvable floor"):
                principal_lambda(m, p, Boundary.neumann(), make_discretization(2000, m))

    @pytest.mark.parametrize(
        "seed, eps, n",
        [(s, e, 2000) for s, e in NEAR_ALPHA_STAR_EXACT] + [(0, 1e-4, 8000), (5, 1e-8, 8000)],
        ids=str,
    )
    def test_near_alpha_star_within_p1_error_of_exact(self, seed, eps, n):
        # every answer is a certified Rayleigh quotient, so it lies at or
        # above the exact root, by no more than the P1 error
        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(seed))
        p = ModelParams(alpha_star(m) * (1.0 - eps), 1.0, 0.4)
        pair = principal_eigenvalue(m, p, Boundary.neumann(), make_discretization(n, m))
        exact = NEAR_ALPHA_STAR_EXACT[seed, eps]
        assert 0.0 <= (pair.lam - exact) / exact <= 20.0 / n**2
        assert np.min(pair.phi) > 0.0

    @pytest.mark.parametrize("seed, exact", [(0, 0.0028657924517641576), (2, 0.0015370778715527009)])
    def test_floor_tested_lambda_is_certified_in_spring_form(self, seed, exact):
        # at alpha*(1 - 1e-4) and n = 2000 dpttrf reads K - (rho - t)B as
        # definite with the coarse quotient rho 4e-6 relative above the grid
        # eigenvalue (e n^2 = 17.5 and 18.2); a lambda below 1 is certified
        # by the spring test alone, which the returned quotient passes, and
        # its error is the P1 error that n = 800 and 8000 show
        from drifteig import kernels
        from drifteig.eigensolve import CERT_REL

        n = 2000
        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(seed))
        p = ModelParams(alpha_star(m) * (1.0 - 1e-4), 1.0, 0.4)
        disc = make_discretization(n, m)
        forms = assemble(m, p, Boundary.neumann(), disc)
        pair = principal_eigenvalue(m, p, Boundary.neumann(), disc)
        below = pair.lam - CERT_REL * pair.lam
        assert kernels.springs(-forms.ke, below * forms.weight * forms.h, 0.0) is not None
        assert 0.0 <= (pair.lam - exact) / exact <= 2.5 / n**2

    @pytest.mark.parametrize(
        "cut, tried, raises",
        [(3e-6, 4, False), (3e-5, 5, False), (3e-4, 5, True)],
        ids=str,
    )
    def test_spring_certificate_widens_then_raises(self, monkeypatch, cut, tried, raises):
        # with the spring test made to read "not definite" from
        # lam (1 - cut) up, the spring bisection ends there, and the
        # certificate's shift below the Rayleigh quotient takes the widths
        # SPRING_WIDTHS in turn until one passes; past the last, 1e-4, the
        # solve raises rather than return a bisection's end or midpoint
        from drifteig import eigensolve

        m = random_admissible(ModelParams(0.2, 1.0, 0.4), np.random.default_rng(5))
        p = ModelParams(alpha_star(m) * (1.0 - 1e-6), 1.0, 0.4)
        disc = make_discretization(2000, m)
        lam = 1.2897912425503611e-05  # the unmodified solve's, from test_near_alpha_star_lambda_bits
        forms = assemble(m, p, Boundary.neumann(), disc)
        wh = forms.weight * forms.h  # the lambda pencil's load is sigma * wh
        shifts, springs = [], eigensolve.kernels.springs

        def cut_off(ph, load, beta):
            sigma = float(load @ wh) / float(wh @ wh)
            shifts.append(sigma)
            return None if sigma >= lam * (1.0 - cut) else springs(ph, load, beta)

        monkeypatch.setattr(eigensolve.kernels, "springs", cut_off)
        assert eigensolve.SPRING_WIDTHS == (1e-8, 1e-7, 1e-6, 1e-5, 1e-4)
        if raises:
            with pytest.raises(eigensolve.SolverError, match="no certificate within 0.0001") as exc:
                principal_lambda(m, p, Boundary.neumann(), disc)
            got = float(str(exc.value).rsplit(" ", 1)[1])  # the quotient it could not certify
        else:
            got = principal_lambda(m, p, Boundary.neumann(), disc)
            assert got == pytest.approx(lam, rel=1e-9)
        # the last shifts tried are the certificate's, below got
        widths = [(got - s) / got for s in shifts[-tried:]]
        assert widths == pytest.approx(eigensolve.SPRING_WIDTHS[:tried], rel=1e-6)

    @pytest.mark.parametrize(
        "bc", [Boundary.neumann(), Boundary.robin(1.0), Boundary.dirichlet()], ids=str
    )
    def test_mu_matches_dense_with_one_bisection(self, params, rng, monkeypatch, bc):
        m = random_admissible(params, rng)
        disc = make_discretization(400, m)
        kd, ke, bd, be, md, me = assemble(m, params, bc, disc).interior()
        # the coarse bisection is one kernel call and feeds one inverse
        # iteration, which starts from a shift the bisection has factored, so
        # the solver factors nothing itself; a probe certifies every mu
        calls = _count_calls(monkeypatch)
        for lam in (-20.0, 0.0, 7.5, 60.0, 120.0):
            target = scipy.linalg.eigh(
                _dense(kd - lam * bd, ke - lam * be), _dense(md, me), eigvals_only=True
            )[0]
            calls.update(smallest_pencil_eigenvalue=0, dpttrf=0)
            mu = mu_of_lambda(m, params, bc, disc, lam)
            assert type(mu) is float
            assert abs(mu - target) <= 1e-10 * max(1.0, abs(target))
            assert calls["dpttrf"] == 0
            assert calls["smallest_pencil_eigenvalue"] == 1
