"""Optimal interval location, sweeps, switch function, mollification."""

import math

import numpy as np
import pytest

from drifteig import (
    BangBangInterval,
    Boundary,
    ModelParams,
    Regime,
    TranscendParams,
    ZeroRegime,
    active_constraint_condition,
    beta_crit,
    choose_delta,
    locate_optimal_interval,
    make_discretization,
    mollify_demo,
    principal_eigenvalue,
    random_admissible,
    sweep_beta,
    switch_function,
    transcendental_root,
)
from drifteig.eigensolve import principal_lambda

DSTAR = 0.3  # (1 - m0) / (kappa + 1) for the default constants


class TestLocate:
    def test_boundary_regime_below_critical(self, params):
        opt = locate_optimal_interval(1.0, DSTAR, params)
        assert opt.regime == Regime.BOUNDARY_LEFT
        assert opt.xi_star == 0.0
        assert opt.mass_active

    def test_centered_regime_above_critical(self, params):
        opt = locate_optimal_interval(10.0, DSTAR, params)
        assert opt.regime == Regime.CENTERED
        assert opt.xi_star == pytest.approx(0.35, abs=1e-7)

    def test_degenerate_at_critical(self, params):
        tp = TranscendParams(params=params, delta=DSTAR)
        bc = beta_crit(tp)
        opt = locate_optimal_interval(bc, DSTAR, params)
        assert opt.regime == Regime.DEGENERATE
        vals = [
            transcendental_root(float(x), bc, tp) for x in np.linspace(0.0, 0.35, 64)
        ]
        assert (max(vals) - min(vals)) / min(vals) <= 1e-8

    def test_lambda_consistent_with_root(self, params):
        opt = locate_optimal_interval(1.0, DSTAR, params)
        tp = TranscendParams(params=params, delta=DSTAR)
        assert opt.lambda_star == pytest.approx(
            transcendental_root(opt.xi_star, 1.0, tp), rel=1e-10
        )

    def test_dirichlet_uses_grid_solver(self, params):
        opt = locate_optimal_interval(math.inf, DSTAR, params, grid_n=1000)
        assert opt.regime == Regime.CENTERED
        assert opt.xi_star == pytest.approx(0.35, abs=1e-4)
        for xi in (0.0, 0.1, 0.2):
            w = BangBangInterval(xi, DSTAR, params).weight()
            lam = principal_lambda(
                w, params, Boundary.dirichlet(), make_discretization(1000, w)
            )
            assert opt.lambda_star <= lam, xi

    def test_objective_symmetry_full_range(self, params):
        tp = TranscendParams(params=params, delta=DSTAR)
        xs = np.linspace(0.0, 1.0 - DSTAR, 64)
        vals = np.array([transcendental_root(float(x), 2.0, tp) for x in xs])
        assert np.max(np.abs(vals - vals[::-1]) / vals) <= 1e-10

    def test_mirrored_twin(self, params):
        opt = locate_optimal_interval(1.0, DSTAR, params)
        twin = opt.mirrored()
        assert twin.regime == Regime.BOUNDARY_RIGHT
        assert twin.xi_star == pytest.approx(1.0 - DSTAR)
        assert twin.lambda_star == opt.lambda_star


class TestTrichotomyLattice:
    def test_small_lattice(self):
        from drifteig.weights import abar

        for kappa in (0.5, 1.0, 2.0):
            for m0 in (0.25, 0.5):
                alpha = 0.4 * min(0.5, abar(ModelParams(0.0, kappa, m0)))
                p = ModelParams(alpha, kappa, m0)
                dstar = (1.0 - m0) / (kappa + 1.0)
                tp = TranscendParams(params=p, delta=dstar)
                bc = beta_crit(tp)
                low = locate_optimal_interval(0.6 * bc, dstar, p)
                high = locate_optimal_interval(1.7 * bc, dstar, p)
                assert low.regime == Regime.BOUNDARY_LEFT and low.xi_star == 0.0
                assert high.regime == Regime.CENTERED
                assert high.xi_star == pytest.approx(0.5 * (1.0 - dstar), abs=1e-7)
                # independent of the placement rule: no xi has a lower root
                for opt in (low, high):
                    for x in np.linspace(0.0, 1.0 - dstar, 33):
                        root = transcendental_root(float(x), opt.beta, tp)
                        assert opt.lambda_star <= root * (1.0 + 1e-12), (opt.beta, x)


class TestActiveConstraint:
    def test_true_at_alpha_zero(self):
        assert active_constraint_condition(ModelParams(0.0, 1.0, 0.4), 10.0)

    def test_guaranteed_below_critical(self, params):
        assert active_constraint_condition(params, 1.0)

    def test_fails_for_small_xi_star(self):
        # tiny centered endpoint makes the sinh bound collapse
        p = ModelParams(0.45, 0.05, 0.05)
        assert not active_constraint_condition(p, 1e6)

    def test_figure_parameters_above_critical(self, params):
        # the sufficient condition fails here, so the scan decides; it
        # lands back on delta* with the constraint active
        assert not active_constraint_condition(params, 10.0)
        delta, active = choose_delta(params, 10.0)
        assert delta == pytest.approx(DSTAR, abs=1e-6)
        assert active

    def test_scan_evaluates_each_point_once(self, params, monkeypatch):
        # the scan already holds the value at m0 and the golden search the
        # value at its minimizer; neither is solved again
        from drifteig import transcend

        seen = []
        root = transcend.transcendental_root

        def counting(xi, beta, tp):
            seen.append((xi, beta, tp.delta))
            return root(xi, beta, tp)

        monkeypatch.setattr(transcend, "transcendental_root", counting)
        choose_delta(params, 10.0)
        assert seen and len(seen) == len(set(seen)), len(seen) - len(set(seen))


class TestSweep:
    def test_rows_and_asymptote(self, params):
        rows, failures = sweep_beta([0.5, 1.0, 2.0, 10000.0], params)
        assert not failures
        assert len(rows) == 5
        assert math.isinf(rows[-1].beta)
        # large beta approaches the Dirichlet reference within 1 percent
        assert rows[-2].lambda_star == pytest.approx(rows[-1].lambda_star, rel=1e-2)
        lams = [r.lambda_star for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))

    def test_single_point(self, params):
        rows, failures = sweep_beta([1.0], params)
        assert not failures
        assert len(rows) == 2
        opt = locate_optimal_interval(1.0, DSTAR, params)
        assert rows[0].lambda_star == pytest.approx(opt.lambda_star, rel=1e-12)

    def test_failed_dirichlet_row_is_recorded(self, params):
        # two cells cannot bracket the Dirichlet eigenvalue; the finite row
        # needs no grid and survives
        rows, failures = sweep_beta([1.0], params, grid_n=2)
        assert [r.beta for r in rows] == [1.0]
        assert len(failures) == 1 and math.isinf(failures[0][0])

    def test_grid_validation(self, params):
        with pytest.raises(ValueError):
            sweep_beta([], params)
        with pytest.raises(ValueError):
            sweep_beta([2.0, 1.0], params)
        with pytest.raises(ValueError):
            sweep_beta([-1.0, 2.0], params)


class TestSwitchFunction:
    def test_negative_everywhere_at_alpha_zero(self):
        p = ModelParams(0.0, 1.0, 0.4)
        w = BangBangInterval(0.0, DSTAR, p).weight()
        pair = principal_eigenvalue(w, p, Boundary.robin(1.0), make_discretization(2000, w))
        _, psi0 = switch_function(pair, w, p)
        assert np.all(psi0 < 0.0)

    def test_shape_at_centered_optimum(self, params):
        opt = locate_optimal_interval(10.0, DSTAR, params)
        w = BangBangInterval(opt.xi_star, DSTAR, params).weight()
        pair = principal_eigenvalue(w, params, Boundary.robin(10.0), make_discretization(2000, w))
        mid, psi0 = switch_function(pair, w, params)
        tol = 1e-9 * np.max(np.abs(psi0))
        left = psi0[mid < opt.xi_star]
        right = psi0[mid > opt.xi_star + DSTAR]
        assert np.all(np.diff(left) <= tol)
        assert np.all(np.diff(right) >= -tol)

    def test_negative_at_origin_for_boundary_right_optimum(self, params):
        # 0 sits in {m = -1} for the mirrored boundary optimum; with
        # beta < beta_crit the switch function starts negative there
        opt = locate_optimal_interval(1.0, DSTAR, params).mirrored()
        w = BangBangInterval(opt.xi_star, DSTAR, params).weight()
        pair = principal_eigenvalue(w, params, Boundary.robin(1.0), make_discretization(2000, w))
        _, psi0 = switch_function(pair, w, params)
        assert psi0[0] < 0.0


class TestMollify:
    def test_width_zero_reproduces_optimum_weight(self, params):
        opt = locate_optimal_interval(1.0, DSTAR, params)
        demo = mollify_demo(opt, [0.0], params, Boundary.robin(1.0), grid_n=1000)
        w = BangBangInterval(0.0, DSTAR, params).weight()
        direct = principal_eigenvalue(w, params, Boundary.robin(1.0), make_discretization(1000, w))
        assert demo[0][1] == direct.lam

    def test_strictly_decreasing_and_above(self, params):
        opt = locate_optimal_interval(1.0, DSTAR, params)
        demo = mollify_demo(opt, [0.08, 0.04, 0.02], params, Boundary.robin(1.0), grid_n=1000)
        base = mollify_demo(opt, [0.0], params, Boundary.robin(1.0), grid_n=1000)[0][1]
        lams = [lam for _, lam in demo]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert all(lam > base for lam in lams)

    def test_centered_optimum_two_ramps(self, params):
        opt = locate_optimal_interval(10.0, DSTAR, params)
        demo = mollify_demo(opt, [0.05, 0.02], params, Boundary.robin(10.0), grid_n=1000)
        base = mollify_demo(opt, [0.0], params, Boundary.robin(10.0), grid_n=1000)[0][1]
        assert demo[0][1] > demo[1][1] > base

    def test_too_wide_ramp_rejected(self, params):
        opt = locate_optimal_interval(10.0, DSTAR, params)
        with pytest.raises(ValueError):
            mollify_demo(opt, [0.8], params, Boundary.robin(10.0), grid_n=500)


class TestGlobalOptimality:
    def test_random_weights_never_beat_located_design(self, params, rng):
        delta, _ = choose_delta(params, 1.0)
        lam_star = locate_optimal_interval(1.0, delta, params).lambda_star
        for _ in range(50):
            m = random_admissible(params, rng)
            r = principal_eigenvalue(m, params, Boundary.robin(1.0), make_discretization(1500, m))
            lam = r.lam if not isinstance(r, ZeroRegime) else math.inf
            assert lam >= lam_star - 1e-6
