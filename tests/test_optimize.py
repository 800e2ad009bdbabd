"""Optimal interval location, sweeps, switch function, mollification."""

import dataclasses
import math
import re

import numpy as np
import pytest

from drifteig import (
    BangBangInterval,
    Boundary,
    DesignOptimum,
    ModelParams,
    Regime,
    TranscendParams,
    ZeroRegime,
    active_constraint_condition,
    beta_crit,
    choose_delta,
    cli,
    eigensolve,
    locate_optimal_interval,
    make_discretization,
    mollify_demo,
    optimize,
    principal_eigenvalue,
    random_admissible,
    sweep_beta,
    switch_function,
    transcendental_root,
)
from drifteig.eigensolve import principal_lambda

DSTAR = 0.3  # (1 - m0) / (kappa + 1) for the default constants


def _bits(row):
    """A design's fields, floats as their hex, so equal means equal to the last bit."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(row)]


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
        # the Dirichlet optimum is the closed-form root at the center; a P1
        # grid overestimates, so each grid solve, the center's too, lies above it
        opt = locate_optimal_interval(math.inf, DSTAR, params)
        assert opt.regime == Regime.CENTERED
        assert opt.xi_star == pytest.approx(0.35, abs=1e-4)
        for xi in (0.0, 0.1, 0.2, opt.xi_star):
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

    def test_none_delta_chooses_the_length(self, params):
        opt = locate_optimal_interval(10.0, None, params)
        delta, active = choose_delta(params, 10.0)
        assert opt == locate_optimal_interval(10.0, delta, params)
        assert opt.mass_active == active

    def test_designs_hold_python_floats(self, params):
        # under numpy 2 repr(np.float64(0.35)) is "np.float64(0.35)", which
        # cli._write_csv would write into the sweep's and locate's files
        bcrit = beta_crit(TranscendParams(params, DSTAR))
        table = optimize._DesignTable(params)
        for delta in (DSTAR, 0.5 * DSTAR):
            tp, bc = table.interval(delta)
            assert type(tp.delta) is float and type(bc) is float
            for beta in (0.5 * bcrit, bcrit, 2.0 * bcrit, math.inf):
                assert type(optimize._centre(beta, delta, bc)) is float
                assert type(table.root(beta, delta)) is float
        rows, failures = sweep_beta(np.geomspace(0.1, 30.0, 4), params)
        rows += [locate_optimal_interval(b, d, params) for b in (1.0, 10.0, math.inf) for d in (None, DSTAR)]
        rows.append(locate_optimal_interval(np.float64(10.0), np.float64(DSTAR), params))
        assert not failures and len(rows) == 12
        for row in rows:
            for name in ("xi_star", "delta", "lambda_star", "beta_crit"):
                assert type(getattr(row, name)) is float, (row, name)

    def test_locate_command_refines_each_root_once(self, tmp_path, capsys, counted_roots):
        # choosing the length hands its root to the located optimum, so no
        # (xi, beta, delta) root is refined twice
        assert cli.main(["locate", "--beta", "10", "--out", str(tmp_path)]) == 0
        assert counted_roots and len(counted_roots) == len(set(counted_roots)), counted_roots


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

    def test_huge_critical_product_does_not_overflow(self):
        # b* xi* ~ 3441 here, where sinh^2 overflows; the bound is 1/2
        p = ModelParams(0.0, 0.05, 0.999)
        assert active_constraint_condition(p, 1e9)
        assert not active_constraint_condition(ModelParams(0.5, 0.05, 0.999), 1e9)

    def test_figure_parameters_above_critical(self, params):
        # the sufficient condition fails here, so the scan decides; it
        # lands back on delta* with the constraint active
        assert not active_constraint_condition(params, 10.0)
        delta, active = choose_delta(params, 10.0)
        assert delta == pytest.approx(DSTAR, abs=1e-6)
        assert active

    @pytest.mark.parametrize("beta", [math.nan, -1.0, -math.inf])
    def test_beta_outside_range_rejected(self, params, beta):
        # the design path checks beta as transcendental_root does, before
        # the sufficient condition could answer for a beta it has no meaning at
        message = re.escape(f"beta must lie in [0, inf], got {beta}")
        with pytest.raises(ValueError, match=message):
            active_constraint_condition(params, beta)
        with pytest.raises(ValueError, match=message):
            choose_delta(params, beta)

    @pytest.mark.parametrize("beta", [0.0, math.inf])
    def test_beta_range_ends_answer(self, params, beta):
        assert type(active_constraint_condition(params, beta)) is bool
        delta, active = choose_delta(params, beta)
        assert 0.0 < delta <= DSTAR and active == (delta == DSTAR)

    def test_scan_evaluates_each_point_once(self, params, counted_roots):
        # the scan keeps the value at m0 and the golden search the value at
        # its minimizer, and locate_optimal_interval reuses the chosen one
        inactive = ModelParams(2.0, 0.08, 0.03)  # an interior minimum: golden search
        bcrit = beta_crit(TranscendParams(params=inactive, delta=optimize.delta_star(inactive)))
        for p, beta in ((params, 10.0), (inactive, 4.0 * bcrit)):
            counted_roots.clear()
            locate_optimal_interval(beta, None, p)
            assert counted_roots and len(counted_roots) == len(set(counted_roots)), p

    def test_scan_minimum_at_bound_settled_by_one_probe(self, params, counted_roots, monkeypatch):
        # of the 32 points only m0 can be the minimum, and the one evaluation
        # of F at its root shows it without refining another length; the same
        # evaluation puts the probe's root, at m0 + ACTIVE_TOL, above m0's, so
        # m0's is the only root refined and there is no golden search
        from drifteig import transcend

        asked = []
        roots_at_or_below = transcend._roots_at_or_below

        def recorded(beta, lam, p, deltas, xis):
            below = roots_at_or_below(beta, lam, p, deltas, xis)
            asked.append((list(deltas), list(below)))
            return below

        monkeypatch.setattr(transcend, "_roots_at_or_below", recorded)
        assert choose_delta(params, 10.0) == (DSTAR, True)
        assert [delta for _, _, delta in counted_roots] == [DSTAR]
        probe = (1.0 - (params.m0 + optimize.ACTIVE_TOL)) / (params.kappa + 1.0)
        [(deltas, below)] = asked
        assert len(deltas) == optimize.DELTA_SCAN_POINTS and deltas[0] == probe
        assert not any(below)
        table = optimize._DesignTable(params)
        assert table.root(10.0, probe) > table.root(10.0, DSTAR)

    def test_design_path_calls_no_numpy(self, params, monkeypatch):
        # choosing and placing a length runs on plain floats: a pinned design,
        # a scanned one settled by the active-bound probe, and one whose scan
        # minimum is interior, so the golden search refines it
        inner = ModelParams(2.0, 0.08, 0.03)
        golden = 4.0 * beta_crit(TranscendParams(params=inner, delta=optimize.delta_star(inner)))
        cases = [(params, 1.0), (params, 10.0), (inner, golden)]
        assert active_constraint_condition(params, 1.0)
        assert not active_constraint_condition(params, 10.0)

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used on the design path")

        from drifteig import transcend

        monkeypatch.setattr(transcend, "np", NoNumpy())
        monkeypatch.setattr(optimize, "np", NoNumpy())
        got = [(choose_delta(p, beta), locate_optimal_interval(beta, None, p)) for p, beta in cases]
        # and a sweep on a list of floats, whose rows share one design table
        swept = [sweep_beta([1.0, 10.0], params), sweep_beta([golden], inner)]
        monkeypatch.undo()
        assert [active for (_, active), _ in got] == [True, True, False]
        assert got[2][0][0] < optimize.delta_star(inner)
        for (p, beta), (chosen, opt) in zip(cases, got):
            assert (opt.delta, opt.mass_active) == chosen
            assert opt == locate_optimal_interval(beta, chosen[0], p)
        assert swept[0] == ([opt for _, opt in got[:2]] + [locate_optimal_interval(math.inf, None, params)], [])
        assert swept[1][0][0] == got[2][1] and not swept[1][1]

    def test_several_candidates_pick_the_argmin(self, counted_roots):
        # here several lengths' roots lie at or below m0's, so more than one
        # scan point is refined, and the pick is still the argmin over all 32
        # refined values
        p = ModelParams(2.0, 0.08, 0.03)
        beta = 4.0 * beta_crit(TranscendParams(params=p, delta=optimize.delta_star(p)))
        got = choose_delta(p, beta)
        grid = (1.0 - np.linspace(p.m0, 1.0 - 1e-3, optimize.DELTA_SCAN_POINTS)) / (p.kappa + 1.0)
        scanned = {delta for _, _, delta in counted_roots} & set(grid.tolist())
        assert 1 < len(scanned) < optimize.DELTA_SCAN_POINTS
        assert got == _scan_and_golden_delta(p, beta)

    @pytest.mark.parametrize(
        "alpha, kappa, m0, beta_ratio",
        [
            (0.2, 1.0, 0.4, 10.0 / 3.2232),  # the figure's design at beta ~ 10
            (0.2, 1.0, 0.4, 30.0),
            (0.45, 0.05, 0.05, 5.0),
            (1.0, 0.1, 0.05, 5.0),  # inactive: delta ~ 0.8270
            (2.0, 0.08, 0.03, 4.0),  # inactive: delta ~ 0.7803
            (0.2, 1.0, 0.4, math.inf),  # Dirichlet
            (1.5, 0.3, 0.03, 10.0),  # inactive: delta ~ 0.6857
            (0.8, 3.0, 0.4, 1.1),  # shorter lengths at the edge, longer ones centered
            (2.0, 0.3, 0.2, math.inf),  # Dirichlet, inactive: delta ~ 0.5497
            (0.45, 0.05, 0.05, math.nan),
        ],
    )
    def test_matches_scan_and_golden_search(self, alpha, kappa, m0, beta_ratio):
        p = ModelParams(alpha, kappa, m0)
        dstar = optimize.delta_star(p)
        beta = beta_ratio * beta_crit(TranscendParams(params=p, delta=dstar))
        got = _outcome(choose_delta, p, beta)
        assert got == _outcome(_scan_and_golden_delta, p, beta)
        if math.isnan(beta):
            assert got == _outcome(active_constraint_condition, p, beta)
            assert got == "beta must lie in [0, inf], got nan"
        else:
            assert not active_constraint_condition(p, beta)  # the scan decides
            delta, active = got
            assert active == (delta == dstar)

    def test_golden_minimizer_near_bound_returns_delta_star(self, monkeypatch):
        # a refined minimizer within ACTIVE_TOL of m0 counts as the active
        # bound, so the length is delta* itself and "active" never pairs
        # with a shorter interval
        p = ModelParams(1.0, 0.1, 0.05)  # inactive: the scan minimum is interior
        dstar = optimize.delta_star(p)
        beta = 5.0 * beta_crit(TranscendParams(params=p, delta=dstar))
        near = p.m0 + optimize.ACTIVE_TOL / 2.0
        monkeypatch.setattr(optimize, "_golden_min", lambda f, a, b, tol: (near, 0.0))
        assert choose_delta(p, beta) == (dstar, True)
        opt = locate_optimal_interval(beta, None, p)
        assert (opt.delta, opt.mass_active) == (dstar, True)

    def test_m0_above_the_scan_cap_keeps_delta_at_most_delta_star(self):
        # the scan caps the resource amount at 1 - 1e-3; a larger m0 has no
        # amount to scan, and no length above delta* may come back
        p = ModelParams(0.5, 0.05, 0.9999)
        assert not active_constraint_condition(p, 1e6)
        assert choose_delta(p, 1e6) == (optimize.delta_star(p), True)


def _outcome(choose, params, beta):
    """choose(params, beta), or the message of the ValueError it raises."""
    try:
        return choose(params, beta)
    except ValueError as exc:
        return str(exc)


def _scan_and_golden_delta(params, beta):
    """choose_delta's scanned decision without the bound probe or the
    pruning of lengths: the coarse scan over m~ in [m0, 1 - 1e-3], golden
    refinement around its minimum, and delta = delta* with the bound active
    when the refined minimizer is within 1e-6 of m0.  Each lambda is the
    transcendental root at the paper's xi: 0 below beta_crit, the center
    above."""
    def lam_of_mtilde(mt):
        delta = (1.0 - mt) / (params.kappa + 1.0)
        tp = TranscendParams(params=params, delta=delta)
        xi = 0.0 if beta < beta_crit(tp) else 0.5 * (1.0 - delta)
        return transcendental_root(xi, beta, tp)

    grid = np.linspace(params.m0, 1.0 - 1e-3, 32)
    vals = [lam_of_mtilde(float(t)) for t in grid]
    i = int(np.argmin(vals))
    lo, hi = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, 31)])
    mt_opt, lam_opt = optimize._golden_min(lam_of_mtilde, lo, hi, 1e-7)
    if vals[0] <= lam_opt + 1e-12 or abs(mt_opt - params.m0) <= 1e-6:
        mt_opt = params.m0
    return (1.0 - mt_opt) / (params.kappa + 1.0), mt_opt == params.m0


@pytest.fixture
def counted_roots(monkeypatch):
    """Record every transcendental root refined, by (xi, beta, delta)."""
    from drifteig import transcend

    refined = []
    root = transcend.transcendental_root

    def counted(xi, beta, tp):
        refined.append((xi, beta, tp.delta))
        return root(xi, beta, tp)

    monkeypatch.setattr(transcend, "transcendental_root", counted)
    return refined


class TestSweep:
    def test_figure_sweep_refines_each_root_once_per_row(self, params, counted_roots):
        # the figure's 60 betas: a row refines m0's root and the lengths whose
        # roots lie at or below it; the located row reuses the root its
        # length scan refined
        rows, failures = sweep_beta(np.geomspace(0.1, 30.0, 60), params)
        assert len(rows) == 61 and not failures
        assert len(counted_roots) == len(set(counted_roots)) <= 86
        assert {beta for _, beta, _ in counted_roots} == {r.beta for r in rows}

    def test_figure_sweep_rows_are_located_designs(self, params, monkeypatch):
        # each row is one locate_optimal_interval call, and a scanned row asks
        # of its 31 other lengths and the active-bound probe once, in one
        # evaluation of F
        from drifteig import transcend

        asked = []
        roots_at_or_below = transcend._roots_at_or_below

        def counted(beta, lam, p, deltas, xis):
            asked.append((beta, len(deltas)))
            return roots_at_or_below(beta, lam, p, deltas, xis)

        monkeypatch.setattr(transcend, "_roots_at_or_below", counted)
        betas = np.geomspace(0.1, 30.0, 60).tolist()
        rows, failures = sweep_beta(betas, params)
        assert not failures and asked
        assert len({beta for beta, _ in asked}) == len(asked)
        assert {size for _, size in asked} == {optimize.DELTA_SCAN_POINTS}
        monkeypatch.undo()
        assert rows == [locate_optimal_interval(b, None, params) for b in betas + [math.inf]]

    @pytest.mark.parametrize(
        "p, ratios",
        [
            (ModelParams(0.2, 1.0, 0.4), None),  # the figure's 60 betas
            (ModelParams(2.0, 0.08, 0.03), np.geomspace(0.5, 8.0, 12)),  # times beta_crit
        ],
    )
    def test_rows_equal_standalone_locates_bit_for_bit(self, p, ratios, counted_roots):
        # sweep_beta shares one design table among its rows; each row, the
        # Dirichlet one too, is the one locate_optimal_interval gives alone,
        # to the last bit.  The second design's rows refine many lengths
        # each, scanned ones and the golden search's, away from delta*
        if ratios is None:
            betas = np.geomspace(0.1, 30.0, 60).tolist()
        else:
            bcrit = beta_crit(TranscendParams(p, optimize.delta_star(p)))
            betas = (bcrit * ratios).tolist()
        rows, failures = sweep_beta(betas, p)
        assert not failures and len(rows) == len(betas) + 1 and math.isinf(rows[-1].beta)
        counted_roots.clear()
        alone = [locate_optimal_interval(b, None, p) for b in betas + [math.inf]]
        assert [_bits(r) for r in rows] == [_bits(r) for r in alone]
        if ratios is not None:
            assert any(r.delta < optimize.delta_star(p) for r in rows)
            assert len(counted_roots) > 2 * len(alone)

    def test_back_to_back_sweeps_keep_their_own_params(self, params):
        # the table lives for one sweep_beta call: no row of one sweep
        # carries over into the next
        inner = ModelParams(2.0, 0.08, 0.03)
        betas = [0.5, 2.0, 8.0]
        first, second, again = (sweep_beta(betas, p)[0] for p in (params, inner, params))
        assert first == again == [locate_optimal_interval(b, None, params) for b in betas + [math.inf]]
        assert second == [locate_optimal_interval(b, None, inner) for b in betas + [math.inf]]
        assert all(a.delta != b.delta and a.beta_crit != b.beta_crit for a, b in zip(first, second))

    def test_unconverged_row_is_a_failure(self):
        # one scanned length's root lies below S_FLOOR^2, where the root search
        # stops: the row is recorded with RootNotFoundError's message and the
        # sweep goes on
        p = ModelParams(5.564543571747359, 48.39791318673609, 0.03411805276675452)
        rows, failures = sweep_beta([1.0185061675060684e-122], p)
        assert [beta for beta, _ in failures] == [1.0185061675060684e-122]
        assert "F is not positive" in failures[0][1]
        assert [r.beta for r in rows] == [math.inf]

    @pytest.mark.parametrize("p", [ModelParams(0.2, 1.0, 0.4), ModelParams(0.45, 0.05, 0.05)])
    def test_rows_are_designs_active_at_delta_star(self, p):
        rows, failures = sweep_beta([1.0, 10.0, 100.0], p)
        assert not failures and all(isinstance(r, DesignOptimum) for r in rows)
        assert [r.mass_active for r in rows] == [r.delta == optimize.delta_star(p) for r in rows]
        assert rows == [locate_optimal_interval(r.beta, None, p) for r in rows]

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

    def test_failed_dirichlet_row_is_recorded(self, params, failing_dirichlet_root):
        # a Dirichlet root that raises loses its row only; the finite row survives
        rows, failures = sweep_beta([1.0], params)
        assert [r.beta for r in rows] == [1.0]
        assert len(failures) == 1 and math.isinf(failures[0][0])

    def test_dirichlet_grid_checked_against_closed_form(self, params, failing_dirichlet_root):
        # the failed row carries the root finder's message, and the rows
        # before it are the ones an unbroken sweep gives
        rows, failures = sweep_beta([1.0, 10.0], params)
        ((beta, message),) = failures
        assert math.isinf(beta)
        assert message == "no Dirichlet root at xi=0.35"
        assert rows == [locate_optimal_interval(b, None, params) for b in (1.0, 10.0)]

    def test_thin_interval_dirichlet_row(self):
        # the length scan reaches delta = 9.5e-4, under two cells at
        # n = 2000; the closed form does not need the grid there
        rows, failures = sweep_beta([1.0], ModelParams(0.45, 0.05, 0.05))
        assert not failures and len(rows) == 2
        row = rows[-1]
        assert math.isinf(row.beta) and not row.mass_active
        assert 1.0 - 2.0 * row.xi_star == pytest.approx(0.8998, abs=1e-4)
        assert row.lambda_star == pytest.approx(183.325, rel=1e-5)

    def test_grid_validation(self, params):
        with pytest.raises(ValueError):
            sweep_beta([], params)
        with pytest.raises(ValueError):
            sweep_beta([2.0, 1.0], params)
        with pytest.raises(ValueError):
            sweep_beta([-1.0, 2.0], params)

    @pytest.mark.parametrize("grid", [[1.0, math.inf], [math.nan]])
    def test_non_finite_beta_rejected(self, params, grid):
        # the sweep appends the Dirichlet row (beta = inf) itself
        with pytest.raises(ValueError, match="finite"):
            sweep_beta(grid, params)

    def test_sweep_and_locate_solve_no_grid(self, params, tmp_path, capsys, monkeypatch):
        # every design row, the Dirichlet one included, is a transcendental root
        def no_grid(*args):
            raise AssertionError("a design path assembled a grid")

        monkeypatch.setattr(eigensolve, "assemble", no_grid)
        rows, failures = sweep_beta(np.geomspace(0.1, 30.0, 60).tolist(), params)
        assert not failures and len(rows) == 61
        assert locate_optimal_interval(math.inf, None, params).regime == Regime.CENTERED
        assert cli.main(["sweep", "--out", str(tmp_path / "s")]) == 0
        assert cli.main(["locate", "--dirichlet", "--out", str(tmp_path / "l")]) == 0


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
