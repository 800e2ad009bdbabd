"""Weight representation, masses, thresholds and admissibility."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifteig import (
    BangBangInterval,
    Boundary,
    ModelParams,
    PiecewiseWeight,
    TranscendParams,
    abar,
    alpha_star,
    brute_force_expmass_max,
    exp_mass,
    is_admissible,
    mass,
    random_admissible,
)
from drifteig.weights import SearchSpaceError


@st.composite
def piecewise_weights(draw, vmax=2.0):
    n = draw(st.integers(min_value=1, max_value=6))
    lengths = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    values = draw(
        st.lists(
            st.floats(-1.0, vmax, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    bp = np.concatenate(([0.0], np.cumsum(lengths, dtype=float) / sum(lengths)))
    bp[-1] = 1.0
    return PiecewiseWeight(tuple(bp), tuple(values))


TWO_STEP = PiecewiseWeight((0.0, 0.5, 1.0), (-1.0, 1.0))


class TestEval:
    def test_interior_point(self):
        assert TWO_STEP.eval(0.25) == -1.0

    def test_right_continuity_at_breakpoint(self):
        assert TWO_STEP.eval(0.5) == 1.0

    def test_constant(self, params):
        const = PiecewiseWeight((0.0, 1.0), (params.kappa,))
        for x in (0.0, 0.3, 1.0):
            assert const.eval(x) == params.kappa

    def test_domain_error(self):
        with pytest.raises(ValueError):
            TWO_STEP.eval(1.5)
        with pytest.raises(ValueError):
            TWO_STEP.eval(-0.1)

    @given(piecewise_weights(), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_scan(self, m, x):
        # reference: walk the pieces, right-continuous, last value at x = 1
        expected = m.values[-1]
        for i in range(len(m.values)):
            if m.breakpoints[i] <= x < m.breakpoints[i + 1]:
                expected = m.values[i]
                break
        assert m.eval(x) == expected


class TestMass:
    def test_constant_negative(self):
        assert mass(PiecewiseWeight((0.0, 1.0), (-1.0,))) == -1.0

    def test_bang_bang(self, params):
        w = BangBangInterval(0.2, 0.3, params).weight()
        assert mass(w) == pytest.approx(-0.4, abs=1e-15)

    def test_delta_star_saturates_bound(self, params):
        delta = (1.0 - params.m0) / (params.kappa + 1.0)
        w = PiecewiseWeight((0.0, delta, 1.0), (params.kappa, -1.0))
        assert mass(w) == pytest.approx(-params.m0, abs=1e-15)


class TestExpMass:
    def test_alpha_zero_reduces_to_mass(self, rng):
        for _ in range(5):
            m = random_admissible(ModelParams(0.2, 1.0, 0.4), rng)
            assert exp_mass(m, 0.0) == pytest.approx(mass(m), abs=1e-15)

    def test_constant_minus_one(self):
        m = PiecewiseWeight((0.0, 1.0), (-1.0,))
        for a in (0.0, 0.5, 2.0):
            assert exp_mass(m, a) == pytest.approx(-math.exp(-a), rel=1e-15)

    def test_vanishes_at_threshold(self, params):
        delta = (1.0 - params.m0) / (params.kappa + 1.0)
        w = BangBangInterval(0.1, delta, params).weight()
        assert abs(exp_mass(w, abar(params))) <= 1e-12

    def test_strictly_increasing_in_alpha(self, params, rng):
        m = random_admissible(params, rng)
        for a in rng.uniform(0.0, 2.0, size=20):
            h = 1e-6
            slope = (exp_mass(m, a + h) - exp_mass(m, max(a - h, 0.0))) / (
                a + h - max(a - h, 0.0)
            )
            assert slope > 0.0


def _bisect_alpha_star(m, lo=0.0, hi=64.0, iters=80):
    # independent oracle: plain bisection on the monotone exp-mass map
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if exp_mass(m, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestAlphaStar:
    def test_closed_form_bang_bang(self, params):
        delta = (1.0 - params.m0) / (params.kappa + 1.0)
        w = BangBangInterval(0.0, delta, params).weight()
        assert alpha_star(w) == pytest.approx(0.4236489301936018, abs=1e-9)

    def test_nonpositive_weight_returns_inf(self):
        assert alpha_star(PiecewiseWeight((0.0, 1.0), (-1.0,))) == math.inf

    def test_nonnegative_exp_mass_returns_zero(self):
        m = PiecewiseWeight((0.0, 0.5, 1.0), (1.0, -0.2))
        assert exp_mass(m, 0.0) > 0.0
        assert alpha_star(m) == 0.0

    def test_agrees_with_bisection_oracle(self, params, rng):
        for _ in range(10):
            m = random_admissible(params, rng)
            assert alpha_star(m) == pytest.approx(_bisect_alpha_star(m), abs=1e-10)

    def test_invariant_under_piece_permutation(self, params, rng):
        m = random_admissible(params, rng)
        pieces = list(m.pieces())
        for _ in range(5):
            perm = rng.permutation(len(pieces))
            shuffled = [pieces[i] for i in perm]
            bp = np.concatenate(([0.0], np.cumsum([ell for _, ell in shuffled])))
            bp[-1] = 1.0
            m2 = PiecewiseWeight(tuple(bp), tuple(v for v, _ in shuffled))
            assert alpha_star(m2) == pytest.approx(alpha_star(m), abs=1e-12)


class TestAbar:
    def test_reference_value(self, params):
        assert abar(params) == pytest.approx(0.5 * math.log(7.0 / 3.0), rel=1e-15)

    def test_vanishes_as_m0_tends_to_zero(self):
        assert abar(ModelParams(0.0, 1.0, 1e-9)) == pytest.approx(0.0, abs=1e-8)

    def test_matches_alpha_star_of_saturating_bang_bang(self, rng):
        for _ in range(5):
            kappa = float(rng.uniform(0.3, 3.0))
            m0 = float(rng.uniform(0.1, 0.9))
            p = ModelParams(0.0, kappa, m0)
            delta = (1.0 - m0) / (kappa + 1.0)
            xi = float(rng.uniform(0.0, 1.0 - delta))
            w = BangBangInterval(xi, delta, p).weight()
            assert alpha_star(w) == pytest.approx(abar(p), abs=1e-10)


class TestAdmissibility:
    def test_saturating_interval_admissible(self, params):
        delta = (1.0 - params.m0) / (params.kappa + 1.0)
        assert is_admissible(BangBangInterval(0.2, delta, params).weight(), params)

    def test_constant_kappa_violates_mass(self, params):
        verdict = is_admissible(PiecewiseWeight((0.0, 1.0), (params.kappa,)), params)
        assert not verdict
        assert "mass" in verdict.reason

    def test_never_positive_rejected(self, params):
        verdict = is_admissible(PiecewiseWeight((0.0, 1.0), (-1.0,)), params)
        assert not verdict
        assert "positive" in verdict.reason

    def test_invariant_under_piece_permutation(self, params, rng):
        m = random_admissible(params, rng)
        pieces = list(m.pieces())
        perm = rng.permutation(len(pieces))
        shuffled = [pieces[i] for i in perm]
        bp = np.concatenate(([0.0], np.cumsum([ell for _, ell in shuffled])))
        bp[-1] = 1.0
        m2 = PiecewiseWeight(tuple(bp), tuple(v for v, _ in shuffled))
        assert bool(is_admissible(m2, params)) == bool(is_admissible(m, params))


class TestBruteForce:
    def test_maximizer_is_bang_bang(self, params):
        w, _ = brute_force_expmass_max(params, 10, [-1.0, 0.0, params.kappa])
        assert set(w.values) <= {-1.0, params.kappa}

    def test_value_independent_of_arrangement(self, params):
        _, best = brute_force_expmass_max(params, 10, [-1.0, params.kappa])
        delta_cells = 3  # floor(10 * delta*) with delta* = 0.3
        vals = [params.kappa] * delta_cells + [-1.0] * (10 - delta_cells)
        expected = sum(v * math.exp(params.alpha * v) for v in vals) / 10.0
        assert best == pytest.approx(expected, rel=1e-14)

    def test_alpha_zero_gives_grid_mass_bound(self):
        p = ModelParams(0.0, 1.0, 0.4)
        _, best = brute_force_expmass_max(p, 10, [-1.0, 0.0, 1.0])
        assert best == pytest.approx(-p.m0, abs=1e-15)

    def test_search_space_guard(self, params):
        with pytest.raises(SearchSpaceError):
            brute_force_expmass_max(params, 13, [-1.0, params.kappa])
        with pytest.raises(SearchSpaceError):
            brute_force_expmass_max(params, 10, [-1.0, 0.0, 0.5, 0.8, params.kappa])


class TestClassProperties:
    def test_exp_mass_negative_below_abar(self, params, rng):
        bound = abar(params)
        for _ in range(30):
            m = random_admissible(params, rng)
            a = float(rng.uniform(0.0, bound * 0.999))
            assert exp_mass(m, a) < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PiecewiseWeight((0.0, 0.5), (1.0, 2.0))
        with pytest.raises(ValueError):
            PiecewiseWeight((0.0, 0.6, 0.5, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            ModelParams(-0.1, 1.0, 0.4)
        with pytest.raises(ValueError):
            ModelParams(0.1, 1.0, 1.4)
        with pytest.raises(ValueError):
            ModelParams(0.2, 1800.0, 0.4)  # e^{2 alpha (kappa+1)} overflows
        with pytest.raises(ValueError):
            BangBangInterval(0.9, 0.3, ModelParams(0.1, 1.0, 0.4))

    @pytest.mark.parametrize(
        "cls, args",
        [
            (PiecewiseWeight, ((0.0, math.nan, 1.0), (1.0, -1.0))),
            (PiecewiseWeight, ((0.0, 0.5, 1.0), (math.inf, -1.0))),
            (PiecewiseWeight, ((0.0, 0.5, 1.0), (1.0, math.nan))),
            (PiecewiseWeight, ((0.0, 0.5, 1.0), (1.0, -math.inf))),
            (ModelParams, (math.inf, 1.0, 0.4)),
            (ModelParams, (math.nan, 1.0, 0.4)),
            (ModelParams, (0.2, math.inf, 0.4)),
            (ModelParams, (0.2, math.nan, 0.4)),
            (Boundary, (-math.inf,)),
            (Boundary, (math.nan,)),
            (TranscendParams, (ModelParams(0.2, 1.0, 0.4), math.nan)),
            (TranscendParams, (ModelParams(0.2, 1.0, 0.4), math.inf)),
        ],
    )
    def test_non_finite_input_rejected(self, cls, args):
        with pytest.raises(ValueError):
            cls(*args)

    def test_boundary_kinds(self):
        assert Boundary.neumann().is_neumann
        assert Boundary.dirichlet().is_dirichlet
        assert not Boundary.robin(2.0).is_dirichlet


class TestSerialization:
    @given(piecewise_weights())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_evaluates_identically(self, m):
        back = PiecewiseWeight.from_json(m.to_json())
        xs = np.linspace(0.0, 1.0, 137)
        assert np.array_equal(back.eval_many(xs), m.eval_many(xs))
