"""Closed-form interval machinery: F, roots, critical coefficient, eigenfunction."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from drifteig import (
    BangBangInterval,
    Boundary,
    F_components,
    ModelParams,
    TranscendParams,
    beta_crit,
    closed_form_eigenfunction,
    delta_diag,
    dirichlet_root,
    make_discretization,
    principal_eigenvalue,
    regime_equations,
    transcendental_root,
)
from drifteig.optimize import delta_star
from drifteig import transcend
from drifteig.transcend import NonFiniteError, RootNotFoundError, _f_scaled

# First roots of the literal F from an 80-digit mpmath bisection (a log scan
# in s = sqrt(lambda) to the first sign change, then 300 halvings), pinned
# because mpmath is not a dependency: (alpha, kappa, delta, xi, beta, lambda)
DELTA_50 = 0.6 / 51.0  # delta* for (kappa, m0) = (50, 0.4)
PINNED_ROOTS = [
    # large K = kappa e^{2 alpha (kappa+1)}: the literal F's (K-1) and (K+1) sums cancel
    (0.3, 50.0, 0.3, 0.0, 1e4, 2.038940991481598631259148e-4),
    # roots far below the top of the root search
    (0.6, 50.0, 0.3, 0.0, 10.0, 6.69195887403221928182114e-14),
    (1.0, 50.0, DELTA_50, 0.5 * (1.0 - DELTA_50), math.inf, 4.882361983095903629250345e-22),
    # the design path: (alpha, kappa, m0) = (0.2, 1, 0.4), the figure's, and
    # (0.26, 0.5, 0.2) and (0.275, 2, 0.6), like design_grid's; delta = delta*
    # = (1 - m0)/(kappa + 1); xi at the edge and the centre (1 - delta)/2;
    # beta in {0.1, 0.5 beta_crit, 2 beta_crit, 30, inf}, beta_crit from
    # critical_beta, all as floats.  The root in s = sqrt(lambda) by a halving
    # scan down from pi/(sqrt(kappa) delta) to the first positive F, then 400
    # bisections, at 80 and at 120 digits, which agree to 60
    (0.2, 1.0, 0.3, 0.0, 0.1, 3.732827884747445970930828),
    (0.2, 1.0, 0.3, 0.0, 1.6116103643278201, 10.54312167571536241057254),
    (0.2, 1.0, 0.3, 0.0, 6.4464414573112805, 22.65208701470879472202149),
    (0.2, 1.0, 0.3, 0.0, 30.0, 40.45110222186145357928837),
    (0.2, 1.0, 0.3, 0.0, math.inf, 51.90541829480668491027804),
    (0.2, 1.0, 0.3, 0.35, 0.1, 11.80114119663031746898125),
    (0.2, 1.0, 0.3, 0.35, 1.6116103643278201, 14.44838278211537576351566),
    (0.2, 1.0, 0.3, 0.35, 6.4464414573112805, 16.42987997609980700113031),
    (0.2, 1.0, 0.3, 0.35, 30.0, 17.63909589665844854413895),
    (0.2, 1.0, 0.3, 0.35, math.inf, 18.11530762650836821298779),
    (0.26, 0.5, 0.5333333333333333, 0.0, 0.1, 3.177220773792648926818518),
    (0.26, 0.5, 0.5333333333333333, 0.0, 1.5614131071174995, 11.41315855128559981842509),
    (0.26, 0.5, 0.5333333333333333, 0.0, 6.245652428469998, 22.49719675826760629827657),
    (0.26, 0.5, 0.5333333333333333, 0.0, 30.0, 33.52662271206808409790522),
    (0.26, 0.5, 0.5333333333333333, 0.0, math.inf, 38.42001130891869902959437),
    (0.26, 0.5, 0.5333333333333333, 0.23333333333333334, 0.1, 7.620690437202213662386196),
    (0.26, 0.5, 0.5333333333333333, 0.23333333333333334, 1.5614131071174995, 14.26122822980436411512406),
    (0.26, 0.5, 0.5333333333333333, 0.23333333333333334, 6.245652428469998, 18.26196710888501214131428),
    (0.26, 0.5, 0.5333333333333333, 0.23333333333333334, 30.0, 20.71530360459832551563968),
    (0.26, 0.5, 0.5333333333333333, 0.23333333333333334, math.inf, 21.66175407159124998905851),
    (0.275, 2.0, 0.13333333333333333, 0.0, 0.1, 2.472367543524491466759704),
    (0.275, 2.0, 0.13333333333333333, 0.0, 1.2104666946988933, 6.688401048501933697571909),
    (0.275, 2.0, 0.13333333333333333, 0.0, 4.841866778795573, 16.14132958945484543768991),
    (0.275, 2.0, 0.13333333333333333, 0.0, 30.0, 50.79952130900949418463710),
    (0.275, 2.0, 0.13333333333333333, 0.0, math.inf, 98.48621553448016253049745),
    (0.275, 2.0, 0.13333333333333333, 0.43333333333333335, 0.1, 7.279479891053696731974360),
    (0.275, 2.0, 0.13333333333333333, 0.43333333333333335, 1.2104666946988933, 9.340275338795711065136242),
    (0.275, 2.0, 0.13333333333333333, 0.43333333333333335, 4.841866778795573, 10.87874899642967506582077),
    (0.275, 2.0, 0.13333333333333333, 0.43333333333333335, 30.0, 11.89949730421115284995167),
    (0.275, 2.0, 0.13333333333333333, 0.43333333333333335, math.inf, 12.18358824024074006931618),
]
# At the top of the admissible box, 2 alpha (kappa + 1) = 708, where K times
# F's terms would exceed float max; the suite turns any overflow
# warning into a failure.  References from a 1200-digit bisection of the literal F.
TOP_OF_BOX_ROOTS = [
    (177.0, 1.0, 0.3, 0.0, math.inf, 27.415567780803777),
    (177.0, 1.0, 0.3, 0.0, 1.0, 4.4952665476653488e-77),
    (177.0, 1.0, 0.3, 0.35, 1.0, 3.4641293716387104e-153),
]
# the package's roots against PINNED_ROOTS and TOP_OF_BOX_ROOTS (worst 9.2e-16)
ROOT_REL_ERR = 2e-14


# the battery of the root search's invariant: (alpha, kappa) sets, then the
# lengths, placements and beta each set runs through
SIGN_BATTERY = [(1.5, 5.0), (177.0, 0.05), (0.2, 0.05), (0.2, 50.0), (6.9, 50.0)]
SIGN_DELTAS = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6, 0.75, 0.9]
SIGN_BETAS = [0.0, 1e-6, 1.0, 1e8, math.inf]


def _sign_cases():
    """(delta, xi, beta): xi at the left end, the centre and the right end."""
    for d in SIGN_DELTAS:
        for xi in (0.0, 0.5 * (1.0 - d), 1.0 - d):
            for beta in SIGN_BETAS:
                yield d, xi, beta


def _root_or_nan(xi, beta, params, delta):
    try:
        return transcendental_root(xi, beta, TranscendParams(params=params, delta=delta))
    except (ValueError, RootNotFoundError):
        return math.nan


@pytest.fixture
def tp(params):
    return TranscendParams(params=params, delta=0.3)


class TestF:
    def test_vanishes_at_lambda_zero(self, tp):
        for xi in (0.0, 0.1, 0.35):
            for beta in (0.0, 1.0, 7.0):
                assert F_components(xi, beta, 0.0, tp)[2] == 0.0

    def test_slope_at_zero(self, tp, params):
        # dF/dsqrt(lam) at 0: positive, and equal to
        # sqrt(k) d beta^2 e^{2a} + sqrt(k) e^{a(k+2)} beta (beta e^a (1-d) + 2)
        a, k, d = params.alpha, params.kappa, tp.delta
        for beta in (0.5, 1.0, 4.0):
            expected = math.sqrt(k) * d * beta**2 * math.exp(2 * a) + math.sqrt(
                k
            ) * math.exp(a * (k + 2)) * beta * (beta * math.exp(a) * (1 - d) + 2.0)
            assert expected > 0.0
            eps = 1e-6
            fd = F_components(0.1, beta, eps**2, tp)[2] / eps
            assert fd == pytest.approx(expected, rel=1e-5)

    def test_xi_independent_at_critical_lambda(self, tp, params):
        for beta in (0.7, 2.0, 5.0):
            lam = beta**2 * math.exp(2.0 * params.alpha)
            vals = [F_components(xi, beta, lam, tp)[2] for xi in np.linspace(0.0, 0.35, 9)]
            assert max(vals) - min(vals) <= 1e-10 * max(abs(v) for v in vals)

    @pytest.mark.parametrize("beta", [0.0, 1.0, 30.0])
    @pytest.mark.parametrize("alpha, kappa, delta", [(0.2, 1.0, 0.3), (0.5, 5.0, 0.1), (0.1, 20.0, 0.25)])
    def test_three_weight_form_is_scaled_literal_f(self, alpha, kappa, delta, beta):
        # F 2 e^{-t} / (K (1 + b)^2) against the printed F, on moderate K where
        # the literal sums lose nothing; relative to the size of F's two
        # summands, which is what rounding in either form scales with
        tp = TranscendParams(params=ModelParams(alpha, kappa, 0.4), delta=delta)
        big_k = kappa * math.exp(2.0 * alpha * (kappa + 1.0))
        scale = 2.0 / (1.0 + beta * math.exp(alpha)) ** 2 / big_k
        s_top = math.pi / (math.sqrt(kappa) * delta)
        for xi in (0.0, 0.3 * (1.0 - delta), 1.0 - delta):
            for s in np.linspace(0.0, s_top, 23)[1:-1]:
                lam = float(s * s)
                f_s, f_c, f = F_components(xi, beta, lam, tp)
                theta = s * math.sqrt(kappa) * delta
                size = abs(f_s * math.sin(theta)) + abs(
                    math.sqrt(kappa) * math.exp(alpha * (kappa + 1.0)) * f_c * math.cos(theta)
                )
                t = s * (1.0 - delta)
                got = _f_scaled(xi, beta, lam, tp)
                assert abs(got - f * scale * math.exp(-t)) <= 1e-12 * size * scale * math.exp(-t)

    @pytest.mark.parametrize("alpha, kappa, delta", [(0.2, 1.0, 0.3), (1.0, 50.0, 0.1), (8.0, 30.0, 0.05)])
    def test_dirichlet_weight_is_the_limit_of_f_over_b_squared(self, alpha, kappa, delta):
        # at beta = inf the weights are (0, 0, 1): the closed-form limit F / (K b^2),
        # 2 e^{-t} [-f_s sin + c f_c cos] / K with f_s = K/2 (1 - e^{-2 s xi})
        # (1 - e^{-2 s ((1-d) - xi)}) - (1 + e^{-2t} + ch_mid)/2, f_c = 1 - e^{-2t}
        tp = TranscendParams(params=ModelParams(alpha, kappa, 0.4), delta=delta)
        big_k = kappa * math.exp(2.0 * alpha * (kappa + 1.0))
        c = math.sqrt(kappa) * math.exp(alpha * (kappa + 1.0))
        s_top = math.pi / (math.sqrt(kappa) * delta)
        for xi in (0.0, 0.5 * (1.0 - delta), 1.0 - delta):
            for s in np.geomspace(1e-6 * s_top, s_top, 17)[:-1]:
                e2 = math.exp(-2.0 * s * (1.0 - delta))
                ch_mid = math.exp(-2.0 * s * xi) + math.exp(-2.0 * s * ((1.0 - delta) - xi))
                f_s = 0.5 * big_k * math.expm1(-2.0 * s * xi) * math.expm1(
                    -2.0 * s * ((1.0 - delta) - xi)
                ) - 0.5 * (1.0 + e2 + ch_mid)
                f_c = -math.expm1(-2.0 * s * (1.0 - delta))
                theta = s * math.sqrt(kappa) * delta
                parts = (-f_s * math.sin(theta), c * f_c * math.cos(theta))
                got = _f_scaled(xi, math.inf, float(s * s), tp)
                size = abs(parts[0]) + abs(parts[1])
                assert abs(got - sum(parts) / big_k) <= 1e-12 * size / big_k

    def test_scaled_variant_shares_roots(self, tp):
        lam = transcendental_root(0.1, 2.0, tp)
        assert abs(_f_scaled(0.1, 2.0, lam, tp)) <= 1e-9
        # same sign pattern away from the root
        for lam_probe in (0.5 * lam, 1.00001 * lam):
            full = F_components(0.1, 2.0, lam_probe, tp)[2]
            scaled = _f_scaled(0.1, 2.0, lam_probe, tp)
            assert math.copysign(1.0, full) == math.copysign(1.0, scaled)


class TestTranscendentalRoot:
    def test_agrees_with_grid_solver(self, tp, params):
        lam = transcendental_root(0.0, 1.0, tp)
        w = BangBangInterval(0.0, 0.3, params).weight()
        pair = principal_eigenvalue(w, params, Boundary.robin(1.0), make_discretization(4000, w))
        assert lam == pytest.approx(pair.lam, rel=1e-4)

    def test_roots_coincide_at_beta_crit(self, tp, params):
        bc = beta_crit(tp)
        lam0 = transcendental_root(0.0, bc, tp)
        lamc = transcendental_root(0.35, bc, tp)
        target = bc**2 * math.exp(2.0 * params.alpha)
        assert lam0 == pytest.approx(target, rel=1e-10)
        assert lamc == pytest.approx(target, rel=1e-10)

    def test_below_first_period_bound(self, tp, params):
        bound = math.pi**2 / (params.kappa * tp.delta**2)
        for beta in (0.0, 0.5, 3.0, 30.0, 1e4):
            if beta == 0.0:
                lam = transcendental_root(0.0, beta, tp)
            else:
                lam = transcendental_root(0.2, beta, tp)
            assert 0.0 < lam < bound

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1e4, math.inf, 3.431750800025686e-82])
    def test_no_abscissa_evaluated_twice(self, params, monkeypatch, beta):
        # the step-down's values of F at the bracket's ends go to brentq, so
        # one root evaluates F at each s at most once
        seen = []
        terms = transcend._terms

        def recorded(s, c, xp):
            seen.append(s)
            return terms(s, c, xp)

        monkeypatch.setattr(transcend, "_terms", recorded)
        high = ModelParams(4.094669370869853, 44.04074808284618, 0.20318635971420004)
        for p, delta in ((params, 0.3), (high, 0.015411111911472448)):
            for xi in (0.0, 0.5 * (1.0 - delta)):
                seen.clear()
                lam = _root_or_nan(xi, beta, p, delta)
                assert len(set(seen)) == len(seen), (p, xi)
                assert math.isnan(lam) or len(seen) > 2

    def test_symmetry(self, tp):
        for xi in (0.0, 0.05, 0.2):
            a = transcendental_root(xi, 2.0, tp)
            b = transcendental_root(1.0 - xi - 0.3, 2.0, tp)
            assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_in_beta(self, tp):
        lams = [transcendental_root(0.1, b, tp) for b in (0.1, 0.5, 2.0, 8.0, 40.0)]
        assert all(b >= a for a, b in zip(lams, lams[1:]))

    def test_ratio_to_beta_squared_decreases(self, tp):
        prev = math.inf
        for beta in np.geomspace(0.2, 20.0, 12):
            lam = min(
                transcendental_root(0.0, float(beta), tp),
                transcendental_root(0.35, float(beta), tp),
            )
            ratio = lam / beta**2
            assert ratio < prev
            prev = ratio

    def test_positive_below_first_root(self, tp):
        for xi in (0.0, 0.35):
            lam1 = transcendental_root(xi, 2.0, tp)
            for lam in np.linspace(0.01 * lam1, 0.99 * lam1, 40):
                assert _f_scaled(xi, 2.0, float(lam), tp) > 0.0

    def test_neumann_zero_regime_guard(self, params):
        # interval long enough that the exponential mass is nonnegative
        tp = TranscendParams(params=params, delta=0.9)
        with pytest.raises(ValueError):
            transcendental_root(0.0, 0.0, tp)

    def test_validation(self, tp):
        with pytest.raises(ValueError):
            transcendental_root(0.8, 1.0, tp)  # xi beyond 1 - delta
        for beta in (math.nan, -math.inf, -1.0):
            with pytest.raises(ValueError):
                transcendental_root(0.0, beta, tp)

    @pytest.mark.parametrize("kappa", [1e-137, 1e-20, 0.5, 1.0, 50.0])
    def test_shortest_length_scans_finite(self, kappa):
        # F's largest term, lambda max(1, 1/kappa) at the search's top, stays
        # below SCAN_TERM_MAX at the shortest accepted length (the suite
        # turns numpy's overflow warnings into errors); a shorter one is
        # rejected where the length enters
        from drifteig.transcend import SCAN_TERM_MAX

        rk = math.sqrt(kappa)
        shortest = math.pi / (rk * min(1.0, rk) * math.sqrt(SCAN_TERM_MAX)) * (1.0 + 1e-15)
        params = ModelParams(0.01, kappa, 0.4)
        tp = TranscendParams(params=params, delta=shortest)
        assert math.isfinite(transcendental_root(0.0, 1.0, tp))
        with pytest.raises(ValueError, match="too small"):
            TranscendParams(params=params, delta=shortest / 2.0)

    @pytest.mark.parametrize("alpha, kappa, delta, xi, beta, lam", PINNED_ROOTS + TOP_OF_BOX_ROOTS)
    def test_pinned_high_precision_roots(self, alpha, kappa, delta, xi, beta, lam):
        tp = TranscendParams(params=ModelParams(alpha, kappa, 0.4), delta=delta)
        assert transcendental_root(xi, beta, tp) == pytest.approx(lam, rel=ROOT_REL_ERR)

    @pytest.mark.parametrize("alpha, kappa", SIGN_BATTERY)
    def test_one_sign_change_below_the_top(self, alpha, kappa):
        # the root search rests on this: below s_max, just under the end of
        # sin(sqrt(lam k) d)'s first period, F changes sign at most once, and
        # where transcendental_root finds a root the change lies there
        p = ModelParams(alpha, kappa, 0.4)
        for d, xi, beta in _sign_cases():
            tp = TranscendParams(params=p, delta=d)
            s_max = transcend._s_max(math.sqrt(kappa), d)
            s = s_max * np.concatenate([np.geomspace(1e-9, 1e-2, 300), np.linspace(1e-2, 1.0, 3000)])
            positive = _f_scaled(xi, beta, s * s, tp) > 0.0
            assert np.count_nonzero(positive[1:] != positive[:-1]) <= 1, (d, xi, beta)
            try:
                root = math.sqrt(transcendental_root(xi, beta, tp))
            except (ValueError, RootNotFoundError):
                continue
            assert positive[s < root * (1.0 - 1e-9)].all(), (d, xi, beta)
            assert not positive[s > root * (1.0 + 1e-9)].any(), (d, xi, beta)

    @pytest.mark.parametrize("alpha, kappa", SIGN_BATTERY)
    def test_roots_at_or_below_match_refined_roots(self, alpha, kappa):
        # one evaluation of F at sqrt(lam) tells exactly which roots lie at or
        # below lam; lam is each refined root in turn, compared with the
        # other lengths' roots as choose_delta compares them with m0's
        p = ModelParams(alpha, kappa, 0.4)
        deltas = np.array(SIGN_DELTAS)
        for beta in SIGN_BETAS[1:]:  # beta = 0 pins the length in choose_delta
            for place in (0.0, 0.5, 1.0):
                xis = place * (1.0 - deltas)
                roots = np.array([_root_or_nan(float(x), beta, p, float(d)) for d, x in zip(deltas, xis)])
                for i in np.flatnonzero(np.isfinite(roots)):
                    got = np.array(transcend._roots_at_or_below(
                        beta, float(roots[i]), p, deltas.tolist(), xis.tolist()
                    ))
                    others = np.isfinite(roots) & (np.arange(deltas.size) != i)
                    assert np.array_equal(got[others], (roots <= roots[i])[others]), (beta, place, i)

    @pytest.mark.parametrize("alpha, kappa", SIGN_BATTERY)
    def test_roots_at_or_below_follow_numpy_f(self, alpha, kappa):
        # the scan's scalar F has the sign of _f_scaled's numpy F at every
        # lambda of a geometric grid, except within 1e-9 of a length's own
        # root, where the two may round to opposite signs
        p = ModelParams(alpha, kappa, 0.4)
        deltas = SIGN_DELTAS
        top = max(transcend._s_max(math.sqrt(kappa), d) for d in deltas)
        for beta in SIGN_BETAS[1:]:
            for place in (0.0, 0.5, 1.0):
                xis = [place * (1.0 - d) for d in deltas]
                roots = [_root_or_nan(x, beta, p, d) for d, x in zip(deltas, xis)]
                for s in top * np.geomspace(1e-6, 1.0, 40):
                    lam = float(s * s)
                    got = transcend._roots_at_or_below(beta, lam, p, deltas, xis)
                    for d, x, root, below in zip(deltas, xis, roots, got):
                        if abs(lam - root) <= 1e-9 * root:
                            continue
                        tp = TranscendParams(params=p, delta=d)
                        s_max = transcend._s_max(math.sqrt(kappa), d)
                        want = math.sqrt(lam) >= s_max or _f_scaled(x, beta, lam, tp) <= 0.0
                        assert below == want, (beta, place, d, lam)

    def test_unconverged_refinement_raises_typed(self, monkeypatch, tp):
        # brentq's untyped RuntimeError becomes RootNotFoundError
        def brentq_fails(*args, **kwargs):
            raise RuntimeError("Failed to converge after 100 iterations, value is 0.5")

        monkeypatch.setattr("drifteig.transcend.brentq", brentq_fails)
        with pytest.raises(RootNotFoundError, match="Failed to converge"):
            transcendental_root(0.2, 3.0, tp)

    def test_root_where_sign_products_underflow(self):
        # F's scaled values near this root are about 1e-240, so brentq's
        # interpolation products underflow to 0 unless F is scaled by a
        # power of two; it failed to converge without.  Reference: the root
        # of the same scaled F by an mpmath bisection, 4.8700486961504503e-160
        p = ModelParams(4.094669370869853, 44.04074808284618, 0.20318635971420004)
        tp = TranscendParams(params=p, delta=0.015411111911472448)
        lam = transcendental_root(0.0, 3.431750800025686e-82, tp)
        assert lam == pytest.approx(4.8700486961504503e-160, rel=1e-11)

    def test_one_sample_scan_root_below_it(self):
        # pi / (sqrt(kappa) delta) < 1e-4: the whole first period of sin lies
        # below s = 1e-4, and the root is found below its top.  Reference as for
        # PINNED_ROOTS
        tp = TranscendParams(params=ModelParams(0.0, 1e10, 0.4), delta=0.5)
        lam = transcendental_root(0.0, 1.0, tp)
        assert lam == pytest.approx(3.093006158959074575542022e-10, rel=1e-12)

    def test_huge_samples_root_without_overflow(self):
        # kappa e^{2 alpha (kappa+1)} ~ 1e217 makes |F| exceed 1e154 on the
        # search, and the root lies far below its top; the suite turns
        # any overflow warning into a failure.  Reference as for PINNED_ROOTS.
        tp = TranscendParams(ModelParams(8.0, 30.0, 0.05), 0.03064516129032258)
        lam = transcendental_root(0.4846774193548387, 7.196634833613826e-110, tp)
        assert lam == pytest.approx(9.204509267007051028008857e-214, rel=1e-12)

    def test_root_below_floor_raises(self):
        # beta = 1e-300 moves that root to about 1e-404, under the floor
        # s = 1e-150 of the downward steps
        tp = TranscendParams(ModelParams(8.0, 30.0, 0.05), 0.03064516129032258)
        with pytest.raises(RootNotFoundError, match="not positive"):
            transcendental_root(0.4846774193548387, 1e-300, tp)

    @pytest.mark.parametrize("kappa, delta", [(2e4, 0.3), (1e5, 0.2)])
    @pytest.mark.parametrize("centered", [False, True])
    @pytest.mark.parametrize("beta", [0.5, 5.0])
    def test_fine_step_branch_matches_dense_scan(self, kappa, delta, centered, beta):
        # sqrt(kappa) delta > 39.3: a first period of sin shorter than
        # s = 0.08; the reference is a dense uniform scan of the
        # literal F over the first period of sin, refined by brentq
        tp = TranscendParams(params=ModelParams(0.0, kappa, 0.4), delta=delta)
        xi = 0.5 * (1.0 - delta) if centered else 0.0
        s_top = math.pi / (math.sqrt(kappa) * delta)
        s = np.linspace(0.0, s_top, 4001)[1:-1]
        f = np.array([F_components(xi, beta, x * x, tp)[2] for x in s])
        i = int(np.flatnonzero(f[:-1] * f[1:] <= 0.0)[0])
        s_ref = brentq(
            lambda x: F_components(xi, beta, x * x, tp)[2],
            s[i],
            s[i + 1],
            xtol=1e-16,
            rtol=8.9e-16,
        )
        assert transcendental_root(xi, beta, tp) == pytest.approx(s_ref * s_ref, rel=1e-11)


class TestDirichletRoot:
    def test_agrees_with_grid_solver(self, tp, params):
        lam = dirichlet_root(tp)
        w = BangBangInterval(0.0, 0.3, params).weight()
        pair = principal_eigenvalue(w, params, Boundary.dirichlet(), make_discretization(4000, w))
        assert lam == pytest.approx(pair.lam, rel=1e-4)

    def test_location_interval(self, tp, params):
        lam = dirichlet_root(tp)
        k, d = params.kappa, tp.delta
        low = math.pi**2 / (4.0 * k * d**2)
        high = math.pi**2 / (k * d**2)
        assert low < lam < high

    def test_full_interval_limit(self, params):
        tp = TranscendParams(params=params, delta=0.999)
        lam = dirichlet_root(tp)
        assert lam == pytest.approx(math.pi**2 / params.kappa, rel=0.01)

    @pytest.mark.parametrize("xi", [0.1, 0.2, 0.35])
    def test_grid_converges_off_edge(self, tp, params, xi):
        # the P1 grid overestimates at second order: quadrupling n divides
        # its error against the closed form by 16
        lam = dirichlet_root(tp, xi=xi)
        w = BangBangInterval(xi, 0.3, params).weight()
        err = [
            principal_eigenvalue(w, params, Boundary.dirichlet(), make_discretization(n, w)).lam
            - lam
            for n in (2000, 8000)
        ]
        assert err[1] > 0.0
        assert 15.0 <= err[0] / err[1] <= 17.0

    @pytest.mark.parametrize(
        "alpha, kappa", [(0.0, 0.5), (0.2, 1.0), (0.5, 5.0), (1.0, 50.0), (0.01, 800.0)]
    )
    @pytest.mark.parametrize("delta", [0.05, 0.3, 0.7])
    def test_printed_edge_equation(self, alpha, kappa, delta):
        # at xi = 0 the paper prints tan(theta) = -c tanh(sqrt(lam)(1 - d)),
        # theta = sqrt(lam k) d and c = sqrt(k) e^{a(k+1)}; its residual
        # sin(theta) + c tanh(.) cos(theta) changes sign within 1e-12 of the root
        tp = TranscendParams(params=ModelParams(alpha, kappa, 0.4), delta=delta)
        c = math.sqrt(kappa) * math.exp(alpha * (kappa + 1.0))

        def residual(lam):
            theta = math.sqrt(lam * kappa) * delta
            return math.sin(theta) + c * math.tanh(math.sqrt(lam) * (1.0 - delta)) * math.cos(theta)

        lam = dirichlet_root(tp)
        assert 0.5 * math.pi <= math.sqrt(lam * kappa) * delta < math.pi
        assert residual(lam * (1.0 - 1e-12)) > 0.0 > residual(lam * (1.0 + 1e-12))

    @pytest.mark.parametrize(
        "alpha, kappa, xis",
        [
            (0.2, 1.0, np.linspace(0.0, 0.7, 9)),
            (0.5, 5.0, np.linspace(0.0, 0.9, 9)),
            (0.01, 800.0, np.linspace(0.0, 1.0 - 0.6 / 801.0, 9)),
            # off the edges this design's roots lie far below lambda = 1e-8
            (1.0, 50.0, np.linspace(0.0, 1.0 - 0.6 / 51.0, 9)),
        ],
    )
    def test_mirror_symmetry(self, alpha, kappa, xis):
        # xi and 1 - delta - xi are the same problem reflected about x = 1/2
        delta = 0.6 / (kappa + 1.0)
        tp = TranscendParams(params=ModelParams(alpha, kappa, 0.4), delta=delta)
        for xi in xis:
            left = transcendental_root(float(xi), math.inf, tp)
            right = transcendental_root(float(1.0 - delta - xi), math.inf, tp)
            assert left == pytest.approx(right, rel=1e-12), xi

    def test_robin_roots_close_at_one_over_beta(self, tp, params, dirichlet_gap_coefficient):
        # lambda_inf - lambda_beta = C / beta + O(beta^-2): the relative
        # error of beta * gap against C must shrink tenfold per decade
        lam_inf = dirichlet_root(tp)
        w = BangBangInterval(0.0, 0.3, params).weight()
        pair = principal_eigenvalue(w, params, Boundary.dirichlet(), make_discretization(8000, w))
        c = dirichlet_gap_coefficient(pair, w, params.alpha)
        for beta, tol in ((1e3, 1e-2), (1e4, 1e-3)):
            gap = lam_inf - transcendental_root(0.0, beta, tp)
            assert abs(beta * gap - c) <= tol * c


class TestRegimeEquations:
    def test_boundary_regime_identity(self, tp):
        lam = transcendental_root(0.0, 1.0, tp)
        lhs, rhs = regime_equations(1.0, lam, tp)
        assert abs(lhs - rhs) <= 1e-8

    def test_centered_regime_identity(self, tp):
        lam = transcendental_root(0.35, 10.0, tp)
        lhs, rhs = regime_equations(10.0, lam, tp)
        assert abs(lhs - rhs) <= 1e-8

    def test_denominator_matches_centered_fs(self, tp, params):
        # D(beta, lam) is the centered-interval F_s up to the printed regrouping
        beta, lam = 10.0, 14.0
        f_s, _, _ = F_components(0.35, beta, lam, tp)
        a, k = params.alpha, params.kappa
        s = math.sqrt(lam)
        t = s * (1.0 - tp.delta)
        big_k = k * math.exp(2 * a * (k + 1))
        b2 = beta**2 * math.exp(2 * a)
        dal = (
            0.5 * (big_k - 1.0) * (b2 + lam) * math.cosh(t)
            + beta * math.exp(a) * s * (big_k - 1.0) * math.sinh(t)
            + 0.5 * (1.0 + big_k) * (lam - b2)
        )
        assert dal == pytest.approx(f_s, rel=1e-13)

    def test_rejected_at_beta_crit(self, tp):
        with pytest.raises(ValueError):
            regime_equations(beta_crit(tp), 10.0, tp)


class TestBetaCrit:
    def test_reference_value(self, tp):
        assert beta_crit(tp) == pytest.approx(3.2232, abs=1e-3)

    def test_middle_branch(self):
        # kappa e^{2a(k+1)} = 1 when a = ln(1/kappa) / (2(k+1))
        k = 0.5
        a = math.log(1.0 / k) / (2.0 * (k + 1.0))
        p = ModelParams(a, k, 0.4)
        tp = TranscendParams(params=p, delta=0.25)
        expected = math.pi * math.exp(-a) / (2.0 * math.sqrt(k) * 0.25)
        assert beta_crit(tp) == pytest.approx(expected, rel=1e-14)

    def test_low_branch_self_consistency(self):
        p = ModelParams(0.05, 0.3, 0.4)
        tp = TranscendParams(params=p, delta=0.25)
        bc = beta_crit(tp)
        lam = transcendental_root(0.0, bc, tp)
        assert lam == pytest.approx(bc**2 * math.exp(2.0 * p.alpha), rel=1e-8)

    def test_self_consistency_default(self, tp, params):
        bc = beta_crit(tp)
        lam = transcendental_root(0.0, bc, tp)
        assert lam == pytest.approx(bc**2 * math.exp(2.0 * params.alpha), rel=1e-8)


class TestDeltaDiag:
    def test_zero_at_critical_lambda(self, tp, params):
        beta = 2.0
        lam = beta**2 * math.exp(2.0 * params.alpha)
        assert delta_diag(beta, lam, tp) == 0.0

    def test_sign_below_critical_beta(self, tp):
        lam = transcendental_root(0.0, 1.0, tp)
        assert delta_diag(1.0, lam, tp) < 0.0

    def test_sign_above_critical_beta(self, tp):
        lam = transcendental_root(0.35, 10.0, tp)
        assert delta_diag(10.0, lam, tp) > 0.0


class TestLiteralOverflow:
    # 2 alpha (kappa + 1) = 704 is admissible, but the literal expressions
    # carry K = kappa e^{704} unscaled and overflow; the scaled F does not
    TP_TOP = TranscendParams(ModelParams(32.0, 10.0, 0.4), 0.05)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (F_components, (0.0, 1.0, 5.0)),
            (regime_equations, (1.0, 5.0)),
            (delta_diag, (1.0, 5.0)),
        ],
    )
    def test_non_finite_result_raises(self, fn, args):
        with pytest.raises(NonFiniteError):
            fn(*args, self.TP_TOP)

    def test_math_overflow_raises(self, tp):
        # cosh(sqrt(lam)(1 - delta)) is beyond float max
        with pytest.raises(NonFiniteError):
            F_components(0.0, 1.0, 1e7, tp)

    def test_pole_raises(self):
        # alpha = 0, kappa = 1: K = 1 and the tanh form's denominator is
        # lam - beta^2, zero at lam = beta^2 = 1
        with pytest.raises(NonFiniteError):
            regime_equations(1.0, 1.0, TranscendParams(ModelParams(0.0, 1.0, 0.4), 0.3))

    def test_root_is_finite_there(self):
        assert transcendental_root(0.0, 1.0, self.TP_TOP) == pytest.approx(2.12e-139, rel=1e-2)


def _high_contrast_cases(p):
    """(params, delta*, xi, beta): three placements at delta*, two Robin coefficients."""
    d = delta_star(p)
    return [(p, d, xi, beta) for xi in (0.0, 0.1 * (1 - d), 0.5 * (1 - d)) for beta in (1.0, 10.0)]


class TestClosedFormEigenfunction:
    @pytest.mark.parametrize(
        "p, delta, xi, beta",
        [(ModelParams(0.2, 1.0, 0.4), 0.3, 0.15, 2.0)]
        + _high_contrast_cases(ModelParams(1.5, 5.0, 0.2)),
    )
    def test_matches_grid_eigenfunction(self, p, delta, xi, beta):
        tp = TranscendParams(p, delta)
        lam = transcendental_root(xi, beta, tp)
        cf = closed_form_eigenfunction(xi, beta, lam, tp)
        w = BangBangInterval(xi, delta, p).weight()
        pair = principal_eigenvalue(w, p, Boundary.robin(beta), make_discretization(4000, w))
        mine = cf.evaluate(pair.nodes)
        mine = mine / mine.max()
        theirs = pair.phi / pair.phi.max()
        assert np.max(np.abs(mine - theirs)) <= 1e-3

    def test_continuity_at_interfaces(self, tp):
        xi, beta = 0.1, 1.5
        lam = transcendental_root(xi, beta, tp)
        cf = closed_form_eigenfunction(xi, beta, lam, tp)
        for x in (xi, xi + tp.delta):
            left = cf.evaluate(np.nextafter(x, 0.0))
            right = cf.evaluate(np.nextafter(x, 1.0))
            mid = cf.evaluate(x)
            assert left == pytest.approx(mid, rel=1e-9)
            assert right == pytest.approx(mid, rel=1e-9)

    # the default design at beta = 3; its Neumann ends with no outer piece,
    # where both derivatives are rounding; and high contrast, alpha (kappa + 1)
    # = 93
    @pytest.mark.parametrize(
        "p, delta, xi, beta",
        [
            (ModelParams(0.2, 1.0, 0.4), 0.3, 0.2, 3.0),
            (ModelParams(0.2, 1.0, 0.4), 0.3, 0.0, 0.0),
            (ModelParams(0.2, 1.0, 0.4), 0.3, 0.7, 0.0),
        ]
        + _high_contrast_cases(ModelParams(3.0, 30.0, 0.2)),
    )
    def test_jump_residual_small_at_root(self, p, delta, xi, beta):
        tp = TranscendParams(p, delta)
        lam = transcendental_root(xi, beta, tp)
        cf = closed_form_eigenfunction(xi, beta, lam, tp)
        assert cf.jump_residual() <= 1e-9

    def test_residual_large_off_root(self, tp):
        xi, beta = 0.2, 3.0
        lam = transcendental_root(xi, beta, tp)
        cf = closed_form_eigenfunction(xi, beta, 0.8 * lam, tp)
        assert cf.jump_residual() > 1e-6

    def test_dirichlet_rejected(self, tp):
        with pytest.raises(ValueError):
            closed_form_eigenfunction(0.0, math.inf, 10.0, tp)

    def test_nan_beta_rejected(self, tp):
        with pytest.raises(ValueError):
            closed_form_eigenfunction(0.0, math.nan, 8.0, tp)

    # bad lambda, xi outside [0, 1 - delta], beta e^alpha past float max, and
    # an inner sine coefficient, beta e^alpha / (e^{alpha(kappa+1)} sqrt(lambda
    # kappa)) at xi = 0, past it too
    @pytest.mark.parametrize(
        "xi, beta, lam",
        [(0.0, 1.0, lam) for lam in (0.0, -1.0, math.nan, math.inf)]
        + [(-0.5, 1.0, 8.0), (0.9, 1.0, 8.0), (0.0, 1e308, 8.0), (0.0, 1e300, 1e-300)],
    )
    def test_bad_input_rejected(self, tp, xi, beta, lam):
        with pytest.raises(ValueError):
            closed_form_eigenfunction(xi, beta, lam, tp)
