"""Brent's method port: bit-identity with scipy's brentq, and its checks."""

import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from drifteig import ModelParams, TranscendParams, random_admissible, transcend, weights
from drifteig._roots import brentq

ROOT = Path(__file__).resolve().parents[1]
TOL = {"xtol": 1e-15, "rtol": 8.9e-16}


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@pytest.fixture
def compared(monkeypatch):
    """Route the package's brentq through both solvers; count the brackets.

    End values a caller passes must be f(a) and f(b) bit for bit; scipy is
    called without them and the port with them.  Each call must give the
    same float from the port as from scipy, or the same exception type, and
    the port must evaluate f at scipy's abscissae in scipy's order, less the
    ends whose values it was given: it takes scipy's steps.
    """
    calls = []

    def both(f, a, b, fa=None, fb=None, **kw):
        for x, fx in ((a, fa), (b, fb)):
            if fx is not None:
                assert _bits(fx) == _bits(f(x)), x
        seen = {"scipy": [], "port": []}

        def recorded(who):
            def g(x):
                seen[who].append(_bits(x))
                return f(x)

            return g

        try:
            try:
                want = scipy_brentq(recorded("scipy"), a, b, **kw)
            except (ValueError, RuntimeError) as exc:
                with pytest.raises(type(exc)):
                    brentq(recorded("port"), a, b, fa=fa, fb=fb, **kw)
                raise
            got = brentq(recorded("port"), a, b, fa=fa, fb=fb, **kw)
        finally:
            given = {i for i, fx in enumerate((fa, fb)) if fx is not None}
            assert seen["port"] == [x for i, x in enumerate(seen["scipy"]) if i not in given], (a, b)
        assert type(got) is float and got == want and math.copysign(1, got) == math.copysign(1, want)
        calls.append((a, b))
        return got

    monkeypatch.setattr(transcend, "brentq", both)
    monkeypatch.setattr(weights, "brentq", both)
    return calls


def _try_root(xi, beta, tp):
    try:
        return transcend.transcendental_root(xi, beta, tp)
    except (ValueError, transcend.RootNotFoundError):
        return None


class TestBitIdentity:
    def test_seeded_interval_roots(self, compared):
        rng = np.random.default_rng(24)
        while len(compared) < 400:
            alpha, kappa = rng.uniform(0.0, 8.0), 10.0 ** rng.uniform(-1.3, 2.0)
            if 2.0 * alpha * (kappa + 1.0) > 700.0:
                continue
            p = ModelParams(alpha, kappa, rng.uniform(0.01, 0.95))
            tp = TranscendParams(p, (1.0 - p.m0) / (kappa + 1.0) * rng.uniform(0.05, 1.0))
            beta = [0.0, math.inf, 10.0 ** rng.uniform(-6.0, 6.0)][rng.integers(3)]
            _try_root(rng.uniform(0.0, 1.0 - tp.delta), beta, tp)

    def test_dirichlet_roots_at_high_contrast(self, compared):
        tp = TranscendParams(ModelParams(5.0, 50.0, 0.4), 0.6 / 51.0)
        for place in np.linspace(0.0, 1.0, 7):
            transcend.dirichlet_root(tp, float(place) * (1.0 - tp.delta))
        assert len(compared) == 7

    def test_root_where_sign_products_underflow(self, compared):
        # the root of TestRootSearch.test_root_where_sign_products_underflow
        p = ModelParams(4.094669370869853, 44.04074808284618, 0.20318635971420004)
        tp = TranscendParams(params=p, delta=0.015411111911472448)
        transcend.transcendental_root(0.0, 3.431750800025686e-82, tp)
        assert len(compared) == 1

    def test_alpha_star_brackets(self, compared):
        rng = np.random.default_rng(7)
        while len(compared) < 200:
            p = ModelParams(rng.uniform(0.0, 3.0), 10.0 ** rng.uniform(-1.0, 1.5), rng.uniform(0.01, 0.9))
            weights.alpha_star(random_admissible(p, rng))


class TestChecks:
    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            brentq(lambda x: math.nan if x > 0.4 else x - 0.5, 0.0, 1.0, **TOL)

    def test_nan_value_inside_the_bracket_raises(self):
        # finite at both ends; the first secant step lands on 0.5
        with pytest.raises(ValueError, match="x=0.5 is NaN"):
            brentq(lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5, 0.0, 1.0, **TOL)

    def test_ends_of_one_sign_raise(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x + 1.0, 0.0, 1.0, **TOL)
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: -1.0, -0.0, 1.0, **TOL)

    def test_root_at_an_end(self):
        assert brentq(lambda x: x, 0.0, 1.0, **TOL) == 0.0
        assert brentq(lambda x: x - 1.0, 0.0, 1.0, **TOL) == 1.0

    @pytest.mark.parametrize("xtol, rtol", [(0.0, 8.9e-16), (-1.0, 8.9e-16), (math.nan, 8.9e-16), (1e-15, 1e-16)])
    def test_bad_tolerances_raise(self, xtol, rtol):
        with pytest.raises(ValueError, match="too small"):
            brentq(lambda x: x - 0.5, 0.0, 1.0, xtol=xtol, rtol=rtol)

    def test_running_out_of_iterations_raises(self):
        with pytest.raises(RuntimeError, match="Failed to converge after 2 iterations"):
            brentq(lambda x: x**3 - 0.1234, 0.0, 1.0, maxiter=2, **TOL)

    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e-310])
    def test_underflowed_divisor_bisects(self, scale):
        # the inverse quadratic step's divisor dblk * dpre * (fblk - fpre)
        # underflows to 0 on values this small, where the C code bisects
        def f(x):
            return scale * (x**3 - 0.3)

        got = brentq(f, 0.0, 1.0, **TOL)
        assert got == scipy_brentq(f, 0.0, 1.0, **TOL)
        assert got == pytest.approx(0.3 ** (1.0 / 3.0), rel=1e-15)

    def test_numpy_scalar_ends_give_a_float_without_warnings(self):
        # the suite turns warnings into errors: numpy scalar arithmetic would
        # warn on the underflowed divisor's division by zero
        def f(x):
            return np.float64(1e-170) * (np.float64(x) ** 3 - 0.3)

        got = brentq(f, np.float64(0.0), np.float64(1.0), xtol=np.float64(1e-15), rtol=np.float64(8.9e-16))
        assert type(got) is float
        assert got == scipy_brentq(f, 0.0, 1.0, **TOL)


class TestEndValues:
    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x**3 - 0.1234, 0.0, 1.0),
            (lambda x: 1e-300 * (x**3 - 0.3), 0.0, 1.0),  # the bisecting underflow
            (lambda x: math.cos(x) - x, -2.0, 3.0),
            (lambda x: x - 1.0, 0.0, 1.0),  # a root at an end
        ],
    )
    def test_same_float_without_evaluating_the_ends(self, f, a, b):
        seen = []

        def g(x):
            seen.append(x)
            return f(x)

        got = brentq(g, a, b, fa=f(a), fb=f(b), **TOL)
        assert got == brentq(f, a, b, **TOL) and type(got) is float
        assert a not in seen and b not in seen

    def test_one_end_value(self):
        seen = []

        def g(x):
            seen.append(x)
            return x - 0.25

        assert brentq(g, 0.0, 1.0, fb=0.75, **TOL) == 0.25
        assert seen[0] == 0.0 and 1.0 not in seen

    @pytest.mark.parametrize(
        "ends, match", [({"fa": math.nan}, "NaN"), ({"fb": math.nan}, "NaN"), ({"fa": 1.0}, "different signs")]
    )
    def test_end_values_are_checked(self, ends, match):
        with pytest.raises(ValueError, match=match):
            brentq(lambda x: x - 0.5, 0.0, 1.0, **ends, **TOL)


def test_package_import_loads_no_scipy_optimize():
    # the closed-form commands load neither scipy.optimize (brentq is
    # ported) nor scipy.linalg (LAPACK is bound on the first grid solve)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys, drifteig.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
