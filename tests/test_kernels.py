"""Kernel correctness against dense linear algebra."""

import math

import numpy as np
import pytest
import scipy.linalg

from drifteig import Boundary, _kernels_py, make_discretization, random_admissible, riccati
from drifteig.eigensolve import assemble

BOUNDARIES = [Boundary.neumann(), Boundary.robin(1.0), Boundary.robin(10.0), Boundary.dirichlet()]


def _dense(d, e):
    a = np.diag(d)
    a += np.diag(e, 1) + np.diag(e, -1)
    return a


def _random_pencil(rng, n):
    ad = rng.normal(size=n) * 5.0
    ae = rng.normal(size=n - 1) * 2.0
    md = rng.uniform(1.0, 2.0, size=n)
    me = rng.uniform(-0.3, 0.3, size=n - 1)  # keeps M diagonally dominant SPD
    return ad, ae, md, me


def test_inertia_matches_dense_eig_count(rng):
    # the first item is 1 exactly when A - sigma*M has an eigenvalue <= 0;
    # the third is dpttrf's factorization of A - sigma*M, bit for bit, when
    # it is positive definite and None when it is not
    checked = 0
    for trial in range(20):
        n = int(rng.integers(3, 40))
        ad, ae, md, me = _random_pencil(rng, n)
        sigma = float(rng.normal() * 3.0)
        evals = np.linalg.eigvalsh(_dense(ad, ae) - sigma * _dense(md, me))
        if np.min(np.abs(evals)) < 1e-9:
            continue  # too close to singular for the sign to be meaningful
        flag, pivot, factors = _kernels_py.pencil_inertia(ad, ae, md, me, sigma)
        assert (flag, pivot) == (int(evals.min() < 0.0), False)
        if flag:
            assert factors is None
        else:
            d, e, info = scipy.linalg.lapack.dpttrf(ad - sigma * md, ae - sigma * me)
            assert info == 0
            assert d.tobytes() == factors[0].tobytes() and e.tobytes() == factors[1].tobytes()
        checked += 1
    assert checked >= 15


def _counted_inertia(monkeypatch):
    """A list that grows by one per pencil_inertia call the bisection makes."""
    calls = []
    probe = _kernels_py.pencil_inertia

    def counted(*args):
        calls.append(args[-1])
        return probe(*args)

    monkeypatch.setattr(_kernels_py, "pencil_inertia", counted)
    return calls


def test_smallest_pencil_eigenvalue_matches_scipy(rng, monkeypatch):
    # the returned bracket holds the dense eigenvalue, is as narrow as
    # asked, and the test reads definite at its lower end and not at its
    # upper, whose factors come back with it; the start is off-centre, so
    # no midpoint lands on the target
    atol = rtol = 1e-12
    calls = _counted_inertia(monkeypatch)
    for trial in range(10):
        n = int(rng.integers(4, 60))
        ad, ae, md, me = _random_pencil(rng, n)
        target = scipy.linalg.eigh(
            _dense(ad, ae), _dense(md, me), eigvals_only=True
        )[0]
        lo, hi = target - rng.uniform(10.0, 50.0), target + rng.uniform(10.0, 50.0)
        calls.clear()
        lo, hi, probes, factors = _kernels_py.smallest_pencil_eigenvalue(
            ad, ae, md, me, lo, hi, atol, rtol
        )
        assert probes == len(calls) > 0
        assert lo <= target <= hi
        assert hi - lo <= atol + rtol * abs(hi)
        at_lo = _kernels_py.ldlt(ad, ae, md, me, lo)
        assert [f.tobytes() for f in factors] == [f.tobytes() for f in at_lo]
        assert _kernels_py.pencil_inertia(ad, ae, md, me, hi)[0] == 1


def test_smallest_pencil_eigenvalue_ends_at_ulp_width(monkeypatch):
    # atol = 0 and rtol = 4 eps: the bracket shrinks to a few ulps and the
    # loop ends there; diag(1, 2, 3) against I has its smallest eigenvalue
    # at 1 exactly, and the test's sign at sigma is that of 1 - sigma
    ad, md, e = np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(2)
    eps = np.finfo(float).eps
    lo, hi = 1.0 - 16 * eps, 1.0 + 16 * eps
    calls = _counted_inertia(monkeypatch)
    lo, hi, probes, _ = _kernels_py.smallest_pencil_eigenvalue(ad, e, md, e, lo, hi, 0.0, 4 * eps)
    assert probes == len(calls) <= 4
    assert lo < 1.0 <= hi
    assert hi - lo <= 4 * eps * abs(hi)


def test_zero_pivot_reads_not_positive_definite():
    # leading 1x1 minor singular at sigma = 0: first pivot is exactly zero
    ad = np.array([0.0, 1.0, 1.0])
    ae = np.array([1.0, 0.5])
    md = np.ones(3)
    me = np.zeros(2)
    assert _kernels_py.pencil_inertia(ad, ae, md, me, 0.0) == (1, False, None)
    assert np.linalg.eigvalsh(_dense(ad, ae)).min() < 0.0


@pytest.mark.parametrize("sigma, expected", [(1.0, 0), (3.0, 1), (2.0, 1)])
def test_one_by_one_pencil(sigma, expected):
    # one unknown: no off-diagonal, so the answer is the sign of a - sigma*m
    ad, md = np.array([4.0]), np.array([2.0])
    empty = np.zeros(0)
    flag, pivot, factors = _kernels_py.pencil_inertia(ad, empty, md, empty, sigma)
    assert (flag, pivot) == (expected, False)
    if expected:
        assert factors is None
    else:
        assert factors[0].tolist() == [4.0 - 2.0 * sigma] and factors[1].size == 0


@pytest.mark.parametrize("bc", BOUNDARIES, ids=str)
def test_nan_shift_reads_not_definite(params, rng, bc):
    # dpttrf passes a NaN pivot, so the factorization's test checks its last
    # pivot, which every NaN reaches; the spring test and the sweep compare
    # theirs to zero, which a NaN fails
    nan = math.nan
    for forms, arrays, load in _spring_pencils(params, rng, bc):
        assert _kernels_py.pencil_inertia(*arrays, nan) == (1, False, None)
        ad, ae, cd, ce = arrays
        assert _kernels_py.pencil_inertia(ad[:1], ae[:0], cd[:1], ce[:0], nan) == (1, False, None)
        assert _kernels_py.springs(-forms.ke, load(nan), forms.beta) is None
        assert not riccati.definite(forms.pieces, forms.beta, nan)
        assert not riccati.definite(forms.pieces, forms.beta, 7.5, nan)
        assert riccati.definite(forms.pieces, forms.beta, 1e-3)


def test_bisection_that_never_moves_lo_returns_no_factors():
    # every midpoint lies above the eigenvalue 1 of diag(1, 2, 3) against I
    ad, md, e = np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(2)
    lo, hi, probes, factors = _kernels_py.smallest_pencil_eigenvalue(
        ad, e, md, e, 1.0 - 2.0**-20, 3.0, 0.0, 1e-3
    )
    assert lo == 1.0 - 2.0**-20 and probes > 0 and factors is None


def _spring_pencils(params, rng, bc):
    """(forms, pencil arrays over the unknowns, element loads of a shift) of
    the solver's two pencils on a random weight: (K, B), and (K - lam*B, M0)
    at lam = 7.5."""
    m = random_admissible(params, rng)
    forms = assemble(m, params, bc, make_discretization(40, m))
    kd, ke, bd, be, md, me = forms.interior()
    lam = 7.5
    return [
        (forms, (kd, ke, bd, be), lambda s: s * forms.weight * forms.h),
        (forms, (kd - lam * bd, ke - lam * be, md, me), lambda s: (lam * forms.weight + s) * forms.h),
    ]


@pytest.mark.parametrize("bc", BOUNDARIES, ids=str)
def test_springs_agree_with_ldlt_away_from_eigenvalues(params, rng, bc):
    # where A - sigma*C is not within 1e-6 of singular, the spring test,
    # dpttrf and the dense spectrum agree on its definiteness; a NaN shift
    # reads not definite
    checked = 0
    for forms, arrays, load in _spring_pencils(params, rng, bc):
        for sigma in np.linspace(-40.0, 120.0, 33):
            s = _dense(*arrays[:2]) - sigma * _dense(*arrays[2:])
            smallest = np.linalg.eigvalsh(s)[0]
            if abs(smallest) < 1e-6 * np.abs(s).max():
                continue
            definite = smallest > 0.0
            assert (_kernels_py.springs(-forms.ke, load(sigma), forms.beta) is not None) == definite
            assert (_kernels_py.ldlt(*arrays, sigma) is not None) == definite
            checked += 1
        assert _kernels_py.springs(-forms.ke, load(math.nan), forms.beta) is None
    assert checked >= 40


@pytest.mark.parametrize("bc", BOUNDARIES, ids=str)
def test_springs_are_ldlt_factors(params, rng, bc):
    # the pivots d and the subdiagonal -s/d over the unknowns are LDL^T
    # factors of A - sigma*C: dpttrs solves with them as with dpttrf's
    _, dpttrs = _kernels_py.lapack()
    checked = 0
    for forms, arrays, load in _spring_pencils(params, rng, bc):
        for sigma in np.linspace(-40.0, 120.0, 33):
            found = _kernels_py.springs(-forms.ke, load(sigma), forms.beta)
            if found is None:
                continue
            checked += 1
            d, s = found
            s_mat = _dense(*arrays[:2]) - sigma * _dense(*arrays[2:])
            b = np.linspace(1.0, 2.0, s_mat.shape[0])
            y, info = dpttrs(*forms.reduced(d, -s / d[:-1]), b)
            assert info == 0
            assert np.allclose(y, np.linalg.solve(s_mat, b), rtol=1e-8, atol=0.0)
    assert checked >= 8


@pytest.mark.parametrize("bc", BOUNDARIES, ids=str)
def test_springs_vector_solves_every_row_but_the_last(params, rng, bc):
    # x_0 = 1 and x_{j+1} = x_j d_j / s_j over the unknowns (the Dirichlet
    # ends are none) solve (A - sigma*C) x = 0 to rounding, but for the
    # last row, whose residual is the last pivot times x_n
    checked = 0
    for forms, arrays, load in _spring_pencils(params, rng, bc):
        for sigma in np.linspace(-40.0, 120.0, 33):
            found = _kernels_py.springs(-forms.ke, load(sigma), forms.beta)
            if found is None:
                continue
            checked += 1
            ratios = found[0][:-1] / found[1]
            if forms.dirichlet:
                ratios = ratios[1:-1]
            x = np.cumprod(np.concatenate(([1.0], ratios)))
            s = _dense(*arrays[:2]) - sigma * _dense(*arrays[2:])
            rows = s @ x
            scale = np.abs(s) @ np.abs(x)
            assert np.all(np.abs(rows[:-1]) <= 1e-14 * scale[:-1])
            assert abs(rows[-1]) > 1e-6 * scale[-1]
    assert checked >= 8
