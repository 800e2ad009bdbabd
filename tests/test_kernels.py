"""Kernel correctness against dense linear algebra."""

import numpy as np
import pytest
import scipy.linalg

from drifteig import _kernels_py


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


def test_bisection_that_never_moves_lo_returns_no_factors():
    # every midpoint lies above the eigenvalue 1 of diag(1, 2, 3) against I
    ad, md, e = np.array([1.0, 2.0, 3.0]), np.ones(3), np.zeros(2)
    lo, hi, probes, factors = _kernels_py.smallest_pencil_eigenvalue(
        ad, e, md, e, 1.0 - 2.0**-20, 3.0, 0.0, 1e-3
    )
    assert lo == 1.0 - 2.0**-20 and probes > 0 and factors is None
