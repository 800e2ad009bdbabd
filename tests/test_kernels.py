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
    # the first item is 1 exactly when A - sigma*M has an eigenvalue <= 0
    checked = 0
    for trial in range(20):
        n = int(rng.integers(3, 40))
        ad, ae, md, me = _random_pencil(rng, n)
        sigma = float(rng.normal() * 3.0)
        evals = np.linalg.eigvalsh(_dense(ad, ae) - sigma * _dense(md, me))
        if np.min(np.abs(evals)) < 1e-9:
            continue  # too close to singular for the sign to be meaningful
        out = _kernels_py.pencil_inertia(ad, ae, md, me, sigma)
        assert out == (int(evals.min() < 0.0), False)
        checked += 1
    assert checked >= 15


def test_smallest_pencil_eigenvalue_matches_scipy(rng):
    for trial in range(10):
        n = int(rng.integers(4, 60))
        ad, ae, md, me = _random_pencil(rng, n)
        target = scipy.linalg.eigh(
            _dense(ad, ae), _dense(md, me), eigvals_only=True
        )[0]
        lo, hi = target - 50.0, target + 50.0
        got, _ = _kernels_py.smallest_pencil_eigenvalue(ad, ae, md, me, lo, hi, 1e-12, 1e-12, 200)
        assert got == pytest.approx(target, abs=1e-9, rel=1e-9)


def test_zero_pivot_reads_not_positive_definite():
    # leading 1x1 minor singular at sigma = 0: first pivot is exactly zero
    ad = np.array([0.0, 1.0, 1.0])
    ae = np.array([1.0, 0.5])
    md = np.ones(3)
    me = np.zeros(2)
    assert _kernels_py.pencil_inertia(ad, ae, md, me, 0.0) == (1, False)
    assert np.linalg.eigvalsh(_dense(ad, ae)).min() < 0.0


@pytest.mark.parametrize("sigma, expected", [(1.0, 0), (3.0, 1), (2.0, 1)])
def test_one_by_one_pencil(sigma, expected):
    # one unknown: no off-diagonal, so the answer is the sign of a - sigma*m
    ad, md = np.array([4.0]), np.array([2.0])
    empty = np.zeros(0)
    assert _kernels_py.pencil_inertia(ad, empty, md, empty, sigma) == (expected, False)
