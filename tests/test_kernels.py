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
    for trial in range(20):
        n = int(rng.integers(3, 40))
        ad, ae, md, me = _random_pencil(rng, n)
        sigma = float(rng.normal() * 3.0)
        count, substituted = _kernels_py.pencil_inertia(ad, ae, md, me, sigma)
        evals = np.linalg.eigvalsh(_dense(ad, ae) - sigma * _dense(md, me))
        assert count == int(np.sum(evals < 0.0))
        assert not substituted


def test_smallest_pencil_eigenvalue_matches_scipy(rng):
    for trial in range(10):
        n = int(rng.integers(4, 60))
        ad, ae, md, me = _random_pencil(rng, n)
        target = scipy.linalg.eigh(
            _dense(ad, ae), _dense(md, me), eigvals_only=True
        )[0]
        lo, hi = target - 50.0, target + 50.0
        got = _kernels_py.smallest_pencil_eigenvalue(ad, ae, md, me, lo, hi, 1e-12, 1e-12, 200)
        assert got == pytest.approx(target, abs=1e-9, rel=1e-9)


def test_zero_pivot_is_flagged_and_substituted():
    # leading 1x1 minor singular at sigma = 0: first pivot is exactly zero
    ad = np.array([0.0, 1.0, 1.0])
    ae = np.array([1.0, 0.5])
    md = np.ones(3)
    me = np.zeros(2)
    count, substituted = _kernels_py.pencil_inertia(ad, ae, md, me, 0.0)
    assert substituted
    evals = np.linalg.eigvalsh(_dense(ad, ae))
    assert count == int(np.sum(evals < 0.0))


def test_retry_wrapper_returns_plain_count(rng):
    from drifteig import kernels

    ad, ae, md, me = _random_pencil(rng, 12)
    count = kernels.inertia_with_retry(ad, ae, md, me, 0.3)
    evals = np.linalg.eigvalsh(_dense(ad, ae) - 0.3 * _dense(md, me))
    assert count == int(np.sum(evals < 0.0))
