"""The tridiagonal pencil kernels: a factorization, a definiteness test and
bisection.

``ldlt`` asks LAPACK's ``dpttrf`` (through scipy) for the LDL^T factors of
A - sigma*B; the factorization stops at the first non-positive pivot, and
that stop means "not positive definite".  ``pencil_inertia`` is that test,
and hands the factors of a definite shift back with its answer.  The
solver's one bisection, for lambda and mu alike, halves a bracket on the
test and returns it with the factors at its lower end, so the inverse
iteration that follows does not factor that shift again; its name stays
because the benchmark's tracer wraps it.  The solver reaches all three
kernels through ``kernels``.  Their cost per workload is in the benchmark's
``kernels.*`` metrics (``perfbench/run.py --trace 1``).  ``lapack`` imports
``scipy.linalg`` on the first factorization, so the closed-form commands,
which solve nothing on a grid, never load scipy.
"""

from __future__ import annotations

import numpy as np

dpttrf = dpttrs = None  # LAPACK's, bound by lapack() on the first factorization


def lapack():
    """(dpttrf, dpttrs) from scipy.linalg, imported once and bound here."""
    global dpttrf, dpttrs
    if dpttrf is None:
        from scipy.linalg.lapack import dpttrf, dpttrs
    return dpttrf, dpttrs


def ldlt(ad, ae, bd, be, sigma):
    """(d, e): ``dpttrf``'s factors of A - sigma*B, None if not positive definite.

    For one unknown d is the 1x1 pencil itself and e is empty.
    """
    # ad + (-sigma)*bd is ad - sigma*bd bit for bit, built in one buffer
    d = np.multiply(bd, -sigma)
    d += ad
    if d.size == 1:  # dpttrf rejects the empty off-diagonal of a 1x1 pencil
        return None if d[0] <= 0.0 else (d, ae)
    e = np.multiply(be, -sigma)
    e += ae
    if dpttrf is None:
        lapack()
    d, e, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
    return None if info != 0 else (d, e)


def pencil_inertia(ad, ae, bd, be, sigma):
    """(1 if A - sigma*B is not positive definite else 0, False, factors).

    factors is ``ldlt``'s answer: the LDL^T factors of a definite shift,
    None otherwise.  Callers test the first item, the sign of the smallest
    pencil eigenvalue relative to sigma.  The second item is always False;
    it stays as the slot the benchmark's tracer reads.
    """
    factors = ldlt(ad, ae, bd, be, sigma)
    return int(factors is None), False, factors


def smallest_pencil_eigenvalue(ad, ae, cd, ce, lo, hi, atol, rtol):
    """(lo, hi, probes, factors): [lo, hi] halved on the smallest eigenvalue
    of the pencil (A, C) to hi - lo <= atol + rtol*|hi|, the tests made, and
    the LDL^T factors of A - lo*C from the test that last moved lo (None if
    none did).  A - lo*C is positive definite and A - hi*C not, at ends a
    probe moved.  For finite ends and atol > 0, or rtol >= 4 eps and 0
    outside, it ends."""
    probes = 0
    factors = None
    while hi - lo > atol + rtol * abs(hi):
        mid = 0.5 * (lo + hi)
        probes += 1
        flag, _, found = pencil_inertia(ad, ae, cd, ce, mid)
        if flag:
            hi = mid
        else:
            lo, factors = mid, found
    return lo, hi, probes, factors
