"""The tridiagonal pencil kernels: a definiteness test and bisection.

``pencil_inertia`` asks LAPACK's ``dpttrf`` (through scipy) whether
A - sigma*B is positive definite; the LDL^T factorization stops at the
first non-positive pivot, and that stop is the answer.  The solver reaches
both kernels through ``kernels``.  Their cost per workload is in the
benchmark's ``kernels.*`` metrics (``perfbench/run.py --trace 1``).
``lapack`` imports ``scipy.linalg`` on the first factorization, so the
closed-form commands, which solve nothing on a grid, never load scipy.
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


def pencil_inertia(ad, ae, bd, be, sigma):
    """(1 if A - sigma*B is not positive definite else 0, False).

    Both callers only test the first item, the sign of the smallest pencil
    eigenvalue relative to sigma.  The second item is always False; it
    stays as the slot the benchmark's tracer reads.
    """
    # ad + (-sigma)*bd is ad - sigma*bd bit for bit, built in one buffer
    d = np.multiply(bd, -sigma)
    d += ad
    if d.size == 1:  # dpttrf rejects the empty off-diagonal of a 1x1 pencil
        return int(d[0] <= 0.0), False
    e = np.multiply(be, -sigma)
    e += ae
    if dpttrf is None:
        lapack()
    info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2]
    return int(info != 0), False


def smallest_pencil_eigenvalue(ad, ae, md, me, lo, hi, atol, rtol, max_iter):
    """(midpoint, probes): bisection for the smallest eigenvalue of the
    pencil (A, M), and the number of ``pencil_inertia`` calls it made."""
    probes = 0
    while probes < max_iter:
        width = hi - lo
        mid = lo + 0.5 * width
        if width <= atol + rtol * abs(mid):
            break
        probes += 1
        if pencil_inertia(ad, ae, md, me, mid)[0]:
            hi = mid
        else:
            lo = mid
    return lo + 0.5 * (hi - lo), probes
