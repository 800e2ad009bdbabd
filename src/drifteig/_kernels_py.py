"""The tridiagonal pencil kernels: a definiteness test and bisection.

``pencil_inertia`` asks LAPACK's ``dpttrf`` (through scipy) whether
A - sigma*B is positive definite; the LDL^T factorization stops at the
first non-positive pivot, and that stop is the answer.  The solver reaches
both kernels through ``kernels``.  Their cost per workload is in the
benchmark's ``kernels.*`` metrics (``perfbench/run.py --trace 1``).
"""

from __future__ import annotations

from scipy.linalg.lapack import dpttrf


def pencil_inertia(ad, ae, bd, be, sigma):
    """(1 if A - sigma*B is not positive definite else 0, False).

    Both callers only test the first item, the sign of the smallest pencil
    eigenvalue relative to sigma.  The second item is always False; it
    stays as the slot the benchmark's tracer reads.
    """
    d = ad - sigma * bd
    if d.size == 1:  # dpttrf rejects the empty off-diagonal of a 1x1 pencil
        return int(d[0] <= 0.0), False
    e = ae - sigma * be
    info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)[2]
    return int(info != 0), False


def smallest_pencil_eigenvalue(ad, ae, md, me, lo, hi, atol, rtol, max_iter):
    """Bisection for the smallest eigenvalue of the pencil (A, M)."""
    for _ in range(max_iter):
        width = hi - lo
        mid = lo + 0.5 * width
        if width <= atol + rtol * abs(mid):
            break
        if pencil_inertia(ad, ae, md, me, mid)[0]:
            hi = mid
        else:
            lo = mid
    return lo + 0.5 * (hi - lo)
