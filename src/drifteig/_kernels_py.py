"""The tridiagonal pencil kernels: LDL^T pivot-sign counts and bisection.

Plain Python loops over the diagonals, O(n) per pivot count.  The solver
reaches them through ``kernels``, which adds the breakdown retry.  Their
cost per workload is in the benchmark's ``kernels.*`` metrics
(``perfbench/run.py --trace 1``).
"""

from __future__ import annotations


def _pivot_floor(ae, be, sigma):
    mx = 1.0
    for a, b in zip(ae, be):
        w = abs(a - sigma * b)
        if w > mx:
            mx = w
    return 1e-290 * mx * mx


def pencil_inertia(ad, ae, bd, be, sigma):
    """Count eigenvalues of A - sigma*B below zero (LDL^T pivot signs)."""
    floor = _pivot_floor(ae, be, sigma)
    substituted = False
    count = 0
    d = ad[0] - sigma * bd[0]
    if abs(d) < floor:
        d = -floor
        substituted = True
    if d < 0.0:
        count += 1
    for i in range(1, len(ad)):
        off = ae[i - 1] - sigma * be[i - 1]
        d = ad[i] - sigma * bd[i] - off * off / d
        if abs(d) < floor:
            d = -floor
            substituted = True
        if d < 0.0:
            count += 1
    return count, substituted


def smallest_pencil_eigenvalue(ad, ae, md, me, lo, hi, atol, rtol, max_iter):
    """Bisection for the smallest eigenvalue of the pencil (A, M)."""
    for _ in range(max_iter):
        width = hi - lo
        mid = lo + 0.5 * width
        if width <= atol + rtol * abs(mid):
            break
        probe = mid
        count, subst = pencil_inertia(ad, ae, md, me, probe)
        if subst:
            probe = mid + 1e-3 * width + 1e-13 * abs(mid)
            count, _ = pencil_inertia(ad, ae, md, me, probe)
        if count >= 1:
            hi = probe
        else:
            lo = probe
    return lo + 0.5 * (hi - lo)
