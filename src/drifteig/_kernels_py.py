"""The tridiagonal pencil kernels: a factorization, a definiteness test,
bisection and the spring-form test.

``ldlt`` asks LAPACK's ``dpttrf`` (through scipy) for the LDL^T factors of
A - sigma*B; the factorization stops at the first non-positive pivot, and
that stop means "not positive definite".  ``pencil_inertia`` is that test,
and hands the factors of a definite shift back with its answer.  The
solver's coarse bisection, for lambda and mu alike, halves a bracket on the
test and returns it with the factors at its lower end, so the inverse
iteration that follows does not factor that shift again; its name stays
because the benchmark's tracer wraps it.  Its halving rule is ``halve``,
which the solver's spring-form bisection and its sweep of the exact
problem (``riccati``) call too.  The solver reaches
the kernels through ``kernels``.  The cost per workload of the test and the
bisection is in the benchmark's ``kernels.*`` metrics (``perfbench/run.py
--trace 1``).  ``lapack`` imports ``scipy.linalg`` on the first
factorization, so the closed-form commands, which solve nothing on a grid,
never load scipy.

``springs`` answers the same definiteness question for the solver's
pencils from their element data, where ``dpttrf`` cannot: near a singular
pencil, as under Neumann conditions near alpha*, the rounding of the
assembled diagonal is the size of its pivots.  Its pivots are those of a
relatively robust representation (Dhillon & Parlett, Linear Algebra Appl.
387, 2004), in which no two large terms cancel; with the springs they are
LDL^T factors that ``dpttrs`` solves with as it does ``dpttrf``'s, which is
how the solver takes every vector from them.  Their ratios to the springs
give the vector that solves every row but the last (Parlett & Dhillon,
Linear Algebra Appl. 267, 1997); the solver does not use it.
"""

from __future__ import annotations

import math

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

    For one unknown d is the 1x1 pencil itself and e is empty.  ``dpttrf``
    stops at a pivot <= 0 but passes a NaN one, which every later pivot
    inherits, so a NaN last pivot, from a NaN shift or entry, also reads
    not definite.
    """
    # ad + (-sigma)*bd is ad - sigma*bd bit for bit, built in one buffer
    d = np.multiply(bd, -sigma)
    d += ad
    if d.size == 1:  # dpttrf rejects the empty off-diagonal of a 1x1 pencil
        return (d, ae) if d[0] > 0.0 else None
    e = np.multiply(be, -sigma)
    e += ae
    if dpttrf is None:
        lapack()
    d, e, info = dpttrf(d, e, overwrite_d=1, overwrite_e=1)
    return (d, e) if info == 0 and d[-1] > 0.0 else None


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

    def above(mid):
        nonlocal probes, factors
        probes += 1
        flag, _, found = pencil_inertia(ad, ae, cd, ce, mid)
        if not flag:
            factors = found
        return flag

    lo, hi = halve(above, lo, hi, atol, rtol)
    return lo, hi, probes, factors


def halve(above, lo, hi, atol, rtol):
    """[lo, hi] halved to hi - lo <= atol + rtol*|hi|: a midpoint where
    above(mid) is true becomes hi, any other lo.  The solver's one
    bisection rule, for the test of either form."""
    while hi - lo > atol + rtol * abs(hi):
        mid = 0.5 * (lo + hi)
        if above(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def springs(ph, load, beta):
    """(d, s): the LDL^T pivots and the springs of K - G when it is positive
    definite, else None.

    K is the stiffness form, with ph_j = p_j / h_j on element j and beta at
    both ends, and G the form of the element loads, load_j times the P1
    mass block of element j over h_j.  K - G is a chain of springs: element
    j joins its two nodes by the spring s_j = ph_j + load_j / 6, and each
    of its nodes carries -load_j / 2.  The LDL^T pivots are
    d_j = s_j + r_j from r_0 = beta - load_0 / 2, with
    r_{j+1} = s_j r_j / d_j - (load_j + load_{j+1}) / 2 (no load_n), and
    the last pivot is r_n + beta; L's subdiagonal is -s_j / d_j, and
    x_{j+1} / x_j = d_j / s_j solves every row but the last.  beta = inf
    eliminates both end nodes (Dirichlet): r_0 is infinite, and
    s_j r_j / d_j is s_j there.  A NaN anywhere reads not definite.
    """
    s = ph + load / 6.0
    c = (0.5 * load).tolist() + [0.0]
    pivots = []
    r = beta - c[0]
    for j, sj in enumerate(s.tolist()):
        d = sj + r
        if not d > 0.0:
            return None
        pivots.append(d)
        r = (sj if r == math.inf else sj * r / d) - c[j] - c[j + 1]
    pivots.append(r + beta)
    return (np.array(pivots), s) if pivots[-1] > 0.0 else None
