"""Discretized principal-eigenvalue solver for the 1D drift eigenproblem.

Weak form on (0, 1):

    int e^{a m} phi' psi' + beta (phi(0) psi(0) + phi(1) psi(1))
        = lambda  int m e^{a m} phi psi ,

with Neumann (beta = 0) and Dirichlet (beta = inf) as limit cases.  The
discretization uses continuous piecewise-linear elements on a grid snapped
to the weight's breakpoints, so every coefficient integral is exact and all
forms are symmetric tridiagonal.  Assembly finds the breakpoints among the
nodes by index and repeats each piece's value over its elements; ``Forms``
keeps the element sizes for the elementwise quadratic forms.

The positive principal eigenvalue is characterized through the auxiliary
curve mu(lambda) = smallest eigenvalue of the pencil (K - lambda*B, M0):
mu is concave, mu(lambda) = 0 exactly at principal eigenvalues, and the
sign of mu equals the sign predicate "K - lambda*B is positive definite",
which one LDL^T factorization (LAPACK ``dpttrf``) answers in O(n).  The
lambda bracket starts at [LAMBDA_FLOOR, 1] and doubles its upper end until
the test reads "not definite"; only a lambda <= 1 tests the floor.  Root
location bisects on that test only to 1/64 relative.  The eigenvalue is the
minimum of a Rayleigh quotient, so the refinement then runs inverse iteration
at the bracket's positive definite lower end and returns the elementwise
Rayleigh quotient rho of the result, never below it, once rho lies in the
bracket and the test reads "definite" just below it (1e-8 relative, plus
1e-8 absolute for mu).  Else the bisection goes on from the same bracket as
if it had never stopped and ends alike: rho at its final lower end, or the
midpoint should rho lie 1e-4 from it.  Either way the refinement also
returns a shift it has proved definite.  mu takes the same path on the
pencil (K - lambda*B, M0) from the bracket [-max(lambda*weight), Rayleigh
quotient of the ones vector].  Every bisection, coarse or not, is the
kernel's, which returns its bracket and the factors at its lower end.

All entry points share one core: ``_zero_regime`` validates the weight and
detects the Neumann zero regime, and ``_Pencil`` holds one pencil, (K, B)
or (K - lambda*B, M0), with its elementwise quotient.  Its methods are the
sign test, the kernel bisection, ``vector`` (the one inverse iteration: a
few ``dpttrs`` solves with the LDL^T factors of a definite shift),
``rayleigh`` (the elementwise quotient) and ``refine``, which certifies,
or bisects and polishes, both lambda and mu.  The pencil makes all of its
factorizations and keeps the last definite one, so the lower ends that the
refinement's inverse iterations start from, which a test has factored, are
not factored again.  ``_bracket_and_bisect`` locates lambda on (K, B); the
eigenfunction that ``_eigenpair`` normalizes and checks is ``vector`` on
(K - lambda*B, M0).
``eigen_cov`` runs the same core on the drift-free forms of the change of
variable.  The factorization, the definiteness test and the bisection
are in ``kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from ._kernels_py import lapack
from .weights import Boundary, DriftEigError, ModelParams, PiecewiseWeight, exp_mass

LAMBDA_REL_TOL = 1e-10
LAMBDA_FLOOR = 1e-8  # smallest eigenvalue the bracket resolves
MU_ATOL = 1e-8  # mu's bisection floor and certificate slack; also pads the eigenfunction's shift
MU_RTOL = 1e-12
BRACKET_LIMIT = 1e8
COARSE_REL = 1.0 / 64.0  # relative bracket width handed to the Rayleigh refinement
MU_COARSE_SHARE = 2.0 ** -12  # mu's coarse bracket: also this share of its start
REFINE_STEPS = 8  # most inverse-iteration solves at the bracket's lower end
REFINE_TOL = 1e-10  # agreement of two successive estimates, relative to the shift gap
CERT_REL = 1e-8  # the certificate probe sits at rho (1 - CERT_REL)
DEFAULT_N = 2000


class AssemblyError(DriftEigError, RuntimeError):
    """Discretization nodes do not match the weight's breakpoints."""


class BracketError(DriftEigError, RuntimeError):
    """No sign change found while bracketing the eigenvalue."""


class SolverError(DriftEigError, RuntimeError):
    """Eigen-solve failed downstream of a successful bracket."""


@dataclass(frozen=True, eq=False)
class Discretization:
    """Grid for the unit interval: n uniform cells merged with breakpoints."""

    n: int
    nodes: np.ndarray


def _merge_nodes(n: int, breakpoints: Sequence[float], length: float) -> np.ndarray:
    """Uniform nodes on [0, length] merged with breakpoints.

    Uniform nodes closer than a quarter cell to a breakpoint are dropped, so
    the mesh stays quasi-uniform and no near-degenerate element appears.
    Only the uniform node nearest each breakpoint, b n / length rounded,
    can lie that close; it and its two neighbours are tested.  The kept
    nodes lie more than a quarter cell from every breakpoint, so inserting
    the sorted, deduplicated breakpoints among them gives the sorted union.
    """
    # coinciding breakpoints merge; eigen_cov raises before its y-breakpoints can coincide here
    bp = sorted(set(map(float, breakpoints)))
    base = np.linspace(0.0, length, n + 1)
    quarter = 0.25 * length / n
    keep = np.ones(n + 1, dtype=bool)
    for b in bp:
        j = round(b * n / length)
        for i in range(max(j - 1, 0), min(j + 1, n) + 1):
            if abs(base[i] - b) <= quarter:
                keep[i] = False
    kept = base[keep]
    return np.insert(kept, np.searchsorted(kept, bp), bp)


def make_discretization(n: int, m: PiecewiseWeight) -> Discretization:
    if n < 2:
        raise ValueError("need at least 2 cells")
    return Discretization(n=n, nodes=_merge_nodes(n, m.breakpoints, 1.0))


@dataclass(eq=False)
class Forms:
    """Assembled tridiagonal forms (diagonal + superdiagonal of each).

    Element data (diffusion coefficient, weight, the element sizes h and
    h / 3 from assembly) is kept so quadratic forms can be evaluated
    elementwise, which avoids the cancellation that plagues near-null
    vectors in assembled form.
    """

    nodes: np.ndarray
    diffusion: np.ndarray  # diffusion coefficient per element
    weight: np.ndarray  # weighted-mass coefficient per element
    h: np.ndarray  # element sizes
    h3: np.ndarray  # h / 3
    beta: float
    kd: np.ndarray
    ke: np.ndarray
    bd: np.ndarray
    be: np.ndarray
    md: np.ndarray
    me: np.ndarray
    dirichlet: bool

    def reduced(self, d: np.ndarray, e: np.ndarray) -> tuple:
        """Interior restriction when Dirichlet unknowns are eliminated."""
        if not self.dirichlet:
            return d, e
        return d[1:-1], e[1:-1]

    def interior(self) -> tuple:
        """(kd, ke, bd, be, md, me) restricted to the unknowns."""
        return (
            *self.reduced(self.kd, self.ke),
            *self.reduced(self.bd, self.be),
            *self.reduced(self.md, self.me),
        )

    def embed(self, v: np.ndarray) -> np.ndarray:
        """Extend a reduced vector by the eliminated boundary zeros."""
        if not self.dirichlet:
            return v
        full = np.zeros(self.nodes.size)
        full[1:-1] = v
        return full

    def quadratics(self, v_full: np.ndarray) -> tuple:
        """(v'Kv, v'Bv, v'M0v) evaluated element by element."""
        dv = np.diff(v_full)
        kq = float(np.sum(self.diffusion * dv * dv / self.h))
        if not self.dirichlet and self.beta > 0.0:
            kq += self.beta * (v_full[0] ** 2 + v_full[-1] ** 2)
        cell = self.h3 * (
            v_full[:-1] ** 2 + v_full[:-1] * v_full[1:] + v_full[1:] ** 2
        )
        bq = float(np.sum(self.weight * cell))
        mq = float(np.sum(cell))
        return kq, bq, mq


def _element_values(nodes: np.ndarray, breakpoints, values) -> tuple:
    """(element sizes, value per element) of a piecewise constant on nodes.

    Every breakpoint must be a node, so the elements between the nodes of
    breakpoints k and k + 1 take values[k]; a piece whose two breakpoints
    coincide in floating point takes none.
    """
    h = np.diff(nodes)
    if not np.all(h > 0.0):
        raise AssemblyError("nodes not strictly increasing")
    bp = np.asarray(breakpoints, dtype=float)
    index = np.searchsorted(nodes, bp)
    hit = nodes[np.minimum(index, nodes.size - 1)] == bp
    if not hit.all():
        raise AssemblyError(f"discretization misses breakpoints {bp[~hit][:4]}")
    if index[0] != 0 or index[-1] != nodes.size - 1:
        raise ValueError(f"nodes outside [{bp[0]}, {bp[-1]}]")
    return h, np.repeat(np.asarray(values, dtype=float), np.diff(index))


def _assemble_on_nodes(
    nodes: np.ndarray,
    h: np.ndarray,
    diffusion: np.ndarray,
    weight: np.ndarray,
    beta: float,
) -> Forms:
    n1 = nodes.size
    kq = diffusion / h
    kd = np.zeros(n1)
    kd[:-1] = kq
    kd[1:] += kq

    wh = weight * h
    bq = wh / 3.0
    bd = np.zeros(n1)
    bd[:-1] = bq
    bd[1:] += bq

    h3 = h / 3.0
    md = np.zeros(n1)
    md[:-1] = h3
    md[1:] += h3

    dirichlet = math.isinf(beta)
    if not dirichlet and beta > 0.0:
        kd[0] += beta
        kd[-1] += beta
    return Forms(
        nodes, diffusion, weight, h, h3, beta, kd, -kq, bd, wh / 6.0, md, h / 6.0, dirichlet
    )


def assemble(
    m: PiecewiseWeight, params: ModelParams, bc: Boundary, disc: Discretization
) -> Forms:
    """Stiffness, weighted-mass and plain-mass forms for the drift problem."""
    h, v = _element_values(disc.nodes, m.breakpoints, m.values)
    diffusion = np.exp(params.alpha * v)
    return _assemble_on_nodes(disc.nodes, h, diffusion, v * diffusion, bc.beta)


def _tri_mv(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = d * x
    y[:-1] += e * x[1:]
    y[1:] += e * x[:-1]
    return y


@dataclass
class EigenPair:
    """Converged eigenvalue with its positive discrete eigenfunction,
    normalized to int m e^{alpha m} phi^2 = 1 in the x variable.

    certified tells how the (K, B) pencil's ``refine`` settled lam: True
    when one definiteness probe CERT_REL below the coarse Rayleigh quotient
    certifies it, False when lam ends the bisection to LAMBDA_REL_TOL.  A
    pair built outside the solver is not certified.  probes counts the
    definiteness tests (``pencil_inertia`` calls, the kernel bisection's
    included) that located and refined lam, 0 for a pair built outside the
    solver; a lam above 1 makes none at LAMBDA_FLOOR, and the
    factorizations that the refinement reuses or makes itself are not tests.
    residual is ||Kx - lam Bx|| / (||Kx|| + |lam| ||Bx||) on the assembled forms.
    Its rounding floor is about 1e-10 at n = 2000 (6.6e-11 on the CLI's
    default ``eig``, whose lam is certified), so it cannot show an error in
    lam below that.
    """

    lam: float
    nodes: np.ndarray
    phi: np.ndarray
    residual: float
    certified: bool = False
    probes: int = 0

    @property
    def max_phi(self) -> float:
        return float(np.max(self.phi))


@dataclass(frozen=True)
class ZeroRegime:
    """Neumann case with int m e^{alpha m} >= 0: zero is the only
    non-negative principal eigenvalue."""

    lam: float = 0.0


@dataclass(frozen=True)
class MuCurvePoint:
    lam: float
    mu: float


def _zero_regime(m: PiecewiseWeight, params: ModelParams, bc: Boundary) -> bool:
    """Reject a weight with no positive part; True in the Neumann zero regime."""
    if not any(v > 0.0 for v in m.values):
        raise ValueError("weight has no positive part: no positive principal eigenvalue")
    return bc.is_neumann and exp_mass(m, params.alpha) >= 0.0


class _Pencil:
    """The pencil (A, C) over the unknowns of ``forms``: its sign test,
    bisection, inverse iteration and Rayleigh refinement.

    arrays is (A diagonal, A superdiagonal, C diagonal, C superdiagonal);
    quotient maps the elementwise quadratics (v'Kv, v'Bv, v'M0v) of a vector
    to its Rayleigh quotient on the pencil.  Calling the pencil at sigma is
    the sign test: True when A - sigma*C is not positive definite, i.e.
    sigma is at or above its smallest eigenvalue.  calls counts the tests
    made, one ``pencil_inertia`` call each.  Every factorization of the
    pencil is made here: kept is (shift, LDL^T factors or None) of the last
    shift a test proved definite or ``vector`` factored, which ``vector``
    uses rather than factor it again.
    """

    def __init__(self, forms: Forms, arrays: tuple, quotient):
        self.forms = forms
        self.arrays = arrays
        self.quotient = quotient
        self.calls = 0
        self.kept = (math.nan, None)

    def __call__(self, sigma: float) -> bool:
        self.calls += 1
        flag, _, factors = kernels.pencil_inertia(*self.arrays, sigma)
        if factors is not None:
            self.kept = (sigma, factors)
        return flag >= 1

    def bisect(self, lo: float, hi: float, atol: float, rtol: float) -> tuple:
        """[lo, hi] halved to atol + rtol*|hi| by the kernel bisection."""
        lo, hi, probes, factors = kernels.smallest_pencil_eigenvalue(
            *self.arrays, lo, hi, atol, rtol
        )
        self.calls += probes
        if factors is not None:
            self.kept = (lo, factors)
        return lo, hi

    def rayleigh(self, x) -> float:
        """``quotient`` of x's elementwise quadratics, NaN for no x."""
        forms = self.forms
        return math.nan if x is None else float(self.quotient(*forms.quadratics(forms.embed(x))))

    def vector(self, shift: float):
        """x: inverse iteration at a definite shift, or None.

        The LDL^T factorization of S = A - shift*C (LAPACK ``dpttrf``, or
        the kept factors of a test at that shift) is itself the definiteness
        test; each step solves S y = C x with it (``dpttrs``).
        The first right-hand side is M0 times the ones vector, which is positive,
        so its component along the positive eigenvector is positive (the ones
        vector itself is the lambda = 0 eigenvector under Neumann conditions).
        From the second step on, shift + x'Cx / y'Cx is a Rayleigh quotient of
        S^-1 (y'Cx > 0 as S is positive definite); once two in a row agree to
        REFINE_TOL times their distance to the shift, the last iterate x, scaled
        to unit max norm over the unknowns, is returned; ``rayleigh`` gives
        its elementwise quotient.  For one unknown the ones vector is exact.
        A failed factorization or solve, or no agreement within REFINE_STEPS
        solves, gives None.
        """
        _, _, cd, ce = self.arrays
        x = np.ones(cd.size)
        if cd.size > 1:  # dpttrf rejects the empty off-diagonal of a 1x1 pencil
            if self.kept[0] != shift:
                self.kept = (shift, kernels.ldlt(*self.arrays, shift))
            if self.kept[1] is None:
                return None
            d, e = self.kept[1]
            dpttrs = lapack()[1]
            _, _, _, _, md, me = self.forms.interior()
            rhs = _tri_mv(md, me, x)
            last = math.nan
            for step in range(REFINE_STEPS):
                y, info = dpttrs(d, e, rhs)
                nrm, den = float(np.max(np.abs(y))), float(y @ rhs)
                if info != 0 or not math.isfinite(nrm) or nrm == 0.0 or den <= 0.0:
                    return None
                gap, x = float(x @ rhs) / den, y / nrm
                if abs(shift + gap - last) <= REFINE_TOL * abs(gap):
                    break
                last = shift + gap if step else math.nan  # the first rhs is M0 x, not C x
                rhs = _tri_mv(cd, ce, x)
            else:
                return None
        return x

    def refine(self, lo: float, hi: float, coarse: float, atol: float, rtol: float):
        """Smallest eigenvalue of the pencil in [lo, hi].

        Returns (value, certified, below), where A - below*C has been found
        positive definite.  The kernel bisection halves [lo, hi] to
        coarse + COARSE_REL*|hi|; the Rayleigh quotient rho of ``vector`` at
        its lower end, never below the eigenvalue (``rayleigh`` is NaN unless
        x'Cx > 0), is the value, with True and below = rho - t, when it lies
        in the bracket and A - (rho - t)*C is definite, t = CERT_REL*|rho| +
        atol.  Otherwise the bisection goes on to atol + rtol*|hi|, and rho at
        its lower end, accurate to the residual squared, is the value, with
        False and below that end, unless it is NaN or further than
        1e-4*max(1, |mid|) from the midpoint, which is then the value.
        """
        lo, hi = self.bisect(lo, hi, coarse, COARSE_REL)
        rho = self.rayleigh(self.vector(lo))
        if lo <= rho <= hi:
            t = CERT_REL * abs(rho) + atol
            if not self(rho - t):
                return rho, True, rho - t
        lo, hi = self.bisect(lo, hi, atol, rtol)
        mid = 0.5 * (lo + hi)
        rho = self.rayleigh(self.vector(lo))
        if abs(rho - mid) <= 1e-4 * max(1.0, abs(mid)):
            return rho, False, lo
        return mid, False, lo


def _mu_pencil(forms: Forms, lam: float) -> _Pencil:
    """The pencil (K - lam*B, M0) over the unknowns, with its quotient."""
    kd, ke, bd, be, md, me = forms.interior()
    return _Pencil(
        forms, (kd - lam * bd, ke - lam * be, md, me), lambda kq, bq, mq: (kq - lam * bq) / mq
    )


def _mu_from_forms(forms: Forms, lam: float) -> tuple:
    """(mu(lam), the definiteness tests made); ValueError for a non-finite bracket."""
    # K is positive semidefinite and B sums the element weights times M0's
    # element blocks, so mu >= -max(lam * weight); the Rayleigh quotient of
    # any vector, here the ones vector, bounds mu from above
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        pencil = _mu_pencil(forms, lam)
        lo = -float(np.max(lam * forms.weight))
        hi = pencil.rayleigh(np.ones(pencil.arrays[0].size))
        slack = 1e-3 * (hi - lo) + MU_ATOL
        lo, hi = lo - slack, hi + slack
    if not (math.isfinite(lam) and math.isfinite(hi - lo)):
        raise ValueError(f"mu at lambda = {lam}: bracket [{lo}, {hi}] is not finite")
    return pencil.refine(lo, hi, (hi - lo) * MU_COARSE_SHARE, MU_ATOL, MU_RTOL)[0], pencil.calls


def mu_of_lambda(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: Discretization,
    lam: float,
) -> float:
    """Smallest eigenvalue of the shifted pencil at the given lambda."""
    return _mu_from_forms(assemble(m, params, bc, disc), lam)[0]


def mu_curve(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: Discretization,
    lams: Sequence[float],
) -> list:
    forms = assemble(m, params, bc, disc)
    return [MuCurvePoint(float(l), _mu_from_forms(forms, float(l))[0]) for l in lams]


def _bracket_and_bisect(forms: Forms) -> tuple:
    """(lambda, below, certified) of the (K, B) pencil's ``refine``, and
    the number of definiteness tests (``pencil_inertia`` calls) made."""
    kd, ke, bd, be, _, _ = forms.interior()
    # mu(lam) <= 0 iff K - lam*B is not positive definite
    pencil = _Pencil(forms, (kd, ke, bd, be), lambda kq, bq, mq: kq / bq if bq > 0.0 else math.nan)
    floor_probes = 0
    lo, hi = LAMBDA_FLOOR, 1.0
    while not pencil(hi):
        lo = hi
        hi *= 2.0
        if hi > BRACKET_LIMIT:
            samples = [(l, _mu_from_forms(forms, l)[0]) for l in (1.0, 1e2, 1e4, 1e6, 1e8)]
            raise BracketError(f"no sign change below {BRACKET_LIMIT}; mu samples {samples}")
    # the floor bounds the bracket only for lambda <= 1, so only then is it tested
    if lo == LAMBDA_FLOOR and pencil(lo):
        # Near lambda = 0 the Neumann pencil is within pivot noise of
        # singular and the raw test can fire falsely; trust the polished
        # mu evaluation before declaring the eigenvalue unresolvable.
        mu, floor_probes = _mu_from_forms(forms, LAMBDA_FLOOR)
        if mu <= 0.0:
            raise BracketError(
                f"sign predicate already true at lambda = {LAMBDA_FLOOR}: "
                "eigenvalue below the resolvable floor"
            )
    lam, certified, below = pencil.refine(lo, hi, 0.0, 0.0, LAMBDA_REL_TOL)
    return lam, below, certified, pencil.calls + floor_probes


def _eigenpair(
    forms: Forms, lam: float, below: float, certified: bool, probes: int, nodes: np.ndarray
) -> EigenPair:
    """Positive eigenfunction of the eigenvalue lam of ``forms``.

    The vector of mu(lam) = 0 is the ``vector`` of the pencil
    (K - lam*B, M0) at sigma = -(|lam - below| max(weight) + MU_ATOL).  As
    B <= max(weight) M0, K - lam*B - sigma*M0 >= K - below*B + MU_ATOL*M0 is
    definite when lam >= below; a lam polished below below, where a test
    misfired, is a Rayleigh quotient, so mu(lam) >= -(lam - lambda_1)
    max(weight) > sigma while lam - lambda_1 < below - lam.  The shift sets
    the rate, not the vector.  Should dpttrf fail anyway within pivot
    rounding, sigma steps down by 16, at most 8 times.
    The vector is scaled to unit weighted mass under ``forms``, which is
    int m e^{alpha m} phi^2 = 1 in either variable, and returned on
    ``nodes`` (the x-variable nodes: those of ``forms`` unless the solve
    ran in another variable) with the relative residual of the pencil,
    the certified flag of lam's ``refine`` and the sign tests that found it.
    """
    pencil = _mu_pencil(forms, lam)
    sigma = -(abs(lam - below) * float(np.max(forms.weight)) + MU_ATOL)
    for _ in range(9):
        x = pencil.vector(sigma)
        if x is not None:
            break
        sigma *= 16.0
    else:
        raise SolverError("inverse iteration for the eigenfunction broke down")
    if x.sum() < 0.0:
        x = -x
    phi = forms.embed(x)
    # strictly positive up to the noise floor; values below resolution may
    # underflow to zero when the eigenfunction decays over many e-foldings
    if np.min(phi[1:-1]) < -1e-10 * np.max(phi):
        raise SolverError("recovered eigenfunction is not positive")
    quad = float(np.dot(phi, _tri_mv(forms.bd, forms.be, phi)))
    if quad <= 0.0:
        raise SolverError("weighted norm of eigenfunction not positive")
    x = x / math.sqrt(quad)
    kd, ke, bd, be, _, _ = forms.interior()
    kx = _tri_mv(kd, ke, x)
    bx = _tri_mv(bd, be, x)
    scale = np.linalg.norm(kx) + abs(lam) * np.linalg.norm(bx)
    residual = float(np.linalg.norm(kx - lam * bx) / max(scale, 1e-300))
    return EigenPair(
        lam=lam,
        nodes=nodes,
        phi=forms.embed(x),
        residual=residual,
        certified=certified,
        probes=probes,
    )


def principal_eigenvalue(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: Discretization,
):
    """Positive principal eigenvalue and eigenfunction, or ZeroRegime.

    For Neumann conditions with int m e^{alpha m} >= 0 there is no positive
    principal eigenvalue and ZeroRegime is returned.  The weight must take
    positive values somewhere; the mass bound itself is not required here
    (it matters for the design problem, not for solvability).
    """
    if _zero_regime(m, params, bc):
        return ZeroRegime()
    forms = assemble(m, params, bc, disc)
    return _eigenpair(forms, *_bracket_and_bisect(forms), forms.nodes)


def principal_lambda(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: Discretization,
) -> float:
    """Eigenvalue-only variant of principal_eigenvalue (no eigenfunction).

    Returns 0.0 in the Neumann zero regime.  Nothing in the package calls
    it; the tests and the benchmark's tracer do.
    """
    if _zero_regime(m, params, bc):
        return 0.0
    return _bracket_and_bisect(assemble(m, params, bc, disc))[0]


def eigen_cov(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: Discretization,
):
    """Cross-check path: solve the drift-free form -u'' = lambda m~ e^{2 alpha m~} u.

    The forward change of variable maps (0,1) to (0, c(1)) and removes the
    diffusion coefficient while keeping the Robin coefficient; solving there
    and mapping back must reproduce principal_eigenvalue up to
    discretization error.
    """
    from .rearrange import change_of_variable_forward

    if _zero_regime(m, params, bc):
        return ZeroRegime()
    cov, mt = change_of_variable_forward(m, params.alpha)
    lost = np.flatnonzero(np.diff(mt.breakpoints) == 0.0)
    if lost.size:  # e^{-alpha v} dx under half an ulp of y: the piece's weight is lost
        raise AssemblyError(f"pieces {lost.tolist()} round to zero length in y")
    ynodes = _merge_nodes(disc.n, mt.breakpoints, cov.total)
    h, v = _element_values(ynodes, mt.breakpoints, mt.values)
    weight = v * np.exp(2.0 * params.alpha * v)
    forms = _assemble_on_nodes(ynodes, h, np.ones_like(v), weight, bc.beta)
    # c is affine on each element (the y-nodes hold m~'s breakpoints) and
    # m~ e^{2 alpha m~} dy = m e^{alpha m} dx, so these forms give the x norm
    return _eigenpair(forms, *_bracket_and_bisect(forms), cov.y_to_x(ynodes))
