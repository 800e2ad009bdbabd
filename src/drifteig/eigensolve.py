"""Discretized principal-eigenvalue solver for the 1D drift eigenproblem.

Weak form on (0, 1):

    int e^{a m} phi' psi' + beta (phi(0) psi(0) + phi(1) psi(1))
        = lambda  int m e^{a m} phi psi ,

with Neumann (beta = 0) and Dirichlet (beta = inf) as limit cases.  The
discretization uses continuous piecewise-linear elements on a grid snapped
to the weight's breakpoints, so every coefficient integral is exact and all
forms are symmetric tridiagonal.

The positive principal eigenvalue is characterized through the auxiliary
curve mu(lambda) = smallest eigenvalue of the pencil (K - lambda*B, M0):
mu is concave, mu(lambda) = 0 exactly at principal eigenvalues, and the
sign of mu equals the sign predicate "K - lambda*B is positive definite",
which one LDL^T factorization (LAPACK ``dpttrf``) answers in O(n).  Root
location therefore bisects on that test instead of resolving mu at every
probe.

All entry points share one core: ``_zero_regime`` validates the weight and
detects the Neumann zero regime, ``_bracket_and_bisect`` locates lambda,
and ``_inverse_iteration`` serves both the Rayleigh polish of mu and the
eigenfunction that ``_eigenpair`` normalizes and checks.  ``eigen_cov``
runs the same core on the drift-free forms of the change of variable.  The
definiteness test and the mu bisection are in ``kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_banded

from . import kernels
from .weights import Boundary, DriftEigError, ModelParams, PiecewiseWeight, exp_mass

LAMBDA_REL_TOL = 1e-10
LAMBDA_FLOOR = 1e-8  # smallest eigenvalue the bracket resolves
MU_ATOL = 1e-8  # bisection floor; the Rayleigh polish takes it to ~1e-12
MU_RTOL = 1e-12
BRACKET_LIMIT = 1e8
SHIFT_REL = 1e-10  # inverse-iteration shift off the converged eigenvalue
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
    """
    bp = np.asarray(breakpoints, dtype=float)
    base = np.linspace(0.0, length, n + 1)
    idx = np.searchsorted(bp, base)
    left = bp[np.clip(idx - 1, 0, bp.size - 1)]
    right = bp[np.clip(idx, 0, bp.size - 1)]
    dist = np.minimum(np.abs(base - left), np.abs(base - right))
    keep = dist > 0.25 * length / n
    return np.union1d(bp, base[keep])


def make_discretization(n: int, m: PiecewiseWeight) -> Discretization:
    if n < 2:
        raise ValueError("need at least 2 cells")
    return Discretization(n=n, nodes=_merge_nodes(n, m.breakpoints, 1.0))


@dataclass(eq=False)
class Forms:
    """Assembled tridiagonal forms (diagonal + superdiagonal of each).

    Element data (diffusion coefficient, weight, cell sizes) is kept so
    quadratic forms can be evaluated elementwise, which avoids the
    cancellation that plagues near-null vectors in assembled form.
    """

    nodes: np.ndarray
    diffusion: np.ndarray  # diffusion coefficient per element
    weight: np.ndarray  # weighted-mass coefficient per element
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
        h = np.diff(self.nodes)
        dv = np.diff(v_full)
        kq = float(np.sum(self.diffusion * dv * dv / h))
        if not self.dirichlet and self.beta > 0.0:
            kq += self.beta * (v_full[0] ** 2 + v_full[-1] ** 2)
        cell = h / 3.0 * (
            v_full[:-1] ** 2 + v_full[:-1] * v_full[1:] + v_full[1:] ** 2
        )
        bq = float(np.sum(self.weight * cell))
        mq = float(np.sum(cell))
        return kq, bq, mq


def _assemble_on_nodes(
    nodes: np.ndarray,
    diffusion: np.ndarray,
    weight: np.ndarray,
    beta: float,
) -> Forms:
    h = np.diff(nodes)
    if np.any(h <= 0.0):
        raise AssemblyError("nodes not strictly increasing")
    n1 = nodes.size
    kd = np.zeros(n1)
    ke = -diffusion / h
    kd[:-1] += diffusion / h
    kd[1:] += diffusion / h

    bd = np.zeros(n1)
    be = weight * h / 6.0
    bd[:-1] += weight * h / 3.0
    bd[1:] += weight * h / 3.0

    md = np.zeros(n1)
    me = h / 6.0
    md[:-1] += h / 3.0
    md[1:] += h / 3.0

    dirichlet = math.isinf(beta)
    if not dirichlet and beta > 0.0:
        kd[0] += beta
        kd[-1] += beta
    return Forms(nodes, diffusion, weight, beta, kd, ke, bd, be, md, me, dirichlet)


def assemble(
    m: PiecewiseWeight, params: ModelParams, bc: Boundary, disc: Discretization
) -> Forms:
    """Stiffness, weighted-mass and plain-mass forms for the drift problem."""
    nodes = disc.nodes
    missing = np.setdiff1d(np.asarray(m.breakpoints), nodes)
    if missing.size:
        raise AssemblyError(f"discretization misses breakpoints {missing[:4]}")
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    v = m.eval_many(mid)
    diffusion = np.exp(params.alpha * v)
    weight = v * diffusion
    return _assemble_on_nodes(nodes, diffusion, weight, bc.beta)


def _tri_mv(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = d * x
    y[:-1] += e * x[1:]
    y[1:] += e * x[:-1]
    return y


def _pencil_bracket(ad, ae, md, me) -> tuple:
    """Gershgorin-type bound: all pencil eigenvalues lie in [-R, R]."""
    row = np.abs(ad).copy()
    row[:-1] += np.abs(ae)
    row[1:] += np.abs(ae)
    margin = md.copy()
    margin[:-1] -= np.abs(me)
    margin[1:] -= np.abs(me)
    r = float(np.max(row / margin)) * 1.01 + 1.0
    return -r, r


@dataclass
class EigenPair:
    """Converged eigenvalue with its positive discrete eigenfunction,
    normalized to int m e^{alpha m} phi^2 = 1 in the x variable."""

    lam: float
    nodes: np.ndarray
    phi: np.ndarray
    residual: float

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


def _inverse_iteration(forms: Forms, lam: float, sigma: float, steps: int):
    """Inverse iteration on K - lam*B - sigma*M0 over the unknowns.

    Starts from the ones vector; each step solves against M0 times the
    iterate and rescales to unit max norm.  Returns the reduced iterate, or
    None when a solve is singular or a norm is not finite and positive.
    """
    kd, ke, bd, be, md, me = forms.interior()
    ab = np.zeros((3, kd.size))
    ab[0, 1:] = ab[2, :-1] = ke - lam * be - sigma * me
    ab[1, :] = kd - lam * bd - sigma * md
    v = np.ones(kd.size)
    try:
        for _ in range(steps):
            v = solve_banded((1, 1), ab, _tri_mv(md, me, v))
            nrm = np.max(np.abs(v))
            if not np.isfinite(nrm) or nrm == 0.0:
                return None
            v = v / nrm
    except np.linalg.LinAlgError:
        return None
    return v


def _rayleigh_polish(forms: Forms, lam: float, sigma: float) -> float:
    """Refine the pencil eigenvalue estimate sigma of (K - lam*B, M0).

    The bisection estimate is limited by the rounding of the LDL^T
    pivots (about eps * matrix scale).  Two inverse iterations give the
    eigenvector, and its elementwise Rayleigh quotient (kq - lam*bq) / mq
    is accurate to the residual squared: every quadratic form is a sum over
    elements with no large cancellations.
    """
    v = _inverse_iteration(forms, lam, sigma, 2)
    if v is None:
        return sigma
    kq, bq, mq = forms.quadratics(forms.embed(v))
    if mq <= 0.0:
        return sigma
    rho = (kq - lam * bq) / mq
    # reject a polish that escaped the bisection neighborhood (wrong vector)
    if abs(rho - sigma) > 1e-4 * max(1.0, abs(sigma)):
        return sigma
    return rho


def _mu_from_forms(forms: Forms, lam: float) -> float:
    kd, ke, bd, be, md, me = forms.interior()
    ad = kd - lam * bd
    ae = ke - lam * be
    lo, hi = _pencil_bracket(ad, ae, md, me)
    sigma = float(
        kernels.smallest_pencil_eigenvalue(ad, ae, md, me, lo, hi, MU_ATOL, MU_RTOL, 200)
    )
    return _rayleigh_polish(forms, lam, sigma)


def mu_of_lambda(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: Discretization,
    lam: float,
) -> float:
    """Smallest eigenvalue of the shifted pencil at the given lambda."""
    return _mu_from_forms(assemble(m, params, bc, disc), lam)


def mu_curve(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: Discretization,
    lams: Sequence[float],
) -> list:
    forms = assemble(m, params, bc, disc)
    return [MuCurvePoint(float(l), _mu_from_forms(forms, float(l))) for l in lams]


def _bracket_and_bisect(forms: Forms) -> float:
    kd, ke, bd, be, _, _ = forms.interior()

    def pred(lam: float) -> bool:
        # mu(lam) <= 0 iff K - lam*B is not positive definite
        return kernels.pencil_inertia(kd, ke, bd, be, lam)[0] >= 1

    if pred(LAMBDA_FLOOR):
        # Near lambda = 0 the Neumann pencil is within pivot noise of
        # singular and the raw test can fire falsely; trust the polished
        # mu evaluation before declaring the eigenvalue unresolvable.
        if _mu_from_forms(forms, LAMBDA_FLOOR) <= 0.0:
            raise BracketError(
                f"sign predicate already true at lambda = {LAMBDA_FLOOR}: "
                "eigenvalue below the resolvable floor"
            )
    lo, hi = LAMBDA_FLOOR, 1.0
    while not pred(hi):
        lo = hi
        hi *= 2.0
        if hi > BRACKET_LIMIT:
            samples = [(l, _mu_from_forms(forms, l)) for l in (1.0, 1e2, 1e4, 1e6, 1e8)]
            raise BracketError(f"no sign change below {BRACKET_LIMIT}; mu samples {samples}")
    while hi - lo > LAMBDA_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _eigenpair(forms: Forms, lam: float, nodes: np.ndarray) -> EigenPair:
    """Positive eigenfunction of the eigenvalue lam of ``forms``.

    Three inverse iterations just above lam give the vector.  It is scaled
    to unit weighted mass under ``forms``, which is int m e^{alpha m} phi^2
    = 1 in either variable, and returned on ``nodes`` (the x-variable
    nodes: those of ``forms`` unless the solve ran in another variable)
    with the relative residual of the pencil.
    """
    x = _inverse_iteration(forms, lam * (1.0 + SHIFT_REL), 0.0, 3)
    if x is None:
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
    return EigenPair(lam=lam, nodes=nodes, phi=forms.embed(x), residual=residual)


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
    return _eigenpair(forms, _bracket_and_bisect(forms), forms.nodes)


def principal_lambda(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: Discretization,
) -> float:
    """Eigenvalue-only variant of principal_eigenvalue (no eigenfunction).

    Used by scans that evaluate many candidate weights; returns 0.0 in the
    Neumann zero regime.
    """
    if _zero_regime(m, params, bc):
        return 0.0
    return _bracket_and_bisect(assemble(m, params, bc, disc))


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
    ynodes = _merge_nodes(disc.n, mt.breakpoints, cov.total)
    v = mt.eval_many(0.5 * (ynodes[:-1] + ynodes[1:]))
    weight = v * np.exp(2.0 * params.alpha * v)
    forms = _assemble_on_nodes(ynodes, np.ones_like(v), weight, bc.beta)
    # c is affine on each element (the y-nodes hold m~'s breakpoints) and
    # m~ e^{2 alpha m~} dy = m e^{alpha m} dx, so these forms give the x norm
    return _eigenpair(forms, _bracket_and_bisect(forms), cov.y_to_x(ynodes))
