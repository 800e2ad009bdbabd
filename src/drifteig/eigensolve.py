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

The eigenvalue is the minimum of a Rayleigh quotient, so one rule settles
every answer: the Rayleigh quotient rho of a vector is returned once a sign
test finds K - (rho - t)*B positive definite, t at most the last of
SPRING_WIDTHS relative, and otherwise the solve raises a typed error.
mu(lambda), the smallest eigenvalue of (K - lambda*B, M0), is concave,
vanishes at principal eigenvalues and has the sign of that test; it takes
the same rule on its own pencil, from the bracket [-max(lambda*weight),
Rayleigh quotient of the ones vector].  The lambda bracket starts at
[LAMBDA_FLOOR, 1] and quadruples its upper end until the test reads "not
definite"; only a lambda <= 1 tests the floor.  ``_Pencil`` holds either
pencil with two sign tests: the LDL^T factorization (LAPACK ``dpttrf``),
and the spring form of ``kernels.springs``, whose pivots keep their
relative accuracy where ``dpttrf``'s are rounding noise, as near alpha*
under Neumann conditions.  Either test keeps the LDL^T factors of a
definite shift, and every vector is a ``dpttrs`` solve with kept factors
(``_Pencil.solve``).  The kernel bisection on the first test locates the
root to 1/64 relative, inverse iteration at its lower end gives rho, and a
probe CERT_REL below rho certifies it, made in spring form should
``dpttrf`` reject the shift or the floor have been tested.  Failing that,
the spring test bisects the bracket again by ``kernels.halve``, one solve
with its pivots at the lower end against M0 times the ones vector gives
rho, and the certificate takes SPRING_WIDTHS in turn.  The eigenfunction
is one solve with the certificate's factors against B times rho's vector.
``_zero_regime`` validates the weight and detects the Neumann zero regime;
``eigen_cov`` runs the same core on the drift-free forms of the change of
variable.
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
MU_ATOL = 1e-8  # mu's bisection floor and certificate slack
MU_RTOL = 1e-12
BRACKET_LIMIT = 1e8
COARSE_REL = 1.0 / 64.0  # relative bracket width handed to the Rayleigh refinement
MU_COARSE_SHARE = 2.0 ** -12  # mu's coarse bracket: also this share of its start
REFINE_STEPS = 8  # most inverse-iteration solves at the bracket's lower end
REFINE_TOL = 1e-10  # agreement of two successive estimates, relative to the shift gap
CERT_REL = 1e-8  # the certificate probe sits at rho (1 - CERT_REL)
# the spring path's certificate widths, tried in turn: near alpha* (Neumann) its rounding needs 1e-5
SPRING_WIDTHS = (CERT_REL, 1e-7, 1e-6, 1e-5, 1e-4)
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
    Only the two uniform nodes either side of a breakpoint can lie that
    close, so the union is the sorted, deduplicated breakpoints with the
    uniform nodes between each two of them, less those two where close.
    """
    # coinciding breakpoints merge; eigen_cov raises before its y-breakpoints can coincide here
    bp = sorted(set(map(float, breakpoints)))
    base = np.linspace(0.0, length, n + 1)
    quarter = 0.25 * length / n
    pieces, start = [], 0
    for b, k in zip(bp, np.searchsorted(base, bp).tolist()):  # base[k - 1] < b <= base[k]
        stop = k - 1 if k > 0 and b - base[k - 1] <= quarter else k
        pieces += [base[start:stop], [b]]
        start = k + 1 if k <= n and base[k] - b <= quarter else k
    pieces.append(base[start:])
    return np.concatenate(pieces)


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

    def energy(self, v_full: np.ndarray) -> float:
        """v'Kv evaluated element by element, a sum of non-negative terms."""
        dv = np.diff(v_full)
        kq = float(np.sum(self.diffusion * dv * dv / self.h))
        if not self.dirichlet and self.beta > 0.0:
            kq += self.beta * (v_full[0] ** 2 + v_full[-1] ** 2)
        return kq

    def quadratics(self, v_full: np.ndarray) -> tuple:
        """(v'Kv, v'Bv, v'M0v) evaluated element by element."""
        cell = self.h3 * (
            v_full[:-1] ** 2 + v_full[:-1] * v_full[1:] + v_full[1:] ** 2
        )
        return self.energy(v_full), float(np.sum(self.weight * cell)), float(np.sum(cell))


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
    def node_sums(q):  # each node's two element terms, zero past the ends
        q = np.concatenate(([0.0], q, [0.0]))
        return np.add(q[:-1], q[1:])

    kq = diffusion / h
    kd = node_sums(kq)
    wh = weight * h
    bd = node_sums(wh / 3.0)
    h3 = h / 3.0
    md = node_sums(h3)
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
    t = e * x[1:]
    y[:-1] += t
    y[1:] += np.multiply(e, x[:-1], out=t)
    return y


@dataclass
class EigenPair:
    """Converged eigenvalue with its positive discrete eigenfunction,
    normalized to int m e^{alpha m} phi^2 = 1 in the x variable, as
    phi'K phi / lam = 1 (a sum of non-negative terms; int m e^{alpha m}
    phi^2 vanishes as alpha -> alpha*).

    The solver returns a lam, a Rayleigh quotient, only once a definiteness
    test has passed at lam - t, t one of SPRING_WIDTHS relative (CERT_REL
    when ``dpttrf`` passes), so the grid's eigenvalue lies in (lam - t, lam]
    up to that test's rounding.  That holds for the forms as assembled: the
    error against the exact root also carries the rounding of the
    coefficients e^{alpha v} and v e^{alpha v}, which just above
    LAMBDA_FLOOR outweighs the P1 error, so there lam can lie below the
    exact root (by 7.4e-8 relative for one random weight at
    alpha*(1 - 1e-10), n = 8000).  probes counts the tests
    (``pencil_inertia`` and ``springs`` calls) that located and certified
    lam, 0 for a pair built outside the solver; a lam above 1 makes none at
    LAMBDA_FLOOR.  residual is ||Kx - lam Bx|| / (||Kx|| + |lam| ||Bx||) on
    the assembled forms.  Its rounding floor is about 1e-10 at n = 2000
    (9.4e-11 on the CLI's default ``eig``), so it cannot show an error in
    lam below that.
    """

    lam: float
    nodes: np.ndarray
    phi: np.ndarray
    residual: float
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
    """The pencil (K, B), or (K - lam*B, M0) for a given lam, over the
    unknowns of ``forms``: its sign tests, bisection, solve, inverse
    iteration and Rayleigh refinement.

    arrays is (A diagonal, A superdiagonal, C diagonal, C superdiagonal) of
    the pencil (A, C); quotient maps the elementwise quadratics (v'Kv, v'Bv,
    v'M0v) of a vector to its Rayleigh quotient, and load a shift sigma to
    the element loads of A - sigma*C in spring form.  Calling the pencil at
    sigma is the sign test: True when A - sigma*C is not positive definite,
    i.e. sigma is at or above its smallest eigenvalue; ``spring`` is the
    same test in spring form.  calls counts the tests, one ``pencil_inertia``
    or ``springs`` call each.  kept is (shift, LDL^T factors or None) of the
    last shift a test of either form proved definite or ``vector`` factored,
    and ``solve`` solves with them: ``vector`` uses them rather than factor
    its shift again, and after ``refine`` they are those of the test that
    certified its answer.
    """

    def __init__(self, forms: Forms, lam: float | None = None):
        kd, ke, bd, be, md, me = forms.interior()
        if lam is None:  # mu(lam) <= 0 iff K - lam*B is not positive definite
            self.arrays = (kd, ke, bd, be)
            self.quotient = lambda kq, bq, mq: kq / bq if bq > 0.0 else math.nan
            self.load = lambda sigma: sigma * forms.weight * forms.h
        else:
            self.arrays = (kd - lam * bd, ke - lam * be, md, me)
            self.quotient = lambda kq, bq, mq: (kq - lam * bq) / mq
            self.load = lambda sigma: (lam * forms.weight + sigma) * forms.h
        self.forms = forms
        self.m0_ones = _tri_mv(md, me, np.ones(md.size))  # M0 times the ones vector
        self.calls = 0
        self.kept = (math.nan, None)

    def __call__(self, sigma: float) -> bool:
        self.calls += 1
        flag, _, factors = kernels.pencil_inertia(*self.arrays, sigma)
        if factors is not None:
            self.kept = (sigma, factors)
        return flag >= 1

    def spring(self, sigma: float) -> bool:
        """The sign test in spring form; a definite shift's pivots are kept
        as ``dpttrf``'s (d, e) over the unknowns."""
        self.calls += 1
        found = kernels.springs(-self.forms.ke, self.load(sigma), self.forms.beta)
        if found is not None:
            d, s = found
            self.kept = (sigma, self.forms.reduced(d, -s / d[:-1]))
        return found is None

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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """y solving S y = rhs, S the kept shift's matrix, by ``dpttrs`` with
        its LDL^T factors; all NaN if the solve fails.  The one ``dpttrs``
        call of the solver; for one unknown it is a division."""
        d, e = self.kept[1]
        if d.size == 1:  # dpttrs rejects the empty off-diagonal of a 1x1 pencil
            return rhs / d
        y, info = lapack()[1](d, e, rhs)
        return y if info == 0 else np.full_like(rhs, math.nan)

    def vector(self, shift: float):
        """x: inverse iteration at a definite shift, or None.

        The LDL^T factorization of S = A - shift*C (LAPACK ``dpttrf``, or
        the kept factors of a test at that shift) is itself the definiteness
        test; each step solves S y = C x with it (``solve``).
        The first right-hand side is M0 times the ones vector, which is positive,
        so its component along the positive eigenvector is positive (the ones
        vector itself is the lambda = 0 eigenvector under Neumann conditions).
        From the second step on, shift + x'Cx / y'Cx is a Rayleigh quotient of
        S^-1 (y'Cx > 0 as S is positive definite); once two in a row agree to
        REFINE_TOL times their distance to the shift, the last iterate x, scaled
        to unit max norm over the unknowns, is returned; ``rayleigh`` gives
        its elementwise quotient.  A failed factorization or solve, or no
        agreement within REFINE_STEPS solves, gives None.
        """
        if self.kept[0] != shift:
            self.kept = (shift, kernels.ldlt(*self.arrays, shift))
        if self.kept[1] is None:
            return None
        _, _, cd, ce = self.arrays
        x = np.ones(cd.size)
        rhs = self.m0_ones
        last = math.nan
        for step in range(REFINE_STEPS):
            y = self.solve(rhs)
            nrm, den = max(float(y.max()), -float(y.min())), float(y @ rhs)
            if not math.isfinite(nrm) or nrm == 0.0 or den <= 0.0:
                return None
            gap, x = float(x @ rhs) / den, y / nrm
            if abs(shift + gap - last) <= REFINE_TOL * abs(gap):
                return x
            last = shift + gap if step else math.nan  # the first rhs is M0 x, not C x
            rhs = _tri_mv(cd, ce, x)
        return None

    def refine(
        self, lo: float, hi: float, coarse: float, atol: float, rtol: float, spring_only: bool = False
    ) -> tuple:
        """(rho, x): the smallest eigenvalue in [lo, hi] as the Rayleigh
        quotient rho of x, never below it, with kept the factors of a shift
        below that a test proved definite.

        The kernel bisection halves [lo, hi] to coarse + COARSE_REL*|hi|; rho
        of ``vector`` at its lower end is certified when it lies in the
        bracket and the test, or the spring test should ``dpttrf`` reject
        it, reads "definite" at below = rho - (CERT_REL*|rho| + atol);
        spring_only, for a pencil within ``dpttrf``'s pivot noise of
        singular, leaves that reading to the spring test alone.  Else the
        spring test ``halve``s [lo, hi] to atol + rtol*|hi|, x is one
        ``solve`` against M0 times the ones vector with the spring pivots at
        its lower end (from one more spring test should none have moved
        lo), scaled to unit max norm, and below takes the relative widths
        SPRING_WIDTHS in turn until a spring test certifies rho; past the
        last, or for no definite lo, SolverError.  ``vector`` does not serve
        there: its agreement test, relative to the shift's gap, passes only
        on equality that close to the eigenvalue.
        """
        start = lo, hi
        lo, hi = self.bisect(lo, hi, coarse, COARSE_REL)
        x = self.vector(lo)
        rho = self.rayleigh(x)
        below = rho - (CERT_REL * abs(rho) + atol)
        if lo <= rho <= hi and not ((spring_only or self(below)) and self.spring(below)):
            return rho, x
        lo, _ = kernels.halve(self.spring, *start, atol, rtol)
        x = None
        if lo != start[0] or not self.spring(lo):  # kept holds the spring pivots at lo
            x = self.solve(self.m0_ones)
            x /= max(float(x.max()), -float(x.min()))
        rho = self.rayleigh(x)
        for rel in SPRING_WIDTHS:
            below = rho - (rel * abs(rho) + atol)
            if not self.spring(below):
                return rho, x
        raise SolverError(f"no certificate within {SPRING_WIDTHS[-1]:g} of the quotient {rho!r}")


def _mu_from_forms(forms: Forms, lam: float) -> float:
    """mu(lam); ValueError for a non-finite bracket."""
    # K is positive semidefinite and B sums the element weights times M0's
    # element blocks, so mu >= -max(lam * weight); the Rayleigh quotient of
    # any vector, here the ones vector, bounds mu from above
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        pencil = _Pencil(forms, lam)
        lo = -float(np.max(lam * forms.weight))
        hi = pencil.rayleigh(np.ones(pencil.arrays[0].size))
        slack = 1e-3 * (hi - lo) + MU_ATOL
        lo, hi = lo - slack, hi + slack
    if not (math.isfinite(lam) and math.isfinite(hi - lo)):
        raise ValueError(f"mu at lambda = {lam}: bracket [{lo}, {hi}] is not finite")
    return pencil.refine(lo, hi, (hi - lo) * MU_COARSE_SHARE, MU_ATOL, MU_RTOL)[0]


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


def _bracket_and_bisect(forms: Forms) -> tuple:
    """(lambda, x) of the (K, B) pencil's ``refine``, and the pencil, whose
    calls count the definiteness tests made."""
    pencil = _Pencil(forms)
    lo, hi = LAMBDA_FLOOR, 1.0
    while not pencil(hi):
        lo = hi
        hi *= 4.0
        if hi > BRACKET_LIMIT:
            raise BracketError(f"no sign change below {BRACKET_LIMIT}")
    # the floor bounds the bracket only for lambda <= 1, so only then is it tested, in
    # spring form: near lambda = 0 the Neumann pencil is within dpttrf's pivot noise of
    # singular, so there the spring test alone also decides the certificate
    floor = lo == LAMBDA_FLOOR
    if floor and pencil.spring(lo):
        raise BracketError(
            f"sign predicate already true at lambda = {LAMBDA_FLOOR}: "
            "eigenvalue below the resolvable floor"
        )
    return (*pencil.refine(lo, hi, 0.0, 0.0, LAMBDA_REL_TOL, spring_only=floor), pencil)


def _eigenpair(lam: float, x: np.ndarray, found: _Pencil, nodes: np.ndarray) -> EigenPair:
    """Positive eigenfunction of the eigenvalue lam, the Rayleigh quotient
    of x, that the (K, B) pencil ``found`` certified on its forms.

    It is one step of inverse iteration from x: ``found.solve`` of
    S y = B x, with the LDL^T factors of the test, ``dpttrf``'s or the
    spring pivots, that proved S = K - below*B definite, below within the
    certificate's width of lambda_1, so y's other components shrink by
    (lambda_1 - below) / (lambda_k - below).  The vector is scaled to unit
    weighted mass under those forms, which is int m e^{alpha m} phi^2 = 1
    in either variable, taken as its elementwise energy over lam, and
    returned on ``nodes`` (the x-variable nodes: those of the forms unless
    the solve ran in another variable) with the relative residual of the
    pencil and the sign tests that found lam.
    """
    forms = found.forms
    kd, ke, bd, be, _, _ = forms.interior()
    x = found.solve(_tri_mv(bd, be, x))
    if not np.all(np.isfinite(x)):
        raise SolverError("the eigenfunction's solve broke down")
    if x.sum() < 0.0:
        x = -x
    phi = forms.embed(x)
    # strictly positive up to the noise floor; values below resolution may
    # underflow to zero when the eigenfunction decays over many e-foldings
    if np.min(phi[1:-1]) < -1e-10 * np.max(phi):
        raise SolverError("recovered eigenfunction is not positive")
    quad = forms.energy(phi) / lam
    if not 0.0 < quad < math.inf:
        raise SolverError("the eigenfunction's energy is not positive and finite")
    x = x / math.sqrt(quad)
    kx = _tri_mv(kd, ke, x)
    bx = _tri_mv(bd, be, x)
    scale = np.linalg.norm(kx) + abs(lam) * np.linalg.norm(bx)
    residual = float(np.linalg.norm(kx - lam * bx) / max(scale, 1e-300))
    return EigenPair(
        lam=lam,
        nodes=nodes,
        phi=forms.embed(x),
        residual=residual,
        probes=found.calls,
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
    return _eigenpair(*_bracket_and_bisect(forms), forms.nodes)


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
    return _eigenpair(*_bracket_and_bisect(forms), cov.y_to_x(ynodes))
