"""Optimal placement of a resource interval and related diagnostics.

Among bang-bang interval weights of fixed length delta, the principal
eigenvalue as a function of the left endpoint xi is minimized either at the
boundary (xi = 0, small Robin coefficient) or at the center (large Robin
coefficient); at the critical coefficient every location is optimal.  This
module places the optimum by that trichotomy around the closed-form
beta_crit and evaluates the eigenvalue there once, by the transcendental
root for every beta (Dirichlet included), sweeps the critical curve
beta -> lambda*, evaluates the first-order switch function psi0 used in
optimality checks, and demonstrates non-attainment among smoothed weights
by mollifying the optimal jumps.  The placement is cross-checked against
xi scans of the transcendental root, and the root against the grid solver,
in the tests and in the CLI's verify battery.

The interval length comes from choose_delta: pinned to delta* where the
paper's sufficient condition makes the mass bound active, and otherwise
scanned over the resource amount.  A length whose root lies above m0's
cannot hold the minimum, so the scan refines m0 first and asks of the other
lengths, in one numpy evaluation of F at m0's root, which roots lie at or
below it; only those are refined.  The bound is usually active at the
optimum, so a scan whose minimum is at the bound is settled by one probe
just inside it rather than by a golden-section search that only creeps
back to the bound; that is exact whenever the golden search itself is,
since both assume lambda unimodal on the scan's first cell.  The probe is
one more length in that same evaluation: its root lies above m0's exactly
when F is positive there, so it refines no root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from . import eigensolve, transcend
from .weights import (
    BangBangInterval,
    Boundary,
    DriftEigError,
    ModelParams,
    PiecewiseWeight,
    from_pieces,
    mass,
)

DEGENERATE_BAND = 1e-9  # beta_crit is closed form; the band only absorbs float error
DELTA_SCAN_POINTS = 32  # resource amounts in choose_delta's coarse scan
ACTIVE_TOL = 1e-6  # resource amounts this close to m0 count as the active bound
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RAMP_STEPS = 32  # staircase steps across each of _mollified_weight's ramps


class Regime(str, Enum):
    BOUNDARY_LEFT = "BoundaryLeft"
    BOUNDARY_RIGHT = "BoundaryRight"
    CENTERED = "Centered"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class DesignOptimum:
    xi_star: float
    delta: float
    lambda_star: float
    regime: Regime
    mass_active: bool
    beta: float
    beta_crit: float

    def mirrored(self) -> "DesignOptimum":
        """The symmetric twin xi -> 1 - delta - xi (same eigenvalue)."""
        left, right = Regime.BOUNDARY_LEFT, Regime.BOUNDARY_RIGHT
        regime = {left: right, right: left}.get(self.regime, self.regime)
        return replace(self, xi_star=1.0 - self.delta - self.xi_star, regime=regime)


def _golden_min(f, a: float, b: float, tol: float):
    """Golden-section minimization on [a, b]; returns (x, f(x))."""
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def delta_star(params: ModelParams) -> float:
    """Interval length delta* = (1 - m0)/(kappa + 1) that saturates the mass bound."""
    return (1.0 - params.m0) / (params.kappa + 1.0)


def _placed(beta: float, delta, params: ModelParams) -> tuple:
    """(xi*, beta_crit) of the trichotomy, for one length or an array of them.

    xi* is the centre (1 - delta)/2 where beta lies above beta_crit by more
    than DEGENERATE_BAND (Dirichlet included), and 0 below it or inside the
    band, where every location is optimal.  Plain arithmetic serves both:
    one float length gives floats, an array gives arrays.
    """
    bcrit = transcend.critical_beta(params.alpha, params.kappa, delta)
    centred = (abs(beta - bcrit) > DEGENERATE_BAND) & (beta >= bcrit)
    return 0.5 * (1.0 - delta) * centred, bcrit


def _root(beta: float, delta: float, params: ModelParams) -> float:
    """The transcendental root at length delta, placed by _placed's rule."""
    tp = transcend.TranscendParams(params=params, delta=delta)
    return transcend.transcendental_root(_placed(beta, delta, params)[0], beta, tp)


def locate_optimal_interval(beta: float, delta: float | None, params: ModelParams) -> DesignOptimum:
    """Optimal interval location for length delta, by the trichotomy.

    delta = None chooses the length by choose_delta's rule first.  xi* is 0
    below the closed-form critical coefficient and the center
    (1 - delta)/2 above it (and for Dirichlet conditions); the eigenvalue is
    the transcendental root there.  Inside a tight band around beta_crit
    the objective is flat and the regime is Degenerate with xi* = 0.  The
    mass bound is reported active when delta is delta*.  Every beta in
    [0, inf], Dirichlet included, takes its eigenvalue from that root, so
    no grid is solved.
    """
    beta, lam = float(beta), None  # numpy scalars in give floats out
    if delta is None:
        delta, lam = _choose_delta(params, beta)
    delta = float(delta)
    tp = transcend.TranscendParams(params=params, delta=delta)  # checks delta before placing it
    xi, bcrit = _placed(beta, delta, params)
    if lam is None:
        lam = transcend.transcendental_root(xi, beta, tp)
    if xi > 0.0:
        regime = Regime.CENTERED
    elif abs(beta - bcrit) <= DEGENERATE_BAND:
        regime = Regime.DEGENERATE
    else:
        regime = Regime.BOUNDARY_LEFT
    return DesignOptimum(
        xi_star=xi,
        delta=delta,
        lambda_star=lam,
        regime=regime,
        mass_active=abs(delta - delta_star(params)) <= 1e-12,
        beta=beta,
        beta_crit=bcrit,
    )


def active_constraint_condition(params: ModelParams, beta: float) -> bool:
    """Whether the mass constraint is guaranteed active at the optimum.

    Below the critical coefficient the guarantee is unconditional; above it
    the sufficient condition alpha < sinh^2(b* xi*) / (1 + 2 sinh^2(b* xi*))
    applies, with b* the critical coefficient at advection 1/2 and xi* the
    centered left endpoint.
    """
    if not 0.0 <= beta <= math.inf:  # false for NaN
        raise ValueError(f"beta must lie in [0, inf], got {beta}")
    dstar = delta_star(params)
    xi_star = (params.kappa + params.m0) / (2.0 * (1.0 + params.kappa))
    bcrit = transcend.critical_beta(params.alpha, params.kappa, dstar)
    if not math.isinf(beta) and beta < bcrit - DEGENERATE_BAND:
        return True
    beta_half = transcend.critical_beta(0.5, params.kappa, dstar)
    # beyond 20 the bound s2 / (1 + 2 s2) is 1/2 to the last bit; sinh^2 would overflow
    s2 = math.sinh(min(beta_half * xi_star, 20.0)) ** 2
    return params.alpha < s2 / (1.0 + 2.0 * s2)


def choose_delta(params: ModelParams, beta: float) -> tuple:
    """(delta, active): the interval length for the design problem.

    When the active-constraint condition guarantees activeness the length
    is pinned to delta* = (1 - m0)/(kappa + 1); otherwise the resource
    amount m~ is scanned over [m0, 1 - 1e-3] (delta* itself when m0 lies
    above 1 - 1e-3, so delta <= delta* always), and the bound counts as
    active, with delta = delta* exactly, when the minimizer lies within
    ACTIVE_TOL of the bound m0.  So active is always delta == delta_star(params).

    The scan refines m0 first.  A point whose root lies above m0's cannot
    hold the minimum, and F has one root below each length's s_max, so one
    evaluation of F at m0's root (transcend._roots_at_or_below) tells
    exactly which of the other 31 lengths have roots at or below it; only
    those are refined.  So the pick, the lowest index with the smallest
    refined value, is the argmin over all grid points, as if every point
    were refined.

    When the scan's smallest value is at m0 itself, one probe settles it:
    the golden refinement assumes lambda unimodal on [m0, grid[1]], and
    under that assumption lambda(m0 + ACTIVE_TOL) > lambda(m0) puts the
    minimizer inside [m0, m0 + ACTIVE_TOL], so delta* is returned without
    refining.  The probe's length rides in the same evaluation of F, in
    m0's place among the 32 lengths: by the same one-root fact its root
    lies above m0's exactly when it is not at or below it, so the probe
    refines no root.  Otherwise (an interior scan minimum, or a flat or
    falling start) golden-section search refines the bracket around it.
    """
    delta = _choose_delta(params, beta)[0]
    return delta, delta == delta_star(params)


def _choose_delta(params: ModelParams, beta: float) -> tuple:
    """(delta, lambda): choose_delta's length, and its root when the scan refined it, else None."""
    dstar = delta_star(params)
    if active_constraint_condition(params, beta):
        return dstar, None

    def length(mt):
        return (1.0 - mt) / (params.kappa + 1.0)

    hi_mt = 1.0 - 1e-3
    if params.m0 > hi_mt:
        return dstar, None  # nothing to scan: every larger amount lies above the cap
    grid = np.linspace(params.m0, hi_mt, DELTA_SCAN_POINTS)  # grid[0] is m0 itself
    vals = {0: _root(beta, dstar, params)}
    # no root above m0's can be the minimum: find the lengths whose roots lie
    # at or below it in one evaluation, placed by _placed's rule, and refine
    # those.  m0's own root is known, so its slot holds the active-bound probe
    lengths = length(grid)
    lengths[0] = length(params.m0 + ACTIVE_TOL)
    below = transcend._roots_at_or_below(
        beta, vals[0], params, lengths, _placed(beta, lengths, params)[0]
    )
    for i in np.flatnonzero(below[1:]).tolist():
        vals[i + 1] = _root(beta, float(lengths[i + 1]), params)
    i = min(vals, key=vals.get)  # the lowest index with the smallest value
    if i == 0 and not below[0]:
        return dstar, vals[0]  # lambda rises off the bound: the minimizer is within ACTIVE_TOL
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, DELTA_SCAN_POINTS - 1)]
    mt_opt, lam_opt = _golden_min(
        lambda mt: _root(beta, length(mt), params), float(lo), float(hi), 1e-7
    )
    if vals[0] <= lam_opt + 1e-12 or abs(mt_opt - params.m0) <= ACTIVE_TOL:
        return dstar, vals[0]  # grid[0] is m0 itself
    return length(mt_opt), lam_opt


def sweep_beta(beta_grid: Sequence[float], params: ModelParams) -> tuple:
    """One located optimum per beta, plus the Dirichlet asymptote row.

    Returns (rows, failures); rows are locate_optimal_interval's DesignOptimum
    with choose_delta's length, in the grid's order and then at beta = inf,
    and failures hold (beta, message) for rows whose solve raised a
    DriftEigError; the sweep continues past them.  Every row, the Dirichlet
    one too, is a transcendental root.
    """
    betas = [float(b) for b in beta_grid]
    if not betas:
        raise ValueError("empty beta grid")
    if not all(0.0 < b < math.inf for b in betas) or sorted(betas) != betas:
        raise ValueError("beta grid must be sorted, positive and finite")
    rows: list[DesignOptimum] = []
    failures: list[tuple] = []
    for beta in betas + [math.inf]:
        try:
            rows.append(locate_optimal_interval(beta, None, params))
        except DriftEigError as exc:
            failures.append((beta, str(exc)))
    return rows, failures


def switch_function(
    pair: eigensolve.EigenPair, m: PiecewiseWeight, params: ModelParams
) -> tuple:
    """First-order switch function psi0 sampled per element.

    psi0 = alpha * phi'^2 - lambda (alpha m + 1) phi^2 with phi' taken as
    the per-element slope of the discrete eigenfunction; evaluated at
    element midpoints.  Assumes the solver's normalization.
    """
    x = pair.nodes
    phi = pair.phi
    h = np.diff(x)
    slope = np.diff(phi) / h
    mid = 0.5 * (x[:-1] + x[1:])
    phi_mid = 0.5 * (phi[:-1] + phi[1:])
    v = m.eval_many(mid)
    psi0 = params.alpha * slope**2 - pair.lam * (params.alpha * v + 1.0) * phi_mid**2
    return mid, psi0


def _mollified_weight(optimum: DesignOptimum, params: ModelParams, width: float) -> PiecewiseWeight:
    """Replace interior jumps of the optimal weight by staircase ramps.

    The ramp is a linear transition of the given width centered at the
    jump, discretized as a midpoint staircase (which preserves the mass of
    the linear ramp exactly).  Values stay inside [-1, kappa].
    """
    xi, delta, k = optimum.xi_star, optimum.delta, params.kappa
    jumps = []
    if xi > 0.0:
        jumps.append((xi, -1.0, k))
    if xi + delta < 1.0:
        jumps.append((xi + delta, k, -1.0))
    if width == 0.0:
        return BangBangInterval(xi, delta, params).weight()
    for x_j, _, _ in jumps:
        if x_j - width / 2.0 < 0.0 or x_j + width / 2.0 > 1.0:
            raise ValueError(f"ramp of width {width} at {x_j} leaves the domain")
    if len(jumps) == 2 and jumps[0][0] + width / 2.0 > jumps[1][0] - width / 2.0:
        raise ValueError(f"ramp of width {width} overlaps both jumps")

    pieces: list[tuple] = []
    pos = 0.0

    def flat_value(x: float) -> float:
        return k if xi <= x <= xi + delta else -1.0

    for x_j, v_from, v_to in jumps:
        left_edge = x_j - width / 2.0
        if left_edge > pos:
            pieces.append((flat_value(0.5 * (pos + left_edge)), left_edge - pos))
        sub = width / RAMP_STEPS
        for s in range(RAMP_STEPS):
            frac = (s + 0.5) / RAMP_STEPS
            pieces.append((v_from + (v_to - v_from) * frac, sub))
        pos = x_j + width / 2.0
    if pos < 1.0:
        pieces.append((flat_value(0.5 * (pos + 1.0)), 1.0 - pos))
    w = from_pieces(pieces)
    # projection guard: symmetric ramps preserve the mass, but keep the
    # admissible box honest if a caller feeds asymmetric data
    if mass(w) > -params.m0 + 1e-9:
        raise ValueError("mollified weight violates the mass bound")
    return w


def mollify_demo(
    optimum: DesignOptimum,
    widths: Sequence[float],
    params: ModelParams,
    bc: Boundary,
    grid_n: int = eigensolve.DEFAULT_N,
) -> list:
    """Eigenvalues of ramp-smoothed versions of the optimal weight.

    As the ramp width shrinks the eigenvalue decreases toward the optimal
    value, while every smoothed weight stays strictly above it: the infimum
    over smooth weights is not attained.
    """
    out = []
    for width in widths:
        w = _mollified_weight(optimum, params, float(width))
        disc = eigensolve.make_discretization(grid_n, w)
        pair = eigensolve.principal_eigenvalue(w, params, bc, disc)
        out.append((float(width), pair.lam))
    return out
