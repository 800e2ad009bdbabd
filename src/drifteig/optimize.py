"""Optimal placement of a resource interval and related diagnostics.

Among bang-bang interval weights of fixed length delta, the principal
eigenvalue as a function of the left endpoint xi is minimized either at the
boundary (xi = 0, small Robin coefficient) or at the center (large Robin
coefficient); at the critical coefficient every location is optimal.  This
module places the optimum by that trichotomy around the closed-form
beta_crit and evaluates the eigenvalue there once, sweeps the critical
curve beta -> lambda*, evaluates the first-order switch function psi0 used
in optimality checks, and demonstrates non-attainment among smoothed
weights by mollifying the optimal jumps.  The placement is cross-checked
against xi scans of the transcendental root (and of the grid solver under
Dirichlet conditions) in the tests and in the CLI's verify battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        regime = self.regime
        if regime == Regime.BOUNDARY_LEFT:
            regime = Regime.BOUNDARY_RIGHT
        elif regime == Regime.BOUNDARY_RIGHT:
            regime = Regime.BOUNDARY_LEFT
        return DesignOptimum(
            xi_star=1.0 - self.delta - self.xi_star,
            delta=self.delta,
            lambda_star=self.lambda_star,
            regime=regime,
            mass_active=self.mass_active,
            beta=self.beta,
            beta_crit=self.beta_crit,
        )


@dataclass(frozen=True)
class SweepRow:
    beta: float
    lambda_star: float
    xi_star: float
    regime: Regime
    mass_active: bool


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


def _xi_center(delta: float) -> float:
    return 0.5 * (1.0 - delta)


def _optimal_xi(beta: float, bcrit: float, delta: float) -> float:
    """The paper's trichotomy: boundary below beta_crit, center above it.

    beta = inf (Dirichlet) lies above every beta_crit.  At beta = beta_crit
    every location is optimal.
    """
    return 0.0 if beta < bcrit else _xi_center(delta)


def _interval_lambda(xi: float, beta: float, tp: transcend.TranscendParams, grid_n: int) -> float:
    """Principal eigenvalue of the interval weight at xi.

    The transcendental root for finite beta; the discretized solver for
    Dirichlet conditions (beta = +inf), where only xi = 0 has a closed form.
    """
    if beta == math.inf:
        w = BangBangInterval(xi, tp.delta, tp.params).weight()
        disc = eigensolve.make_discretization(grid_n, w)
        return eigensolve.principal_lambda(w, tp.params, Boundary.dirichlet(), disc)
    return transcend.transcendental_root(xi, beta, tp)


def locate_optimal_interval(
    beta: float,
    delta: float,
    params: ModelParams,
    grid_n: int = eigensolve.DEFAULT_N,
) -> DesignOptimum:
    """Optimal interval location for length delta, by the trichotomy.

    xi* is 0 below the closed-form critical coefficient and the center
    (1 - delta)/2 above it (and for Dirichlet conditions); the eigenvalue is
    evaluated once, there.  Inside a tight band around beta_crit the
    objective is flat and the regime is Degenerate with xi* = 0.  For
    Dirichlet conditions the discretized solver is anchored at xi = 0
    against the closed-form Dirichlet root.
    """
    tp = transcend.TranscendParams(params=params, delta=delta)
    bcrit = transcend.beta_crit(tp)
    mass_active = abs(delta - delta_star(params)) <= 1e-12

    if beta == math.inf:
        anchor = transcend.dirichlet_root(tp)
        got = _interval_lambda(0.0, beta, tp, grid_n)
        if abs(got - anchor) > 1e-3 * anchor:
            raise eigensolve.SolverError(
                f"Dirichlet anchor mismatch at xi=0: grid {got} vs closed form {anchor}"
            )

    if abs(beta - bcrit) <= DEGENERATE_BAND:
        regime, xi_star = Regime.DEGENERATE, 0.0
    else:
        xi_star = _optimal_xi(beta, bcrit, delta)
        regime = Regime.BOUNDARY_LEFT if xi_star == 0.0 else Regime.CENTERED
    return DesignOptimum(
        xi_star=xi_star,
        delta=delta,
        lambda_star=_interval_lambda(xi_star, beta, tp, grid_n),
        regime=regime,
        mass_active=mass_active,
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
    dstar = delta_star(params)
    xi_star = (params.kappa + params.m0) / (2.0 * (1.0 + params.kappa))
    tp = transcend.TranscendParams(params=params, delta=dstar)
    if not math.isinf(beta) and beta < transcend.beta_crit(tp) - DEGENERATE_BAND:
        return True
    half = ModelParams(alpha=0.5, kappa=params.kappa, m0=params.m0)
    beta_half = transcend.beta_crit(transcend.TranscendParams(params=half, delta=dstar))
    s2 = math.sinh(beta_half * xi_star) ** 2
    return params.alpha < s2 / (1.0 + 2.0 * s2)


def _best_lambda_for_delta(
    beta: float, delta: float, params: ModelParams, grid_n: int
) -> float:
    """min over xi of the interval eigenvalue, at the trichotomy's xi."""
    tp = transcend.TranscendParams(params=params, delta=delta)
    xi = _optimal_xi(beta, transcend.beta_crit(tp), delta)
    return _interval_lambda(xi, beta, tp, grid_n)


def choose_delta(
    params: ModelParams,
    beta: float,
    grid_n: int = eigensolve.DEFAULT_N,
) -> tuple:
    """Interval length for the design problem: pinned or scanned.

    When the active-constraint condition guarantees activeness the length
    is pinned to delta* = (1 - m0)/(kappa + 1); otherwise the resource
    amount is scanned over [m0, 1) with refinement, and the constraint is
    reported active when the scan returns to the bound.
    """
    dstar = delta_star(params)
    if active_constraint_condition(params, beta):
        return dstar, True

    def lam_of_mtilde(mt: float) -> float:
        return _best_lambda_for_delta(beta, (1.0 - mt) / (params.kappa + 1.0), params, grid_n)

    hi_mt = 1.0 - 1e-3
    grid = np.linspace(params.m0, hi_mt, DELTA_SCAN_POINTS)
    vals = [lam_of_mtilde(float(t)) for t in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, DELTA_SCAN_POINTS - 1)]
    mt_opt, lam_opt = _golden_min(lam_of_mtilde, float(lo), float(hi), 1e-7)
    if vals[0] <= lam_opt + 1e-12:  # grid[0] is m0 itself
        mt_opt = params.m0
    active = abs(mt_opt - params.m0) <= 1e-6
    return (1.0 - mt_opt) / (params.kappa + 1.0), active


def sweep_beta(
    beta_grid: Sequence[float],
    params: ModelParams,
    grid_n: int = eigensolve.DEFAULT_N,
) -> tuple:
    """One located optimum per beta, plus the Dirichlet asymptote row.

    Returns (rows, failures); failures hold (beta, message) for rows whose
    solve raised a DriftEigError, the Dirichlet row (beta = inf) included,
    and the sweep continues past them.
    """
    betas = [float(b) for b in beta_grid]
    if not betas:
        raise ValueError("empty beta grid")
    if any(b <= 0.0 for b in betas) or sorted(betas) != betas:
        raise ValueError("beta grid must be sorted and positive")
    rows: list[SweepRow] = []
    failures: list[tuple] = []
    for beta in betas + [math.inf]:
        try:
            delta, active = choose_delta(params, beta, grid_n=grid_n)
            opt = locate_optimal_interval(beta, delta, params, grid_n=grid_n)
        except DriftEigError as exc:
            failures.append((beta, str(exc)))
            continue
        rows.append(SweepRow(beta, opt.lambda_star, opt.xi_star, opt.regime, active))
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


def _mollified_weight(
    optimum: DesignOptimum, params: ModelParams, width: float, steps: int = 32
) -> PiecewiseWeight:
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
        sub = width / steps
        for s in range(steps):
            frac = (s + 0.5) / steps
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
