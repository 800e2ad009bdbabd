"""Closed-form eigenvalue machinery for interval bang-bang weights.

For m = (kappa+1) * chi_(xi, xi+delta) - 1 with Robin coefficient beta, the
principal eigenvalue is the first positive root of a scalar transcendental
equation F(xi, beta, lambda) = 0 built from trigonometric terms inside the
resource interval and hyperbolic terms outside.  This module evaluates F
and its pieces, locates the first positive root, computes the critical
Robin coefficient at which the optimal interval location switches from the
boundary to the center, and reconstructs the closed-form eigenfunction for
cross-checks against the discretized solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .weights import DriftEigError, ModelParams

ROOT_RTOL = 1e-12


class RootNotFoundError(DriftEigError, RuntimeError):
    """Scan exhausted without an admissible sign change."""


class RankDeficientError(DriftEigError, RuntimeError):
    """Both kernel candidates of the 2x2 matching matrix degenerate."""


class TanPoleError(DriftEigError, ValueError):
    """Probe too close to a pole of tan for a meaningful evaluation."""


@dataclass(frozen=True)
class TranscendParams:
    """Bang-bang interval problem data: constants plus interval length."""

    params: ModelParams
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def _shorthands(tp: TranscendParams, beta: float):
    a = tp.params.alpha
    k = tp.params.kappa
    d = tp.delta
    big_k = k * math.exp(2.0 * a * (k + 1.0))  # kappa e^{2 alpha (kappa+1)}
    b = beta * math.exp(a)  # beta e^{alpha}
    return a, k, d, big_k, b


def F_components(xi: float, beta: float, lam: float, tp: TranscendParams):
    """The two building blocks and the full transcendental function.

    Returns (F_s, F_c, F) with
      F = -F_s * sin(sqrt(lam k) d) + sqrt(k) e^{a(k+1)} F_c * cos(sqrt(lam k) d).
    Values are the literal (unscaled) expressions; for root scanning use the
    overflow-safe internal variant.
    """
    a, k, d, big_k, b = _shorthands(tp, beta)
    s = math.sqrt(lam)
    t = s * (1.0 - d)
    f_s = (
        b * s * (big_k - 1.0) * math.sinh(t)
        + 0.5 * (1.0 + big_k) * (lam - b * b) * math.cosh(s * (1.0 - 2.0 * xi - d))
        + 0.5 * (big_k - 1.0) * (b * b + lam) * math.cosh(t)
    )
    f_c = (lam + b * b) * math.sinh(t) + 2.0 * b * s * math.cosh(t)
    theta = s * math.sqrt(k) * d
    f = -f_s * math.sin(theta) + math.sqrt(k) * math.exp(a * (k + 1.0)) * f_c * math.cos(theta)
    return f_s, f_c, f


def _f_scaled(xi: float, beta: float, lam, tp: TranscendParams):
    """F multiplied by 2 e^{-sqrt(lam)(1-d)}: same roots, no overflow.

    All hyperbolic terms are rewritten with non-positive exponents, so the
    function stays finite for arbitrarily large lambda.  lam may be an
    array; the result then has its shape.
    """
    a, k, d, big_k, b = _shorthands(tp, beta)
    s = np.sqrt(lam)
    t = s * (1.0 - d)
    e2 = np.exp(-2.0 * t)
    ch_mid = np.exp(-2.0 * s * xi) + np.exp(-2.0 * s * (1.0 - xi - d))
    f_s = (
        b * s * (big_k - 1.0) * (1.0 - e2)
        + 0.5 * (1.0 + big_k) * (lam - b * b) * ch_mid
        + 0.5 * (big_k - 1.0) * (b * b + lam) * (1.0 + e2)
    )
    f_c = (lam + b * b) * (1.0 - e2) + 2.0 * b * s * (1.0 + e2)
    theta = s * math.sqrt(k) * d
    return -f_s * np.sin(theta) + math.sqrt(k) * math.exp(a * (k + 1.0)) * f_c * np.cos(theta)


def _interval_exp_mass(tp: TranscendParams) -> float:
    a, k, d = tp.params.alpha, tp.params.kappa, tp.delta
    return k * d * math.exp(a * k) - (1.0 - d) * math.exp(-a)


def transcendental_root(xi: float, beta: float, tp: TranscendParams) -> float:
    """First positive root of F(xi, beta, .), i.e. the principal eigenvalue.

    F is sampled once, in the sqrt(lambda) variable, on geometrically
    growing steps s_j = (1 + 1e-4)(1 + step)^j - 1 up to just below
    pi / (sqrt(k) d).  Every sample keeps sqrt(lam k) d inside (0, pi), the
    first period of sin, so the first sign change is the principal root;
    Brent's method refines it.
    """
    k, d = tp.params.kappa, tp.delta
    if not 0.0 <= beta < math.inf:  # false for NaN
        raise ValueError(f"beta must lie in [0, inf), got {beta}; use dirichlet_root for inf")
    if not -1e-12 <= xi <= 1.0 - d + 1e-12:
        raise ValueError(f"xi = {xi} outside [0, 1 - delta]")
    if beta == 0.0 and _interval_exp_mass(tp) >= 0.0:
        raise ValueError(
            "Neumann zero regime for this interval weight: "
            "no positive principal eigenvalue"
        )
    sk = math.sqrt(k)
    s_max = math.pi / (sk * d) * (1.0 - 1e-12)
    step = min(0.01, math.pi / (8.0 * sk * d))
    j_end = max(math.ceil(math.log((1.0 + s_max) / (1.0 + 1e-4)) / math.log1p(step)), 0)
    s = np.minimum((1.0 + 1e-4) * (1.0 + step) ** np.arange(j_end + 1) - 1.0, s_max)
    g = _f_scaled(xi, beta, s * s, tp)
    change = np.flatnonzero(g[:-1] * g[1:] <= 0.0)
    if change.size == 0:
        samples = list(zip(s.tolist(), g.tolist()))
        raise RootNotFoundError(
            f"no admissible root in (0, {s_max**2:.6g}); "
            f"first/last samples {samples[:2]} ... {samples[-2:]}"
        )
    j = change[0]
    if g[j] == 0.0:
        return float(s[j] * s[j])
    s_root = brentq(
        lambda x: _f_scaled(xi, beta, x * x, tp), s[j], s[j + 1], xtol=1e-15, rtol=8.9e-16
    )
    return s_root * s_root


def dirichlet_root(tp: TranscendParams, xi: float = 0.0) -> float:
    """First positive eigenvalue for the Dirichlet boundary-interval case.

    Only xi = 0 has the printed closed form
    tan(sqrt(lam k) d) = -sqrt(k) e^{a(k+1)} tanh(sqrt(lam)(1-d)); its first
    root lies where sqrt(lam k) d is between pi/2 and pi.
    """
    if xi != 0.0:
        raise ValueError("closed-form Dirichlet root is only available at xi = 0")
    a, k, d = tp.params.alpha, tp.params.kappa, tp.delta
    sk = math.sqrt(k)
    coef = sk * math.exp(a * (k + 1.0))

    def f(theta: float) -> float:
        s = theta / (sk * d)
        return math.tan(theta) + coef * math.tanh(s * (1.0 - d))

    lo = 0.5 * math.pi + 1e-9
    hi = math.pi - 1e-12
    theta_root = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    s = theta_root / (sk * d)
    return s * s


def beta_crit(tp: TranscendParams) -> float:
    """Critical Robin coefficient separating boundary and centered optima.

    Closed form keyed on the sign of kappa e^{2 alpha (kappa+1)} - 1; it is
    the unique beta at which the optimal eigenvalue equals beta^2 e^{2 alpha}
    and the transcendental equation loses its xi dependence.
    """
    a, k, d, big_k, _ = _shorthands(tp, 0.0)
    sk = math.sqrt(k)
    if big_k > 1.0:
        return math.exp(-a) / (sk * d) * math.atan(
            2.0 * sk * math.exp(a * (k + 1.0)) / (big_k - 1.0)
        )
    if big_k == 1.0:
        return math.pi * math.exp(-a) / (2.0 * sk * d)
    return math.exp(-a) / (sk * d) * (
        math.atan(2.0 * sk * math.exp(a * (k + 1.0)) / (big_k - 1.0)) + math.pi
    )


def regime_equations(beta: float, lam: float, tp: TranscendParams):
    """(lhs, rhs) of the explicit optimal-eigenvalue equation for this regime.

    Below the critical beta the tanh form applies (boundary interval); above
    it the sinh/cosh form with denominator D(beta, lam).  At the matching
    root of the transcendental equation both sides agree.
    """
    a, k, d, big_k, _ = _shorthands(tp, beta)
    bc = beta_crit(tp)
    if abs(beta - bc) <= 1e-9:
        raise ValueError("regime equations are not defined at beta = beta_crit")
    s = math.sqrt(lam)
    theta = s * math.sqrt(k) * d
    if abs(math.cos(theta)) < 1e-12:
        raise TanPoleError(f"tan pole at sqrt(lam k) d = {theta}")
    lhs = math.tan(theta)
    t = s * (1.0 - d)
    e_a = math.exp(a)
    front = math.sqrt(k) * math.exp(a * (k + 1.0))
    if beta < bc:
        th = math.tanh(t)
        num = (lam + beta**2 * e_a**2) * th + 2.0 * beta * e_a * s
        den = beta * e_a * s * (big_k - 1.0) * th + e_a**2 * (
            lam * k * math.exp(2.0 * a * k) - beta**2
        )
        return lhs, front * num / den
    sh, ch = math.sinh(t), math.cosh(t)
    num = (lam + beta**2 * e_a**2) * sh + 2.0 * beta * s * e_a * ch
    dal = (
        0.5 * (big_k - 1.0) * (beta**2 * e_a**2 + lam) * ch
        + beta * e_a * s * (big_k - 1.0) * sh
        + 0.5 * (1.0 + big_k) * (lam - beta**2 * e_a**2)
    )
    return lhs, front * num / dal


def delta_diag(beta: float, lam: float, tp: TranscendParams) -> float:
    """Diagnostic Delta(lam): its sign at the optimal eigenvalue decides
    whether the boundary or the centered interval wins."""
    _, _, d, big_k, b = _shorthands(tp, beta)
    s = math.sqrt(lam)
    return (
        -0.5
        * (lam - b * b)
        * (big_k + 1.0)
        * (math.cosh(s * (1.0 - d)) - 1.0)
    )


@dataclass(frozen=True)
class ClosedFormEigenfunction:
    """Eigenfunction of the interval problem in closed form.

    Hyperbolic pieces left and right of the resource interval, a
    trigonometric piece inside; A is fixed to 1 and B solves the 2x2
    derivative-matching system, C and D follow from continuity.
    """

    A: float
    B: float
    C: float
    D: float
    xi: float
    lam: float
    beta: float
    tp: TranscendParams
    det_residual: float

    def evaluate(self, x) -> np.ndarray:
        _, k, d, _, b = _shorthands(self.tp, self.beta)
        s = math.sqrt(self.lam)
        sk = math.sqrt(self.lam * k)
        xi = self.xi
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        den_l = s * math.cosh(s * xi) + b * math.sinh(s * xi)
        den_r = s * math.cosh(s * (xi + d - 1.0)) - b * math.sinh(s * (xi + d - 1.0))
        left = x < xi
        mid = (x >= xi) & (x <= xi + d)
        right = x > xi + d
        out[left] = self.A * (s * np.cosh(s * x[left]) + b * np.sinh(s * x[left])) / den_l
        out[mid] = self.C * np.cos(sk * x[mid]) + self.D * np.sin(sk * x[mid])
        out[right] = (
            self.B
            * (s * np.cosh(s * (x[right] - 1.0)) - b * np.sinh(s * (x[right] - 1.0)))
            / den_r
        )
        return out

    def jump_residual(self) -> float:
        """Relative defect in the derivative-matching conditions at the
        interval endpoints; small only at a converged root."""
        a, k, d, _, b = _shorthands(self.tp, self.beta)
        s = math.sqrt(self.lam)
        sk = math.sqrt(self.lam * k)
        xi = self.xi
        jump = math.exp(a * (k + 1.0))
        den_l = s * math.cosh(s * xi) + b * math.sinh(s * xi)
        den_r = s * math.cosh(s * (xi + d - 1.0)) - b * math.sinh(s * (xi + d - 1.0))
        dl = self.A * s * (s * math.sinh(s * xi) + b * math.cosh(s * xi)) / den_l
        dml = sk * (-self.C * math.sin(sk * xi) + self.D * math.cos(sk * xi))
        r1 = jump * dml - dl
        scale1 = abs(jump * dml) + abs(dl)
        xr = xi + d
        dmr = sk * (-self.C * math.sin(sk * xr) + self.D * math.cos(sk * xr))
        dr = self.B * s * (s * math.sinh(s * (xr - 1.0)) - b * math.cosh(s * (xr - 1.0))) / den_r
        r2 = dr - jump * dmr
        scale2 = abs(dr) + abs(jump * dmr)
        return max(abs(r1) / max(scale1, 1e-300), abs(r2) / max(scale2, 1e-300))


def _matching_matrix(xi: float, beta: float, lam: float, tp: TranscendParams):
    a, k, d, _, b = _shorthands(tp, beta)
    s = math.sqrt(lam)
    sk = math.sqrt(lam * k)
    jump = math.sqrt(k) * math.exp(a * (k + 1.0))
    sd = math.sin(sk * d)
    cd = math.cos(sk * d)
    chl = math.cosh(s * xi)
    shl = math.sinh(s * xi)
    chr_ = math.cosh(s * (xi + d - 1.0))
    shr = math.sinh(s * (xi + d - 1.0))
    m11 = jump * (s * chl + b * shl) * cd + (s * shl + b * chl) * sd
    m12 = -jump * (s * chl + b * shl)
    m21 = -jump * (s * chr_ - b * shr)
    m22 = jump * (s * chr_ - b * shr) * cd - (s * shr - b * chr_) * sd
    return m11, m12, m21, m22


def closed_form_eigenfunction(
    xi: float, beta: float, lam: float, tp: TranscendParams
) -> ClosedFormEigenfunction:
    """Assemble the closed-form eigenfunction at a converged root lam."""
    if not 0.0 <= beta < math.inf:  # false for NaN
        raise ValueError(f"closed-form eigenfunction needs beta in [0, inf), got {beta}")
    k, d = tp.params.kappa, tp.delta
    m11, m12, m21, m22 = _matching_matrix(xi, beta, lam, tp)
    det = m11 * m22 - m12 * m21
    scale = abs(m11 * m22) + abs(m12 * m21)
    if max(abs(m12), abs(m22)) <= 1e-14 * math.sqrt(scale + 1.0):
        raise RankDeficientError("both kernel candidates degenerate")
    big_a = 1.0
    if abs(m12) >= abs(m22):
        big_b = -m11 / m12
    else:
        big_b = -m21 / m22
    sk = math.sqrt(lam * k)
    sd = math.sin(sk * d)
    big_c = (big_a * math.sin(sk * (xi + d)) - big_b * math.sin(sk * xi)) / sd
    big_d = -(big_a * math.cos(sk * (xi + d)) - big_b * math.cos(sk * xi)) / sd
    return ClosedFormEigenfunction(
        A=big_a,
        B=big_b,
        C=big_c,
        D=big_d,
        xi=xi,
        lam=lam,
        beta=beta,
        tp=tp,
        det_residual=abs(det) / max(scale, 1e-300),
    )
