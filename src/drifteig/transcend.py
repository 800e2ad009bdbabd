"""Closed-form eigenvalue machinery for interval bang-bang weights.

For m = (kappa+1) * chi_(xi, xi+delta) - 1 with Robin coefficient beta, the
principal eigenvalue is the first positive root of a scalar transcendental
equation F(xi, beta, lambda) = 0 built from trigonometric terms inside the
resource interval and hyperbolic terms outside.  F is a quadratic in
b = beta e^alpha, so F 2 e^{-sqrt(lam)(1-delta)} / (K (1 + b)^2), with
K = kappa e^{2 alpha (kappa+1)}, is one finite expression for every beta
in [0, inf]: three beta-free terms R0, R1, R2 weighted by
(1, b, b^2) / (1 + b)^2, which is (0, 0, 1) under Dirichlet conditions
(beta = inf, the limit F / b^2).  This module evaluates F and its pieces,
finds the first positive root (the only one in the first period of
sin(sqrt(lam k) delta), so a step-down from the top of that period brackets
it), tells for many intervals in one evaluation of F whose roots lie at or
below a given lambda, computes the critical Robin coefficient at which the
optimal interval location switches from the boundary to the center, and
reconstructs the closed-form eigenfunction for
cross-checks against the discretized solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._roots import brentq
from .weights import DriftEigError, ModelParams

S_FLOOR = 1e-150  # lowest sqrt(lambda) the root search steps down to
SCAN_TERM_MAX = 1e308  # bound on F's terms up to the root search's top, below the float maximum


class RootNotFoundError(DriftEigError, RuntimeError):
    """No admissible sign change of F, or its refinement did not converge."""


class TanPoleError(DriftEigError, ValueError):
    """Probe too close to a pole of tan for a meaningful evaluation."""


class NonFiniteError(DriftEigError, ValueError):
    """A literal (unscaled) expression of F is not finite at these inputs."""


def _finite(fn):
    """Return fn's results when all are finite, else raise NonFiniteError.

    The literal expressions carry K = kappa e^{2 alpha (kappa+1)} unscaled,
    so they overflow on parts of the admissible box where the scaled F of
    the root search is fine.
    """

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonFiniteError(f"{fn.__name__}{args}: {exc}") from exc
        if not all(map(math.isfinite, out if isinstance(out, tuple) else (out,))):
            raise NonFiniteError(f"{fn.__name__}{args} = {out} is not finite")
        return out

    return checked


@dataclass(frozen=True)
class TranscendParams:
    """Bang-bang interval problem data: constants plus interval length."""

    params: ModelParams
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        # F's largest term is lambda max(1, 1/kappa) at the root search's top,
        # lambda = (pi / (sqrt(kappa) delta))^2; it must stay below SCAN_TERM_MAX
        rk = math.sqrt(self.params.kappa)
        if rk * min(1.0, rk) * self.delta * math.sqrt(SCAN_TERM_MAX) < math.pi:
            raise ValueError(
                f"delta = {self.delta} is too small for kappa = {self.params.kappa}: "
                f"F's terms would pass {SCAN_TERM_MAX:g}"
            )


def _shorthands(tp: TranscendParams, beta: float):
    a = tp.params.alpha
    k = tp.params.kappa
    d = tp.delta
    big_k = k * math.exp(2.0 * a * (k + 1.0))  # kappa e^{2 alpha (kappa+1)}
    b = beta * math.exp(a)  # beta e^{alpha}
    return a, k, d, big_k, b


@_finite
def F_components(xi: float, beta: float, lam: float, tp: TranscendParams):
    """The two building blocks and the full transcendental function.

    Returns (F_s, F_c, F) with
      F = -F_s * sin(sqrt(lam k) d) + sqrt(k) e^{a(k+1)} F_c * cos(sqrt(lam k) d).
    Values are the literal (unscaled) expressions, NonFiniteError where they
    overflow; for root finding use the overflow-safe internal variant.
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


def _consts(xi, params: ModelParams, d):
    """The (delta, xi)-only factors of _terms, computed once per interval.

    (1/K, sqrt(k) e^{a(k+1)} / K, -2(1-d), -2 xi, -2((1-d) - xi), sqrt(k) d)
    with K = k e^{2a(k+1)}; the first two are e^{-2a(k+1)}/k and
    e^{-a(k+1)}/sqrt(k), so no exponent is positive.  xi and d are floats,
    or arrays for several intervals at once.
    """
    a, k = params.alpha, params.kappa
    return (
        math.exp(-2.0 * a * (k + 1.0)) / k,
        math.exp(-a * (k + 1.0)) / math.sqrt(k),
        -2.0 * (1.0 - d),
        -2.0 * xi,
        -2.0 * ((1.0 - d) - xi),  # exactly 0 at xi = 1 - d
        math.sqrt(k) * d,
    )


def _terms(s, c, xp):
    """The beta-free parts (R0, R1, R2) of F, at s = sqrt(lambda).

    F is a quadratic in b = beta e^alpha, so with t = s(1 - d) and
    K = k e^{2a(k+1)}

        F 2 e^{-t} / (K (1 + b)^2) = w0 R0 + w1 R1 + w2 R2,

    w = (1, b, b^2) / (1 + b)^2 from _weights, and
    R_i = -P_i sin(theta) + e^{-a(k+1)} / sqrt(k) Q_i cos(theta), theta =
    s sqrt(k) d.  With om = 1 - e^{-2t}, left = 1 - e^{-2 s xi},
    right = 1 - e^{-2 s ((1-d) - xi)}, gap = left right and
    sum3 = 4 - om - left - right (= 1 + e^{-2t} + e^{-2 s xi} + e^{-2 s ((1-d) - xi)}):

        P0 = lam (sum3 - gap / K) / 2   P1 = (1 - 1/K) s om   P2 = (gap - sum3 / K) / 2
        Q0 = lam om                     Q1 = 2 s (2 - om)     Q2 = om

    Every exponent is non-positive and gap is a product of expm1 factors,
    so the R_i are finite on the whole admissible box and a large K
    multiplies no difference of nearby terms.  c is _consts(xi, params, d);
    s is a float with xp = math (the root search's scalar calls), or s
    and c hold arrays with xp = numpy (several lambdas or intervals at once).
    """
    inv_k, front, c_om, c_left, c_right, c_theta = c
    lam = s * s
    om = -xp.expm1(s * c_om)
    left = -xp.expm1(s * c_left)
    right = -xp.expm1(s * c_right)
    gap = left * right
    sum3 = 4.0 - om - left - right
    theta = s * c_theta
    sin = xp.sin(theta)
    cos = front * xp.cos(theta)
    r0 = cos * (lam * om) - sin * (0.5 * lam * (sum3 - inv_k * gap))
    r1 = cos * (2.0 * s * (2.0 - om)) - sin * ((1.0 - inv_k) * s * om)
    r2 = cos * om - sin * (0.5 * (gap - inv_k * sum3))
    return r0, r1, r2


def _weights(beta: float, alpha: float):
    """(p^2, p q, q^2) with p = 1/(1+b), q = b/(1+b): (1, b, b^2)/(1+b)^2.

    b = beta e^alpha.  Dirichlet conditions (beta = inf) give (0, 0, 1), the
    limit F / b^2.
    """
    b = beta * math.exp(alpha)
    if b == math.inf:
        return 0.0, 0.0, 1.0
    p = 1.0 / (1.0 + b)
    q = b / (1.0 + b)
    return p * p, p * q, q * q


def _f_scaled(xi: float, beta: float, lam, tp: TranscendParams):
    """F times 2 e^{-sqrt(lam)(1-d)} / (K (1 + b)^2): same roots, no overflow.

    The three-weight form of _terms, at every beta in [0, inf]; beta = inf
    gives the limit of F / (K b^2), the Dirichlet equation.  lam may be an
    array; the result then has its shape.
    """
    w0, w1, w2 = _weights(beta, tp.params.alpha)
    r0, r1, r2 = _terms(np.sqrt(lam), _consts(xi, tp.params, tp.delta), np)
    return w0 * r0 + w1 * r1 + w2 * r2


def _interval_exp_mass(tp: TranscendParams) -> float:
    a, k, d = tp.params.alpha, tp.params.kappa, tp.delta
    return k * d * math.exp(a * k) - (1.0 - d) * math.exp(-a)


def _s_max(sk, d):
    """The top of an interval's root search, just below pi / (sqrt(k) d).

    There sqrt(lam k) d reaches pi, the end of the first period of sin.  d
    may be an array.
    """
    return math.pi / (sk * d) * (1.0 - 1e-12)


def _check_xi(xi: float, d: float):
    if not -1e-12 <= xi <= 1.0 - d + 1e-12:  # false for NaN
        raise ValueError(f"xi = {xi} outside [0, 1 - delta]")


def transcendental_root(xi: float, beta: float, tp: TranscendParams) -> float:
    """First positive root of F(xi, beta, .), i.e. the principal eigenvalue.

    beta lies in [0, inf]: 0 is Neumann, inf is Dirichlet (the root of the
    limit F / b^2), at any xi in [0, 1 - delta].  Outside the interval, where
    m = -1, an eigenfunction is hyperbolic and has no zero, so every zero of
    a higher eigenfunction lies inside it and puts sqrt(lam k) d past pi (a
    Sturm oscillation count).  Below s_max, just under pi / (sqrt(k) d), F
    in s = sqrt(lambda) therefore has one root, the principal one, and on
    every admissible design F > 0 below it.  So s steps down from s_max by
    16 to the first positive value, no lower than S_FLOOR, and Brent's
    method (_roots.brentq, step for step scipy's) refines that last step.
    Where F is about 1e-240 the products of its interpolation underflow to
    0, and it creeps by its tolerance without converging, so F is scaled,
    exactly, by the power of two that brings |F(hi)| into [0.5, 1).  A
    refinement that does not converge raises RootNotFoundError.
    """
    _check_xi(xi, tp.delta)
    if not 0.0 <= beta <= math.inf:  # false for NaN
        raise ValueError(f"beta must lie in [0, inf], got {beta}")
    if beta == 0.0 and _interval_exp_mass(tp) >= 0.0:
        raise ValueError(
            "Neumann zero regime for this interval weight: no positive principal eigenvalue"
        )
    w0, w1, w2 = _weights(beta, tp.params.alpha)
    c = _consts(xi, tp.params, tp.delta)

    def f(x):
        r0, r1, r2 = _terms(x, c, math)
        return w0 * r0 + w1 * r1 + w2 * r2

    hi = s_max = _s_max(math.sqrt(tp.params.kappa), tp.delta)
    if (f_hi := f(hi)) > 0.0:
        raise RootNotFoundError(
            f"no admissible root in (0, {s_max**2:.6g}): F = {f_hi:.6g} > 0 at the top"
        )
    while not (f_lo := f(hi / 16.0)) > 0.0:
        hi, f_hi = hi / 16.0, f_lo
        if hi < S_FLOOR:
            raise RootNotFoundError(
                f"F is not positive at any s = sqrt(lambda) from {s_max:.3g} down to {hi:.3g}"
            )
    lo = hi / 16.0
    shift = -math.frexp(f_hi)[1]
    try:
        s_root = brentq(lambda x: math.ldexp(f(x), shift), lo, hi, xtol=1e-15 * lo, rtol=8.9e-16)
    except RuntimeError as exc:  # brentq's untyped "failed to converge"
        raise RootNotFoundError(
            f"root refinement on s = sqrt(lambda) in ({lo:.6g}, {hi:.6g}): {exc}"
        ) from exc
    return s_root * s_root


def _roots_at_or_below(
    beta: float, lam: float, params: ModelParams, deltas: np.ndarray, xis: np.ndarray
) -> np.ndarray:
    """For each interval (deltas[i], xis[i]): is its root at beta at most lam?

    F has one root below the interval's s_max and is positive before it
    (see transcendental_root), so the root is at most lam exactly when
    sqrt(lam) >= s_max or F(sqrt(lam)) <= 0: one numpy evaluation of F for
    all the intervals.  beta must be a valid one and lam at most some
    interval's s_max^2, which keeps every term finite; transcendental_root's
    checks are not repeated.
    """
    s = math.sqrt(lam)
    w0, w1, w2 = _weights(beta, params.alpha)
    r0, r1, r2 = _terms(s, _consts(xis, params, deltas), np)
    return (s >= _s_max(math.sqrt(params.kappa), deltas)) | (w0 * r0 + w1 * r1 + w2 * r2 <= 0.0)


def dirichlet_root(tp: TranscendParams, xi: float = 0.0) -> float:
    """First positive eigenvalue under Dirichlet conditions, at any xi.

    The root of the beta -> inf limit of F / b^2; at xi = 0 that is the
    printed tan(sqrt(lam k) d) = -sqrt(k) e^{a(k+1)} tanh(sqrt(lam)(1-d)).
    """
    return transcendental_root(xi, math.inf, tp)


def critical_beta(alpha: float, kappa: float, delta: float) -> float:
    """beta_crit from the raw constants, for any alpha >= 0.

    With K = kappa e^{2 alpha (kappa+1)} the closed form is
    e^{-alpha}/(sqrt(kappa) delta) times the angle atan(2 sqrt(kappa)
    e^{alpha(kappa+1)} / (K - 1)) taken in (0, pi): below pi/2 for K > 1,
    pi/2 at K = 1 and above it for K < 1.  Dividing both arguments of atan2
    by e^{2 alpha (kappa+1)} keeps every exponent non-positive, so the three
    branches are one expression and nothing overflows.
    """
    e = math.exp(-alpha * (kappa + 1.0))
    sk = math.sqrt(kappa)
    return math.exp(-alpha) / (sk * delta) * math.atan2(2.0 * sk * e, kappa - e * e)


def beta_crit(tp: TranscendParams) -> float:
    """Critical Robin coefficient separating boundary and centered optima.

    It is the unique beta at which the optimal eigenvalue equals
    beta^2 e^{2 alpha} and the transcendental equation loses its xi
    dependence; see critical_beta for the closed form.
    """
    return critical_beta(tp.params.alpha, tp.params.kappa, tp.delta)


@_finite
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


@_finite
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


def _outer_piece(lam: float, b: float, y, end: float, xp=math):
    """(u(y), u'(y)) / u(end) for u = s cosh(s y) + b sinh(s y), s = sqrt(lam).

    u'(0) = b u(0): the outer piece at distance y <= end from its end of
    [0, 1].  In om = 1 - e^{-2 s y} no exponent is positive and no term
    subtracts, so it is finite and accurate for every s > 0.
    """
    s = math.sqrt(lam)
    om, om_end = -xp.expm1(-2.0 * s * y), -math.expm1(-2.0 * s * end)
    scale = xp.exp(s * (y - end)) / (s * (2.0 - om_end) + b * om_end)
    return scale * (s * (2.0 - om) + b * om), scale * s * (s * om + b * (2.0 - om))


@dataclass(frozen=True)
class ClosedFormEigenfunction:
    """Eigenfunction of the interval problem in closed form, 1 at xi.

    Hyperbolic outside the resource interval, C cos(sqrt(lam k) x) +
    D sin(sqrt(lam k) x) inside and B at xi + delta.
    """

    B: float
    C: float
    D: float
    xi: float
    lam: float
    beta: float
    tp: TranscendParams

    def evaluate(self, x) -> np.ndarray:
        b = self.beta * math.exp(self.tp.params.alpha)
        sk = math.sqrt(self.lam * self.tp.params.kappa)
        xl, xr = self.xi, self.xi + self.tp.delta
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.piecewise(x, [x < xl, x > xr], [
            lambda y: _outer_piece(self.lam, b, y, xl, np)[0],
            lambda y: self.B * _outer_piece(self.lam, b, 1.0 - y, 1.0 - xr, np)[0],
            lambda y: self.C * np.cos(sk * y) + self.D * np.sin(sk * y),
        ])

    def jump_residual(self) -> float:
        """Defect of e^{a(k+1)} phi' inside against phi' outside at the
        interval's ends, over the larger end's sum of both sizes (an end
        with no outer piece under Neumann conditions is all rounding).
        Small only at a converged root.
        """
        a, k, lam = self.tp.params.alpha, self.tp.params.kappa, self.lam
        b, sk = self.beta * math.exp(a), math.sqrt(lam * k)
        jump, xl, xr = math.exp(a * (k + 1.0)) * sk, self.xi, self.xi + self.tp.delta
        inner = [jump * (self.D * math.cos(sk * x) - self.C * math.sin(sk * x)) for x in (xl, xr)]
        outer = [_outer_piece(lam, b, xl, xl)[1], -self.B * _outer_piece(lam, b, 1 - xr, 1 - xr)[1]]
        scale = max(abs(i) + abs(o) for i, o in zip(inner, outer))
        return max(abs(i - o) for i, o in zip(inner, outer)) / scale if scale else 0.0


def closed_form_eigenfunction(
    xi: float, beta: float, lam: float, tp: TranscendParams
) -> ClosedFormEigenfunction:
    """Assemble the closed-form eigenfunction at a converged root lam.

    One pass from left to right: the left piece meets the Robin condition
    at 0 and is 1 at xi; its flux e^{a m} phi' carries into the interval as
    cos(sk (x - xi)) + g sin(sk (x - xi)), sk = sqrt(lam k), g =
    phi'(xi-) / (e^{a(k+1)} sk), whose value B at xi + delta scales the
    right piece.  The flux matches at xi + delta only at a root of F.
    """
    a, k, b = tp.params.alpha, tp.params.kappa, beta * math.exp(tp.params.alpha)
    if not 0.0 <= b < math.inf:  # false for NaN
        raise ValueError(f"closed-form eigenfunction needs beta e^alpha in [0, inf), got {beta}")
    if not 0.0 < lam < math.inf:
        raise ValueError(f"closed-form eigenfunction needs a finite lambda > 0, got {lam}")
    _check_xi(xi, tp.delta)
    sk = math.sqrt(lam * k)
    g = _outer_piece(lam, b, xi, xi)[1] / (math.exp(a * (k + 1.0)) * sk)
    if not math.isfinite(g * sk):
        raise NonFiniteError(f"closed form overflows at xi = {xi}, beta = {beta}, lam = {lam}")
    c, s, phase = math.cos(sk * xi), math.sin(sk * xi), sk * tp.delta
    b_end = math.cos(phase) + g * math.sin(phase)
    return ClosedFormEigenfunction(b_end, c - g * s, s + g * c, xi, lam, beta, tp)
