"""Reference computations made apart from the package.

Everything here is written from the paper's formulas with numpy and scipy
alone; nothing is imported from ``drifteig``.  The benchmark compares the
program's outputs against these values outside its timed region.

Notation: a = alpha, k = kappa, d = delta (interval length), xi = left end
of the resource interval, s = sqrt(lambda), theta = s sqrt(k) d,
K = k e^{2a(k+1)} and b = beta e^{a}.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq

SCAN_POINTS = 4000


def _scaled_f(s, xi, beta, a, k, d):
    """The paper's F(xi, beta, s^2) times 2 e^{-s(1-d)}, for an array of s.

    beta = inf gives the limit of F / b^2, the Dirichlet equation.  Every
    hyperbolic term is written with non-positive exponents, so the value
    stays finite for large s.
    """
    s = np.asarray(s, dtype=float)
    lam = s * s
    big_k = k * math.exp(2.0 * a * (k + 1.0))
    e2 = np.exp(-2.0 * s * (1.0 - d))
    ch_mid = np.exp(-2.0 * s * xi) + np.exp(-2.0 * s * (1.0 - xi - d))
    if math.isinf(beta):
        f_s = 0.5 * (big_k - 1.0) * (1.0 + e2) - 0.5 * (big_k + 1.0) * ch_mid
        f_c = 1.0 - e2
    else:
        b = beta * math.exp(a)
        f_s = (
            b * s * (big_k - 1.0) * (1.0 - e2)
            + 0.5 * (1.0 + big_k) * (lam - b * b) * ch_mid
            + 0.5 * (big_k - 1.0) * (b * b + lam) * (1.0 + e2)
        )
        f_c = (lam + b * b) * (1.0 - e2) + 2.0 * b * s * (1.0 + e2)
    theta = s * math.sqrt(k) * d
    front = math.sqrt(k) * math.exp(a * (k + 1.0))
    return -f_s * np.sin(theta) + front * f_c * np.cos(theta)


def interval_root(xi, beta, a, k, d):
    """First positive root lambda of F for the interval weight on [xi, xi+d].

    A dense uniform scan in s over (0, pi / (sqrt(k) d)), where
    sin(theta) > 0, finds the first sign change; brentq refines it.
    beta may be 0 (Neumann), finite (Robin) or inf (Dirichlet).
    """
    s_max = math.pi / (math.sqrt(k) * d) * (1.0 - 1e-12)
    grid = np.linspace(s_max / SCAN_POINTS, s_max, SCAN_POINTS)
    vals = _scaled_f(grid, xi, beta, a, k, d)
    change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0.0)[0]
    if change.size == 0:
        raise ValueError(f"no root of F below s = {s_max} at xi = {xi}, beta = {beta}")
    i = int(change[0])

    def g(s):
        return float(_scaled_f(s, xi, beta, a, k, d))

    s_root = brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=8.9e-16)
    if not math.sin(s_root * math.sqrt(k) * d) > 0.0:
        raise ValueError("first root of F is not admissible")
    return s_root * s_root


def beta_crit(a, k, d):
    """Closed-form critical Robin coefficient, keyed on the sign of K - 1."""
    big_k = k * math.exp(2.0 * a * (k + 1.0))
    sk = math.sqrt(k)
    if big_k == 1.0:
        return math.pi * math.exp(-a) / (2.0 * sk * d)
    angle = math.atan(2.0 * sk * math.exp(a * (k + 1.0)) / (big_k - 1.0))
    if big_k < 1.0:
        angle += math.pi
    return math.exp(-a) / (sk * d) * angle


def delta_star(k, m0):
    """Interval length at which the mass constraint int m = -m0 is active."""
    return (1.0 - m0) / (k + 1.0)


def pinned(a, k, m0, beta):
    """Whether the paper's sufficient condition pins delta to delta*.

    Below beta_crit it holds unconditionally; above it the condition is
    a < sinh^2(b* xi*) / (1 + 2 sinh^2(b* xi*)) with b* the critical
    coefficient at advection 1/2 and xi* the centered left end.
    """
    d = delta_star(k, m0)
    if not math.isinf(beta) and beta < beta_crit(a, k, d):
        return True
    xi_c = (k + m0) / (2.0 * (1.0 + k))
    s2 = math.sinh(beta_crit(0.5, k, d) * xi_c) ** 2
    return a < s2 / (1.0 + 2.0 * s2)


# ----------------------------------------------------------- piece data --


def pieces(breakpoints, values):
    """(value, length) pairs of a piecewise-constant weight."""
    bp = np.asarray(breakpoints, dtype=float)
    return list(zip((float(v) for v in values), np.diff(bp).tolist()))


def exp_mass(piece_list, a):
    """int m e^{a m}, summed exactly over the pieces."""
    return math.fsum(v * math.exp(a * v) * ell for v, ell in piece_list)


def transported(piece_list, a):
    """Pieces of the image weight under y = int_0^x e^{-a m}."""
    return [(v, math.exp(-a * v) * ell) for v, ell in piece_list]


def level_set_length(piece_list, c):
    """Total length of {m > c}."""
    return math.fsum(ell for v, ell in piece_list if v > c)


def is_unimodal(values):
    """Values rise (weakly) to a peak and then fall (weakly)."""
    v = list(values)
    top = v.index(max(v))
    rising = all(x <= y for x, y in zip(v[:top], v[1 : top + 1]))
    falling = all(x >= y for x, y in zip(v[top:], v[top + 1 :]))
    return rising and falling


def p1_forms(nodes, phi, breakpoints, values, a, beta):
    """Exact integrals of a continuous piecewise-linear phi on the nodes.

    Returns (numerator, denominator) of the Rayleigh quotient:
    int e^{a m} phi'^2 + beta (phi(0)^2 + phi(1)^2) and int m e^{a m} phi^2.
    The weight is evaluated at element midpoints, so each element must lie
    inside one piece, as it does when the breakpoints are nodes.
    """
    x = np.asarray(nodes, dtype=float)
    u = np.asarray(phi, dtype=float)
    h = np.diff(x)
    mid = 0.5 * (x[:-1] + x[1:])
    idx = np.clip(np.searchsorted(breakpoints, mid, side="right") - 1, 0, len(values) - 1)
    v = np.asarray(values, dtype=float)[idx]
    diffusion = np.exp(a * v)
    du = np.diff(u)
    num = math.fsum(diffusion * du * du / h)
    if not math.isinf(beta):
        num += beta * (u[0] ** 2 + u[-1] ** 2)
    cell = h / 3.0 * (u[:-1] ** 2 + u[:-1] * u[1:] + u[1:] ** 2)
    den = math.fsum(v * diffusion * cell)
    return float(num), float(den)
