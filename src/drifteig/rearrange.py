"""Measure-preserving rearrangements and the drift-removing change of variable.

The map c(x) = int_0^x e^{-alpha m} sends the drift problem on (0, 1) to a
flat-diffusion problem on (0, c(1)).  Rearranging the transported weight
monotonically up to the eigenfunction's first argmax and monotonically down
after it, then mapping back through z = int e^{alpha m~R}, produces a
unimodal weight whose principal eigenvalue never exceeds the original one
(for alpha <= 1/2).  Everything here operates on exact piece lists, so
level-set lengths are preserved to rounding.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import eigensolve
from .weights import Boundary, ModelParams, PiecewiseWeight, from_pieces

RAMP_ALPHA_LIMIT = 0.5  # monotonicity of t -> t e^{2 alpha t} holds below this


@dataclass(frozen=True, eq=False)
class YWeight:
    """Piecewise-constant function on (0, L); the image of a weight under c.

    Same layout as PiecewiseWeight but without the unit-length constraint,
    since L = c(1) differs from 1 whenever alpha > 0.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def pieces(self):
        bp = self.breakpoints
        for i, v in enumerate(self.values):
            yield float(v), float(bp[i + 1] - bp[i])

    def eval_many(self, y: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.breakpoints, y, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return np.asarray(self.values)[idx]


@dataclass(frozen=True, eq=False)
class ChangeOfVariable:
    """Piecewise-linear map y = c(x) with slopes e^{-alpha m} per piece."""

    x_breakpoints: np.ndarray
    y_breakpoints: np.ndarray
    alpha: float

    @property
    def total(self) -> float:
        return float(self.y_breakpoints[-1])

    def x_to_y(self, x):
        return np.interp(x, self.x_breakpoints, self.y_breakpoints)

    def y_to_x(self, y):
        return np.interp(y, self.y_breakpoints, self.x_breakpoints)


@dataclass(frozen=True, eq=False)
class RearrangedPair:
    m_R: PiecewiseWeight
    y_plus: float
    x_plus: float


def monotone_rearrangement(m: PiecewiseWeight, direction: str = "decreasing") -> PiecewiseWeight:
    """Equimeasurable monotone relayout of the pieces of m."""
    if direction not in ("increasing", "decreasing"):
        raise ValueError(f"direction must be increasing or decreasing, got {direction!r}")
    pieces = sorted(m.pieces(), key=lambda p: p[0], reverse=(direction == "decreasing"))
    return from_pieces(pieces)


def change_of_variable_forward(m: PiecewiseWeight, alpha: float):
    """Exact image (c, m~) of the weight under y = int_0^x e^{-alpha m}.

    Per piece the image length is e^{-alpha v} * dx, which makes the
    identity int m~ e^{alpha m~} dy = int m dx hold term by term.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    xb = np.asarray(m.breakpoints)
    vals = np.asarray(m.values)
    ylen = np.exp(-alpha * vals) * np.diff(xb)
    yb = np.concatenate(([0.0], np.cumsum(ylen)))
    cov = ChangeOfVariable(x_breakpoints=xb, y_breakpoints=yb, alpha=alpha)
    return cov, YWeight(breakpoints=yb, values=vals)


def _split_pieces(pieces, at: float):
    """Split a (value, length) list at coordinate ``at``; exact lengths."""
    left, right = [], []
    pos = 0.0
    for v, ell in pieces:
        if pos + ell <= at or abs(pos + ell - at) <= 1e-15:
            left.append((v, ell))
        elif pos >= at:
            right.append((v, ell))
        else:
            l1 = at - pos
            left.append((v, l1))
            right.append((v, ell - l1))
        pos += ell
    return left, right


def unimodal_rearrangement(
    m: PiecewiseWeight,
    params: ModelParams,
    bc: Boundary,
    disc: eigensolve.Discretization,
) -> RearrangedPair:
    """Unimodal relayout of m that does not increase the principal eigenvalue.

    Solves for the eigenfunction and rearranges m around it
    (``rearrange_around``); a zero-regime weight has none, a ValueError.
    """
    pair = eigensolve.principal_eigenvalue(m, params, bc, disc)
    if isinstance(pair, eigensolve.ZeroRegime):
        raise ValueError("zero regime: no positive eigenfunction to rearrange around")
    return rearrange_around(m, params, pair)


def rearrange_around(
    m: PiecewiseWeight, params: ModelParams, pair: eigensolve.EigenPair
) -> RearrangedPair:
    """``unimodal_rearrangement`` of m around its solved eigenpair.

    Steps: take the eigenfunction's first argmax x+, transport to
    y+ = c(x+), sort the transported pieces upward on (0, y+) and downward
    on (y+, c(1)), and map back through z = int e^{alpha m~R}.  A caller
    that has solved m already passes its pair here and solves it once.
    """
    if params.alpha > RAMP_ALPHA_LIMIT:
        warnings.warn(
            f"alpha = {params.alpha} > {RAMP_ALPHA_LIMIT}: eigenvalue monotonicity "
            "of the rearrangement is no longer guaranteed",
            stacklevel=2,
        )
    x_plus = float(pair.nodes[int(np.argmax(pair.phi))])
    cov, mt = change_of_variable_forward(m, params.alpha)
    y_plus = float(cov.x_to_y(x_plus))
    left, right = _split_pieces(list(mt.pieces()), y_plus)
    left.sort(key=lambda p: p[0])
    right.sort(key=lambda p: p[0], reverse=True)
    z_pieces = [(v, np.exp(params.alpha * v) * ell) for v, ell in left + right]
    m_r = from_pieces(z_pieces)
    return RearrangedPair(m_R=m_r, y_plus=y_plus, x_plus=x_plus)


def level_set_length(pieces, c: float) -> float:
    """Total length of {value > c} for a (value, length) iterable."""
    return float(sum(ell for v, ell in pieces if v > c))
