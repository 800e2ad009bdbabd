"""Piecewise-constant resource weights on (0, 1).

The admissible class is the set of weights m with -1 <= m <= kappa, total
mass int_0^1 m <= -m0, and a region of positive values.  Everything
downstream (eigenvalue solves, rearrangements, interval designs) consumes
the exact piece representation defined here, so masses, exponential masses
and level-set lengths are sums over pieces rather than quadratures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Sequence

import numpy as np

from ._roots import brentq

MASS_SLACK = 1e-12  # absolute slack on the mass constraint (float summation)

# bracket for the advection-threshold root, shortened by alpha_star for
# weights whose e^{64 v} would overflow; a root beyond it is reported as +inf
ALPHA_STAR_BRACKET = 64.0

# e^{2 alpha (kappa+1)} is the largest exponential the package forms
LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))

# F's largest term in the root search, lambda / kappa at s_max^2, is pi^2 / (kappa d)^2;
# above this floor it stays finite for every design length d >= 2^-53 / (kappa + 1)
# (1 - m0 >= 2^-53 for a float m0 < 1)
KAPPA_MIN = 1e-137


class DriftEigError(Exception):
    """Root of every typed error the package raises."""


class SearchSpaceError(DriftEigError, ValueError):
    """Exhaustive search would not terminate at desk scale."""


@dataclass(frozen=True)
class ModelParams:
    """Problem constants: advection rate, resource cap and mass bound."""

    alpha: float
    kappa: float
    m0: float

    def __post_init__(self):
        for name in ("alpha", "kappa", "m0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not KAPPA_MIN <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and >= {KAPPA_MIN:g}, got {self.kappa}")
        if not 0.0 < self.m0 < 1.0:
            raise ValueError(f"m0 must lie in (0, 1), got {self.m0}")
        if 2.0 * self.alpha * (self.kappa + 1.0) > LOG_FLOAT_MAX:
            raise ValueError(f"2 alpha (kappa + 1) must be <= {LOG_FLOAT_MAX:.2f}, ln of float max")


@dataclass(frozen=True)
class Boundary:
    """Robin coefficient beta >= 0; beta = inf is the Dirichlet limit."""

    beta: float

    def __post_init__(self):
        if not self.beta >= 0.0:  # false for NaN; +inf is the Dirichlet limit
            raise ValueError(f"beta must be >= 0 or inf, got {self.beta}")

    @classmethod
    def robin(cls, beta: float) -> "Boundary":
        return cls(float(beta))

    @classmethod
    def neumann(cls) -> "Boundary":
        return cls(0.0)

    @classmethod
    def dirichlet(cls) -> "Boundary":
        return cls(math.inf)

    @property
    def is_dirichlet(self) -> bool:
        return math.isinf(self.beta)

    @property
    def is_neumann(self) -> bool:
        return self.beta == 0.0


@dataclass(frozen=True)
class PiecewiseWeight:
    """Weight m given by breakpoints 0 = x_0 < ... < x_K = 1 and one value per interval.

    Evaluation is right-continuous at interior breakpoints; x = 1 takes the
    last value.  Instances are immutable; all operations on them are pure.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bp = tuple(float(b) for b in self.breakpoints)
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)
        if len(bp) < 2:
            raise ValueError("need at least two breakpoints")
        if not all(map(math.isfinite, bp + vals)):
            raise ValueError("breakpoints and values must be finite")
        if len(vals) != len(bp) - 1:
            raise ValueError(
                f"{len(bp)} breakpoints require {len(bp) - 1} values, got {len(vals)}"
            )
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if any(b1 >= b2 for b1, b2 in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(np.asarray(self.breakpoints))

    def pieces(self) -> Iterator[tuple]:
        """Yield (value, length) pairs in left-to-right order."""
        bp = self.breakpoints
        for i, v in enumerate(self.values):
            yield v, bp[i + 1] - bp[i]

    def eval(self, x: float) -> float:
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"x = {x} outside [0, 1]")
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        return self.values[min(int(idx), len(self.values) - 1)]

    __call__ = eval

    def eval_many(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not np.all((x >= 0.0) & (x <= 1.0)):  # false for NaN
            raise ValueError("evaluation points outside [0, 1]")
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        idx = np.clip(idx, 0, len(self.values) - 1)
        return np.asarray(self.values)[idx]

    def to_json(self) -> str:
        return json.dumps(
            {"breakpoints": list(self.breakpoints), "values": list(self.values)}
        )

    @classmethod
    def from_json(cls, text: str) -> "PiecewiseWeight":
        data = json.loads(text)
        return cls(tuple(data["breakpoints"]), tuple(data["values"]))


def from_pieces(pieces: Sequence[tuple]) -> PiecewiseWeight:
    """Build a unit-interval weight from (value, length) pairs.

    Adjacent equal values are merged and zero-length pieces dropped.  The
    lengths must sum to 1 up to accumulated rounding; the final breakpoint
    is then snapped to exactly 1.
    """
    merged: list[list] = []
    for v, ell in pieces:
        if ell <= 0.0:
            continue
        if merged and merged[-1][0] == v:
            merged[-1][1] += ell
        else:
            merged.append([v, ell])
    if not merged:
        raise ValueError("no pieces with positive length")
    lengths = np.array([ell for _, ell in merged])
    total = float(lengths.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"piece lengths sum to {total}, expected 1")
    bp = np.concatenate(([0.0], np.cumsum(lengths)))
    bp[-1] = 1.0
    return PiecewiseWeight(tuple(bp), tuple(v for v, _ in merged))


@dataclass(frozen=True)
class BangBangInterval:
    """Two-parameter family m = (kappa+1) * chi_(xi, xi+delta) - 1."""

    xi: float
    delta: float
    params: ModelParams

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not -1e-15 <= self.xi <= 1.0 - self.delta + 1e-15:
            raise ValueError(
                f"xi = {self.xi} outside [0, 1 - delta] for delta = {self.delta}"
            )

    def weight(self) -> PiecewiseWeight:
        k = self.params.kappa
        bp = [0.0]
        vals = []
        if self.xi > 0.0:
            bp.append(self.xi)
            vals.append(-1.0)
        right = self.xi + self.delta
        vals.append(k)
        if right < 1.0:
            bp.append(right)
            vals.append(-1.0)
        bp.append(1.0)
        return PiecewiseWeight(tuple(bp), tuple(vals))


def mass(m: PiecewiseWeight) -> float:
    """Exact value of int_0^1 m."""
    return float(np.dot(np.asarray(m.values), m.lengths))


def exp_mass(m: PiecewiseWeight, alpha: float) -> float:
    """Exact value of int_0^1 m e^{alpha m} (closed form per piece)."""
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    v = np.asarray(m.values)
    return float(np.dot(v * np.exp(alpha * v), m.lengths))


def alpha_star(m: PiecewiseWeight) -> float:
    """Advection threshold: the unique root of alpha -> int m e^{alpha m}.

    Returns 0 when the integral is already nonnegative at alpha = 0, and
    +inf when m <= 0 everywhere or no root exists below the overflow
    bracket.  The map is strictly increasing in alpha, so Brent's method on
    [0, ALPHA_STAR_BRACKET] finds the root; for a weight whose largest
    value v exceeds about 11 the bracket stops where v e^{alpha v} reaches
    half the largest float, so exp_mass never overflows.
    """
    lengths = m.lengths
    if not any(v > 0.0 and ell > 0.0 for v, ell in zip(m.values, lengths)):
        return math.inf
    if exp_mass(m, 0.0) >= 0.0:
        return 0.0
    top = max(m.values)
    hi = min(ALPHA_STAR_BRACKET, (LOG_FLOAT_MAX - math.log(2.0 * top)) / top)
    if exp_mass(m, hi) < 0.0:
        return math.inf
    return brentq(lambda a: exp_mass(m, a), 0.0, hi, xtol=1e-15, rtol=8.9e-16)


def abar(params: ModelParams) -> float:
    """Uniform advection threshold over the whole admissible class."""
    k, m0 = params.kappa, params.m0
    return math.log((k + m0) / (k * (1.0 - m0))) / (1.0 + k)


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_admissible(m: PiecewiseWeight, params: ModelParams) -> Admissibility:
    """Membership in the admissible class, with a structured failure reason."""
    vals = np.asarray(m.values)
    if np.any(vals < -1.0 - MASS_SLACK):
        return Admissibility(False, "value below -1")
    if np.any(vals > params.kappa + MASS_SLACK):
        return Admissibility(False, f"value above kappa = {params.kappa}")
    tot = mass(m)
    if tot > -params.m0 + MASS_SLACK:
        return Admissibility(False, f"mass {tot:.6g} exceeds -m0 = {-params.m0}")
    if not any(v > 0.0 and ell > 0.0 for v, ell in zip(m.values, m.lengths)):
        return Admissibility(False, "no region of positive values")
    return Admissibility(True)


def brute_force_expmass_max(
    params: ModelParams, cells: int, levels: Sequence[float]
) -> tuple:
    """Exhaustively maximize int m e^{alpha m} over grid weights.

    Candidates are constant on a uniform grid of ``cells`` cells with values
    drawn from ``levels``, restricted to mass <= -m0.  Both the objective
    and the constraint depend only on the multiset of chosen values, so the
    enumeration runs over multisets; the returned optimizer lays the values
    out in descending order.
    """
    if cells > 12 or len(levels) > 4:
        raise SearchSpaceError(
            f"search space too large: cells = {cells}, levels = {len(levels)}"
        )
    levels = [float(v) for v in levels]
    if any(v < -1.0 or v > params.kappa for v in levels):
        raise ValueError("levels must lie within [-1, kappa]")
    cell = 1.0 / cells
    best_combo = None
    best_value = -math.inf
    for combo in combinations_with_replacement(levels, cells):
        total = sum(combo) * cell
        if total > -params.m0 + MASS_SLACK:
            continue
        value = sum(v * math.exp(params.alpha * v) for v in combo) * cell
        if value > best_value:
            best_value = value
            best_combo = combo
    if best_combo is None:
        raise ValueError("no admissible grid weight: mass bound unreachable")
    ordered = sorted(best_combo, reverse=True)
    bp = tuple(i * cell for i in range(cells)) + (1.0,)
    return PiecewiseWeight(bp, tuple(ordered)), best_value


def random_admissible(params: ModelParams, rng: np.random.Generator) -> PiecewiseWeight:
    """Draw a random member of the admissible class with 3 to 8 pieces (for property tests)."""
    for _ in range(200):
        k = int(rng.integers(3, 9))
        cuts = np.sort(rng.uniform(0.02, 0.98, size=k - 1))
        bp = np.concatenate(([0.0], cuts, [1.0]))
        if np.min(np.diff(bp)) < 5e-3:
            continue
        vals = rng.uniform(-1.0, params.kappa, size=k)
        pos = int(rng.integers(0, k))
        vals[pos] = rng.uniform(0.3, 1.0) * params.kappa
        lengths = np.diff(bp)
        deficit = float(np.dot(vals, lengths)) + params.m0
        if deficit > 0.0:
            # push the other pieces toward -1 just enough to restore the bound
            head = vals + 1.0
            head[pos] = 0.0
            room = float(np.dot(head, lengths))
            margin = 0.05 * (1.0 - params.m0)
            if room <= deficit + margin:
                continue
            t = (deficit + margin) / room
            vals = vals - t * (vals + 1.0) * (np.arange(k) != pos)
        m = PiecewiseWeight(tuple(bp), tuple(vals))
        if is_admissible(m, params):
            return m
    raise RuntimeError("failed to draw an admissible weight")
