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
locates the first positive root (one scan of the terms per interval serves
every beta), tells for many intervals in one evaluation, shared by later
calls on the same intervals, which of their root brackets can start below
a given bound, computes the critical Robin
coefficient at which the optimal interval location switches from the
boundary to the center, and reconstructs the closed-form eigenfunction for
cross-checks against the discretized solver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .weights import DriftEigError, ModelParams

S_FLOOR = 1e-150  # lowest sqrt(lambda) the root scan steps down to
SCAN_TERM_MAX = 1e308  # bound on the root scan's terms, below the float maximum
SCAN_STEP = 0.01  # the root scan's growth rate of 1 + sqrt(lambda) per sample, at most


class RootNotFoundError(DriftEigError, RuntimeError):
    """Scan exhausted without an admissible sign change."""


class TanPoleError(DriftEigError, ValueError):
    """Probe too close to a pole of tan for a meaningful evaluation."""


class NonFiniteError(DriftEigError, ValueError):
    """A literal (unscaled) expression of F is not finite at these inputs."""


def _finite(fn):
    """Return fn's results when all are finite, else raise NonFiniteError.

    The literal expressions carry K = kappa e^{2 alpha (kappa+1)} unscaled,
    so they overflow on parts of the admissible box where the scaled root
    scan is fine.
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
        # the root scan's largest term is lambda max(1, 1/kappa) at its top,
        # lambda = (pi / (sqrt(kappa) delta))^2; it must stay below SCAN_TERM_MAX
        rk = math.sqrt(self.params.kappa)
        if rk * min(1.0, rk) * self.delta * math.sqrt(SCAN_TERM_MAX) < math.pi:
            raise ValueError(
                f"delta = {self.delta} is too small for kappa = {self.params.kappa}: "
                f"the root scan's terms would pass {SCAN_TERM_MAX:g}"
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
    overflow; for root scanning use the overflow-safe internal variant.
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
    s is an array with xp = numpy (the scan) or a float with xp = math
    (brentq's scalar calls).
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


def _scan_grid(sk, d):
    """(s_max, step) of the root scan of an interval of length d.

    s_max lies just below pi / (sqrt(k) d), where sqrt(lam k) d reaches pi,
    and step is SCAN_STEP unless an eighth of that is less.  d may be an
    array.
    """
    period = math.pi / (sk * d)
    return period * (1.0 - 1e-12), np.minimum(SCAN_STEP, period / 8.0)


def _sample_count(s_max: float, step: float) -> int:
    """Number of root-scan samples up to s_max: j = 0 .. j_end, s_j_end >= s_max."""
    return max(math.ceil(math.log((1.0 + s_max) / (1.0 + 1e-4)) / math.log1p(step)), 0) + 1


def _samples(count: int, step: float) -> np.ndarray:
    """The root scan's first count samples s_j = (1 + 1e-4)(1 + step)^j - 1.

    Unclipped: a scan clips them at its own s_max.
    """
    return (1.0 + 1e-4) * (1.0 + step) ** np.arange(count) - 1.0


def _check_xi(xi: float, d: float):
    if not -1e-12 <= xi <= 1.0 - d + 1e-12:  # false for NaN
        raise ValueError(f"xi = {xi} outside [0, 1 - delta]")


class _RootScan:
    """F's beta-free terms on the root scan of one interval (xi, delta).

    The scan runs in the sqrt(lambda) variable on geometrically growing
    steps s_j = (1 + 1e-4)(1 + step)^j - 1 up to just below
    pi / (sqrt(k) d).  Every sample keeps sqrt(lam k) d inside (0, pi), the
    first period of sin, so the first sign change is the principal root.
    Only the weights of _terms depend on beta, so one scan serves every
    beta.  A root comes in two steps: bracket(beta), a weighted sum and the
    sign scan, puts it in a lambda interval; root(beta) refines that
    interval with brentq, once per beta, and keeps the result.  Callers
    that compare roots can compare brackets first and refine only the ones
    that can win.
    """

    def __init__(self, xi: float, tp: TranscendParams):
        k, d = tp.params.kappa, tp.delta
        _check_xi(xi, d)
        self.xi, self.tp = xi, tp
        sk = math.sqrt(k)
        self.s_max, step = _scan_grid(sk, d)
        self.s = np.minimum(_samples(_sample_count(self.s_max, step), step), self.s_max)
        self.consts = _consts(xi, tp.params, d)
        self.terms = _terms(self.s, self.consts, np)
        self.roots: dict = {}  # beta -> refined root

    def _sign_scan(self, beta: float):
        """(weights, j, F there): j indexes the first sample where F is not positive."""
        if not 0.0 <= beta <= math.inf:  # false for NaN
            raise ValueError(f"beta must lie in [0, inf], got {beta}")
        if beta == 0.0 and _interval_exp_mass(self.tp) >= 0.0:
            raise ValueError(
                "Neumann zero regime for this interval weight: "
                "no positive principal eigenvalue"
            )
        w0, w1, w2 = w = _weights(beta, self.tp.params.alpha)
        r0, r1, r2 = self.terms
        g = w0 * r0 + w1 * r1 + w2 * r2
        stop = g <= 0.0
        j = int(stop.argmax())
        if not stop[j]:
            samples = list(zip(self.s.tolist(), g.tolist()))
            raise RootNotFoundError(
                f"no admissible root in (0, {self.s_max**2:.6g}); "
                f"first/last samples {samples[:2]} ... {samples[-2:]}"
            )
        return w, j, float(g[j])

    def bracket(self, beta: float) -> tuple:
        """(lo, hi) in lambda holding the first root of F(xi, beta, .).

        (s[j-1]^2, s[j]^2) around the first sample s[j] where F is not
        positive, or (0, s[0]^2) when that is the first sample.
        """
        _, j, _ = self._sign_scan(beta)
        lo = float(self.s[j - 1]) if j > 0 else 0.0
        hi = float(self.s[j])
        return lo * lo, hi * hi

    def root(self, beta: float) -> float:
        """First positive root lambda of F(xi, beta, .), beta in [0, inf].

        The bracket of _sign_scan, refined by brentq.  On every admissible
        design F > 0 as lambda -> 0+, so a first sample that is not
        positive puts the root below the scan: s steps down by 16 to a
        positive sample, no lower than S_FLOOR, and brentq refines that
        last step.  brentq's sign test f(a) f(b) < 0 underflows where F is
        about 1e-240, so F is scaled, exactly, by the power of two that brings
        |F(hi)| (a value the scan or the step-down has taken) into [0.5, 1).
        """
        lam = self.roots.get(beta)
        if lam is not None:
            return lam
        (w0, w1, w2), j, f_hi = self._sign_scan(beta)
        c, s = self.consts, self.s

        def f(x):
            r0, r1, r2 = _terms(x, c, math)
            return w0 * r0 + w1 * r1 + w2 * r2

        if j > 0:
            lo, hi, xtol = s[j - 1], s[j], 1e-15
        else:
            hi = s[0]
            while not (f_lo := f(hi / 16.0)) > 0.0:
                hi, f_hi = hi / 16.0, f_lo
                if hi < S_FLOOR:
                    raise RootNotFoundError(
                        f"F is not positive at any s = sqrt(lambda) from {s[0]:.3g} "
                        f"down to {hi:.3g}"
                    )
            lo = hi / 16.0
            xtol = 1e-15 * lo
        shift = -math.frexp(f_hi)[1]
        try:
            s_root = brentq(lambda x: math.ldexp(f(x), shift), lo, hi, xtol=xtol, rtol=8.9e-16)
        except RuntimeError as exc:  # scipy's untyped "failed to converge"
            raise RootNotFoundError(
                f"root refinement on s = sqrt(lambda) in ({lo:.6g}, {hi:.6g}): {exc}"
            ) from exc
        lam = self.roots[beta] = s_root * s_root
        return lam


def _brackets_start_by(
    beta: float, top: float, params: ModelParams, deltas: np.ndarray, xis: np.ndarray
) -> np.ndarray:
    """For each interval (deltas[i], xis[i]): may its bracket(beta) start at or below top?

    False is exact: _RootScan(xis[i], TranscendParams(params, deltas[i]))
    .bracket(beta)[0] > top.  True may not be, so the caller builds that scan
    and compares its bracket.  No scan is built here: every interval whose
    step is SCAN_STEP takes its samples from one row of _samples, clipped at
    its own s_max, and only the samples up to the first one past sqrt(top)
    are evaluated, all intervals in one numpy call of _terms with the same
    operations as their scans, so the same bits.  An interval with a finer
    step, or with samples left after that block while its last evaluated
    sample is still at or below sqrt(top), answers True.  beta must be a
    valid one; _RootScan's checks are not repeated.  _BracketPrune answers
    the same for many calls on the same lengths, sharing their terms.
    """
    s_max, counts, fine = _prune_grid(params, deltas)
    s = np.minimum(_samples(_prune_width(top, counts), SCAN_STEP), s_max[:, None])
    terms = _terms(s, _consts(xis[:, None], params, deltas[:, None]), np)
    return _prune_answer(beta, top, params.alpha, terms, _bracket_starts(s, counts)) | fine


def _prune_grid(params: ModelParams, deltas: np.ndarray) -> tuple:
    """(s_max, sample counts on SCAN_STEP, fine step) of each interval's root scan."""
    s_max, steps = _scan_grid(math.sqrt(params.kappa), deltas)
    counts = np.array([_sample_count(t, SCAN_STEP) for t in s_max.tolist()])
    return s_max, counts, steps < SCAN_STEP


def _prune_width(top: float, counts: np.ndarray) -> int:
    """Samples per interval that _brackets_start_by evaluates: to one past sqrt(top)."""
    return min(_sample_count(math.sqrt(top), SCAN_STEP) + 1, int(counts.max()))


def _bracket_starts(s: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Where a bracket ending at each sample of s would start, plus one column.

    Column j is s[:, j-1]^2 (0 at j = 0) while j is below the row's sample
    count, and inf from there on: no bracket ends past a scan's last sample.
    """
    n, width = s.shape
    starts = np.empty((n, width + 1))
    starts[:, 0] = 0.0
    np.multiply(s, s, out=starts[:, 1:])
    for i in np.flatnonzero(counts <= width).tolist():  # the few rows that end inside
        starts[i, counts[i] :] = np.inf
    return starts


def _prune_answer(beta: float, top: float, alpha: float, terms, starts: np.ndarray) -> np.ndarray:
    """_brackets_start_by's answer, fine steps aside, from the terms on each row's first samples.

    starts is _bracket_starts of those samples, or of more of them.
    """
    w0, w1, w2 = _weights(beta, alpha)
    r0, r1, r2 = terms
    stop = w0 * r0 + w1 * r1 + w2 * r2 <= 0.0
    width = stop.shape[1]
    # the first stop j brackets from starts[j], and later stops start higher.  A
    # row with samples past the block answers True while the next sample's
    # bracket would still start at or below top.
    return (stop & (starts[:, :width] <= top)).any(axis=1) | (starts[:, width] <= top)


class _BracketPrune:
    """_brackets_start_by for the same n lengths over many (beta, top) calls.

    Length i sits at the left end (xi = 0) or at centres[i], as the caller's
    mask says on each call.  _terms depends on neither beta nor top, so the
    calls can share it.  The first call is _brackets_start_by on the mixed
    placements and nothing more, since a single design asks only once.
    Sending it through the block as well kept every answer's bits but took
    a 31-length call from 361 to 417 us and design_grid's run_s up 9%, so
    the path follows the calls: one for a design, many for a sweep.
    Later calls keep the terms in one (3, 2n, width) block, row i for length
    i at the left end and row n + i for it centred, and evaluate only the
    rows, and the samples in a row, that no earlier call has.  A row is
    filled to the block's width, a quarter more than asked, so that the
    rising tops of a sorted sweep seldom widen it.  Each answer is then a
    gather, a weighted sum and the first-stop test, with the bits of
    _brackets_start_by.
    """

    def __init__(self, params: ModelParams, deltas: np.ndarray, centres: np.ndarray):
        self.params, self.deltas, self.centres = params, deltas, centres
        self.asked = False
        self.terms = None  # the (3, 2n, width) block, from the second call on

    def __call__(self, beta: float, top: float, centred: np.ndarray) -> np.ndarray:
        params, n = self.params, self.deltas.size
        if not self.asked:
            self.asked = True
            xis = np.where(centred, self.centres, 0.0)
            return _brackets_start_by(beta, top, params, self.deltas, xis)
        if self.terms is None:
            self.s_max, self.counts, self.fine = _prune_grid(params, self.deltas)
            self.xis = np.concatenate([np.zeros(n), self.centres])
            self.filled = np.zeros(2 * n, dtype=int)  # samples evaluated in each row
        width = _prune_width(top, self.counts)
        if self.terms is None or width > self.terms.shape[2]:
            self._widen(min(width + width // 4, int(self.counts.max())))
        rows = np.arange(n) + n * centred
        todo = rows[self.filled[rows] < width]
        if todo.size:
            start, length = int(self.filled[todo].min()), todo % n
            c = _consts(self.xis[todo, None], params, self.deltas[length, None])
            for block, term in zip(self.terms, _terms(self.s[length, start:], c, np)):
                block[todo, start:] = term
            self.filled[todo] = self.terms.shape[2]
        terms = self.terms[:, rows, :width]
        return _prune_answer(beta, top, params.alpha, terms, self.starts) | self.fine

    def _widen(self, width: int):
        """Make the samples and the term block width wide, keeping the filled terms."""
        self.s = np.minimum(_samples(width, SCAN_STEP), self.s_max[:, None])
        self.starts = _bracket_starts(self.s, self.counts)
        terms = np.empty((3, 2 * self.deltas.size, width))
        if self.terms is not None:
            terms[:, :, : self.terms.shape[2]] = self.terms
        self.terms = terms


def transcendental_root(xi: float, beta: float, tp: TranscendParams) -> float:
    """First positive root of F(xi, beta, .), i.e. the principal eigenvalue.

    beta lies in [0, inf]: 0 is Neumann, inf is Dirichlet (the root of the
    limit F / b^2), at any xi in [0, 1 - delta].  One _RootScan of the
    interval, then its root at beta; callers that need several beta at one
    interval keep the scan instead.
    """
    return _RootScan(xi, tp).root(beta)


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
