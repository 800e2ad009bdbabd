"""Brent's method for a bracketed root of a scalar function on floats.

A port of the steps of scipy's C ``brentq`` (Brent, *Algorithms for
Minimization without Derivatives*, 1973, chapter 4), so it returns the same
float for the same function, bracket and tolerances, with the checks of
scipy's Python wrapper: a NaN value of f, ends of the same sign and bad
tolerances raise ValueError, and running out of iterations raises
RuntimeError.  It makes no numpy call, so one step costs little more than
one evaluation of f, and a caller that has f's values at the ends passes
them, so f is not evaluated there again.
"""

from __future__ import annotations

import math
import sys

RTOL_MIN = 4.0 * sys.float_info.epsilon  # scipy's smallest rtol


def _value(fx, x: float) -> float:
    fx = float(fx)  # as the C code reads f's value into a double
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(
    f, a: float, b: float, xtol: float, rtol: float, maxiter: int = 100, fa=None, fb=None
) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, as a float.

    fa and fb, when given, are f(a) and f(b) as the caller already has them;
    f is then not evaluated at that end, and the steps and the result are
    those of a call without them.  They are checked like f's own values.
    Converged when half the bracket is below (xtol + rtol |x|) / 2.  Where
    the C code's interpolation divides by zero (an underflowed divisor), its
    infinite or NaN step fails the step test and it bisects; so does this.
    """
    xtol, rtol = float(xtol), float(rtol)
    if not xtol > 0.0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if not rtol >= RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL_MIN:g})")
    xpre, xcur = float(a), float(b)
    fpre = _value(f(xpre) if fa is None else fa, xpre)
    fcur = _value(f(xcur) if fb is None else fb, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):  # the sign bits, as neither is 0 or NaN
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # a failed step: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then inf or NaN, and fails the test below
                pass
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = _value(f(xcur), xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}.")
