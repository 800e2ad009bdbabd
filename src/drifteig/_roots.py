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
        raise ValueError(_nan_message(x))
    return fx


def _nan_message(x: float) -> str:
    return f"The function value at x={x} is NaN; solver cannot continue."


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
    # spre is only ever read as |spre|, so the loop keeps aspre alone; |f| at
    # the three points and the current step's length are kept beside their
    # values, so each absolute value is computed once
    afpre, afcur = abs(fpre), abs(fcur)
    xblk = fblk = afblk = aspre = scur = ascur = 0.0
    for _ in range(maxiter):
        # fpre is never 0 here; where fcur is, xcur is returned below either way
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, afblk = xpre, fpre, afpre
            scur = xcur - xpre
            aspre = ascur = abs(scur)
        if afblk < afcur:  # keep the better end in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
            afpre, afcur, afblk = afcur, afblk, afcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        asbis = abs(sbis)
        if fcur == 0.0 or asbis < delta:
            return xcur
        astry = math.inf  # no interpolation: bisect
        if aspre > delta and afcur < afpre:
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                astry = abs(stry)
            except ZeroDivisionError:  # C's step is then inf or NaN, and fails the test below
                pass
        # C's 2|stry| < MIN(|spre|, 3|sbis| - delta); neither bound is NaN
        if 2.0 * astry < aspre and 2.0 * astry < 3.0 * asbis - delta:  # a good short step
            aspre, scur, ascur = ascur, stry, astry
        else:
            scur, aspre, ascur = sbis, asbis, asbis
        xpre, fpre, afpre = xcur, fcur, afcur
        xcur += scur if ascur > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))  # as the C code reads f's value into a double
        if fcur != fcur:
            raise ValueError(_nan_message(xcur))
        afcur = abs(fcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}.")
