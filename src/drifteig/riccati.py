"""The exact problem's sign test, by a Riccati sweep over the weight's pieces.

Every weight the package takes is piecewise constant, and so are the
coefficients p = e^{alpha v} and w = v e^{alpha v} of the drift problem
-(p phi')' = (lambda w + mu) phi on (0, 1), with p phi' = beta phi at 0 and
-p phi' = beta phi at 1.  On a piece the equation is phi'' = -k^2 phi with
k^2 = (lambda w + mu) / p, so the flux ratio rho = p phi' / phi of the
solution that meets the left condition (rho = beta, or +inf under
Dirichlet conditions) crosses the piece in closed form (Pruess & Fulton,
ACM TOMS 19, 1993; Zettl, Sturm-Liouville Theory, 2005):

- k^2 > 0: theta = atan(rho / (p k)) - k h must stay above -pi/2, and
  rho becomes p k tan(theta);
- k^2 < 0: with t = tanh(k h), k = sqrt(-k^2), p k + rho t must stay
  positive, and rho becomes p k (rho + p k t) / (p k + rho t);
- k^2 = 0: p + rho h must stay positive, and rho becomes p rho / (p + rho h).

A check that fails is a zero of phi in the piece.  By the Picone identity
the form int p psi'^2 - (lambda w + mu) psi^2 + beta (psi(0)^2 + psi(1)^2),
that is K - lambda B - mu M0 of the exact problem, is positive definite
exactly when every check passes and rho(1) + beta > 0; under Dirichlet
conditions the checks alone decide.  The sweep is plain floats, O(1) per
piece; the grid solver locates its brackets with it and confirms them with
its own sign test.
"""

from __future__ import annotations

import math

HALF_PI = 0.5 * math.pi


def definite(pieces, beta, lam, mu=0.0):
    """True when K - lam*B - mu*M0 of the exact problem is positive definite.

    pieces is a sequence of (length, p, w), from x = 0 to 1, and beta the
    Robin coefficient at both ends (0 Neumann, inf Dirichlet).  A NaN shift
    reads not definite.
    """
    rho = beta
    for h, p, w in pieces:
        k2 = (lam * w + mu) / p
        if k2 > 0.0:
            k = math.sqrt(k2)
            pk = p * k
            theta = math.atan2(rho, pk) - k * h
            if not theta > -HALF_PI:
                return False
            rho = pk * math.tan(theta)
        elif k2 < 0.0:
            k = math.sqrt(-k2)
            pk = p * k
            t = math.tanh(k * h)
            if rho == math.inf:
                rho = pk / t
            elif pk + rho * t > 0.0:
                rho = pk * ((rho + pk * t) / (pk + rho * t))
            else:
                return False
        elif k2 == 0.0:
            if rho == math.inf:
                rho = p / h
            elif p + rho * h > 0.0:
                rho = p * rho / (p + rho * h)
            else:
                return False
        else:  # NaN
            return False
    return rho + beta > 0.0
