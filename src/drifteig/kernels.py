"""Tridiagonal pencil kernels used by the eigen-solver.

The two loops (pivot-sign count and smallest-eigenvalue bisection) live in
``_kernels_py``; this module re-exports them and adds the retry policy for
pivot breakdown.  The solver calls them through this module's
attributes, which is where the benchmark's tracer wraps them.

``BACKEND`` names the kernel implementation.  There is one, pure Python,
so it is always ``"pure"``; it stays because ``drifteig.KERNEL_BACKEND``
and the ``backend`` key of the ``verify`` report are part of the
package's public output.
"""

from __future__ import annotations

import numpy as np

from ._kernels_py import pencil_inertia, smallest_pencil_eigenvalue  # noqa: F401

BACKEND = "pure"


def inertia_with_retry(ad, ae, bd, be, sigma, retries: int = 2) -> int:
    """Pivot-sign count of A - sigma*B, re-probing on factorization breakdown.

    A pivot hitting the underflow floor means sigma sits (numerically) on an
    eigenvalue of a leading minor; shifting the probe by an ulp-scale amount
    resolves it.  After ``retries`` shifts the floored count is accepted.
    """
    count, substituted = pencil_inertia(ad, ae, bd, be, sigma)
    shift = 4.0 * np.finfo(float).eps * max(1.0, abs(sigma))
    while substituted and retries > 0:
        sigma = sigma + shift
        shift *= 16.0
        count, substituted = pencil_inertia(ad, ae, bd, be, sigma)
        retries -= 1
    return count
