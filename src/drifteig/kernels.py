"""Tridiagonal pencil kernels used by the eigen-solver.

The LDL^T factorization (LAPACK ``dpttrf`` through scipy), the
definiteness test built on it, the smallest-eigenvalue bisection, the
halving rule it shares with the spring-form bisection and the spring-form
test live in ``_kernels_py``; this module re-exports them.  The
solver halves ``riccati``'s sweep of the exact problem by ``halve`` and
confirms the bracket with the test; the bisection, which returns its
bracket, halves what the sweep did not.  It calls the kernels through this
module's attributes, where the benchmark's tracer wraps the test and the
bisection by name.

``BACKEND`` names the kernel implementation.  Nothing in the package is
compiled, so it is always ``"pure"``; it stays because
``drifteig.KERNEL_BACKEND`` and the ``backend`` key of the ``verify``
report are part of the package's public output.
"""

from __future__ import annotations

from ._kernels_py import halve, ldlt, pencil_inertia, smallest_pencil_eigenvalue, springs  # noqa: F401

BACKEND = "pure"
