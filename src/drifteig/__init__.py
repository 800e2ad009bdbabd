"""drifteig: principal eigenvalues of the 1D drift eigenproblem and optimal
interval designs for resource placement.

The eigenproblem on (0, 1) is

    -(e^{alpha m} phi')' = lambda m e^{alpha m} phi

with Robin coefficient beta at both ends (beta = 0 reflecting, beta = inf
absorbing) and a sign-changing piecewise-constant weight m.  The package
computes the positive principal eigenvalue, rearranges weights without
increasing it, evaluates the closed-form machinery for bang-bang interval
weights, and solves the optimal design problem at desk scale.  Every typed
error it raises derives from DriftEigError.
"""

from .eigensolve import (
    Discretization,
    EigenPair,
    MuCurvePoint,
    ZeroRegime,
    eigen_cov,
    make_discretization,
    mu_curve,
    mu_of_lambda,
    principal_eigenvalue,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .optimize import (
    DesignOptimum,
    Regime,
    SweepRow,
    active_constraint_condition,
    choose_delta,
    locate_optimal_interval,
    mollify_demo,
    sweep_beta,
    switch_function,
)
from .rearrange import (
    ChangeOfVariable,
    RearrangedPair,
    change_of_variable_forward,
    monotone_rearrangement,
    unimodal_rearrangement,
)
from .transcend import (
    ClosedFormEigenfunction,
    TranscendParams,
    F_components,
    beta_crit,
    closed_form_eigenfunction,
    delta_diag,
    dirichlet_root,
    regime_equations,
    transcendental_root,
)
from .weights import (
    Admissibility,
    BangBangInterval,
    Boundary,
    DriftEigError,
    ModelParams,
    PiecewiseWeight,
    abar,
    alpha_star,
    brute_force_expmass_max,
    exp_mass,
    is_admissible,
    mass,
    random_admissible,
)

__version__ = "0.1.0"

__all__ = [
    "Admissibility",
    "BangBangInterval",
    "Boundary",
    "ChangeOfVariable",
    "ClosedFormEigenfunction",
    "DesignOptimum",
    "Discretization",
    "DriftEigError",
    "EigenPair",
    "F_components",
    "KERNEL_BACKEND",
    "ModelParams",
    "MuCurvePoint",
    "PiecewiseWeight",
    "RearrangedPair",
    "Regime",
    "SweepRow",
    "TranscendParams",
    "ZeroRegime",
    "abar",
    "active_constraint_condition",
    "alpha_star",
    "beta_crit",
    "brute_force_expmass_max",
    "change_of_variable_forward",
    "choose_delta",
    "closed_form_eigenfunction",
    "delta_diag",
    "dirichlet_root",
    "eigen_cov",
    "exp_mass",
    "is_admissible",
    "locate_optimal_interval",
    "make_discretization",
    "mass",
    "mollify_demo",
    "monotone_rearrangement",
    "mu_curve",
    "mu_of_lambda",
    "principal_eigenvalue",
    "random_admissible",
    "regime_equations",
    "sweep_beta",
    "switch_function",
    "transcendental_root",
    "unimodal_rearrangement",
]
