"""Optimal exit-rate computation for controlled diffusions on boxes.

The package discretizes a killed controlled diffusion on a box, finds the
policy with the largest (or smallest) principal decay rate, builds the
conditioned-on-survival process, and cross-checks the result against a
linear-programming formulation over occupation measures and against Monte
Carlo simulation.
"""

from .errors import (
    EllipticityViolation,
    ExitRateError,
    IllConditioned,
    Infeasible,
    NoCertificate,
    NoConvergence,
    NonconformingSpacing,
    NonFiniteCoefficient,
    NonPositiveEigenvector,
    NullVectorNotUnique,
    TooFewSurvivors,
    TooLarge,
    TooLargeForDense,
)
from .problems import (
    ProblemSpec,
    ValidatedProblem,
    builtin_catalog,
    load_problem,
    problem_by_name,
    save_problem,
    validate_problem,
    with_bounds,
)
from .grid import Grid, Generator, assemble_generator, build_grid, discrete_gradient
from .eigen import EigenPair, principal_eigenpair
from .control import (
    PolicyIterationTrace,
    enumerate_policies,
    hjb_residual,
    policy_improve,
    policy_iteration,
)
from .qprocess import (
    LyapunovCertificate,
    QProcessModel,
    SurvivalReport,
    doob_transform,
    girsanov_check,
    lyapunov_certificate,
    rayleigh_identity,
    stationary_measures,
    survival_asymptotics,
    verify_uniform_ergodicity,
)

__version__ = "0.1.0"

__all__ = [
    "EigenPair",
    "EllipticityViolation",
    "ExitRateError",
    "Generator",
    "Grid",
    "IllConditioned",
    "Infeasible",
    "LyapunovCertificate",
    "NoCertificate",
    "NoConvergence",
    "NonconformingSpacing",
    "NonFiniteCoefficient",
    "NonPositiveEigenvector",
    "NullVectorNotUnique",
    "PolicyIterationTrace",
    "ProblemSpec",
    "QProcessModel",
    "SurvivalReport",
    "TooFewSurvivors",
    "TooLarge",
    "TooLargeForDense",
    "ValidatedProblem",
    "assemble_generator",
    "build_grid",
    "builtin_catalog",
    "discrete_gradient",
    "doob_transform",
    "enumerate_policies",
    "girsanov_check",
    "hjb_residual",
    "load_problem",
    "lyapunov_certificate",
    "policy_improve",
    "policy_iteration",
    "principal_eigenpair",
    "problem_by_name",
    "rayleigh_identity",
    "save_problem",
    "stationary_measures",
    "survival_asymptotics",
    "validate_problem",
    "verify_uniform_ergodicity",
    "with_bounds",
    "__version__",
]
