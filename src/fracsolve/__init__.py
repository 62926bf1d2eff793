"""Solver for a doubly nonlocal Dirichlet problem: a fractional
(p,q)-Laplacian driven by a weakly singular reaction plus a convective
term that depends on the Riesz fractional gradient of the solution.

Typical entry points:

* :func:`fracsolve.config.load_config` — parse and validate a JSON run
  configuration (defaults filled and logged, parameter window checked).
* :func:`fracsolve.driver.build_instance` / :func:`fracsolve.driver.solve_problem`
  — assemble the discrete problem and run the frozen-convection fixed
  point from the certified sub-solution floor.
* :mod:`fracsolve.cli` — the ``fracsolve`` command-line interface.
"""

from .config import ConfigError, HypothesisError, RunConfig, load_config
from .driver import (
    GrowthBound,
    OuterOptions,
    ProblemInstance,
    SolveReport,
    apply_T,
    build_instance,
    fit_growth_bound,
    solve_problem,
    verify_solution,
)
from .frozen import FrozenProblem, solve_frozen
from .gagliardo import Operator, OperatorParams, assemble_weights, seminorm
from .grids import Grid, disk, interval, rectangle
from .optimize import MinimizerOptions
from .reaction import (
    ConvectiveReaction,
    HypothesisReport,
    ProblemExponents,
    SingularReaction,
    check_hypotheses,
)
from .riesz import plan_riesz_convolution, riesz_gradient
from .torsion import SubsolutionCertificate, select_sigma, solve_torsion

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvectiveReaction",
    "FrozenProblem",
    "Grid",
    "GrowthBound",
    "HypothesisError",
    "HypothesisReport",
    "MinimizerOptions",
    "Operator",
    "OperatorParams",
    "OuterOptions",
    "ProblemExponents",
    "ProblemInstance",
    "RunConfig",
    "SingularReaction",
    "SolveReport",
    "SubsolutionCertificate",
    "apply_T",
    "assemble_weights",
    "build_instance",
    "check_hypotheses",
    "disk",
    "fit_growth_bound",
    "interval",
    "load_config",
    "plan_riesz_convolution",
    "rectangle",
    "riesz_gradient",
    "select_sigma",
    "seminorm",
    "solve_frozen",
    "solve_problem",
    "solve_torsion",
    "verify_solution",
    "__version__",
]
