"""Constant-forcing solves and the positive floor field they certify.

solve_torsion minimizes  energy_{s1,p}(u) + energy_{s2,q}(u) - sigma *
integral(u), the objective of frozen.py with constant forcing sigma and
no load; its small-sigma solutions are strictly positive, vanish with
sigma, and satisfy the nodal inequality  <operator u, e_i>  <=  f(x_i,
u(x_i)) * cell_volume  whenever sigma stays below the forcing on the
range of u.  select_sigma halves sigma until that regime is certified and
records the boundary-distance lower bound eta = min u / d^exponent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .frozen import (
    FrozenProblem,
    check_operator_tables,
    frozen_energy,
    frozen_gradient,
    frozen_hessian,
)
from .gagliardo import energy
from .grids import Grid
from .optimize import MinimizerOptions, bisect_root, minimize_energy
from .reaction import ProblemExponents, SingularReaction, f_eval, liminf_at_zero

_MAX_HALVINGS = 60
_RESONANCE_TOL = 1e-12
_COLLISION_TOL = 1e-9
_FLOOR_LOG = "floor halving %d: sigma %.6e, sup norm %.3e, %s"
_SOLVE_LOG = "torsion solve: sigma %.6e, %d Newton steps, %d inner iterations"

logger = logging.getLogger("fracsolve.torsion")
# one line per torsion solve, ahead of the floor line that judges it
logger_solve = logging.getLogger("fracsolve.torsion.solve")


@dataclass
class SubsolutionCertificate:
    """Floor, as the interior vector of the certified torsion solve, with
    the constants that witnessed its construction."""

    lower: np.ndarray
    sigma: float
    eta: float
    exponent: float
    epsilon: float
    delta: float
    sup_norm: float
    halvings: int

    def as_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "eta": self.eta,
            "exponent": self.exponent,
            "sup_norm": self.sup_norm,
            "epsilon": self.epsilon,
            "delta": self.delta,
            "halvings": self.halvings,
        }


@dataclass(frozen=True)
class ConstantForcing:
    """The torsion forcing: f = sigma at every node, F(t) = sigma * t."""

    sigma: float

    def f(self, t):
        return np.full(np.shape(t), self.sigma)

    def df(self, t):
        return np.zeros(np.shape(t))

    def F(self, t):
        return self.sigma * np.asarray(t, dtype=float)


def torsion_objective(
    sigma: float, exponents: ProblemExponents, grid: Grid, tables
) -> FrozenProblem:
    """The shared objective with constant forcing sigma and no load."""
    if sigma <= 0.0:
        raise ValueError(f"forcing sigma must be positive, got {sigma}")
    tables = check_operator_tables(grid, exponents, tables)
    return FrozenProblem(tables, ConstantForcing(sigma), np.zeros(grid.n_interior))


def solve_torsion(
    sigma: float,
    exponents: ProblemExponents,
    grid: Grid,
    tables,
    options: MinimizerOptions | None = None,
) -> np.ndarray:
    """Minimize the double-operator energy against constant forcing sigma,
    starting from the best constant field (the Hessian vanishes at zero);
    returns the interior vector."""
    prob = torsion_objective(sigma, exponents, grid, tables)
    if options is None:
        # scale the stationarity target with the forcing so tiny sigma can
        # never accept the zero field, and floor it above fp noise
        options = MinimizerOptions(tol=max(1e-14, 1e-8 * sigma * grid.cell_volume))
    result = minimize_energy(
        lambda u: frozen_energy(prob, u),
        lambda u: frozen_gradient(prob, u),
        _constant_start(prob),
        options,
        hess_fn=lambda u: frozen_hessian(prob, u),
    )
    logger_solve.info(_SOLVE_LOG, sigma, result.newton_steps, result.iterations)
    if not result.converged:
        raise RuntimeError(
            f"torsion solve stalled at scaled residual {result.residual:.3e} "
            f"after {result.iterations} iterations ({result.message})"
        )
    return result.x


def _constant_start(prob: FrozenProblem) -> np.ndarray:
    """t * 1 for the t > 0 that minimizes the objective along the constant
    interior vectors.  The forms are homogeneous, so the objective there is
    a t^p + b t^q - c t with a, b the form energies of 1, and t is the root
    of its increasing derivative."""
    ones = np.ones(prob.grid.n_interior)
    (a, p), (b, q) = ((energy(t, ones), t.params.p) for t in prob.tables)
    c = prob.trunc.sigma * prob.grid.cell_volume * ones.size

    def slope(t):
        return p * a * t ** (p - 1.0) + q * b * t ** (q - 1.0) - c

    # each term alone reaches c at its own t, so the larger t has slope >= 0
    hi = max((c / (p * a)) ** (1.0 / (p - 1.0)), (c / (q * b)) ** (1.0 / (q - 1.0)))
    return bisect_root(slope, 0.0, hi) * ones


def hopf_exponent(exponents: ProblemExponents) -> float:
    """Distance-power used in the lower bound: s1, except in the resonant
    case q' s2 = s1 where a slightly larger power avoids both resonances."""
    e = exponents
    if abs(e.q_prime * e.s2 - e.s1) > _RESONANCE_TOL:
        return e.s1
    alpha = e.s1 + min(0.05, (1.0 - e.s1) / 2.0)
    if (
        abs(alpha - e.q_prime * e.s2) < _COLLISION_TOL
        or abs(alpha - e.p_prime * e.s1) < _COLLISION_TOL
    ):
        alpha += 0.011
    return alpha


def hopf_ratio(u: np.ndarray, d: np.ndarray, exponent: float) -> float:
    """Largest eta with  eta * d^exponent <= u, for the interior vectors u
    and d (the distance to the boundary)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("values must be strictly positive at every interior node")
    return float(np.min(u / np.asarray(d, dtype=float) ** exponent))


def _admissible_delta(reaction: SingularReaction, epsilon: float) -> float:
    """Largest state below which the forcing certainly exceeds epsilon,
    capped at 1."""
    return min(1.0, (reaction.c1 / epsilon) ** (1.0 / reaction.gamma) - reaction.shift)


def select_sigma(
    reaction: SingularReaction,
    exponents: ProblemExponents,
    grid: Grid,
    tables,
    epsilon: float | None = None,
) -> SubsolutionCertificate:
    """Halve sigma from epsilon/2 until the torsion solution is a certified
    floor: small sup norm, strictly positive, forcing above sigma at every
    node."""
    L = liminf_at_zero(reaction)
    if epsilon is None:
        epsilon = 1.0 if np.isinf(L) else L / 2.0
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if epsilon >= L:
        raise ValueError(
            f"epsilon {epsilon} must stay below the small-state forcing level {L}"
        )
    delta = _admissible_delta(reaction, epsilon)

    sigma = epsilon / 2.0
    for halvings in range(_MAX_HALVINGS + 1):
        vals = solve_torsion(sigma, exponents, grid, tables)
        sup = float(np.max(np.abs(vals)))
        certified = (
            bool(np.all(vals > 0.0))
            and sup < delta
            and bool(np.all(sigma < f_eval(reaction, vals)))
        )
        logger.info(_FLOOR_LOG, halvings, sigma, sup, "certified" if certified else "rejected")
        if certified:
            exponent = hopf_exponent(exponents)
            return SubsolutionCertificate(
                lower=vals,
                sigma=sigma,
                eta=hopf_ratio(vals, grid.interior_distance, exponent),
                exponent=exponent,
                epsilon=float(epsilon),
                delta=float(delta),
                sup_norm=sup,
                halvings=halvings,
            )
        sigma /= 2.0
    raise RuntimeError(
        f"no admissible sigma found after {_MAX_HALVINGS} halvings "
        f"(epsilon={epsilon}, delta={delta})"
    )
