"""Constant-forcing solves and the positive floor field they certify.

solve_torsion minimizes  energy_{s1,p}(u) + energy_{s2,q}(u) - sigma *
integral(u); its small-sigma solutions are strictly positive, vanish with
sigma, and satisfy the nodal inequality  <operator u, e_i>  <=  f(x_i,
u(x_i)) * cell_volume  whenever sigma stays below the forcing on the
range of u.  select_sigma halves sigma until that regime is certified and
records the boundary-distance lower bound eta = min u / d^exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gagliardo import PairWeightTable, energy_accumulator, operator_gradient
from .grids import Grid, ScalarField
from .optimize import MinimizerOptions, MinimizeResult, minimize_energy
from .reaction import ProblemExponents, SingularReaction, f_eval, liminf_at_zero

_MAX_HALVINGS = 60
_RESONANCE_TOL = 1e-12
_COLLISION_TOL = 1e-9


@dataclass
class SubsolutionCertificate:
    """Floor field with the constants that witnessed its construction."""

    lower: ScalarField
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


def check_operator_tables(grid: Grid, exponents: ProblemExponents, tables) -> tuple:
    """Validate a ((s1,p)-table, (s2,q)-table) pair against grid and exponents."""
    tp, tq = tables
    for table, s_want, e_want in ((tp, exponents.s1, exponents.p), (tq, exponents.s2, exponents.q)):
        if not isinstance(table, PairWeightTable):
            raise TypeError("tables must be a (s1,p)-table, (s2,q)-table pair")
        if table.grid is not grid:
            raise ValueError("weight table was assembled on a different grid")
        if abs(table.params.s - s_want) > 1e-14 or abs(table.params.p - e_want) > 1e-14:
            raise ValueError(
                f"table order ({table.params.s},{table.params.p}) does not match "
                f"exponents ({s_want},{e_want})"
            )
    return tp, tq


def solve_torsion(
    sigma: float,
    exponents: ProblemExponents,
    grid: Grid,
    tables,
    options: MinimizerOptions | None = None,
) -> ScalarField:
    """Minimize the double-operator energy against constant forcing sigma."""
    if sigma <= 0.0:
        raise ValueError(f"forcing sigma must be positive, got {sigma}")
    tp, tq = check_operator_tables(grid, exponents, tables)
    vol = grid.cell_volume
    if options is None:
        # scale the stationarity target with the forcing so tiny sigma can
        # never accept the zero field, and floor it above fp noise
        options = MinimizerOptions(tol=max(1e-14, 1e-8 * sigma * vol))
    forcing = np.longdouble(sigma) * np.longdouble(vol)

    def fun(u):
        # compose in extended precision and round once: the line search
        # distinguishes energies that differ below one float64 ulp
        total = energy_accumulator(tp, u, tq)
        return float(total - forcing * np.sum(u, dtype=np.longdouble))

    def grad(u):
        return operator_gradient(tp, u, tq) - sigma * vol

    result = minimize_energy(fun, grad, np.zeros(grid.n_interior), options)
    if not result.converged:
        raise RuntimeError(
            f"torsion solve stalled at scaled residual {result.residual:.3e} "
            f"after {result.iterations} iterations ({result.message})"
        )
    return grid.unpack(result.x)


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


def hopf_ratio(lower: ScalarField, distance: ScalarField, exponent: float) -> float:
    """Largest eta with  eta * d^exponent <= lower  at interior nodes."""
    grid = lower.grid
    u = grid.pack(lower)
    if np.any(u <= 0.0):
        raise ValueError("lower field must be strictly positive on interior nodes")
    d = grid.pack(distance)
    return float(np.min(u / d**exponent))


def _admissible_delta(reaction: SingularReaction, epsilon: float) -> float:
    """Largest state below which the forcing certainly exceeds epsilon,
    capped at 1."""
    if reaction.family == "singular":
        return min(1.0, (reaction.c1 / epsilon) ** (1.0 / reaction.gamma))
    return min(1.0, (reaction.c1 / epsilon) ** (1.0 / reaction.gamma) - 1.0)


def select_sigma(
    reaction: SingularReaction,
    exponents: ProblemExponents,
    grid: Grid,
    tables,
    epsilon: float | None = None,
    options: MinimizerOptions | None = None,
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
    pts = grid.interior_points

    sigma = epsilon / 2.0
    for halvings in range(_MAX_HALVINGS + 1):
        u = solve_torsion(sigma, exponents, grid, tables, options)
        vals = grid.pack(u)
        sup = float(np.max(np.abs(vals)))
        positive = bool(np.all(vals > 0.0))
        if positive and sup < delta:
            forcing = f_eval(reaction, pts, vals)
            if np.all(sigma < forcing):
                exponent = hopf_exponent(exponents)
                eta = hopf_ratio(u, grid.distance_field(), exponent)
                return SubsolutionCertificate(
                    lower=u,
                    sigma=sigma,
                    eta=eta,
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
