"""Constant-forcing solves and the positive floor field they certify.

The torsion problem is a frozen problem: solve_torsion builds the shared
objective of frozen.py with the constant forcing sigma, whose floor is
-inf, and no load, and minimizes it through frozen.solve_frozen from the
best constant field, to a scaled residual of rtol * sigma * cell_volume.
Its small-sigma solutions are strictly positive and vanish with sigma.

The floor is the subsolution of the sub-/supersolution scheme: at every
interior node it must satisfy the nodal inequality

    <operator u, e_i>  <=  f(x_i, u(x_i)) * cell_volume.

select_sigma checks that inequality directly on each candidate, with the
solve's own residual in it, rather than inferring it from an exact solve
and sigma < f.  The gradient of the operator at the candidate is the
operator's kept point, so the check costs O(n).  It therefore solves each
candidate only as far as the check needs (inexact Newton, Dembo,
Eisenstat and Steihaug, SIAM J. Numer. Anal. 19, 1982), at rtol
_FLOOR_RTOL, halves sigma until a candidate is certified, and records the
smallest nodal slack of the inequality and the boundary-distance lower
bound eta = min u / d^s1, with s1 the order of the operator's first
table.  The hypotheses exclude the resonance q' s2 = s1, so s1 is always
the distance power.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

from .frozen import FrozenProblem, solve_frozen
from .gagliardo import Operator, operator_gradient
from .optimize import MinimizerOptions, bisect_root
from .reaction import SingularReaction, f_eval, liminf_at_zero

_MAX_HALVINGS = 60
# residual of the floor's torsion solves, relative to sigma *
# cell_volume: the loosest power of ten with sqrt(NODE_CAP) * rtol < 1, so
# that the residual's share of the nodal check stays below one sigma vol
# while the forcing's share grows as sigma halves (select_sigma)
_FLOOR_RTOL = 1e-2
_FLOOR_LOG = "floor halving %d: sigma %.6e, sup norm %.3e, %s"
_SOLVE_LOG = "torsion solve: sigma %.6e, %s"

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
    sup_norm: float
    halvings: int
    slack: float

    def as_dict(self) -> dict:
        """Every constant, that is every field but the floor itself."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "lower"}


@dataclass(frozen=True)
class ConstantForcing:
    """The torsion forcing: f = sigma at every node, F(t) = sigma * t.  It
    is not truncated, so its floor is -inf: solve_frozen neither clips a
    start to it nor reports a dip below it."""

    sigma: float
    floor = -np.inf

    def f(self, t):
        return np.full(np.shape(t), self.sigma)

    def df(self, t):
        return np.zeros(np.shape(t))

    def F(self, t):
        return self.sigma * t


def torsion_objective(sigma: float, operator: Operator) -> FrozenProblem:
    """The shared objective with constant forcing sigma and no load."""
    if sigma <= 0.0:
        raise ValueError(f"forcing sigma must be positive, got {sigma}")
    return FrozenProblem(operator, ConstantForcing(sigma), np.zeros(operator.grid.n_interior))


def solve_torsion(sigma: float, operator: Operator, rtol: float) -> np.ndarray:
    """Minimize the energy of the operator over a ((s1,p)-table,
    (s2,q)-table) pair against constant forcing sigma with solve_frozen,
    starting from the best constant field (the Hessian vanishes at zero),
    to a scaled residual of rtol * sigma * cell_volume; returns the
    interior vector.
    The stationarity target scales with the forcing, so a tiny sigma can
    never accept the zero field, and is floored above fp noise."""
    prob = torsion_objective(sigma, operator)
    options = MinimizerOptions(tol=max(1e-14, rtol * sigma * prob.grid.cell_volume))
    result = solve_frozen(prob, options, _constant_start(prob))
    logger_solve.info(_SOLVE_LOG, sigma, result.counts)
    if not result.converged:
        raise RuntimeError(
            f"torsion solve stalled at scaled residual {result.residual:.3e} "
            f"after {result.iterations} iterations ({result.message})"
        )
    return result.x


def _constant_start(prob: FrozenProblem) -> np.ndarray:
    """t * 1 for the t > 0 that minimizes the objective along the constant
    interior vectors.  The forms are homogeneous, so the objective there is
    sum_k a_k t^p_k - c t over the operator's tables, a_k the form energies
    of 1, and t is the root of its increasing derivative.  Every pair
    difference of 1 vanishes, so a form's energy there is its tail term
    2 (T . 1) / p, with the bits of a pass (whose tail dot product is one
    BLAS call for n <= 2^16)."""
    ones = np.ones(prob.grid.n_interior)
    terms = [(2.0 * float(t.tail @ ones) / t.params.p, t.params.p) for t in prob.operator.tables]
    c = prob.trunc.sigma * prob.grid.cell_volume * ones.size

    def slope(t):
        return sum(p * a * t ** (p - 1.0) for a, p in terms) - c

    # each term alone reaches c at its own t, so the largest t has slope >= 0
    hi = max((c / (p * a)) ** (1.0 / (p - 1.0)) for a, p in terms)
    return bisect_root(slope, 0.0, hi) * ones


def hopf_ratio(u: np.ndarray, d: np.ndarray, exponent: float) -> float:
    """Largest eta with  eta * d^exponent <= u, for the interior vectors u
    and d (the distance to the boundary)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("values must be strictly positive at every interior node")
    return float(np.min(u / np.asarray(d, dtype=float) ** exponent))


def _nodal_slack(reaction: SingularReaction, operator: Operator, sigma: float, vals) -> float:
    """min_i (f(u_i) vol - <operator u, e_i>) / (sigma vol) at the strictly
    positive interior vector u = vals: nonnegative exactly where u
    satisfies the nodal subsolution inequality at every node, the
    residual of its solve included.  At the operator's kept point the
    gradient is read, not computed."""
    vol = operator.grid.cell_volume
    gap = f_eval(reaction, vals) * vol - operator_gradient(operator, vals)
    return float(np.min(gap)) / (sigma * vol)


def select_sigma(reaction: SingularReaction, operator: Operator) -> SubsolutionCertificate:
    """Halve sigma from epsilon/2 until the torsion solution, solved to
    _FLOOR_RTOL, is a certified floor: strictly positive, with the nodal
    subsolution inequality checked directly at every node (_nodal_slack
    >= 0).  epsilon is 1 for the singular family, whose forcing blows up
    at 0, and c1 / 2, half its limit at 0, for the bounded family.  The
    floor's distance power is s1, the order of the operator's first
    table.

    Halving ends: the solve's residual r = A u - sigma vol has RMS norm
    below rtol sigma vol, so the slack is at least min_i f(u_i) / sigma - 1
    - sqrt(n) _FLOOR_RTOL.  As sigma -> 0 the floor's sup norm -> 0, so
    f(u_i) / sigma grows without bound, like 1 / sigma or faster in the
    singular family and like c1 / sigma in the bounded one, while the
    residual's share stays at most sqrt(n) _FLOOR_RTOL < 1 for n <=
    gagliardo.NODE_CAP = 4096.  Once sigma vol < 1e-12 the solve's
    tolerance stops at its fp floor of 1e-14, and the residual's share
    grows like sqrt(n) 1e-14 / (sigma vol), which the forcing's outgrows
    where f > sqrt(n) 1e-14 / vol, about 3e-9 at 4096 nodes of a unit
    domain.  A loose solve that misses the check costs one halving, never
    a wrong certificate."""
    L = liminf_at_zero(reaction)
    epsilon = 1.0 if np.isinf(L) else L / 2.0

    for halvings in range(_MAX_HALVINGS + 1):
        sigma = epsilon / 2.0 ** (halvings + 1)
        vals = solve_torsion(sigma, operator, _FLOOR_RTOL)
        sup = float(np.max(np.abs(vals)))
        positive = bool(np.all(vals > 0.0))
        slack = _nodal_slack(reaction, operator, sigma, vals) if positive else -np.inf
        certified = slack >= 0.0
        logger.info(_FLOOR_LOG, halvings, sigma, sup, "certified" if certified else "rejected")
        if certified:
            exponent = operator.tables[0].params.s
            return SubsolutionCertificate(
                lower=vals,
                sigma=sigma,
                eta=hopf_ratio(vals, operator.grid.interior_distance, exponent),
                exponent=exponent,
                sup_norm=sup,
                halvings=halvings,
                slack=slack,
            )
    raise RuntimeError(
        f"no certified floor after {_MAX_HALVINGS} halvings: last candidate "
        f"sigma {sigma:.6e}, sup norm {sup:.3e}, slack {slack:.3e}"
    )
