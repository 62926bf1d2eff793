"""The objective shared by the torsion and frozen solves.

Every solve minimizes

    E(u) = energy_{s1,p}(u) + energy_{s2,q}(u)
           - vol * sum_i [F(u_i) + load_i * u_i],

a separable forcing F plus a per-node load against the two operator
forms.  The frozen-convection problem takes F~, the antiderivative of the
floor-truncated forcing, and the load g(x, xi) for the fractional
gradient xi of an outer iterate; the torsion problem takes F(t) = sigma t
and no load.  The truncation shields the singular forcing, so E and its
gradient are finite for every real state and the minimization runs
unconstrained; the lower bound u >= floor is certified on the outcome,
never enforced.  The solves pass the dense Hessian to the minimizer,
which takes Newton steps wherever it is positive definite.

The forms do not depend on the forcing or the load, so the objective is
the two form energies at u minus O(n) terms, and its gradient the summed
form gradient minus O(n) terms.  Both read the forms through
``gagliardo.forms``, whose ``Operator`` keeps the last point it
evaluated.  A run builds one operator and every frozen problem of the run
shares it, so the gradient of a trial whose energy was just taken, and
any frozen problem at that point (a warm start at the last answer under a
new load, the verify of an answer), cost O(n) and give the bits of a new
pass.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .gagliardo import Operator, forms, operator_gradient, workspace_hessian
from .grids import Grid
from .optimize import MinimizeResult, MinimizerOptions, minimize_energy, scaled_norm


class FrozenProblem:
    """One instance of the objective: the ``operator`` over the run's
    ((s1,p)-table, (s2,q)-table) pair, the separable forcing ``trunc`` with
    ``f``, its antiderivative ``F`` and its derivative ``df`` at interior
    states (frozen solves also start from its positive ``floor``), and the
    ``load``, one value per interior node."""

    def __init__(self, operator: Operator, trunc, load):
        self.operator = operator
        self.trunc = trunc
        self.load = self.grid.interior_vector(load)

    @property
    def grid(self) -> Grid:
        return self.operator.grid


def frozen_energy(prob: FrozenProblem, u) -> float:
    """The objective E(u), composed in float64.  Its rounding error is
    summation noise, which line searches tolerate up to optimize.EPS |E|.
    The forms come from one pass that also keeps their gradient at u, so
    frozen_gradient at the same point costs O(n)."""
    uv = prob.grid.interior_vector(u)
    vol = prob.grid.cell_volume
    total = sum(forms(prob.operator, uv).energies)
    total -= vol * float(np.sum(prob.trunc.F(uv)))
    total -= vol * float(np.sum(prob.load * uv))
    return total


def frozen_gradient(prob: FrozenProblem, u) -> np.ndarray:
    """Nodal gradient of the objective = weak-form residual vector: pairing
    entry i with the nodal basis reproduces the two operator forms minus
    the forcing and the load.  The two are subtracted in one step; two
    separate subtractions round differently and change the iterates."""
    uv = prob.grid.interior_vector(u)
    vol = prob.grid.cell_volume
    grad = operator_gradient(prob.operator, uv)
    grad -= vol * (prob.trunc.f(uv) + prob.load)
    return grad


def frozen_hessian(prob: FrozenProblem, u) -> np.ndarray:
    """Dense Hessian of the objective: the Hessian of the two operator
    forms minus vol * f'(u) on the diagonal.  The truncated forcing is
    constant at or below the floor, so there its derivative is 0.  The
    array is the operator's Hessian workspace (workspace_hessian), which
    the next Hessian of any problem on the same operator overwrites."""
    uv = prob.grid.interior_vector(u)
    hess = workspace_hessian(prob.operator, uv)
    hess[np.diag_indices(uv.size)] -= prob.grid.cell_volume * prob.trunc.df(uv)
    return hess


def weak_residual(prob: FrozenProblem, u) -> float:
    """Scaled norm of the weak-form residual vector over interior nodes."""
    return scaled_norm(frozen_gradient(prob, u))


def default_tol(dim: int) -> float:
    """Residual target sized to desk-scale grids: 1e-6 in 1D, 1e-5 in 2D.
    The config defaults of the inner and the outer tolerance."""
    return 1e-6 if dim == 1 else 1e-5


def solve_frozen(prob: FrozenProblem, options: MinimizerOptions, start=None) -> MinimizeResult:
    """Minimize the frozen objective from the interior vector ``start``
    clipped to the floor, or from the floor itself when no start is given.
    A start near the minimizer, such as the answer to a nearby frozen
    problem, cuts the descent iterations; the stopping test is the same
    from every start.

    The result's ``x`` is the accepted iterate, unclipped.  An iterate
    more than the tolerance below the floor is reported as not converged.
    Non-convergence returns the best iterate with the failure flagged
    rather than raising.
    """
    floor = prob.trunc.floor
    x0 = floor if start is None else prob.grid.interior_vector(start)
    result = minimize_energy(
        lambda u: frozen_energy(prob, u),
        lambda u: frozen_gradient(prob, u),
        np.maximum(x0, floor),
        options,
        lambda u: frozen_hessian(prob, u),
        prob.operator,
    )
    bound_gap = float(np.min(result.x - floor))
    if result.converged and bound_gap < -options.tol:
        return replace(
            result,
            converged=False,
            message=f"solution dips {abs(bound_gap):.3e} below the floor",
        )
    return result

