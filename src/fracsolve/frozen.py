"""Auxiliary problem with the convective term frozen at a fixed field.

Given a precomputed fractional gradient xi of some outer iterate, the
problem minimizes

    E(u) = energy_{s1,p}(u) + energy_{s2,q}(u)
           - integral of F~(x, u) - integral of g(x, xi) * u,

where F~ is the antiderivative of the floor-truncated forcing.  The
truncation shields the singular forcing, so E and its gradient are finite
for every real state and the minimization runs unconstrained; the lower
bound u >= floor is certified on the outcome, never enforced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .gagliardo import PairWeightTable, energy_accumulator, operator_gradient
from .grids import Grid, ScalarField, VectorField
from .optimize import MinimizerOptions, minimize_energy
from .reaction import ConvectiveReaction, ProblemExponents, check_hypotheses, g_eval
from .torsion import check_operator_tables


class FrozenProblem:
    """Frozen-convection instance: operators, truncated forcing, and the
    fixed convective field xi (one gradient vector per node).

    ``trunc`` needs ``floor`` (positive interior vector), ``f`` and ``F``
    (truncated forcing and its antiderivative at interior states).
    """

    def __init__(
        self,
        grid: Grid,
        exponents: ProblemExponents,
        trunc,
        convective: ConvectiveReaction,
        xi: VectorField,
        tables,
    ):
        self.grid = grid
        self.exponents = exponents
        self.trunc = trunc
        self.convective = convective
        self.xi = xi
        self.tables = check_operator_tables(grid, exponents, tables)
        if xi.grid is not grid:
            raise ValueError("convective field lives on a different grid")
        floor = np.asarray(trunc.floor, dtype=float)
        if floor.shape != (grid.n_interior,) or np.any(floor <= 0.0):
            raise ValueError("truncation floor must be positive on interior nodes")
        self.g_at_xi = np.asarray(g_eval(convective, xi.interior), dtype=float)
        if self.g_at_xi.shape != (grid.n_interior,):
            raise ValueError("convective coefficient must be one value per node")


@dataclass
class FrozenSolveResult:
    field: ScalarField
    raw: ScalarField
    residual: float
    converged: bool
    iterations: int
    lower_bound_ok: bool
    message: str = ""


def _interior_state(prob: FrozenProblem, u) -> np.ndarray:
    if isinstance(u, ScalarField):
        return prob.grid.pack(u)
    vec = np.asarray(u, dtype=float)
    if vec.shape != (prob.grid.n_interior,):
        raise ValueError(f"expected {prob.grid.n_interior} interior values")
    return vec


def scaled_norm(vec) -> float:
    """||r||_2 / sqrt(n): invariant under duplicating the node set."""
    r = np.asarray(vec, dtype=float)
    return float(np.linalg.norm(r)) / math.sqrt(max(r.size, 1))


def frozen_energy(prob: FrozenProblem, u) -> float:
    """Truncated objective; composed in extended precision and rounded once
    so line searches resolve descent below one float64 ulp of the total."""
    uv = _interior_state(prob, u)
    tp, tq = prob.tables
    vol = np.longdouble(prob.grid.cell_volume)
    total = energy_accumulator(tp, uv, tq)
    total -= vol * np.sum(prob.trunc.F(uv), dtype=np.longdouble)
    total -= vol * np.sum(prob.g_at_xi * uv, dtype=np.longdouble)
    return float(total)


def frozen_gradient(prob: FrozenProblem, u) -> np.ndarray:
    """Nodal gradient of the objective = weak-form residual vector: pairing
    entry i with the nodal basis reproduces the two operator forms minus
    the truncated forcing and the frozen convective pairing."""
    uv = _interior_state(prob, u)
    tp, tq = prob.tables
    vol = prob.grid.cell_volume
    grad = operator_gradient(tp, uv, tq)
    grad -= vol * (np.asarray(prob.trunc.f(uv), dtype=float) + prob.g_at_xi)
    return grad


def weak_residual(prob: FrozenProblem, u) -> float:
    """Scaled norm of the weak-form residual vector over interior nodes."""
    return scaled_norm(frozen_gradient(prob, u))


def default_frozen_options(grid: Grid) -> MinimizerOptions:
    """Residual targets sized to desk-scale grids: 1e-6 in 1D, 1e-5 in 2D."""
    return MinimizerOptions(tol=1e-6 if grid.dim == 1 else 1e-5)


def solve_frozen(
    prob: FrozenProblem, options: MinimizerOptions | None = None
) -> FrozenSolveResult:
    """Minimize the frozen objective from the floor.

    The returned ``raw`` field is the accepted iterate; ``field`` clips it
    to the floor for reporting.  Non-convergence returns the best iterate
    with the failure flagged rather than raising.
    """
    opts = options or default_frozen_options(prob.grid)
    floor = np.asarray(prob.trunc.floor, dtype=float)

    def fun(u):
        return frozen_energy(prob, u)

    def grad(u):
        return frozen_gradient(prob, u)

    result = minimize_energy(fun, grad, floor.copy(), opts)
    raw = result.x
    bound_gap = float(np.min(raw - floor))
    bound_ok = bound_gap >= -opts.tol
    converged = bool(result.converged and bound_ok)
    message = result.message
    if result.converged and not bound_ok:
        message = f"solution dips {abs(bound_gap):.3e} below the floor"
    return FrozenSolveResult(
        field=prob.grid.unpack(np.maximum(raw, floor)),
        raw=prob.grid.unpack(raw),
        residual=result.residual,
        converged=converged,
        iterations=result.iterations,
        lower_bound_ok=bound_ok,
        message=message,
    )


def uniqueness_probe(
    prob: FrozenProblem,
    options: MinimizerOptions | None = None,
    starts=None,
    threshold: float = 1e-6,
) -> float:
    """Solve from two distinct starts and report the sup-norm discrepancy.

    Requires the decreasing-ratio family condition r < q - 1; otherwise the
    probe is skipped with NaN.  Solves run two orders tighter than the
    comparison threshold so solver slack cannot masquerade as a uniqueness
    gap.  Failed solves make the probe inconclusive (NaN + warning).
    """
    base = getattr(prob.trunc, "base", None)
    if base is None:
        warnings.warn("probe needs the untruncated forcing family; uniqueness skipped")
        return float("nan")
    report = check_hypotheses(prob.exponents, base, prob.convective)
    if not report.uniqueness_ready:
        warnings.warn(
            "decreasing-ratio condition r < q-1 not certified: uniqueness probe skipped"
        )
        return float("nan")

    floor = np.asarray(prob.trunc.floor, dtype=float)
    if starts is None:
        d = prob.grid.pack(prob.grid.distance_field())
        bump = float(np.max(floor)) * d / float(np.max(d))
        starts = (floor.copy(), 10.0 * floor + bump)
    opts = options or MinimizerOptions(tol=threshold / 100.0)

    solutions = []
    for start in starts:
        res = minimize_energy(
            lambda u: frozen_energy(prob, u),
            lambda u: frozen_gradient(prob, u),
            np.asarray(start, dtype=float).copy(),
            opts,
        )
        if not res.converged:
            warnings.warn(
                f"frozen solve from a probe start did not converge ({res.message}); "
                "probe inconclusive"
            )
            return float("nan")
        solutions.append(res.x)
    return float(np.max(np.abs(solutions[0] - solutions[1])))
