"""Checks that only tests run: the dense weak pairing, a Hessian its caller
owns, the two-start uniqueness probe, the reader of ``write_field_csv``
files, and Getoor's closed-form torsion function of the unit ball.

``apply_form`` pairs the operator with a test vector row by row against
the dense weight matrix, independently of the packed pair pass that
``gagliardo.operator_gradient`` walks.  ``operator_hessian`` is the
Hessian that ``gagliardo.workspace_hessian`` fills, in the workspace of a
fresh operator that is dropped on return, so no later call overwrites it.
``uniqueness_probe`` solves one frozen problem from two starts.
``read_field_csv`` reads the field files the CLI writes back into
interior vectors.  ``getoor_torsion`` is the continuum answer that the
discrete p = 2 torsion solves approach.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from fracsolve.frozen import FrozenProblem, solve_frozen
from fracsolve.gagliardo import Operator, PairWeightTable, workspace_hessian
from fracsolve.grids import Grid
from fracsolve.optimize import MinimizerOptions
from fracsolve.reaction import uniqueness_certified

_ROW_CHUNK = 512


def _signed_power(t: np.ndarray, p: float) -> np.ndarray:
    """|t|^(p-1) sign(t), the derivative of |t|^p / p."""
    return np.sign(t) * np.abs(t) ** (p - 1.0)


def apply_form(table: PairWeightTable, u, phi) -> float:
    """Weak pairing of the monotone operator at u with a test vector phi."""
    uv = table.grid.interior_vector(u)
    pv = table.grid.interior_vector(phi)
    p = table.params.p
    pair = table.pair
    parts = []
    for a0 in range(0, uv.size, _ROW_CHUNK):
        du = uv[a0 : a0 + _ROW_CHUNK, None] - uv[None, :]
        dphi = pv[a0 : a0 + _ROW_CHUNK, None] - pv[None, :]
        parts.append(float(np.sum(pair[a0 : a0 + _ROW_CHUNK] * _signed_power(du, p) * dphi)))
    parts.append(2.0 * float(np.sum(table.tail * _signed_power(uv, p) * pv)))
    return math.fsum(parts)


def operator_hessian(op: Operator, u) -> np.ndarray:
    """The Hessian of ``op`` at u in a new array, which its caller owns."""
    return workspace_hessian(Operator(*op.tables), u)


def uniqueness_probe(
    prob: FrozenProblem,
    options: MinimizerOptions | None = None,
    starts=None,
) -> float:
    """Solve from two distinct starts with solve_frozen, which clips each to
    the floor, and report the sup-norm discrepancy.

    Requires the decreasing-ratio family condition r < q - 1; otherwise the
    probe is skipped with NaN.  Solves run at scaled residual 1e-8, two
    orders below the 1e-6 discrepancy a probe is judged by, so solver slack
    cannot masquerade as a uniqueness gap.  Failed solves make the probe
    inconclusive (NaN + warning).
    """
    if not uniqueness_certified(prob.trunc.base, prob.operator.tables[1].params.p):
        warnings.warn(
            "decreasing-ratio condition r < q-1 not certified: uniqueness probe skipped"
        )
        return float("nan")

    floor = prob.trunc.floor
    if starts is None:
        d = prob.grid.interior_distance
        bump = float(np.max(floor)) * d / float(np.max(d))
        starts = (floor.copy(), 10.0 * floor + bump)
    opts = options or MinimizerOptions(tol=1e-8)

    solutions = []
    for start in starts:
        res = solve_frozen(prob, opts, start)
        if not res.converged:
            warnings.warn(
                f"frozen solve from a probe start did not converge ({res.message}); "
                "probe inconclusive"
            )
            return float("nan")
        solutions.append(res.x)
    return float(np.max(np.abs(solutions[0] - solutions[1])))


def read_field_csv(grid: Grid, path) -> np.ndarray:
    """The interior vector of the ``u`` column of a csv produced by
    write_field_csv; every off-interior row must hold 0."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        value_col = header.index("u")
        values = np.array([float(row[value_col]) for row in reader])
    if values.shape != (grid.points.shape[0],):
        raise ValueError(
            f"csv holds {values.size} nodes, grid has {grid.points.shape[0]}"
        )
    if np.any(values[~grid.interior_mask] != 0.0):
        raise ValueError("csv holds a nonzero value off the interior")
    return values[grid.interior_idx]


def getoor_torsion(points, s: float, sigma: float = 1.0) -> np.ndarray:
    """The solution u of the continuum p = 2 torsion problem on the unit
    ball, at ``points`` (shape (n, N)): the minimizer of the Gagliardo
    energy (1/2) int int |u(x) - u(y)|^2 / |x - y|^(N + 2s) less sigma int
    u, whose gradient density is (2 / C_{N,s}) (-Delta)^s u.  Getoor's
    formula (Trans. AMS 101, 1961) with that constant folded in:

        u(x) = (sigma / 2) Gamma(N/2) / (pi^(N/2) Gamma(s) Gamma(1 - s))
               (1 - |x|^2)_+^s.
    """
    x = np.asarray(points, dtype=float)
    dim = x.shape[1]
    scale = 0.5 * sigma * math.gamma(0.5 * dim)
    scale /= math.pi ** (0.5 * dim) * math.gamma(s) * math.gamma(1.0 - s)
    return scale * np.maximum(0.0, 1.0 - np.sum(x**2, axis=1)) ** s
