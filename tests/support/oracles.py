"""Checks that only tests run: the dense weak pairing, the two-start
uniqueness probe, and the reader of ``write_field_csv`` files.

``apply_form`` pairs the operator with a test vector row by row against
the dense weight matrix, independently of the packed pair pass that
``gagliardo.operator_gradient`` walks.  ``uniqueness_probe`` solves one
frozen problem from two starts.  ``read_field_csv`` reads the field files
the CLI writes back into interior vectors.
"""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from fracsolve.frozen import FrozenProblem, frozen_energy, frozen_gradient
from fracsolve.gagliardo import PairWeightTable, _interior_vector, _signed_power
from fracsolve.grids import Grid
from fracsolve.optimize import MinimizerOptions, minimize_energy
from fracsolve.reaction import uniqueness_certified

_ROW_CHUNK = 512


def apply_form(table: PairWeightTable, u, phi) -> float:
    """Weak pairing of the monotone operator at u with a test vector phi."""
    uv = _interior_vector(table, u)
    pv = _interior_vector(table, phi)
    p = table.params.p
    pair = table.pair
    parts = []
    for a0 in range(0, uv.size, _ROW_CHUNK):
        du = uv[a0 : a0 + _ROW_CHUNK, None] - uv[None, :]
        dphi = pv[a0 : a0 + _ROW_CHUNK, None] - pv[None, :]
        parts.append(float(np.sum(pair[a0 : a0 + _ROW_CHUNK] * _signed_power(du, p) * dphi)))
    parts.append(2.0 * float(np.sum(table.tail * _signed_power(uv, p) * pv)))
    return math.fsum(parts)


def uniqueness_probe(
    prob: FrozenProblem,
    options: MinimizerOptions | None = None,
    starts=None,
) -> float:
    """Solve from two distinct starts and report the sup-norm discrepancy.

    Requires the decreasing-ratio family condition r < q - 1; otherwise the
    probe is skipped with NaN.  Solves run at scaled residual 1e-8, two
    orders below the 1e-6 discrepancy a probe is judged by, so solver slack
    cannot masquerade as a uniqueness gap.  Failed solves make the probe
    inconclusive (NaN + warning).
    """
    if not uniqueness_certified(prob.trunc.base, prob.tables[1].params.p):
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
