"""Accuracy against the continuum: the discrete p = 2 torsion answer on the
unit ball against Getoor's closed form (support.oracles.getoor_torsion).

At p = 2 one table's Hessian (workspace_hessian) is constant, so the
discrete torsion answer at sigma = 1 is u = H^-1 (vol 1).  The error is
the largest over the nodes with |x| < 1/2, relative to max u, away from
the boundary layer; the rate is the exponent of the cell width h at which
it falls between successive grids.

Where p (1 - s) >= 1 it falls as about h in 1D.  Where p (1 - s) < 1 the
near field drops each cell's self-pair, and the error is uniform over the
domain and falls as about h^(2 - 2s): those cases are strict xfails until
the near field is consistent (ROADMAP item 13).
"""

import math

import numpy as np
import pytest

from fracsolve.gagliardo import Operator, OperatorParams, assemble_weights, workspace_hessian
from fracsolve.grids import Grid, disk, interval
from support.oracles import getoor_torsion

# successive 1D grids halve h; the disk's two grids span h 1/8 to 1/20
_1D_RESOLUTIONS = (65, 129, 257, 513)
_DISK_RESOLUTIONS = (17, 41)
_RATE = 0.9


def _centre_error(domain, resolution, s):
    grid = Grid(domain, resolution)
    hess = workspace_hessian(
        Operator(assemble_weights(grid, OperatorParams(s, 2.0))), np.ones(grid.n_interior)
    )
    u = np.linalg.solve(hess, np.full(grid.n_interior, grid.cell_volume))
    x = grid.interior_points
    want = getoor_torsion(x, s)
    centre = np.sum(x**2, axis=1) < 0.25
    return float(np.max(np.abs(u - want)[centre])) / float(np.max(want)), grid.cell_volume


def _rates(domain, resolutions, s):
    """The observed rates between successive resolutions, with the errors."""
    runs = [_centre_error(domain, r, s) for r in resolutions]
    dim = domain.dim
    rates = [
        math.log(e0 / e1) / math.log((v0 / v1) ** (1.0 / dim))
        for (e0, v0), (e1, v1) in zip(runs, runs[1:])
    ]
    return rates, [e for e, _ in runs]


_INCONSISTENT = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 13: where p (1 - s) < 1 the near field drops each "
    "cell's self-pair, and the error falls as about h^(2 - 2s)",
)


class TestGetoorOracle:
    def test_oracle_is_the_closed_form_at_the_centre(self):
        # s = 1/2 in 1D: Gamma(1/2) = sqrt(pi), so u(0) = 1 / (2 pi)
        assert getoor_torsion(np.zeros((1, 1)), 0.5)[0] == pytest.approx(0.5 / math.pi, rel=1e-15)
        assert getoor_torsion(np.array([[1.0], [2.0]]), 0.3).tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("s", [0.3, 0.5])
    def test_1d_rate(self, s):
        rates, errors = _rates(interval(-1.0, 1.0), _1D_RESOLUTIONS, s)
        assert errors[-1] < 2e-3
        assert min(rates) >= _RATE, rates

    @pytest.mark.parametrize("s", [pytest.param(s, marks=_INCONSISTENT) for s in (0.75, 0.9)])
    def test_1d_rate_where_p_one_minus_s_is_below_one(self, s):
        rates, _ = _rates(interval(-1.0, 1.0), _1D_RESOLUTIONS, s)
        assert min(rates) >= _RATE, rates

    @pytest.mark.parametrize("s", [pytest.param(s, marks=_INCONSISTENT) for s in (0.75, 0.9)])
    def test_disk_rate_where_p_one_minus_s_is_below_one(self, s):
        rates, _ = _rates(disk(0.0, 0.0, 1.0), _DISK_RESOLUTIONS, s)
        assert min(rates) >= _RATE, rates
