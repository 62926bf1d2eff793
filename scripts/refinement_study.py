#!/usr/bin/env python3
"""Grid-refinement study on the 1D interval problem.

Solves the same parameter set at increasing resolutions and reports how
the floor certificate, the Hopf ratio, and the solution at shared nodes
stabilize.  Shared nodes are the coarsest grid's nodes, which every
finer lattice contains.

Usage:  python3 scripts/refinement_study.py [--resolutions 9 17 33]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fracsolve.config import load_config  # noqa: E402
from fracsolve.driver import build_instance, solve_problem  # noqa: E402
from fracsolve.grids import Grid  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--resolutions", type=int, nargs="+", default=[9, 17, 33],
        help="node counts, coarsest first; each should refine the coarsest",
    )
    args = ap.parse_args()
    cfg = load_config(str(ROOT / "configs" / "interval_1d.json"))

    rows = []
    for res in args.resolutions:
        grid = Grid(cfg.build_domain(), res)
        inst = build_instance(
            grid, cfg.exponents, cfg.reaction, cfg.convective,
            frozen_options=cfg.minimizer,
        )
        report = solve_problem(inst, cfg.outer, seed=cfg.seed)
        rows.append((res, grid, inst, report))
        print(
            f"res={res:3d}  interior={grid.n_interior:3d}  "
            f"converged={report.converged}  outer={report.outer_iterations:2d}  "
            f"residual={report.final_residual:.3e}  "
            f"sigma={inst.certificate.sigma:.4e}  "
            f"eta={inst.certificate.eta:.4f}  "
            f"max_u={float(np.max(report.u)):.5f}"
        )

    coarse_res, coarse_grid, _, coarse_rep = rows[0]
    xs = coarse_grid.points[:, 0]
    for res, grid, _, report in rows[1:]:
        fine_x = grid.points[:, 0]
        idx = np.searchsorted(fine_x, xs)
        matched = np.isclose(fine_x[np.clip(idx, 0, fine_x.size - 1)], xs, atol=1e-12)
        if not np.all(matched):
            print(f"res={res}: grids do not share the coarse nodes, skipping diff")
            continue
        diff = np.max(np.abs(report.u[idx] - coarse_rep.u))
        print(f"max |u_{res} - u_{coarse_res}| at shared nodes: {diff:.4e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
