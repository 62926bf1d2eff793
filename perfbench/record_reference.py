"""Record the answers the benchmark's gates compare against.

    python3 perfbench/record_reference.py

Run from the root of a fracsolve checkout.  For each solve workload it
stores the solution ``u`` at the config's tolerances and its ``slack``: the
largest distance, as a share of max u, to the solution with inner and outer
tolerances 100x tighter (monitor off, larger budgets).  For ``tables-disk``
it stores norms and tail statistics of both tables.  Writes
``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    from run import OUT_DIR, pin_threads

    pin_threads()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("FRACSOLVE_CACHE", None)

    import numpy as np
    from fracsolve import config, driver
    from workloads import WORKLOADS, Phase, run_op, write_config

    work_dir = root / OUT_DIR
    work_dir.mkdir(exist_ok=True)
    refs = {}
    for w in WORKLOADS.values():
        cfg = config.load_config(str(write_config(root, w.config, w.resolution, 0, work_dir)))
        grid = cfg.build_grid()
        rec = run_op(w, cfg, grid, None, Phase(), work_dir, 0)
        if rec["errors"]:
            raise SystemExit(f"{w.name}: {rec['errors']}")
        if w.kind == "tables":
            refs[w.name] = {"tables": rec["tables"]}
            continue
        tight = replace(cfg.minimizer, tol=cfg.minimizer.tol / 100, max_iter=50 * cfg.minimizer.max_iter)
        outer = replace(cfg.outer, tol=cfg.outer.tol / 100, max_outer=200, ball_monitor=False)
        inst = driver.build_instance(grid, cfg.exponents, cfg.reaction, cfg.convective, frozen_options=tight)
        fine = driver.solve_problem(inst, outer)
        u = rec["u"]
        slack = float(np.max(np.abs(u - grid.pack(fine.u))) / np.max(np.abs(u)))
        refs[w.name] = {
            "resolution": w.resolution,
            "final_residual": rec["final_residual"],
            "u_sha256": rec["u_sha256"],
            "slack": slack,
            "u": [float(x) for x in u],
        }
        print(w.name, "slack", slack, "tight converged", fine.converged, flush=True)
    (HERE / "reference.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
