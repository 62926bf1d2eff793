"""Self-check of the benchmark on tiny grids (a few seconds).

    python3 perfbench/selfcheck.py

Run from the root of a fracsolve checkout.  Checks that every trace hook
resolves and fires, that the traced spans' self times sum to each
operation's wall time minus the reported unattributed remainder, that
this remainder stays small, that the answer gates pass, and that a solver
exception becomes a failure record naming its phase.  Exits 1 on the first
failed check.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# share of an operation's wall time that may fall outside every traced span
# (the answer checks and the benchmark's own bookkeeping)
UNATTRIBUTED_MAX = 0.05


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main() -> None:
    from run import OUT_DIR, measure_op, pin_threads

    pin_threads()
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("FRACSOLVE_CACHE", None)

    from fracsolve import config, driver
    from spans import SPAN_HOOKS, Tracer
    from workloads import Workload, write_config

    work_dir = root / OUT_DIR
    work_dir.mkdir(exist_ok=True)
    tracer = Tracer()
    fired = set()
    cases = (
        Workload("tiny-solve-1d", "interval_1d.json", 17, "solve"),
        Workload("tiny-solve-disk", "disk_2d.json", 11, "solve"),
        Workload("tiny-tables-disk", "disk_2d.json", 11, "tables"),
    )
    for w in cases:
        cfg = config.load_config(str(write_config(root, w.config, w.resolution, 0, work_dir)))
        rec = measure_op(w, cfg, cfg.build_grid(), None, work_dir, 0, tracer)
        check(not tracer.missing, f"{w.name}: every hook resolves (missing: {tracer.missing})")
        check(not rec["errors"], f"{w.name}: answer gates pass {rec['errors']}")
        t = rec["trace"]
        attributed = sum(v for k, v in t["self_s"].items() if k != "op")
        check(
            t["accounting_ok"],
            f"{w.name}: self times {attributed:.6f} s + unattributed "
            f"{t['unattributed_s']:.6f} s = wall {t['wall_s']:.6f} s",
        )
        # the identity above holds by construction; this bound fails when a
        # top-level hook (build, solve, assemble) goes silent and its time
        # falls to the root span
        check(
            t["unattributed_s"] <= UNATTRIBUTED_MAX * t["wall_s"],
            f"{w.name}: unattributed {t['unattributed_s'] / t['wall_s']:.4f} of wall "
            f"<= {UNATTRIBUTED_MAX}",
        )
        fired |= set(t["inclusive_s"])
    expected = {name for _, _, name in SPAN_HOOKS} | {"optimize.minimize"}
    check(expected <= fired, f"every hook fires (silent: {sorted(expected - fired)})")

    # a torsion stall inside build_instance must become a record, not a crash
    def stall(*args, **kwargs):
        raise RuntimeError("torsion solve stalled (injected by the self-check)")

    saved = driver.select_sigma
    driver.select_sigma = stall
    try:
        w = cases[0]
        cfg = config.load_config(str(write_config(root, w.config, w.resolution, 0, work_dir)))
        plain = measure_op(w, cfg, cfg.build_grid(), None, work_dir, 0, None)
        traced = measure_op(w, cfg, cfg.build_grid(), None, work_dir, 0, tracer)
    finally:
        driver.select_sigma = saved
    check(
        plain.get("failure", {}).get("phase") == "build"
        and traced.get("failure", {}).get("phase") == "torsion.floor"
        and traced["failure"]["type"] == "RuntimeError",
        f"injected failure recorded: {plain.get('failure')} / {traced.get('failure')}",
    )
    check(driver.select_sigma is saved and not tracer._saved, "hooks uninstalled after a failure")


if __name__ == "__main__":
    main()
