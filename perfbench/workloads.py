"""Workloads of the fracsolve benchmark, one operation each, with answer gates.

An operation goes through the documented library path and checks its own
answer; a failed check or a solver exception becomes an error record on
the operation, never a crash of the run.

* ``solve`` operation: ``driver.build_instance`` then ``driver.solve_problem``.
  ``build_s`` times the first, ``reuse_s`` the second (the solve reuses the
  built instance), ``op_s`` both: the time to a certified solution.
* ``tables`` operation: ``gagliardo.assemble_weights`` for both operator
  tables into an empty private cache directory (``build_s``: compute plus
  write), then again from that directory (``reuse_s``: the warm read path).

A record's ``window`` holds the wall-clock interval of each timed step.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

CACHE_ENV = "FRACSOLVE_CACHE"

# Two answers that each meet the solver's stated inner and outer tolerances
# can sit on either side of the exact discrete solution.  The reference
# records how far the answer at the config's tolerances lies from one solved
# 100x tighter (as a share of max u); twice that distance is the gate.
U_TOL_FACTOR = 2.0

# Table assembly is closed-form quadrature with no iteration: across
# machines only the last bits of libm and summation order differ (about
# 1e-15), while changing any quadrature rule or weight moves these
# statistics by far more than 1e-9.
TABLE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # base config under configs/
    resolution: int
    kind: str  # "solve" or "tables"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-1d", "interval_1d.json", 129, "solve"),
        Workload("solve-disk", "disk_2d.json", 25, "solve"),
        Workload("tables-disk", "disk_2d.json", 61, "tables"),
    )
}


def write_config(root: Path, base: str, resolution: int, seed: int, out: Path) -> Path:
    """Base config with resolution and seed replaced; the seed draws the
    growth-fit samples."""
    raw = json.loads((root / "configs" / base).read_text())
    raw["resolution"] = resolution
    raw["seed"] = seed
    raw["cache_dir"] = None
    path = out / f"{Path(base).stem}-r{resolution}-s{seed}.json"
    path.write_text(json.dumps(raw, indent=1))
    return path


def sha256(arr: np.ndarray) -> str:
    """Digest of the array's float64 bytes, hashed in place without a copy."""
    return hashlib.sha256(np.ascontiguousarray(arr, dtype="<f8").data).hexdigest()


def checksum(vec: np.ndarray) -> str:
    return sha256(vec)[:16]


def table_stats(table) -> dict:
    pair, tail = table.pair, table.tail
    return {
        "n": int(tail.size),
        "pair_sum": float(np.sum(pair)),
        "pair_norm": float(np.linalg.norm(pair)),
        "tail_sum": float(np.sum(tail)),
        "tail_min": float(np.min(tail)),
        "tail_max": float(np.max(tail)),
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


class Phase:
    """Name of the step an operation is in, for failure records."""

    def __init__(self):
        self.name = "setup"


def solve_op(cfg, grid, reference: dict | None, phase: Phase) -> dict:
    from fracsolve import driver

    phase.name = "build"
    t0 = perf_counter()
    inst = driver.build_instance(
        grid, cfg.exponents, cfg.reaction, cfg.convective, frozen_options=cfg.minimizer
    )
    t1 = perf_counter()
    phase.name = "solve"
    report = driver.solve_problem(inst, cfg.outer, seed=cfg.seed)
    t2 = perf_counter()
    phase.name = "check"
    u = grid.pack(report.u)
    rec = {
        "build_s": t1 - t0,
        "reuse_s": t2 - t1,
        "op_s": t2 - t0,
        "window": {"build_s": (t0, t1), "reuse_s": (t1, t2)},
        "converged": bool(report.converged),
        "outer_iterations": report.outer_iterations,
        "final_residual": float(report.final_residual),
        "hopf_ratio": float(report.hopf_ratio),
        "u_max": float(np.max(u)),
        "u_sha256": checksum(u),
        "u": u,
        "errors": [],
    }
    errors = rec["errors"]
    if not report.converged:
        errors.append(f"not converged: {report.message}")
    if not report.final_residual < cfg.minimizer.tol:
        errors.append(f"final residual {report.final_residual:.3e} >= tol {cfg.minimizer.tol:.1e}")
    if not report.hopf_ratio > 0.0:
        errors.append(f"hopf ratio {report.hopf_ratio:.3e} is not positive")
    if reference is not None:
        u_ref = np.asarray(reference["u"], dtype=float)
        if u_ref.shape != u.shape:
            errors.append(f"u has {u.size} nodes, reference {u_ref.size}")
        else:
            dev = float(np.max(np.abs(u - u_ref)) / np.max(np.abs(u_ref)))
            tol = U_TOL_FACTOR * reference["slack"]
            rec["u_dev"] = dev
            if not dev <= tol:
                errors.append(f"u deviates {dev:.3e} of max u from the reference (tol {tol:.1e})")
    return rec


def _cache_files(cache: Path) -> dict:
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns, p.stat().st_ino) for p in cache.iterdir()}


def tables_op(cfg, grid, reference: dict | None, phase: Phase, cache: Path) -> dict:
    from fracsolve import gagliardo

    e = cfg.exponents
    params = (
        gagliardo.OperatorParams(s=e.s1, p=e.p),
        gagliardo.OperatorParams(s=e.s2, p=e.q),
    )
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    os.environ[CACHE_ENV] = str(cache)
    try:
        phase.name = "tables_cold"
        t0 = perf_counter()
        cold = [gagliardo.assemble_weights(grid, prm) for prm in params]
        t1 = perf_counter()
        written = _cache_files(cache)
        # digests stand in for the cold tables, so the warm read below is
        # the only allocation of its size and peak RSS is the program's own
        stats = [table_stats(t) for t in cold]
        cold_sha = [(sha256(t.pair), sha256(t.tail)) for t in cold]
        del cold
        phase.name = "tables_warm"
        t2 = perf_counter()
        warm = [gagliardo.assemble_weights(grid, prm) for prm in params]
        t3 = perf_counter()
        phase.name = "check"
        reread = _cache_files(cache)
        warm_sha = [(sha256(t.pair), sha256(t.tail)) for t in warm]
        del warm
    finally:
        del os.environ[CACHE_ENV]
        shutil.rmtree(cache, ignore_errors=True)
    rec = {
        "build_s": t1 - t0,
        "reuse_s": t3 - t2,
        "op_s": (t1 - t0) + (t3 - t2),
        "window": {"build_s": (t0, t1), "reuse_s": (t2, t3)},
        "cache_files": len(written),
        "cache_write_bytes": sum(v[0] for v in written.values()),
        "tables": stats,
        "tail_sha256": [tail[:16] for _, tail in cold_sha],
        "errors": [],
    }
    errors = rec["errors"]
    if len(written) != len(params):
        errors.append(f"cold assembly wrote {len(written)} cache files, expected {len(params)}")
    if reread != written:
        errors.append("warm assembly rewrote the cache instead of reading it")
    rec["cache_read_bytes"] = 0 if reread != written else rec["cache_write_bytes"]
    for k, (c, w) in enumerate(zip(cold_sha, warm_sha)):
        if c != w:
            errors.append(f"table {k}: warm read differs from the cold assembly")
    if reference is not None:
        for k, (got, want) in enumerate(zip(stats, reference["tables"])):
            for key, value in want.items():
                if not _close(got[key], value, TABLE_RTOL):
                    errors.append(f"table {k} {key} = {got[key]!r}, reference {value!r}")
    return rec


def run_op(workload: Workload, cfg, grid, reference, phase: Phase, work_dir: Path, k: int) -> dict:
    if workload.kind == "solve":
        return solve_op(cfg, grid, reference, phase)
    return tables_op(cfg, grid, reference, phase, work_dir / f"cache-{os.getpid()}-{k}")
