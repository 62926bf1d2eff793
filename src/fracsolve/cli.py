"""Command-line entry points: solve, torsion, gradient, kernel-table,
check-hypotheses, selftest.

Exit codes: 0 success, 1 runtime failure (e.g. non-convergence), 2
config or hypothesis failure, 130 interrupted.  Every failure writes one
machine-readable JSON object to stderr.  A config's cache_dir is the
weight cache of its own command alone (``_config``).

solve and torsion run inside one record path, ``_Record``: it replaces
the run's record (report.json, certificate.json) with a start record and
removes the previous run's other outputs, and writes the result record
last, so a run that raises, is interrupted or is killed never leaves an
earlier run's record behind; one that raises or is interrupted records
where it stopped and why.  Every record it writes holds the timestamp,
the config and the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import io_utils
from .config import ConfigError, HypothesisError, RunConfig, load_config
from .driver import apply_T, build_instance, solve_problem
from .gagliardo import (
    CACHE_ENV,
    Operator,
    OperatorParams,
    assemble_weights,
    forms,
)
from .grids import Grid, interval
from .reaction import ConvectiveReaction, ProblemExponents, SingularReaction
from .riesz import plan_riesz_convolution, riesz_gradient, riesz_normalization


def _stderr_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _config(args, require_hypotheses=True):
    """The command's config; its cache_dir is the weight cache while the
    command runs, and the caller's cache is restored after."""
    cfg = load_config(args.config, require_hypotheses=require_hypotheses)
    saved = os.environ.get(CACHE_ENV)
    if cfg.cache_dir:
        os.environ[CACHE_ENV] = cfg.cache_dir
    try:
        yield cfg
    finally:
        if saved is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = saved


def _instance_from(cfg: RunConfig):
    grid = cfg.build_grid()
    return build_instance(
        grid,
        cfg.exponents,
        cfg.reaction,
        cfg.convective,
        frozen_options=cfg.minimizer,
    )


class _Record:
    """The record of a run, ``name`` in its output directory, around the run.

    Entering removes the previous run's record and ``outputs``, with any
    temporary a killed write of them left, then writes a start record in
    the record's place: ``converged`` false and ``phase`` "build".  The
    record goes first, so a run killed at any point leaves no earlier
    run's record beside files it does not describe, and once the start
    record is on disk no earlier output is left.  A run that raises or is
    interrupted leaves the ``phase`` it reached and its ``error`` in the
    start record's place; ``write`` writes the result, last.  Every record
    holds the timestamp, the config and the seed."""

    def __init__(self, args, cfg: RunConfig, name: str, outputs: tuple):
        self.out, self.name, self.outputs = _out_dir(args, cfg), name, outputs
        self.header = {"config": cfg.as_dict(), "seed": cfg.seed}
        self.phase = "build"

    def write(self, **fields) -> None:
        payload = {"timestamp": _timestamp(), **self.header, **fields}
        io_utils.write_json(self.out / self.name, payload)

    def __enter__(self) -> _Record:
        for name in (self.name, *self.outputs):
            io_utils.remove_file(self.out / name)
        self.write(converged=False, phase=self.phase)
        return self

    def __exit__(self, kind, error, traceback) -> None:
        if isinstance(error, (Exception, KeyboardInterrupt)):
            failure = {"type": type(error).__name__, "message": str(error)}
            self.write(converged=False, phase=self.phase, error=failure)


def _cmd_solve(args) -> int:
    outputs = ("solution.csv", "convergence.csv")
    with _config(args) as cfg, _Record(args, cfg, "report.json", outputs) as run:
        instance = _instance_from(cfg)
        run.phase = "solve"
        report = solve_problem(instance, cfg.outer, seed=cfg.seed)
        run.phase = "write"
        _write_solve_outputs(cfg, run, instance, report)
    if not report.converged:
        _stderr_json({"error": "runtime", "message": report.message})
        return 1
    return 0


def _write_solve_outputs(cfg: RunConfig, run: _Record, instance, report) -> None:
    """solution.csv, convergence.csv and, last, report.json."""
    grid = instance.grid
    u = grid.pack(report.u)
    io_utils.write_field_csv(run.out / "solution.csv", grid, u)
    io_utils.write_rows_csv(
        run.out / "convergence.csv",
        ["k", "step_seminorm", "frozen_residual", "full_residual", "v_norm"],
        zip(
            range(1, len(report.step_seminorms) + 1),
            report.step_seminorms,
            report.frozen_residuals,
            report.full_residuals,
            report.v_norms[1:],
        ),
    )
    run.write(
        converged=report.converged,
        outer_iterations=report.outer_iterations,
        step_seminorms=io_utils.float_list(report.step_seminorms),
        frozen_residuals=io_utils.float_list(report.frozen_residuals),
        inner_iterations=list(report.inner_iterations),
        full_residuals=io_utils.float_list(report.full_residuals),
        v_norms=io_utils.float_list(report.v_norms),
        thetas=io_utils.float_list(report.thetas),
        final_residual=report.final_residual,
        hopf_ratio=report.hopf_ratio,
        ball=None if report.ball is None else dataclasses.asdict(report.ball),
        log=list(report.log),
        message=report.message,
        certificate=instance.certificate.as_dict(),
        hypotheses=cfg.hypotheses.as_dict(),
        u=io_utils.float_list(u),
        raw=io_utils.float_list(grid.pack(report.raw)),
    )


def _cmd_torsion(args) -> int:
    with _config(args) as cfg, _Record(args, cfg, "certificate.json", ("torsion.csv",)) as run:
        instance = _instance_from(cfg)
        run.phase = "write"
        certificate = instance.certificate
        io_utils.write_field_csv(run.out / "torsion.csv", instance.grid, certificate.lower)
        run.write(**certificate.as_dict(), converged=True)
    return 0


def _bump(grid):
    """The reference bump: distance to the boundary over its maximum, as
    an interior vector."""
    d = grid.interior_distance
    return d / float(np.max(d))


def _cmd_gradient(args) -> int:
    with _config(args, require_hypotheses=False) as cfg:
        out = _out_dir(args, cfg)
        grid = cfg.build_grid()
        bump = _bump(grid)
        plan = plan_riesz_convolution(grid, 1.0 - cfg.exponents.s)
        dsu = riesz_gradient(plan, bump)
        extra = [(f"dsu_{axis}", dsu[:, a]) for a, axis in zip(range(grid.dim), "xy")]
        io_utils.write_field_csv(out / "gradient.csv", grid, bump, extra=extra)
    return 0


def _table_summary(table) -> dict:
    """Norms of the n x n pair weights, from the offset table and the number
    of interior pairs at each offset."""
    counts = table.grid.offset_counts()
    return {
        "s": table.params.s,
        "p": table.params.p,
        "pair_frobenius": math.sqrt(float(np.sum(counts * table.woff**2))),
        "pair_max": float(np.max(table.woff[counts > 0])),
        "tail_min": float(np.min(table.tail)),
        "tail_max": float(np.max(table.tail)),
    }


def _cmd_kernel_table(args) -> int:
    with _config(args, require_hypotheses=False) as cfg:
        out = _out_dir(args, cfg)
        grid = cfg.build_grid()
        e = cfg.exponents
        tables = (
            assemble_weights(grid, OperatorParams(s=e.s1, p=e.p)),
            assemble_weights(grid, OperatorParams(s=e.s2, p=e.q)),
        )
        payload = {
            "timestamp": _timestamp(),
            "grid": {"domain": cfg.domain_spec, "resolution": cfg.resolution},
            "n_interior": grid.n_interior,
            "tables": [_table_summary(t) for t in tables],
        }
        io_utils.write_json(out / "kernel_table.json", payload)
    return 0


def _cmd_check(args) -> int:
    with _config(args, require_hypotheses=False) as cfg:
        report = cfg.hypotheses
        print(io_utils.canonical_json(report.as_dict()), end="")
        if not report.passed:
            raise HypothesisError(report.failures)
    return 0


def _selftest_checks():
    """Small built-in invariant checks, each (name, ok, detail)."""
    results = []

    want = 1.0 / math.sqrt(2.0 * math.pi)
    got = riesz_normalization(1, 0.5)
    results.append(
        ("riesz normalization (1, 1/2)", abs(got - want) <= 1e-12 * want, f"{got!r} vs {want!r}")
    )
    want = 1.0 / (2.0 * math.pi)
    got = riesz_normalization(2, 1.0)
    results.append(
        ("riesz normalization (2, 1)", abs(got - want) <= 1e-12 * want, f"{got!r} vs {want!r}")
    )

    grid = Grid(interval(0.0, 1.0), 9)
    op = Operator(assemble_weights(grid, OperatorParams(s=0.6, p=2.5)))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.n_interior)
    at_u = forms(op, u)
    lhs = float(at_u.grad @ u)
    rhs = 2.5 * at_u.energies[0]
    results.append(
        ("pair-form duality", abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), f"{lhs!r} vs {rhs!r}")
    )

    g = at_u.grad
    eps = 1e-6
    worst = 0.0
    for i in (0, grid.n_interior // 2, grid.n_interior - 1):
        up, um = u.copy(), u.copy()
        up[i] += eps
        um[i] -= eps
        fd = (forms(op, up).energies[0] - forms(op, um).energies[0]) / (2.0 * eps)
        worst = max(worst, abs(fd - g[i]) / max(1.0, abs(fd)))
    results.append(("energy gradient vs finite differences", worst < 1e-5, f"rel {worst:.3e}"))

    exps = ProblemExponents(s=0.55, s1=0.6, s2=0.5, p=2.5, q=2.2, dim=1)
    inst = build_instance(
        grid,
        exps,
        SingularReaction(gamma=0.5, c1=0.5, c2=0.5, r=1.1),
        ConvectiveReaction(c3=0.2, zeta=1.2),
    )
    floor = inst.trunc.floor
    results.append(
        ("torsion floor strictly positive", bool(np.all(floor > 0.0)), f"min {np.min(floor):.3e}")
    )
    res = apply_T(inst, floor)
    gap = float(np.min(res.x - floor))
    results.append(
        ("frozen solve respects the floor", res.converged and gap >= -1e-6,
         f"converged={res.converged}, gap {gap:.3e}")
    )

    center = riesz_gradient(inst.plan, _bump(grid))[grid.n_interior // 2, 0]
    results.append(
        ("fractional gradient odd symmetry", abs(center) < 1e-10, f"center value {center:.3e}")
    )
    return results


def _cmd_selftest(args) -> int:
    failures = []
    for name, ok, detail in _selftest_checks():
        if ok:
            print(f"ok - {name}")
        else:
            print(f"FAIL - {name}: {detail}")
            failures.append({"name": name, "detail": detail})
    if failures:
        _stderr_json({"error": "runtime", "message": "selftest failed", "failures": failures})
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument("-v", "--verbose", action="store_true", help="log progress and defaults")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to a JSON run config")
    with_config = argparse.ArgumentParser(add_help=False, parents=[verbose, config])
    with_config.add_argument("--out", default=None, help="output directory (default: from config)")

    parser = argparse.ArgumentParser(
        prog="fracsolve",
        description="Solver for a doubly nonlocal (p,q)-problem with a "
        "singular reaction and a fractional-gradient convective term.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", parents=[with_config],
                   help="run the outer fixed-point solve").set_defaults(func=_cmd_solve)
    sub.add_parser("torsion", parents=[with_config],
                   help="build the certified floor field").set_defaults(func=_cmd_torsion)
    sub.add_parser("gradient", parents=[with_config],
                   help="fractional gradient of a reference bump").set_defaults(func=_cmd_gradient)
    sub.add_parser("kernel-table", parents=[with_config],
                   help="assemble and summarize the weight tables").set_defaults(func=_cmd_kernel_table)
    sub.add_parser("check-hypotheses", parents=[verbose, config],
                   help="validate the solvability window").set_defaults(func=_cmd_check)
    sub.add_parser("selftest", parents=[verbose],
                   help="run built-in invariant checks").set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO)
    try:
        return args.func(args)
    except ConfigError as e:
        _stderr_json({"error": "config", "field": e.field, "reason": e.reason})
        return 2
    except HypothesisError as e:
        _stderr_json(
            {
                "error": "hypothesis",
                "failures": [{"name": c.name, "detail": c.detail} for c in e.failures],
            }
        )
        return 2
    except Exception as e:  # noqa: BLE001 - runtime failures map to exit 1
        _stderr_json({"error": "runtime", "message": f"{type(e).__name__}: {e}"})
        return 1
    except KeyboardInterrupt:
        _stderr_json({"error": "interrupted", "message": "KeyboardInterrupt"})
        return 130


if __name__ == "__main__":
    sys.exit(main())
