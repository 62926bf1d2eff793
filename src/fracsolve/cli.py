"""Command-line entry points: solve, torsion, gradient, kernel-table,
check-hypotheses, selftest.

Exit codes: 0 success, 1 runtime failure (e.g. non-convergence), 2
config or hypothesis failure.  Every failure writes one machine-readable
JSON object to stderr; a solve that raises also leaves its report.json.
"""

from __future__ import annotations

import argparse
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
from .gagliardo import OperatorParams, assemble_weights, energy, operator_gradient
from .grids import build_grid, interval
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


def _apply_cache(cfg: RunConfig) -> None:
    if cfg.cache_dir:
        os.environ["FRACSOLVE_CACHE"] = cfg.cache_dir


def _instance_from(cfg: RunConfig):
    grid = cfg.build_grid()
    return build_instance(
        grid,
        cfg.exponents,
        cfg.reaction,
        cfg.convective,
        frozen_options=cfg.minimizer,
    )


def _cmd_solve(args) -> int:
    cfg = load_config(args.config)
    _apply_cache(cfg)
    out = _out_dir(args, cfg)
    phase = "build"
    try:
        instance = _instance_from(cfg)
        phase = "solve"
        report = solve_problem(instance, cfg.outer, seed=cfg.seed)
    except RuntimeError as e:
        # the report of a failed run: where it stopped and why
        payload = {
            "timestamp": _timestamp(),
            "config": cfg.as_dict(),
            "seed": cfg.seed,
            "converged": False,
            "phase": phase,
            "error": {"type": type(e).__name__, "message": str(e)},
        }
        io_utils.write_json(out / "report.json", payload)
        raise
    grid = instance.grid

    u = grid.pack(report.u)
    io_utils.write_field_csv(out / "solution.csv", grid, u)
    io_utils.write_rows_csv(
        out / "convergence.csv",
        ["k", "step_seminorm", "frozen_residual", "full_residual", "v_norm"],
        zip(
            range(1, len(report.step_seminorms) + 1),
            report.step_seminorms,
            report.frozen_residuals,
            report.full_residuals,
            report.v_norms[1:],
        ),
    )
    payload = {
        "timestamp": _timestamp(),
        "config": cfg.as_dict(),
        "seed": cfg.seed,
        "converged": report.converged,
        "outer_iterations": report.outer_iterations,
        "step_seminorms": io_utils.float_list(report.step_seminorms),
        "frozen_residuals": io_utils.float_list(report.frozen_residuals),
        "inner_iterations": list(report.inner_iterations),
        "full_residuals": io_utils.float_list(report.full_residuals),
        "v_norms": io_utils.float_list(report.v_norms),
        "thetas": io_utils.float_list(report.thetas),
        "final_residual": report.final_residual,
        "hopf_ratio": report.hopf_ratio,
        "ball": None
        if report.ball is None
        else {
            "c_emp": report.ball.c_emp,
            "rho": report.ball.rho,
            "exponent": report.ball.exponent,
        },
        "log": list(report.log),
        "message": report.message,
        "certificate": instance.certificate.as_dict(),
        "hypotheses": cfg.hypotheses.as_dict(),
        "u": io_utils.float_list(u),
        "raw": io_utils.float_list(grid.pack(report.raw)),
    }
    io_utils.write_json(out / "report.json", payload)
    if not report.converged:
        _stderr_json({"error": "runtime", "message": report.message})
        return 1
    return 0


def _cmd_torsion(args) -> int:
    cfg = load_config(args.config)
    _apply_cache(cfg)
    out = _out_dir(args, cfg)
    instance = _instance_from(cfg)
    io_utils.write_field_csv(out / "torsion.csv", instance.grid, instance.certificate.lower)
    payload = dict(instance.certificate.as_dict(), timestamp=_timestamp())
    io_utils.write_json(out / "certificate.json", payload)
    return 0


def _bump(grid):
    """The reference bump: distance to the boundary over its maximum, as
    an interior vector."""
    d = grid.interior_distance
    return d / float(np.max(d))


def _cmd_gradient(args) -> int:
    cfg = load_config(args.config, require_hypotheses=False)
    _apply_cache(cfg)
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
    cfg = load_config(args.config, require_hypotheses=False)
    _apply_cache(cfg)
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
    cfg = load_config(args.config, require_hypotheses=False)
    report = cfg.hypotheses
    print(io_utils.canonical_json(report.as_dict()), end="")
    if report.passed:
        return 0
    _stderr_json(
        {
            "error": "hypothesis",
            "failures": [{"name": c.name, "detail": c.detail} for c in report.failures],
        }
    )
    return 2


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

    grid = build_grid(interval(0.0, 1.0), 9)
    table = assemble_weights(grid, OperatorParams(s=0.6, p=2.5))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.n_interior)
    lhs = float(operator_gradient(table, u) @ u)
    rhs = 2.5 * energy(table, u)
    results.append(
        ("pair-form duality", abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), f"{lhs!r} vs {rhs!r}")
    )

    g = operator_gradient(table, u)
    eps = 1e-6
    worst = 0.0
    for i in (0, grid.n_interior // 2, grid.n_interior - 1):
        up, um = u.copy(), u.copy()
        up[i] += eps
        um[i] -= eps
        fd = (energy(table, up) - energy(table, um)) / (2.0 * eps)
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
    # a config's cache_dir applies to this command only
    saved_cache = os.environ.get("FRACSOLVE_CACHE")
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
    finally:
        if saved_cache is None:
            os.environ.pop("FRACSOLVE_CACHE", None)
        else:
            os.environ["FRACSOLVE_CACHE"] = saved_cache


if __name__ == "__main__":
    sys.exit(main())
