"""fracsolve benchmark: time to a certified solution, and where it goes.

Run from the root of a fracsolve checkout:

    python3 perfbench/run.py --workload solve-1d --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``solve-1d`` (configs/interval_1d.json at
resolution 129), ``solve-disk`` (configs/disk_2d.json at resolution 25) and
``tables-disk`` (both operator tables of configs/disk_2d.json at resolution
61, cold into an empty cache directory and warm back from it).  The seed is
written into the generated config's ``seed`` field.  After the set-ups,
operations run one after another in this process (a closed loop with one
client) until the next one would end more than ``--seconds`` after the
start of the set-ups; every operation checks its answer.

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are end to end:

* ``setup_s``: imports, config validation and grid build, timed in a fresh
  interpreter, several set-ups per run;
* ``build_s``: ``build_instance`` (solve workloads) or the cold assembly of
  both tables, compute plus cache write (``tables-disk``);
* ``reuse_s``: ``solve_problem`` on the built instance, or the warm read of
  both tables from the cache the cold pass wrote;
* ``op_s``: both together, the time to a certified solution on the solve
  workloads;
* ``peak_rss_mb``: peak resident set of the benchmark process.

Each time is the median over the run's operations (or set-ups) of the
measured time scaled to one fixed host speed.  The process is pinned to
one CPU, and a timer runs a small fixed probe that does not touch
fracsolve (``HostProbe``) every 25 ms; each timed step's seconds, less the
probe's, are multiplied by the mean speed the samples inside the step saw.
On a shared 2-vCPU host the same work ran up to 1.8x slower for stretches
of a second to minutes, which spread the raw medians of ten runs over an
interquartile range of up to 38 % of their median; the probe slows with
the host, and a change to fracsolve does not move it.  The raw medians and
every scaled sample are printed on the line before the result.  Traced
runs use no probe.

With ``--trace 1`` untraced and traced operations alternate; hooks installed
from outside (``spans.py``) give the per-layer metrics of the traced ones,
and ``trace.overhead_frac`` compares the two kinds.  Earlier stdout lines
hold the environment and one record per operation (residual, checksum of
``u``, failures); the raw spans go to ``.perfbench_out/``.

Companions: ``selfcheck.py`` (hooks and span accounting on tiny grids),
``record_reference.py`` (rewrites ``reference.json``, the answers the gates
compare against), ``summarize.py`` (median, quartiles and spread over saved
runs); ``baseline.json`` holds the figures of the commit that added this
benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# host-speed probe: one sample every PROBE_INTERVAL_S of wall time, and one
# sample's time at the reference speed that end-to-end times are scaled to
PROBE_INTERVAL_S = 0.025
PROBE_REF_S = 0.0003
# fresh-interpreter set-ups and getconf get this long before the run fails
CHILD_TIMEOUT_S = 60
# tiny grid of the same config, run once untimed so lazy set-up is done
WARMUP_RESOLUTION = {"interval_1d.json": 17, "disk_2d.json": 11}


def pin_threads() -> int:
    """One BLAS/OpenMP thread (never more than nproc), set before numpy is
    imported so the libraries read it; the solver's dense work is
    elementwise numpy and runs on one core either way."""
    threads = 1
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def pin_cpu() -> tuple:
    """Run on the first CPU this process may use; child processes inherit
    it.  On a shared host each CPU is slowed by its own neighbours, so the
    probe and the work it scales must run on the same one."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})
    return allowed[0], len(allowed)


def llc_bytes() -> int | None:
    """Last-level cache size as glibc reports it, or None."""
    getconf = shutil.which("getconf")
    if getconf is None:
        return None
    for name in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        try:
            out = subprocess.run(
                [getconf, name], capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        if out.isdigit() and int(out) > 0:
            return int(out)
    return None


def environment(threads: int, cpu: int, allowed: int) -> dict:
    import platform

    import numpy as np
    import scipy

    fi = np.finfo(np.longdouble)
    return {
        "nproc": os.cpu_count(),
        "affinity": allowed,
        "pinned_cpu": cpu,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble": {"bits": int(fi.bits), "nmant": int(fi.nmant), "eps": float(fi.eps)},
        "llc_bytes": llc_bytes(),
    }


class HostProbe:
    """A small fixed piece of work that does not touch fracsolve, run from a
    timer every ``PROBE_INTERVAL_S`` while set-ups and operations run.

    On a shared host this process's CPU runs the same work up to 1.8x
    slower while its neighbours are busy, switching within a second and for
    stretches of minutes.  Each sample times the probe at one instant, so
    the samples inside a timed step give the host's speed over that step,
    and ``scaled`` turns the step's time into its time at the reference
    speed, at which one sample takes ``PROBE_REF_S``.  A change to
    fracsolve moves the step's time but not the samples.  The work mixes
    what the solver spends its time on: an elementwise power with a
    ``longdouble`` sum at n = 127, and interpreter work on objects and a
    dict.  Its arrays are preallocated, so a sample does not depend on the
    state the operations left the allocator in.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.x = rng.random(127)
        self.w = rng.random((127, 127))
        self.buf = np.empty((127, 127))
        self.samples: list = []  # (start, duration)
        self._work()  # the first call pays numpy's lazy set-up

    def _work(self) -> None:
        np, buf = self.np, self.buf
        np.subtract(self.x[:, None], self.x[None, :], out=buf)
        np.abs(buf, out=buf)
        np.power(buf, 2.5, out=buf)
        np.multiply(buf, self.w, out=buf)
        float(np.sum(buf, dtype=np.longdouble))
        table: dict = {}
        for i in range(200):
            table[i % 13] = table.get(i % 13, 0) + _Box(i).plus(1)

    def _on_timer(self, signum, frame) -> None:
        t0 = perf_counter()
        self._work()
        self.samples.append((t0, perf_counter() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured over the wall interval [t0, t1], less the
        samples taken inside it, at the reference speed.  The speed is the
        mean of ``PROBE_REF_S / duration`` over the samples inside, since
        a step's time is its work over the speed.  The timer's handler runs
        only between bytecodes, so a step spent in one long native call may
        hold no sample; then the samples just before and after it stand in."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        around = inside or [d for t, d in self._neighbours(t0, t1)]
        speed = statistics.fmean(PROBE_REF_S / d for d in around)
        return (seconds - sum(inside)) * speed

    def _neighbours(self, t0: float, t1: float) -> list:
        before = [x for x in self.samples if x[0] < t0][-1:]
        after = [x for x in self.samples if x[0] >= t1][:1]
        return before + after


class _Box:
    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v

    def plus(self, x):
        return self.v + x


def setup_seconds(root: Path, config: Path) -> tuple:
    """One set-up in a fresh interpreter, which times itself, and the wall
    interval around it."""
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(config)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1]), t0, perf_counter()


def measure_op(workload, cfg, grid, reference, work_dir: Path, k: int, tracer) -> dict:
    """One operation, timed; a solver failure becomes an error record that
    names the exception and the phase (innermost open span when traced)."""
    from workloads import Phase, run_op

    phase = Phase()
    root = None
    if tracer is not None:
        tracer.counts.clear()
        tracer.failed_in = None
        tracer.install()
        root = tracer.open("op")
    t0 = perf_counter()
    try:
        rec = run_op(workload, cfg, grid, reference, phase, work_dir, k)
    except RuntimeError as exc:  # ball monitor, torsion stall, MemoryBudgetError
        where = tracer.failed_in if tracer is not None and tracer.failed_in else phase.name
        rec = {
            "errors": [f"{type(exc).__name__} in {where}"],
            "failure": {"type": type(exc).__name__, "message": str(exc), "phase": where},
        }
    finally:
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()
    rec["op"] = k
    rec["wall_s"] = wall
    rec["traced"] = tracer is not None
    if tracer is not None:
        rec["trace"] = tracer.op_summary(root)
        rec["counts"] = dict(tracer.counts)
    return rec


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def timings(records: list, setups: list, probe: HostProbe) -> tuple:
    """Every time sample of the run by end-to-end metric, as measured and at
    the reference host speed."""
    done = [r for r in records if "op_s" in r]
    raw = {"setup_s": [t for t, _, _ in setups]}
    ref = {"setup_s": [probe.scaled(*x) for x in setups]}
    for key in ("build_s", "reuse_s"):
        raw[key] = [r[key] for r in done]
        ref[key] = [probe.scaled(r[key], *r["window"][key]) for r in done]
    raw["op_s"] = [r["op_s"] for r in done]
    ref["op_s"] = [a + b for a, b in zip(ref["build_s"], ref["reuse_s"])]
    return raw, ref


def end_to_end(ref: dict) -> dict:
    metrics = {k: {"value": _median(v), "unit": "s"} for k, v in ref.items()}
    metrics["peak_rss_mb"] = {"value": peak_rss_mb(), "unit": "MB"}
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_values(rec: dict) -> dict:
    """Per-layer numbers of one traced operation."""
    inc = rec["trace"]["inclusive_s"]
    own = rec["trace"]["self_s"]
    c = rec["counts"]
    ctxs = ("torsion", "fit", "outer")
    energy = {x: c.get(f"optimize.energy_evals.{x}", 0) for x in ctxs}
    grad = {x: c.get(f"optimize.grad_evals.{x}", 0) for x in ctxs}
    runs = {x: c.get(f"optimize.runs.{x}", 0) for x in ctxs}
    # each run evaluates energy and gradient once at its start; after that
    # every energy call is a trial step and every gradient call an accepted one
    trials = {x: energy[x] - runs[x] for x in ctxs}
    accepted = {x: grad[x] - runs[x] for x in ctxs}
    outer_steps = c.get("driver.apply_T.calls.outer", 0)
    v = {
        "driver.growth_fit_s": inc.get("driver.growth_fit", 0.0),
        "driver.outer_steps": outer_steps,
        "driver.outer_step_s": (
            (inc.get("driver.solve", 0.0) - inc.get("driver.growth_fit", 0.0)) / outer_steps
            if outer_steps
            else 0.0
        ),
        "driver.verify_s": inc.get("driver.verify", 0.0),
        "torsion.floor_s": inc.get("torsion.floor", 0.0),
        "torsion.solves": c.get("torsion.solve.calls", 0),
        "torsion.inner_iterations": c.get("optimize.iterations.torsion", 0),
        "frozen.solves_fit": c.get("frozen.solve.calls.fit", 0),
        "frozen.solves_outer": c.get("frozen.solve.calls.outer", 0),
        "frozen.inner_iterations_fit": c.get("optimize.iterations.fit", 0),
        "frozen.inner_iterations_outer": c.get("optimize.iterations.outer", 0),
        "frozen.energy_self_s": own.get("frozen.energy", 0.0),
        "frozen.gradient_self_s": own.get("frozen.gradient", 0.0),
        "optimize.self_s": own.get("optimize.minimize", 0.0),
        "optimize.energy_evals": sum(energy.values()),
        "optimize.grad_evals": sum(grad.values()),
        "optimize.backtracks": sum(trials.values()) - sum(accepted.values()),
        "optimize.accept_ratio": (
            sum(accepted.values()) / sum(trials.values()) if sum(trials.values()) else 0.0
        ),
        "gagliardo.form_energy_s": inc.get("gagliardo.form_energy", 0.0),
        "gagliardo.form_gradient_s": inc.get("gagliardo.form_gradient", 0.0),
        "gagliardo.form_evals": c.get("gagliardo.form_energy.calls", 0)
        + c.get("gagliardo.form_gradient.calls", 0),
        "gagliardo.pair_bytes_computed": c.get("gagliardo.pair_bytes_computed", 0),
        "gagliardo.assemble_s": inc.get("gagliardo.assemble", 0.0),
        "gagliardo.cache_write_bytes": rec.get("cache_write_bytes", 0),
        "gagliardo.cache_read_bytes": rec.get("cache_read_bytes", 0),
        "quadrature.quadrant_s": inc.get("quadrature.quadrant", 0.0),
        "quadrature.pair_integral_s": inc.get("quadrature.pair_integral", 0.0),
        "riesz.plan_s": inc.get("riesz.plan", 0.0),
        "riesz.gradient_s": inc.get("riesz.gradient", 0.0),
        "riesz.gradient_calls": c.get("riesz.gradient.calls", 0),
        "trace.unattributed_frac": rec["trace"]["unattributed_s"] / rec["trace"]["wall_s"],
    }
    for x in ctxs:
        v[f"optimize.energy_evals_{x}"] = energy[x]
        v[f"optimize.backtracks_{x}"] = trials[x] - accepted[x]
    return v


LAYER_UNITS = {
    "_s": "s",
    "_frac": "ratio",
    "_ratio": "ratio",
    "_bytes": "B",
    "bytes_computed": "B",
}


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(records: list, missing: list, failed: int) -> dict:
    traced = [r for r in records if r["traced"] and "trace" in r]
    untraced = [r for r in records if not r["traced"]]
    rows = [layer_values(r) for r in traced]
    out = {}
    for name in rows[0] if rows else ():
        out[name] = _median(row[name] for row in rows)
    t_traced = _median(r["wall_s"] for r in traced)
    t_plain = _median(r["wall_s"] for r in untraced)
    out["trace.overhead_frac"] = t_traced / t_plain - 1.0 if t_traced and t_plain else None
    out["trace.hooks_missing"] = len(missing)
    out["failed_frac"] = failed / max(len(records), 1)
    return {k: {"value": val, "unit": unit_of(k)} for k, val in out.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fracsolve" / "__init__.py").is_file():
        print("perfbench: src/fracsolve not found; run from a fracsolve checkout", file=sys.stderr)
        return 2
    threads = pin_threads()
    cpu, allowed = pin_cpu()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("FRACSOLVE_CACHE", None)

    from workloads import WORKLOADS, write_config

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    base_cfg = root / "configs" / workload.config
    if not base_cfg.is_file():
        print(f"perfbench: {base_cfg.relative_to(root)} not found", file=sys.stderr)
        return 2
    work_dir = root / OUT_DIR
    work_dir.mkdir(exist_ok=True)
    cfg_path = write_config(root, workload.config, workload.resolution, args.seed, work_dir)

    start = perf_counter()  # --seconds bounds the set-ups and operations together
    probe = None if args.trace else HostProbe()
    setups = []
    if probe is not None:
        probe.start()
        setups = [setup_seconds(root, cfg_path) for _ in range(SETUP_REPEATS)]
        probe.stop()

    import fracsolve
    from fracsolve import config

    if not Path(fracsolve.__file__).resolve().is_relative_to(root.resolve()):
        print(f"perfbench: imported fracsolve from {fracsolve.__file__}, not this checkout", file=sys.stderr)
        return 2
    env = environment(threads, cpu, allowed)
    print(json.dumps({"environment": env, "workload": workload.name, "seed": args.seed}), flush=True)
    references = json.loads((HERE / "reference.json").read_text())
    reference = references.get(workload.name)

    warm_cfg = config.load_config(
        str(write_config(root, workload.config, WARMUP_RESOLUTION[workload.config], args.seed, work_dir))
    )
    measure_op(workload, warm_cfg, warm_cfg.build_grid(), None, work_dir, -1, None)

    cfg = config.load_config(str(cfg_path))
    grid = cfg.build_grid()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    records = []
    if probe is not None:
        probe.start()
    try:
        while True:
            k = len(records)
            rec = measure_op(workload, cfg, grid, reference, work_dir, k, tracer if k % 2 else None)
            records.append(rec)
            print(json.dumps({"record": {x: y for x, y in rec.items() if x not in ("trace", "u")}}), flush=True)
            elapsed = perf_counter() - start
            if len(records) >= (2 if args.trace else 1) and elapsed + rec["wall_s"] > args.seconds:
                break
    finally:
        if probe is not None:
            probe.stop()

    if reference is None:
        for rec in records:
            rec["errors"].append(f"no reference recorded for {workload.name}")
    failed = sum(1 for r in records if r["errors"])
    correct = failed == 0
    if tracer is not None:
        dump = tracer.dump()
        (work_dir / f"trace-{workload.name}-s{args.seed}.json").write_text(json.dumps(dump))
        correct = correct and all(r["trace"]["accounting_ok"] for r in records if r["traced"])
        metrics = per_layer(records, tracer.missing, failed)
    else:
        raw, ref = timings(records, setups, probe)
        medians = {k: _median(v) for k, v in raw.items()}
        print(json.dumps({"medians": medians, "samples": raw, "reference_speed": ref}))
        metrics = end_to_end(ref)
    print(
        json.dumps(
            {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
