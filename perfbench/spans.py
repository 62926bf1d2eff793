"""In-memory span and counter recorder, installed on fracsolve from outside.

Nothing in ``src/fracsolve`` knows about tracing.  ``Tracer.install``
replaces module attributes with timing wrappers at the names where callers
look them up: ``torsion.py`` and ``frozen.py`` import ``operator_gradient``
by name, so wrapping ``gagliardo.operator_gradient`` alone would see
nothing.  A hook whose target attribute is gone is listed in ``missing``
instead of raising, so a rename in the solver shows up in the trace report.

A span is ``(name, parent index, start, end)``.  A span's self time is its
duration minus the durations of its direct children; summed over every
span below the operation's root span, self times telescope to the root's
wall time minus the root's own self time, the unattributed remainder.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  One span name may have several call sites.
SPAN_HOOKS = (
    ("driver", "build_instance", "driver.build"),
    ("driver", "solve_problem", "driver.solve"),
    ("driver", "fit_growth_bound", "driver.growth_fit"),
    ("driver", "apply_T", "driver.apply_T"),
    ("driver", "verify_solution", "driver.verify"),
    ("driver", "select_sigma", "torsion.floor"),
    ("torsion", "solve_torsion", "torsion.solve"),
    ("driver", "solve_frozen", "frozen.solve"),
    ("frozen", "frozen_energy", "frozen.energy"),
    ("frozen", "frozen_gradient", "frozen.gradient"),
    ("driver", "assemble_weights", "gagliardo.assemble"),
    ("gagliardo", "assemble_weights", "gagliardo.assemble"),
    ("torsion", "energy_accumulator", "gagliardo.form_energy"),
    ("frozen", "energy_accumulator", "gagliardo.form_energy"),
    ("driver", "seminorm", "gagliardo.form_energy"),
    ("torsion", "operator_gradient", "gagliardo.form_gradient"),
    ("frozen", "operator_gradient", "gagliardo.form_gradient"),
    ("gagliardo", "pair_integral", "quadrature.pair_integral"),
    ("gagliardo", "quadrant_integral", "quadrature.quadrant"),
    ("driver", "plan_riesz_convolution", "riesz.plan"),
    ("driver", "riesz_gradient", "riesz.gradient"),
)

# minimize_energy call sites; their callbacks are wrapped to count work
OPTIMIZER_HOOKS = (("torsion", "minimize_energy"), ("frozen", "minimize_energy"))

# span names whose first argument is a PairWeightTable: one dense n x n pass
_DENSE_PASS = ("gagliardo.form_energy", "gagliardo.form_gradient")
# span names whose calls are also counted per pipeline part (fit, outer, ...)
_SPLIT = ("driver.apply_T", "frozen.solve")

ROOT = "op"


def optimizer_context(names) -> str:
    """Which part of the pipeline an optimizer run serves, from the names
    of the spans open around it."""
    if "driver.growth_fit" in names:
        return "fit"
    if "torsion.floor" in names or "torsion.solve" in names:
        return "torsion"
    if "driver.apply_T" in names:
        return "outer"
    return "other"


class Tracer:
    """Spans and counters of one process, kept in memory until written."""

    def __init__(self):
        self.spans: list = []  # [name, parent, start, end]
        self.counts: Counter = Counter()
        self.stack: list = []
        self.failed_in: str | None = None
        self.missing: list = []
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, perf_counter(), None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = perf_counter()
        self.stack.pop()

    def open_names(self) -> list:
        return [self.spans[i][0] for i in self.stack]

    def _span_wrapper(self, fn, name):
        dense = name in _DENSE_PASS
        split = name in _SPLIT

        def wrapper(*args, **kwargs):
            idx = self.open(name)
            if split:
                self.counts[f"{name}.calls.{optimizer_context(self.open_names())}"] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if self.failed_in is None:
                    self.failed_in = name
                raise
            finally:
                self.close(idx)
            self.counts[name + ".calls"] += 1
            if dense:
                n = args[0].grid.n_interior
                self.counts["gagliardo.pair_bytes_computed"] += 8 * n * n
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _optimizer_wrapper(self, fn):
        span = self._span_wrapper(fn, "optimize.minimize")

        def wrapper(energy_fn, grad_fn, *args, **kwargs):
            ctx = optimizer_context(self.open_names())
            counts = self.counts

            def energy(x):
                counts[f"optimize.energy_evals.{ctx}"] += 1
                return energy_fn(x)

            def grad(x):
                counts[f"optimize.grad_evals.{ctx}"] += 1
                return grad_fn(x)

            result = span(energy, grad, *args, **kwargs)
            counts[f"optimize.runs.{ctx}"] += 1
            counts[f"optimize.iterations.{ctx}"] += result.iterations
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"fracsolve.{module_name}")
        target = getattr(module, attr, None)
        if not callable(target):
            self.missing.append(f"{module_name}.{attr}")
            return
        self._saved.append((module, attr, target))
        setattr(module, attr, make(target))

    def install(self) -> None:
        """Wrap every hook target; list the targets that no longer exist."""
        self.missing = []
        for module_name, attr, name in SPAN_HOOKS:
            self._patch(module_name, attr, lambda fn, name=name: self._span_wrapper(fn, name))
        for module_name, attr in OPTIMIZER_HOOKS:
            self._patch(module_name, attr, self._optimizer_wrapper)

    def uninstall(self) -> None:
        for module, attr, target in reversed(self._saved):
            setattr(module, attr, target)
        self._saved.clear()

    # -- reduction -------------------------------------------------------

    def op_summary(self, root: int) -> dict:
        """Inclusive and self time per span name below one root span, plus
        the accounting check that self times sum to the root's wall time."""
        end = len(self.spans)
        child_time = [0.0] * (end - root)
        nested = True
        for i in range(root + 1, end):
            name, parent, t0, t1 = self.spans[i]
            _, _, p0, p1 = self.spans[parent]
            if not (p0 <= t0 <= t1 <= p1):
                nested = False
            child_time[parent - root] += t1 - t0
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for i in range(root, end):
            name, _, t0, t1 = self.spans[i]
            inclusive[name] += t1 - t0
            self_time[name] += (t1 - t0) - child_time[i - root]
        wall = inclusive[ROOT]
        unattributed = self_time[ROOT]
        attributed = sum(v for k, v in self_time.items() if k != ROOT)
        return {
            "wall_s": wall,
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_time),
            "unattributed_s": unattributed,
            "accounting_ok": nested and abs(attributed + unattributed - wall) <= 1e-9 + 1e-9 * wall,
            "spans": end - root,
        }

    def dump(self) -> dict:
        """Every span recorded, column-wise, for writing out at the end."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "name": [code[s[0]] for s in self.spans],
            "parent": [s[1] for s in self.spans],
            "start": [s[2] for s in self.spans],
            "end": [s[3] for s in self.spans],
            "missing_hooks": list(self.missing),
        }
