"""Median, quartiles and spread of each metric over several benchmark runs.

    python3 perfbench/summarize.py RUN_OUTPUT... [--json]

Each argument is the saved stdout of one ``run.py`` invocation; its last
line is the result object.  Runs are grouped by the workload named in their
environment line.  The spread is the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
the figure a metric's ``bound`` in BENCHMARK.json is compared against.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> tuple[str, dict | None]:
    """Workload and result of one saved run; None if it printed no result."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.startswith("{")]
    head = next(line for line in lines if "environment" in line)
    return head["workload"], lines[-1] if "correct" in lines[-1] else None


def summarize(paths) -> dict:
    groups: dict = {}
    for path in paths:
        workload, result = load(path)
        g = groups.setdefault(
            workload, {"runs": 0, "no_result": 0, "incorrect": 0, "failed": 0, "metrics": {}}
        )
        if result is None:
            g["no_result"] += 1
            continue
        g["runs"] += 1
        g["incorrect"] += not result["correct"]
        g["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            g["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for g in groups.values():
        for m in g["metrics"].values():
            vals = m.pop("values")
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            m.update(median=med, q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0, n=len(vals))
    return groups


def main(argv) -> int:
    as_json = "--json" in argv
    paths = [a for a in argv if a != "--json"]
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    groups = summarize(paths)
    if as_json:
        print(json.dumps(groups, indent=1))
        return 0
    for workload, g in sorted(groups.items()):
        print(
            f"{workload}: {g['runs']} runs, {g['no_result']} without a result, "
            f"{g['incorrect']} incorrect, {g['failed']} failed ops"
        )
        for name, m in g["metrics"].items():
            print(
                f"  {name:34s} median {m['median']:.6g} {m['unit']:6s} "
                f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {m['spread']:.3f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
