"""Plot-ready CSV and canonical JSON persistence.

Fields are written one lattice node per row with 17 significant digits,
which round-trips IEEE doubles exactly; reports are serialized with
sorted keys so that identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

_COORDS = {1: ("x",), 2: ("x", "y")}


def fmt17(value) -> str:
    """Shortest-exact decimal form of a double."""
    return format(float(value), ".17g")


def write_field_csv(path, grid, u, extra=()) -> None:
    """One row per lattice node: coordinates, the interior vector u, and
    optional extra columns given as (name, interior vector) pairs; every
    value column is written zero off the interior."""
    names = list(_COORDS[grid.dim]) + ["u"] + [name for name, _ in extra]
    columns = [grid.points[:, a] for a in range(grid.dim)]
    columns += [grid.zero_extend(vec).reshape(-1) for vec in (u, *(v for _, v in extra))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(grid.points.shape[0]):
            writer.writerow([fmt17(col[i]) for col in columns])


def write_rows_csv(path, header, rows) -> None:
    """Generic numeric table: header list plus per-row value lists."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [str(v) if isinstance(v, int) else fmt17(v) for v in row]
            )


def float_list(values) -> list:
    return [float(v) for v in np.asarray(values, dtype=float).ravel()]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")
