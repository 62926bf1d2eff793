"""Plot-ready CSV and canonical JSON persistence.

Fields are written one lattice node per row with 17 significant digits,
which round-trips IEEE doubles exactly; reports are serialized with
sorted keys so that identical runs produce identical bytes.  Every file
the package writes, these and the weight cache's tables, goes through
``write_file``: it is written whole to a temporary file beside it and
renamed over it, so a write that fails or is killed midway leaves the
earlier file as it was; ``remove_file`` removes a file with the
temporaries such a killed write left of it.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import threading
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
    write_rows_csv(path, names, zip(*columns))


def write_file(path, data) -> None:
    """Replace ``path`` with ``data``, bytes or text (written as UTF-8), once
    the whole of it is written to a temporary file beside ``path``; the
    temporary is removed if the write raises.  Its name is private to the
    writing process and thread, so concurrent writers never share one, and
    it is created with the mode that ``open`` gives ``path`` itself."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def remove_file(path) -> None:
    """Remove ``path`` and every temporary of it that a write_file killed
    midway left beside it, whatever process wrote it."""
    path = Path(path)
    for tmp in path.parent.glob(f".{path.name}.*.tmp"):
        tmp.unlink(missing_ok=True)
    path.unlink(missing_ok=True)


def write_rows_csv(path, header, rows) -> None:
    """Generic numeric table: header list plus per-row value lists."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    for row in rows:
        writer.writerow([str(v) if isinstance(v, int) else fmt17(v) for v in row])
    write_file(path, text.getvalue())


def float_list(values) -> list:
    """The values as JSON numbers, None where a value is not finite (the
    NaN step seminorm of a failed outer step): JSON has no NaN."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return [v if math.isfinite(v) else None for v in values]


def canonical_json(obj) -> str:
    """Strict JSON: a non-finite float raises rather than writing NaN."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    write_file(path, canonical_json(obj))
