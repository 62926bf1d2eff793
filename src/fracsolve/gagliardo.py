"""Pairwise-weight assembly and evaluation of the fractional p-Dirichlet form.

On a uniform grid the form is

    energy(u) = (1/p) [ sum_{i != j} W_ij |u_i - u_j|^p + 2 sum_i T_i |u_i|^p ]

where W_ij is the double integral of the kernel |x - y|^(-(N + s p)) over
the cell pair (C_i, C_j) and T_i integrates the same kernel over
C_i x (complement of the interior cells), accounting for the zero
extension of u outside the domain.

Weights depend only on the lattice offset between cells, so a table holds
one weight per offset, and W_ij is read off it at |l_i - l_j|.  For
touching cells (Chebyshev lattice distance <= 1) the raw double integral
diverges once s p >= 1; those pairs instead use the difference-quotient
model weight

    W_ij = |x_i - x_j|^(-p) * double integral of |x - y|^(p - (N + s p)),

finite for every 0 < s < 1 < p, which treats |u_i - u_j| / |x_i - x_j|
as a frozen local slope across the shared face.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .grids import Grid
from .quadrature import (
    _GL_W,
    _GL_X,
    halfplane_profile_constant,
    pair_integral,
    power_segment_integral,
    quadrant_integral,
)

_ROW_CHUNK = 512
# offset rows per block of a table whose axes swap: a block integrates the
# columns up to its last row, so a short block wastes little above the
# diagonal, and a long one shares the set-up of its axis nodes (8 rows was
# the fastest of 1 to 64 at resolutions 25 and 61)
_SWAP_ROWS = 8
_CACHE_ENV = "FRACSOLVE_CACHE"
_CACHE_VERSION = 3

# Largest interior node count a table is assembled for.  The pair pass of
# the forms holds the index pairs i < j (n^2 eight-byte words, 134 MB at
# n = 4096) and n^2 / 2 packed weights per table; a Newton step of the
# solves adds the dense n x n Hessian (another 134 MB at n = 4096) and its
# Cholesky factor, of the same size.
NODE_CAP = 4096


class MemoryBudgetError(RuntimeError):
    """The pair pass would hold more memory than NODE_CAP allows."""


@dataclass(frozen=True)
class OperatorParams:
    """Order s and integrability exponent p of the fractional p-form."""

    s: float
    p: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"order s must lie in (0, 1), got {self.s}")
        if self.p <= 1.0:
            raise ValueError(f"exponent p must exceed 1, got {self.p}")

    @property
    def sp(self) -> float:
        return self.s * self.p


@dataclass
class PairWeightTable:
    """Assembled weights for one (grid, s, p) combination.

    ``woff`` holds one weight per nonnegative lattice offset (shape
    ``grid.shape``, zero at offset 0): interior cells i and j pair with
    weight ``woff[|l_i - l_j|]``.  ``tail`` holds, per interior node, the
    kernel mass integrated over the cell times everything outside the
    interior.  Every pair view is derived from ``woff``.
    """

    grid: Grid
    params: OperatorParams
    woff: np.ndarray
    tail: np.ndarray

    @cached_property
    def packed_pair(self) -> np.ndarray:
        """W_ij over the grid's pairs i < j, built on first evaluation."""
        ii, jj = self.grid.pair_index
        out = np.empty(ii.size)
        block = _ROW_CHUNK * self.grid.n_interior
        for k0 in range(0, ii.size, block):
            out[k0 : k0 + block] = self.grid.at_offsets(
                self.woff, ii[k0 : k0 + block], jj[k0 : k0 + block]
            )
        return out

    @property
    def pair(self) -> np.ndarray:
        """The symmetric n x n matrix W_ij with a zero diagonal, built anew
        on every access; only the tests and the benchmark read it."""
        n = self.grid.n_interior
        rows = np.arange(n)
        out = np.empty((n, n))
        for a0 in range(0, n, _ROW_CHUNK):
            out[a0 : a0 + _ROW_CHUNK] = self.grid.at_offsets(
                self.woff, rows[a0 : a0 + _ROW_CHUNK, None], rows
            )
        return out


def _axes_swap(grid: Grid) -> bool:
    """Whether swapping the two axes maps the lattice onto itself, so that
    every kernel integral is symmetric in its two axis offsets."""
    return grid.dim == 2 and grid.h[0] == grid.h[1]


def _offset_table(grid: Grid, params: OperatorParams) -> np.ndarray:
    """Weights indexed by nonnegative lattice offset, shape = grid.shape.

    Offsets with Chebyshev length 1 take the model weight; the others split
    into Cartesian blocks by the first axis whose offset is at least 2.
    When the axes swap, only the offsets (k, l) with l <= k are integrated,
    in row blocks, and the table is mirrored."""
    h = np.asarray(grid.h, dtype=float)
    beta = grid.dim + params.sp
    deltas = [np.arange(m) * h_a for m, h_a in zip(grid.shape, h)]
    table = np.empty(grid.shape)
    near = [d[:2] for d in deltas]
    dist = np.sqrt(sum(d**2 for d in np.meshgrid(*near, indexing="ij")))
    origin = (0,) * grid.dim
    dist[origin] = 1.0  # any finite value: the origin is zeroed below
    table[(slice(0, 2),) * grid.dim] = dist ** -params.p * pair_integral(params.p - beta, near, h)
    table[origin] = 0.0  # the self-pair never contributes to differences
    if _axes_swap(grid):
        m = grid.shape[0]
        for r0 in range(2, m, _SWAP_ROWS):
            r1 = min(r0 + _SWAP_ROWS, m)
            table[r0:r1, :r1] = pair_integral(-beta, [deltas[0][r0:r1], deltas[1][:r1]], h)
        upper = np.triu_indices(m, 1)
        table[upper] = table.T[upper]
        return table
    for a in range(grid.dim):
        block = (slice(0, 2),) * a + (slice(2, None),) + (slice(None),) * (grid.dim - a - 1)
        table[block] = pair_integral(-beta, [d[b] for d, b in zip(deltas, block)], h)
    return table


def _outside_box_tail(grid: Grid, sp: float) -> np.ndarray:
    """Per interior node: integral over its cell of the kernel mass beyond
    the lattice bounding box, evaluated from closed forms."""
    h = np.asarray(grid.h, dtype=float)
    lo_box = np.array([ax[0] for ax in grid.axes]) - h / 2.0
    hi_box = np.array([ax[-1] for ax in grid.axes]) + h / 2.0
    pts = grid.interior_points
    # the half-space beyond each face: the cell's integral of the distance
    # power across the face, times the cell's width along it (1.0 in 1D)
    halves = 0.0
    for a in range(grid.dim):
        lo, hi = pts[:, a] - h[a] / 2.0, pts[:, a] + h[a] / 2.0
        across = float(np.prod(np.delete(h, a)))
        halves += across * power_segment_integral(-sp, lo - lo_box[a], hi - lo_box[a])
        halves += across * power_segment_integral(-sp, hi_box[a] - hi, hi_box[a] - lo)
    if grid.dim == 1:
        return halves / sp
    tail = halves * halfplane_profile_constant(sp) / sp
    w1, w2 = h

    # Half-planes double-count the four corner quadrants.  The Gauss rule
    # is symmetric, so the distances from lattice row i to the high face are
    # those from row m - i to the low face: one set of low-corner cell
    # integrals serves all four corners, read at (i, j), (i, m - j),
    # (m - i, j) and (m - i, m - j).  Only the cells some interior node
    # reads are integrated, each once; when the axes swap, cell (a, b)
    # equals cell (b, a) and is read as (min, max).
    dist1, dist2 = (
        w * (np.arange(m)[:, None] + 0.5 + 0.5 * _GL_X[None, :]) for m, w in zip(grid.shape, h)
    )
    m1, m2 = grid.shape[0] - 1, grid.shape[1] - 1
    i, j = grid.lattice[grid.interior_idx].T
    rows = np.concatenate([i, i, m1 - i, m1 - i])
    cols = np.concatenate([j, m2 - j, j, m2 - j])
    if _axes_swap(grid):
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
    cells, read = np.unique(rows * grid.shape[1] + cols, return_inverse=True)
    a, b = np.divmod(cells, grid.shape[1])
    corner = np.empty(cells.size)
    for c0 in range(0, cells.size, _ROW_CHUNK):
        blk = slice(c0, c0 + _ROW_CHUNK)
        q = quadrant_integral(sp, dist1[a[blk], :, None], dist2[b[blk], None, :])
        corner[blk] = _GL_W @ q @ _GL_W
    return tail - 0.25 * w1 * w2 * corner[read].reshape(4, -1).sum(axis=0)


def _inbox_exterior_tail(grid: Grid, woff: np.ndarray) -> np.ndarray:
    """Sum of offset weights from each interior cell to all non-interior
    cells of the lattice, via one linear convolution."""
    ext = (~grid.interior_mask).astype(float).reshape(grid.shape)
    return grid.convolve(woff, ext).reshape(-1)[grid.interior_idx]


def _cache_descriptor(grid: Grid, params: OperatorParams) -> dict:
    return {
        "version": _CACHE_VERSION,
        "domain": grid.domain.describe(),
        "resolution": grid.resolution,
        "s": params.s,
        "p": params.p,
    }


def _cache_path(grid: Grid, params: OperatorParams) -> Path | None:
    """The file of this table, named without the format version: a file of
    another version is a miss whose rebuild overwrites it in place."""
    root = os.environ.get(_CACHE_ENV)
    if not root:
        return None
    key = {k: v for k, v in _cache_descriptor(grid, params).items() if k != "version"}
    digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:24]
    return Path(root) / f"weights-{digest}.fwt"


def _cache_load(path: Path, grid: Grid, params: OperatorParams) -> PairWeightTable | None:
    """The cached table, or None when the file is unreadable, describes
    another table, or its body fails the checksum in its header."""
    try:
        raw = path.read_bytes()
        head, _, body = raw.partition(b"\n")
        header = json.loads(head.decode())
        if header["descriptor"] != _cache_descriptor(grid, params):
            return None
        m = math.prod(grid.shape)
        if len(body) != (m + grid.n_interior) * 8:
            return None
        if hashlib.sha256(body).hexdigest() != header["sha256"]:
            return None
        values = np.frombuffer(body, dtype="<f8")
        woff = values[:m].reshape(grid.shape).copy()
        return PairWeightTable(grid, params, woff, values[m:].copy())
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(path: Path, table: PairWeightTable) -> None:
    body = (
        np.ascontiguousarray(table.woff, dtype="<f8").tobytes()
        + np.ascontiguousarray(table.tail, dtype="<f8").tobytes()
    )
    header = json.dumps(
        {
            "descriptor": _cache_descriptor(table.grid, table.params),
            "sha256": hashlib.sha256(body).hexdigest(),
        },
        sort_keys=True,
    ).encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    # a private temp name per writer, so concurrent stores never interleave
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header + b"\n" + body)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def assemble_weights(grid: Grid, params: OperatorParams) -> PairWeightTable:
    """Build (or load from the FRACSOLVE_CACHE directory) the offset weight
    table and exterior tail vector for the given grid and order."""
    n = grid.n_interior
    if n > NODE_CAP:
        raise MemoryBudgetError(
            f"grid has {n} interior nodes but the pair pass is capped at "
            f"{NODE_CAP}; coarsen the grid"
        )
    path = _cache_path(grid, params)
    if path is not None and path.exists():
        cached = _cache_load(path, grid, params)
        if cached is not None:
            return cached

    woff = _offset_table(grid, params)
    tail = _inbox_exterior_tail(grid, woff) + _outside_box_tail(grid, params.sp)
    table = PairWeightTable(grid, params, woff, tail)
    if path is not None:
        _cache_store(path, table)
    return table


def _interior_vector(table: PairWeightTable, u) -> np.ndarray:
    arr = np.asarray(u, dtype=float).reshape(-1)
    if arr.size != table.grid.n_interior:
        raise ValueError(
            f"expected {table.grid.n_interior} interior values, got {arr.size}"
        )
    return arr


def _signed_power(t: np.ndarray, p: float) -> np.ndarray:
    """|t|^(p-1) sign(t), the derivative of |t|^p / p."""
    return np.sign(t) * np.abs(t) ** (p - 1.0)


def _same_grid_tables(table: PairWeightTable, extra) -> tuple:
    tables = (table, *extra)
    for t in extra:
        if t.grid is not table.grid:
            raise ValueError("weight tables were assembled on different grids")
    return tables


def _pair_chunks(tables, uv: np.ndarray):
    """Walk the pairs i < j (row-major) in blocks of at most _ROW_CHUNK
    rows, so temporaries stay within _ROW_CHUNK * n.  Yields the block's
    first row, each row's start within the block, the columns j, u_i - u_j
    and every table's packed weights."""
    n = uv.size
    ii, jj = tables[0].grid.pair_index
    packed = [t.packed_pair for t in tables]
    rows = np.arange(n)
    row_start = rows * (2 * n - 1 - rows) // 2
    for r0 in range(0, n - 1, _ROW_CHUNK):
        r1 = min(r0 + _ROW_CHUNK, n - 1)
        blk = slice(row_start[r0], row_start[r1])
        yield (
            r0,
            row_start[r0:r1] - row_start[r0],
            jj[blk],
            uv[ii[blk]] - uv[jj[blk]],
            [w[blk] for w in packed],
        )


def _energy_sum(tables, uv: np.ndarray) -> float:
    """Sum over tables of (1/p) [sum_{i != j} W_ij |u_i - u_j|^p
    + 2 sum_i T_i |u_i|^p], from one pass over the pairs i < j, in float64.

    The sum carries float64 summation noise only; line searches treat
    energy changes below optimize.EPS relative as noise.
    """
    half = 0.0
    for _, _, _, du, weights in _pair_chunks(tables, uv):
        adu = np.abs(du)
        terms = sum(w * adu**t.params.p / t.params.p for t, w in zip(tables, weights))
        half += float(np.sum(terms))
    au = np.abs(uv)
    terms = sum(t.tail * au**t.params.p / t.params.p for t in tables)
    return 2.0 * (half + float(np.sum(terms)))


def seminorm(table: PairWeightTable, u) -> float:
    """Gagliardo-type seminorm of order (s, p), including the exterior tail."""
    p = table.params.p
    return (p * energy(table, u)) ** (1.0 / p)


def energy(table: PairWeightTable, u, *extra: PairWeightTable) -> float:
    """Dirichlet energy (1/p) * seminorm^p, in float64.  Extra tables on the
    same grid add their energies from the same pass."""
    return _energy_sum(_same_grid_tables(table, extra), _interior_vector(table, u))


def operator_gradient(table: PairWeightTable, u, *extra: PairWeightTable) -> np.ndarray:
    """Gradient of the energy over interior nodes: entry i is the weak
    pairing of the monotone operator at u with the nodal basis vector e_i,
    so pairing it with u gives p * energy.  Extra tables on the same grid
    add their gradients from the same pass."""
    tables = _same_grid_tables(table, extra)
    uv = _interior_vector(table, u)
    n = uv.size
    grad = np.zeros(n)
    for r0, starts, j, du, weights in _pair_chunks(tables, uv):
        adu = np.abs(du)
        # antisymmetric flux of the pair: +flux on node i, -flux on node j
        flux = np.sign(du) * sum(
            w * adu ** (t.params.p - 1.0) for t, w in zip(tables, weights)
        )
        grad[r0 : r0 + starts.size] += np.add.reduceat(flux, starts)
        grad -= np.bincount(j, flux, minlength=n)
    grad += sum(t.tail * _signed_power(uv, t.params.p) for t in tables)
    return 2.0 * grad


def operator_hessian(table: PairWeightTable, u, *extra: PairWeightTable) -> np.ndarray:
    """Hessian of the energy over interior nodes, a dense symmetric n x n
    matrix: the weighted graph Laplacian with weight 2 (p-1) W_ij |u_i -
    u_j|^(p-2) per pair plus the tail diagonal 2 (p-1) T_i |u_i|^(p-2),
    summed over the tables.  It vanishes at u = 0 when every p > 2, and is
    infinite where a difference or a value is 0 and some p < 2.  Extra
    tables on the same grid add their Hessians from the same pass."""
    tables = _same_grid_tables(table, extra)
    uv = _interior_vector(table, u)
    n = uv.size
    hess = np.zeros((n, n))
    cols = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r0, starts, _, du, weights in _pair_chunks(tables, uv):
            adu = np.abs(du)
            off = -2.0 * sum(
                (t.params.p - 1.0) * w * adu ** (t.params.p - 2.0)
                for t, w in zip(tables, weights)
            )
            # the block's pairs i < j in row-major order, written through
            # boolean masks, which store in order rather than by index
            rows = slice(r0, r0 + starts.size)
            upper = cols > cols[rows, None]
            hess[rows][upper] = off
            hess.T[rows][upper] = off
        # a Laplacian row sums to zero
        diag = -np.sum(hess, axis=1)
        au = np.abs(uv)
        diag += 2.0 * sum((t.params.p - 1.0) * t.tail * au ** (t.params.p - 2.0) for t in tables)
    hess[np.diag_indices(n)] = diag
    return hess
