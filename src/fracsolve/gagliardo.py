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

One pass over the pairs i < j serves every table of an ``Operator``: per
table it raises |u_i - u_j|^(p-1) once, times W_ij the pair's flux, whose
dot product with |u_i - u_j| is the energy term and whose signed sum over
the tables is the gradient (``forms``).  The operator of a run, the
fractional (p,q)-operator of the paper, holds its tables, their grid, the
pair blocks every pass walks (planned on the first, with each pair's
weight in every table) and the last point such a pass evaluated
(``Operator.last``), so the energy, seminorm or gradient at that point
again costs O(n), with the same bits.
A solve evaluates each point once: a trial's energy and then its
gradient, a warm start at the last answer, the verify of an answer and
its seminorm.  A ``seminorm`` away from that point makes a one-table
pass without the gradient and keeps nothing.  The operator also holds
the n x n array that the Newton steps of the run fill with the Hessian
(``workspace_hessian``) and the Cholesky factor they keep of it once CG
preconditioned with its diagonal fails.  The tables are plain data.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grids import Grid
from .io_utils import write_file
from .quadrature import (
    _FAR_RULES,
    _far_rule,
    halfplane_profile_constant,
    pair_integral,
    power_segment_integral,
    quadrant_integral,
)

# A pair pass walks the pairs i < j in blocks of whole rows holding fewer
# than _PAIR_BLOCK pairs, so each float64 temporary of a pass or a Hessian
# fill stays below 128 KB, glibc's default mmap threshold.  Such a
# temporary comes from the heap whatever the process allocated before,
# rather than being mapped and unmapped, page faults and all, on every call.
_PAIR_BLOCK = 1 << 14
# offset rows per block of a table whose axes swap: a block integrates the
# columns up to its last row, so a short block wastes little above the
# diagonal, and a long one shares the set-up of its axis nodes (8 rows was
# the fastest of 1 to 64 at resolutions 25 and 61)
_SWAP_ROWS = 8
CACHE_ENV = "FRACSOLVE_CACHE"
# the cache's format version, raised whenever assembly changes a table's
# bits, so that a file written by older rules is a miss and is rebuilt
_CACHE_VERSION = 4

# Largest interior node count a table is assembled for.  An operator's
# pair blocks hold the column j of each pair i < j and its weight in each
# table (n^2 / 2 eight-byte words apiece, 67 MB at n = 4096); a pass's
# temporaries are blocks of fewer than _PAIR_BLOCK pairs.  A solve adds the
# operator's dense n x n Hessian workspace (134 MB at n = 4096), held for
# the whole run from its first Newton step.  A run whose Newton steps all
# solve by CG preconditioned with the Hessian's diagonal holds nothing
# more; from the first step where that CG fails, it keeps a Cholesky
# factor of the same size, with the inverses of its diagonal blocks (n x
# optimize._SOLVE_BLOCK doubles; see optimize._factorize).  A
# factorization frees the kept factor first and holds the LAPACK copy of
# the Hessian while it runs.
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
        if not 1.0 < self.p < math.inf:
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

    @property
    def pair(self) -> np.ndarray:
        """The symmetric n x n matrix W_ij with a zero diagonal, built anew
        on every access; only the tests and the benchmark read it."""
        n = self.grid.n_interior
        rows = np.arange(n)
        out = np.empty((n, n))
        chunk = max(1, _PAIR_BLOCK // n)
        for a0 in range(0, n, chunk):
            out[a0 : a0 + chunk] = np.take(
                self.woff, self.grid.offset_index(rows[a0 : a0 + chunk, None], rows)
            )
        return out


def _offset_table(grid: Grid, params: OperatorParams) -> np.ndarray:
    """Weights indexed by nonnegative lattice offset, shape = grid.shape.

    Offset 0 is the self-pair, which never contributes to differences, so
    its weight is 0 and it is not integrated.  Offsets with Chebyshev length
    1 take the model weight and the others the kernel, each split into
    Cartesian blocks by the first axis whose offset is 1 (near) or at least
    2 (far).  When the axes swap, only the offsets (k, l) with l <= k are
    integrated, the far ones in row blocks, and the table is mirrored."""
    h = np.asarray(grid.h, dtype=float)
    beta = grid.dim + params.sp
    deltas = [np.arange(m) * h_a for m, h_a in zip(grid.shape, h)]
    table = np.empty(grid.shape)
    table[(0,) * grid.dim] = 0.0
    for a in range(1 if grid.axes_swap else grid.dim):
        block = (slice(0, 1),) * a + (slice(1, 2),) + (slice(0, 2),) * (grid.dim - a - 1)
        near = [d[b] for d, b in zip(deltas, block)]
        dist = np.sqrt(sum(d**2 for d in np.meshgrid(*near, indexing="ij")))
        table[block] = dist ** -params.p * pair_integral(params.p - beta, near, h)
    if grid.axes_swap:
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
    the lattice bounding box: closed forms for the half-planes beyond the
    faces, less the four corner quadrants they count twice, whose cells
    take a Gauss rule sized by their distance to the corner
    (_corner_cells)."""
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

    # Half-planes double-count the four corner quadrants.  Each cell's
    # rule is symmetric, so the distances from lattice row i to the high
    # face are those from row m - i to the low face: one set of low-corner
    # cell integrals (_corner_cells) serves all four corners, read at (i,
    # j), (i, m - j), (m - i, j) and (m - i, m - j).  Only the cells some
    # interior node reads are integrated, each once; when the axes swap,
    # cell (a, b) equals cell (b, a) and is read as (min, max).
    m1, m2 = grid.shape[0] - 1, grid.shape[1] - 1
    i, j = grid.interior_lattice.T
    rows = np.concatenate([i, i, m1 - i, m1 - i])
    cols = np.concatenate([j, m2 - j, j, m2 - j])
    if grid.axes_swap:
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
    cells, read = np.unique(rows * grid.shape[1] + cols, return_inverse=True)
    a, b = np.divmod(cells, grid.shape[1])
    return tail - _corner_cells(sp, a, b, h)[read].reshape(4, -1).sum(axis=0)


def _corner_cells(sp: float, a: np.ndarray, b: np.ndarray, widths) -> np.ndarray:
    """Per lattice cell (a, b) of a box corner: the integral over [a w1,
    (a + 1) w1] x [b w2, (b + 1) w2] of quadrant_integral(sp, y1, y2).

    The quadrant integral is singular at the corner alone and analytic
    elsewhere, so a cell takes the far-field order of its distance to the
    corner in widths, k = hypot(a w1, b w2) / max(w1, w2), as an axis
    offset of k widths would (quadrature._far_rule): 10 points per axis
    below 2.5 widths, down to 4 from 30.5 on.  Its tensor rule is the upper
    panel of that order's split rule, nodes xi and weights on [0, 1], and
    the cells of one order are integrated together."""
    w1, w2 = widths
    order = _far_rule(np.hypot(a * w1, b * w2), max(w1, w2))
    out = np.empty(a.shape)
    for r in np.unique(order):
        xi, wt = (x[x.size // 2 :] for x in _FAR_RULES[r])
        sel = order == r
        y1, y2 = w1 * (a[sel, None, None] + xi[:, None]), w2 * (b[sel, None, None] + xi)
        out[sel] = quadrant_integral(sp, y1, y2) @ wt @ wt
    return w1 * w2 * out


def _inbox_exterior_tail(grid: Grid, woff: np.ndarray) -> np.ndarray:
    """Sum of offset weights from each interior cell to all non-interior
    cells of the lattice, via one linear convolution.

    The FFT carries an absolute error of about eps times the largest tail
    (at most 3 eps against a math.fsum of the same weights on disk(0, 0, 1)
    at resolutions 25 and 61, for (s, p) = (0.6, 3), (0.5, 2.5) and
    (0.6, 2.2)), so the smallest entries are accurate only to about 1e-13
    relative."""
    ext = (~grid.interior_mask).astype(float).reshape(grid.shape)
    return grid.convolve(grid.offset_spectrum(woff), ext).reshape(-1)[grid.interior_idx]


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
    root = os.environ.get(CACHE_ENV)
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
    write_file(path, header + b"\n" + body)


def assemble_weights(grid: Grid, params: OperatorParams) -> PairWeightTable:
    """Build (or load from the FRACSOLVE_CACHE directory) the offset weight
    table and exterior tail vector for the given grid and order.  A table
    the cache cannot store is returned with a warning."""
    n = grid.n_interior
    if n > NODE_CAP:
        raise MemoryBudgetError(
            f"grid has {n} interior nodes but the pair pass is capped at "
            f"{NODE_CAP}; coarsen the grid"
        )
    path = _cache_path(grid, params)
    if path is not None:
        cached = _cache_load(path, grid, params)
        if cached is not None:
            return cached

    woff = _offset_table(grid, params)
    tail = _inbox_exterior_tail(grid, woff) + _outside_box_tail(grid, params.sp)
    table = PairWeightTable(grid, params, woff, tail)
    if path is not None:
        # the cache is best-effort; the message names the directory alone,
        # so a run whose tables all fail to store warns once
        try:
            _cache_store(path, table)
        except OSError as e:
            warnings.warn(
                f"weight cache {path.parent} could not be written "
                f"({e.strerror or type(e).__name__}); the table is used uncached"
            )
    return table


def _block_plan(grid: Grid, tables) -> tuple:
    """The pairs i < j, row-major, in blocks of whole rows (row i holds the
    pairs (i, j > i)) that hold fewer than _PAIR_BLOCK pairs, or one row:
    per block its rows, each row's start and length, the columns j and
    every table's weights, each pair's offset looked up once.  At n = 127
    this is one block; at n = 437, six."""
    n = grid.n_interior
    rows = np.arange(n)
    row_start = rows * (2 * n - 1 - rows) // 2
    blocks = []
    r0 = 0
    while r0 < n - 1:
        fits = int(np.searchsorted(row_start, row_start[r0] + _PAIR_BLOCK)) - 1
        r1 = min(max(fits, r0 + 1), n - 1)
        starts, lens = row_start[r0:r1] - row_start[r0], n - 1 - rows[r0:r1]
        i = np.repeat(rows[r0:r1], lens)
        # row i's columns run from i + 1
        j = np.arange(i.size) + np.repeat(rows[r0:r1] + 1 - starts, lens)
        at = grid.offset_index(i, j)
        blocks.append((slice(r0, r1), starts, lens, j, [np.take(t.woff, at) for t in tables]))
        r0 = r1
    return tuple(blocks)


def _pair_chunks(op: Operator, uv: np.ndarray):
    """Walk the pairs i < j by the operator's blocks, planned on its first
    walk.  Yields the block's rows, each row's start within the block, the
    columns j, u_i - u_j and every table's weights; u_i is u repeated by
    row rather than gathered."""
    if op.blocks is None:
        op.blocks = _block_plan(op.grid, op.tables)
    for rows, starts, lens, j, weights in op.blocks:
        yield rows, starts, j, np.repeat(uv[rows], lens) - np.take(uv, j), weights


def _form_pass(op: Operator, uv: np.ndarray, gradient: bool):
    """Each table's energy (1/p) [sum_{i != j} W_ij |u_i - u_j|^p + 2 sum_i
    T_i |u_i|^p] and, when ``gradient`` is set, the gradient summed over
    the tables (else None), from one walk over the operator's pair blocks.
    Without the gradient the pass takes the first table alone.

    Per table, |u_i - u_j|^(p-1) is raised once: times W it is the pair's
    flux, and the energy term is that flux times |u_i - u_j|.  A table's
    energy does not depend on the other tables or on ``gradient``, so every
    pass gives it the same bits."""
    tables = op.tables if gradient else op.tables[:1]
    n = uv.size
    half = [0.0] * len(tables)
    grad = np.zeros(n) if gradient else None
    for rows, starts, j, du, weights in _pair_chunks(op, uv):
        adu = np.abs(du)
        flux = None
        for k, (t, w) in enumerate(zip(tables, weights)):
            table_flux = adu ** (t.params.p - 1.0)
            table_flux *= w
            half[k] += float(table_flux @ adu)
            if gradient:
                if flux is None:
                    flux = table_flux
                else:
                    flux += table_flux
        if gradient:
            # antisymmetric flux of the pair: +flux on node i, -flux on node j
            np.copysign(flux, du, out=flux)
            grad[rows] += np.add.reduceat(flux, starts)
            grad -= np.bincount(j, flux, minlength=n)
    au = np.abs(uv)
    energies = []
    tail_flux = 0.0
    for k, t in enumerate(tables):
        tpow = t.tail * au ** (t.params.p - 1.0)
        energies.append(2.0 * (half[k] + float(tpow @ au)) / t.params.p)
        if gradient:
            tail_flux = tail_flux + np.copysign(tpow, uv)
    if gradient:
        grad += tail_flux
        grad *= 2.0
    return energies, grad


@dataclass(frozen=True)
class FormPoint:
    """The forms of an operator at one interior vector ``x``, from one
    pass: each table's energy and the gradient summed over the tables.
    Read-only."""

    x: np.ndarray
    energies: tuple
    grad: np.ndarray


class Operator:
    """The operator of a run: the sum of the forms of its weight tables,
    which share one grid, such as the (s1,p) and the (s2,q) table of the
    fractional (p,q)-Laplacian.  Its forms are read through ``forms``,
    ``seminorm``, ``operator_gradient`` and ``workspace_hessian``, one
    reader per quantity.  ``blocks`` are the pair blocks every pass walks
    (``_block_plan``), planned on the first; ``last`` is the last point a
    gradient pass over the tables evaluated (see ``forms``),
    ``hessian_workspace`` the n x n array that workspace_hessian fills,
    allocated on first use, and ``factor`` the Cholesky factor of such a
    Hessian with the inverses of its diagonal blocks, which the Newton
    steps of the run keep as their preconditioner from the first step
    where CG preconditioned with the Hessian's diagonal fails (see
    ``optimize._newton_direction``), None until then; none refers to a
    table, so an operator and its tables are freed with the run."""

    def __init__(self, *tables: PairWeightTable):
        if not tables or not all(isinstance(t, PairWeightTable) for t in tables):
            raise TypeError("an operator takes one or more weight tables")
        self.grid = tables[0].grid
        if any(t.grid is not self.grid for t in tables):
            raise ValueError("weight tables were assembled on different grids")
        self.tables = tables
        self.blocks: tuple | None = None
        self.last: FormPoint | None = None
        self.hessian_workspace: np.ndarray | None = None
        self.factor: tuple[np.ndarray, np.ndarray] | None = None

    def kept(self, uv: np.ndarray) -> FormPoint | None:
        """The kept point when it is at ``uv`` exactly, else None."""
        if self.last is not None and np.array_equal(self.last.x, uv):
            return self.last
        return None


def forms(op: Operator, u) -> FormPoint:
    """Each table's energy and the summed gradient at the interior vector u.
    The operator's kept point is returned when it is at u, with the same
    bits as a new pass; any other point is evaluated by one pass and kept,
    replacing the point before it."""
    uv = op.grid.interior_vector(u)
    point = op.kept(uv)
    if point is None:
        energies, grad = _form_pass(op, uv, gradient=True)
        x = uv.copy()
        x.flags.writeable = grad.flags.writeable = False
        point = op.last = FormPoint(x, tuple(energies), grad)
    return point


def seminorm(op: Operator, u) -> float:
    """Gagliardo-type seminorm of the operator's first table, of order
    (s1, p), including the exterior tail.  At the kept point it is read
    from there; elsewhere a one-table pass computes it and keeps nothing."""
    uv = op.grid.interior_vector(u)
    table = op.tables[0]
    point = op.kept(uv)
    e = point.energies[0] if point else _form_pass(op, uv, gradient=False)[0][0]
    return (table.params.p * e) ** (1.0 / table.params.p)


def operator_gradient(op: Operator, u) -> np.ndarray:
    """Gradient of the energy over interior nodes: entry i is the weak
    pairing of the monotone operator at u with the nodal basis vector e_i,
    so pairing it with u gives p * energy for a one-table operator.  The
    tables' gradients are summed.  A new array, computed by (or read from)
    forms."""
    return forms(op, u).grad.copy()


def workspace_hessian(op: Operator, u) -> np.ndarray:
    """Hessian of the energy over interior nodes, a dense symmetric n x n
    matrix: the weighted graph Laplacian with weight 2 (p-1) W_ij |u_i -
    u_j|^(p-2) per pair plus the tail diagonal 2 (p-1) T_i |u_i|^(p-2),
    summed over the tables.  It vanishes at u = 0 when every p > 2, and is
    infinite where a difference or a value is 0 and some p < 2.  It is
    written into the operator's n x n workspace and returned, so the next
    call on the same operator overwrites it: the Newton steps of a run
    reuse one array rather than map a fresh one per step."""
    uv = op.grid.interior_vector(u)
    n, tables = uv.size, op.tables
    if op.hessian_workspace is None:
        op.hessian_workspace = np.empty((n, n))
    hess = op.hessian_workspace
    cols = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        for rows, _, _, du, weights in _pair_chunks(op, uv):
            adu = np.abs(du)
            off = -2.0 * sum(
                (t.params.p - 1.0) * w * adu ** (t.params.p - 2.0)
                for t, w in zip(tables, weights)
            )
            # the block's pairs i < j in row-major order, written through
            # boolean masks, which store in order rather than by index; the
            # mask spans the columns right of the block's first row only
            right = slice(rows.start + 1, n)
            upper = cols[right] > cols[rows, None]
            hess[rows, right][upper] = off
            hess[right, rows].T[upper] = off
        # a Laplacian row sums to zero; the diagonal is cleared first, as
        # it holds whatever the array held before
        hess[np.diag_indices(n)] = 0.0
        diag = -np.sum(hess, axis=1)
        au = np.abs(uv)
        diag += 2.0 * sum((t.params.p - 1.0) * t.tail * au ** (t.params.p - 2.0) for t in tables)
    hess[np.diag_indices(n)] = diag
    return hess
