"""Domains, Cartesian grids, and nodal fields.

A domain is an axis-aligned box (an interval or a rectangle, one code
path for both) or a disk.  Grids are uniform lattices over the domain's
bounding box with an interior-node mask; a field carries one value per
lattice node and is identically zero off the interior, which realizes the
zero exterior condition at the discrete level.

Tables over lattice offsets (the weight tables of the forms and the Riesz
kernel) are stored over nonnegative offsets, one entry per node of the
lattice; the grid alone knows how to read them at a pair of nodes and how
to mirror them to signed offsets for a linear convolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn

__all__ = [
    "Domain",
    "interval",
    "rectangle",
    "disk",
    "Grid",
    "build_grid",
    "ScalarField",
]


# Relative margin inside a disk's radius: a lattice node that lies on the
# circle (such as (8/17, 15/17) on the unit circle at resolution 35, or
# a node on the bounding box of an off-centre disk) can round to a few
# ulp inside it, and must stay out of the interior all the same.
_DISK_RTOL = 1e-12


@dataclass(frozen=True)
class Domain:
    """An axis-aligned box, whose params are the low and the high bound of
    each axis in turn (kind ``interval`` in 1D, ``rectangle`` in 2D), or a
    ``disk`` with params (cx, cy, radius)."""

    kind: str
    params: tuple

    @property
    def dim(self):
        return 2 if self.kind == "disk" else len(self.params) // 2

    def bounding_box(self):
        if self.kind == "disk":
            cx, cy, r = self.params
            return np.array([cx - r, cy - r]), np.array([cx + r, cy + r])
        return np.array(self.params[0::2]), np.array(self.params[1::2])

    def distance(self, points):
        """Distance to the boundary, clipped to 0 outside the closure."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "disk":
            cx, cy, r = self.params
            d = r - np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        else:
            lo, hi = self.bounding_box()
            d = np.minimum(pts - lo, hi - pts).min(axis=1)
        return np.maximum(d, 0.0)

    def contains(self, points):
        """Strict interior membership; a disk also leaves out the nodes
        within _DISK_RTOL of its radius from the circle."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "disk":
            cx, cy, r = self.params
            return np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) < r * (1.0 - _DISK_RTOL)
        lo, hi = self.bounding_box()
        return np.all((pts > lo) & (pts < hi), axis=1)

    def describe(self):
        if self.kind == "disk":
            cx, cy, r = self.params
            return {"type": "disk", "center": [cx, cy], "radius": r}
        return {"type": self.kind, "bounds": list(self.params)}


def interval(a, b):
    if not b > a:
        raise ValueError(f"interval needs a < b, got [{a}, {b}]")
    return Domain("interval", (float(a), float(b)))


def rectangle(a1, b1, a2, b2):
    if not (b1 > a1 and b2 > a2):
        raise ValueError("rectangle needs positive side lengths")
    return Domain("rectangle", (float(a1), float(b1), float(a2), float(b2)))


def disk(cx, cy, radius):
    if not radius > 0:
        raise ValueError("disk needs a positive radius")
    return Domain("disk", (float(cx), float(cy), float(radius)))


class Grid:
    """Uniform node lattice on the domain bounding box."""

    def __init__(self, domain, resolution):
        if resolution < 3:
            raise ValueError(f"resolution must be at least 3, got {resolution}")
        self.domain = domain
        self.resolution = int(resolution)
        lo, hi = domain.bounding_box()
        self.axes = tuple(np.linspace(lo[a], hi[a], resolution) for a in range(domain.dim))
        self.shape = tuple(len(ax) for ax in self.axes)
        self.h = tuple(float(ax[1] - ax[0]) for ax in self.axes)
        self.points = np.column_stack(
            [x.ravel() for x in np.meshgrid(*self.axes, indexing="ij")]
        )
        self.cell_volume = float(np.prod(self.h))
        # integer lattice coordinates of every node, for offset arithmetic
        self.lattice = np.stack(
            np.unravel_index(np.arange(self.points.shape[0]), self.shape), axis=1
        )
        self.interior_mask = domain.contains(self.points)
        self.interior_idx = np.flatnonzero(self.interior_mask)

    @property
    def dim(self):
        return self.domain.dim

    @property
    def n_interior(self):
        return int(self.interior_idx.size)

    @property
    def interior_points(self):
        return self.points[self.interior_idx]

    @property
    def interior_distance(self):
        """Distance to the boundary at the interior nodes."""
        return self.domain.distance(self.interior_points)

    @cached_property
    def pair_index(self):
        """Interior-node pairs (i, j) with i < j, row-major, built on first use."""
        return np.triu_indices(self.n_interior, 1)

    def pack(self, field):
        """Interior values as a flat solver vector."""
        return field.values[self.interior_idx].copy()

    def zero_extend(self, vec):
        """The interior vector on the whole lattice, shape ``self.shape``,
        zero off the interior."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_interior,):
            raise ValueError(f"expected {self.n_interior} interior values, got shape {vec.shape}")
        values = np.zeros(self.points.shape[0])
        values[self.interior_idx] = vec
        return values.reshape(self.shape)

    def unpack(self, vec):
        """Rebuild a field from an interior vector (exterior zero)."""
        return ScalarField(self, self.zero_extend(vec).reshape(-1))

    def at_offsets(self, table, i, j):
        """``table[|l_i - l_j|]`` for broadcastable interior-node indices i, j,
        where l is the lattice coordinate and table has shape ``self.shape``."""
        li = self.lattice[self.interior_idx]
        return table[tuple(np.abs(li[i, a] - li[j, a]) for a in range(self.dim))]

    def convolve(self, table, values):
        """Linear convolution of lattice values (shape ``self.shape``) with a
        table over nonnegative offsets: entry l of the result is the sum over
        nodes k of ``table[|l - k|] * values[k]``."""
        signed = table[np.ix_(*(np.abs(np.arange(1 - m, m)) for m in self.shape))]
        # the full linear convolution has 3m - 2 entries per axis; pad each
        # axis to a fast real-FFT length and keep the centered m ("same"),
        # which start at m - 1
        fshape = [next_fast_len(3 * m - 2, True) for m in self.shape]
        full = irfftn(rfftn(values, fshape) * rfftn(signed, fshape), fshape)
        return full[tuple(slice(m - 1, 2 * m - 1) for m in self.shape)]


def build_grid(domain, resolution):
    return Grid(domain, resolution)


class ScalarField:
    """One value per node, exterior extension identically zero."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.points.shape[0],):
            raise ValueError(
                f"values shape {values.shape} does not match grid ({grid.points.shape[0]},)"
            )
        self.grid = grid
        self.values = np.where(grid.interior_mask, values, 0.0)
