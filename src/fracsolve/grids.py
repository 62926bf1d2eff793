"""Domains, Cartesian grids, and nodal fields.

Grids are uniform lattices over the domain's bounding box with an
interior-node mask; a field carries one value per lattice node and is
identically zero off the interior, which realizes the zero exterior
condition at the discrete level.

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
    kind: str
    params: tuple

    @property
    def dim(self):
        return 1 if self.kind == "interval" else 2

    def bounding_box(self):
        if self.kind == "interval":
            a, b = self.params
            return np.array([a]), np.array([b])
        if self.kind == "rectangle":
            a1, b1, a2, b2 = self.params
            return np.array([a1, a2]), np.array([b1, b2])
        cx, cy, r = self.params
        return np.array([cx - r, cy - r]), np.array([cx + r, cy + r])

    def distance(self, points):
        """Distance to the boundary, clipped to 0 outside the closure."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "interval":
            a, b = self.params
            d = np.minimum(pts[:, 0] - a, b - pts[:, 0])
        elif self.kind == "rectangle":
            a1, b1, a2, b2 = self.params
            d = np.minimum.reduce(
                [pts[:, 0] - a1, b1 - pts[:, 0], pts[:, 1] - a2, b2 - pts[:, 1]]
            )
        else:
            cx, cy, r = self.params
            d = r - np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        return np.maximum(d, 0.0)

    def contains(self, points):
        """Strict interior membership; a disk also leaves out the nodes
        within _DISK_RTOL of its radius from the circle."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "interval":
            a, b = self.params
            return (pts[:, 0] > a) & (pts[:, 0] < b)
        if self.kind == "rectangle":
            a1, b1, a2, b2 = self.params
            return (
                (pts[:, 0] > a1) & (pts[:, 0] < b1) & (pts[:, 1] > a2) & (pts[:, 1] < b2)
            )
        cx, cy, r = self.params
        return np.hypot(pts[:, 0] - cx, pts[:, 1] - cy) < r * (1.0 - _DISK_RTOL)

    def describe(self):
        if self.kind == "interval":
            return {"type": "interval", "bounds": list(self.params)}
        if self.kind == "rectangle":
            return {"type": "rectangle", "bounds": list(self.params)}
        cx, cy, r = self.params
        return {"type": "disk", "center": [cx, cy], "radius": r}


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
        if domain.dim == 1:
            self.points = self.axes[0][:, None]
        else:
            xx, yy = np.meshgrid(self.axes[0], self.axes[1], indexing="ij")
            self.points = np.column_stack([xx.ravel(), yy.ravel()])
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
