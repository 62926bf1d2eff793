"""Domains and Cartesian grids.

A domain is an axis-aligned box (an interval or a rectangle, one code
path for both) or a disk.  Grids are uniform lattices over the domain's
bounding box with an interior-node mask.  A discrete function is one value
per interior node; its zero extension to the lattice realizes the zero
exterior condition at the discrete level.

Tables over lattice offsets (the weight tables of the forms and the Riesz
kernel) are stored over nonnegative offsets, one entry per node of the
lattice; the grid alone knows the flat index of a node pair's offset into
them and how to mirror them to signed offsets for a linear convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

__all__ = [
    "Domain",
    "interval",
    "rectangle",
    "disk",
    "Grid",
]


# Relative margin inside a disk's radius: a lattice node that lies on the
# circle (such as (8/17, 15/17) on the unit circle at resolution 35, or
# a node on the bounding box of an off-centre disk) can round to a few
# ulp inside it, and must stay out of the interior all the same.
_DISK_RTOL = 1e-12


def _fast_len(n):
    """The smallest 5-smooth integer (2^a 3^b 5^c) not below n >= 1: a
    length numpy's real FFT runs fast at, where a large prime factor would
    make it several times slower."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"interval needs a < b, got [{a}, {b}]")
    return Domain("interval", (float(a), float(b)))


def rectangle(a1, b1, a2, b2):
    if not (-math.inf < a1 < b1 < math.inf and -math.inf < a2 < b2 < math.inf):
        raise ValueError("rectangle needs positive side lengths")
    return Domain("rectangle", (float(a1), float(b1), float(a2), float(b2)))


def disk(cx, cy, radius):
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise ValueError(f"disk needs a finite centre, got ({cx}, {cy})")
    if not 0 < radius < math.inf:
        raise ValueError("disk needs a positive radius")
    return Domain("disk", (float(cx), float(cy), float(radius)))


class Grid:
    """Uniform node lattice on the domain bounding box."""

    def __init__(self, domain, resolution):
        if isinstance(resolution, bool) or not isinstance(resolution, Integral):
            raise ValueError(f"resolution must be an integer, got {resolution!r}")
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
    def axes_swap(self):
        """Whether swapping the two axes maps the lattice onto itself, so
        that a table of a radial kernel over lattice offsets is symmetric
        in its two axis offsets."""
        return self.dim == 2 and self.h[0] == self.h[1]

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
    def interior_lattice(self):
        """Integer lattice coordinates of the interior nodes, shape (n, dim)."""
        return self.lattice[self.interior_idx]

    def interior_vector(self, vec):
        """``vec`` as a float array, checked to hold one value per interior
        node (shape ``(n_interior,)``)."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.n_interior,):
            raise ValueError(f"expected {self.n_interior} interior values, got shape {vec.shape}")
        return vec

    def pack(self, values):
        """The interior values of a lattice array (shape ``self.shape``, or
        flat in lattice order) as a flat solver vector."""
        values = np.asarray(values, dtype=float)
        if values.shape not in (self.shape, (self.points.shape[0],)):
            raise ValueError(
                f"expected one value per lattice node, shape {self.shape}, got shape {values.shape}"
            )
        return values.reshape(-1)[self.interior_idx]

    def zero_extend(self, vec):
        """The interior vector on the whole lattice, shape ``self.shape``,
        zero off the interior."""
        values = np.zeros(self.points.shape[0])
        values[self.interior_idx] = self.interior_vector(vec)
        return values.reshape(self.shape)

    def offset_index(self, i, j):
        """Flat index of ``|l_i - l_j|`` into a table of shape ``self.shape``,
        for broadcastable interior-node indices i, j and lattice coordinates
        l, built axis by axis: each temporary has the broadcast shape."""
        li = self.interior_lattice
        flat = 0
        for a, m in enumerate(self.shape):
            flat = flat * m + np.abs(li[i, a] - li[j, a])
        return flat

    def offset_counts(self):
        """Ordered interior pairs (i, j) at each nonnegative offset
        ``|l_i - l_j|``, shape ``self.shape`` (n at offset 0): the
        autocorrelation of the interior mask, folded over the offset signs."""
        mask = self.interior_mask.astype(float).reshape(self.shape)
        signed = [np.arange(1 - m, m) for m in self.shape]
        # a circular autocorrelation at least 2m - 1 long per axis, as the
        # convolution length is, holds every signed offset d without
        # wrapping, at index d mod its length
        fshape = self._convolution_shape
        axes = tuple(range(self.dim))
        spec = np.fft.rfftn(mask, fshape, axes)
        auto = np.fft.irfftn(spec * spec.conj(), fshape, axes)
        auto = auto[np.ix_(*(d % f for d, f in zip(signed, fshape)))]
        counts = np.zeros(self.shape)
        np.add.at(counts, np.ix_(*(np.abs(d) for d in signed)), auto)
        return np.rint(counts).astype(np.int64)

    @cached_property
    def _convolution_shape(self):
        # the full linear convolution has 3m - 2 entries per axis; each axis
        # is padded to a fast real-FFT length
        return tuple(_fast_len(3 * m - 2) for m in self.shape)

    def offset_spectrum(self, table):
        """The spectrum ``convolve`` multiplies by: the real FFT of a table
        over nonnegative offsets (shape ``self.shape``), mirrored to every
        signed offset and padded to the linear-convolution length.  A fixed
        table is transformed once and convolved with many times."""
        signed = table[np.ix_(*(np.abs(np.arange(1 - m, m)) for m in self.shape))]
        return np.fft.rfftn(signed, self._convolution_shape, tuple(range(self.dim)))

    def convolve(self, spectrum, values):
        """Linear convolution of lattice values (shape ``self.shape``) with
        the table whose ``offset_spectrum`` is given: entry l of the result
        is the sum over nodes k of ``table[|l - k|] * values[k]``."""
        fshape = self._convolution_shape
        axes = tuple(range(self.dim))
        full = np.fft.irfftn(np.fft.rfftn(values, fshape, axes) * spectrum, fshape, axes)
        # keep the centered m entries per axis ("same"), which start at m - 1
        return full[tuple(slice(m - 1, 2 * m - 1) for m in self.shape)]
