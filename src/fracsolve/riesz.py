"""Riesz-potential convolution and the fractional gradient field.

The fractional gradient of order s is the classical gradient of the Riesz
potential of order 1 - s:  first convolve the zero extension of an
interior vector with the kernel gamma * |z|^(alpha - N) (alpha = 1 - s),
then take centered finite differences of the potential on the lattice and
keep the interior nodes.

The convolution is linear (non-circular): the kernel is tabulated as
cell integrals over every signed offset between lattice nodes, so
a single FFT convolution reproduces the exact dense sum over all support
cells with no wraparound.  The origin cell uses the exact singular cell
average; other cells use per-cell Gauss quadrature (2D) or closed-form
antiderivatives (1D).

The module also holds the two kernel facts the table needs: the Riesz
constant gamma(N, alpha) and the kernel's average over the origin cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.signal import fftconvolve
from scipy.special import gammaln

from .grids import Grid
from .quadrature import cell_average_power, power_segment_integral

_GL_X, _GL_W = leggauss(10)
_CHUNK = 64


def riesz_normalization(dim, alpha):
    """Constant gamma(dim, alpha) of the kernel gamma * |x|^(alpha-dim).

    Evaluated through log-Gamma to stay stable for small alpha.
    """
    if not 0.0 < alpha < dim:
        raise ValueError(f"Riesz order needs 0 < alpha < dim, got alpha={alpha}, dim={dim}")
    log_val = (
        gammaln((dim - alpha) / 2.0)
        - gammaln(alpha / 2.0)
        - 0.5 * dim * math.log(math.pi)
        - alpha * math.log(2.0)
    )
    return math.exp(log_val)


def riesz_cell_average(alpha, widths):
    """Average of the kernel over the origin-centered cell of the given
    widths, in dimension len(widths)."""
    dim = len(widths)
    return riesz_normalization(dim, alpha) * cell_average_power(alpha - dim, widths)


@dataclass
class ConvolutionPlan:
    """Cell-integrated Riesz kernel tabulated over signed lattice offsets."""

    grid: Grid
    alpha: float
    kernel: np.ndarray


def _kernel_1d(grid: Grid, alpha: float, radius: int) -> np.ndarray:
    h = grid.h[0]
    gamma = riesz_normalization(1, alpha)
    half = np.zeros(radius + 1)
    half[0] = 2.0 * gamma * (h / 2.0) ** alpha / alpha
    if radius >= 1:
        d = np.arange(1, radius + 1)
        half[1:] = gamma * power_segment_integral(
            alpha - 1.0, d * h - h / 2.0, d * h + h / 2.0
        )
    return np.concatenate([half[:0:-1], half])


def _kernel_2d(grid: Grid, alpha: float, radii: tuple[int, int]) -> np.ndarray:
    h1, h2 = grid.h
    gamma = riesz_normalization(2, alpha)
    r1, r2 = radii
    quarter = np.empty((r1 + 1, r2 + 1))
    z2 = (np.arange(r2 + 1) * h2)[:, None] + 0.5 * h2 * _GL_X[None, :]
    w2 = 0.5 * h2 * _GL_W
    for a0 in range(0, r1 + 1, _CHUNK):
        d1 = np.arange(a0, min(a0 + _CHUNK, r1 + 1))
        z1 = (d1 * h1)[:, None] + 0.5 * h1 * _GL_X[None, :]
        rsq = (
            z1[:, None, :, None] ** 2 + z2[None, :, None, :] ** 2
        )  # (chunk, r2+1, 10, 10)
        vals = rsq ** ((alpha - 2.0) / 2.0)
        quarter[a0 : a0 + _CHUNK] = gamma * np.einsum(
            "abij,i,j->ab", vals, 0.5 * h1 * _GL_W, w2
        )
    quarter[0, 0] = riesz_cell_average(alpha, grid.h) * grid.cell_volume
    if h1 == h2 and r1 == r2:
        quarter = 0.5 * (quarter + quarter.T)  # enforce exact octant symmetry
    i1 = np.abs(np.arange(-r1, r1 + 1))
    i2 = np.abs(np.arange(-r2, r2 + 1))
    return quarter[np.ix_(i1, i2)]


def plan_riesz_convolution(grid: Grid, alpha: float) -> ConvolutionPlan:
    """Tabulate the order-alpha Riesz kernel for linear convolution on grid,
    over every offset between lattice nodes."""
    if not 0.0 < alpha < grid.dim:
        raise ValueError(f"Riesz order must lie in (0, {grid.dim}), got {alpha}")
    radii = tuple(m - 1 for m in grid.shape)
    if grid.dim == 1:
        kernel = _kernel_1d(grid, alpha, radii[0])
    else:
        kernel = _kernel_2d(grid, alpha, radii)
    return ConvolutionPlan(grid, float(alpha), kernel)


def _same_lattice(a: Grid, b: Grid) -> bool:
    """Equal node counts and spacings: a kernel table fits both grids."""
    return a is b or (
        a.shape == b.shape and np.allclose(a.h, b.h, rtol=1e-12, atol=0.0)
    )


def riesz_potential(plan: ConvolutionPlan, grid: Grid, v) -> np.ndarray:
    """Riesz potential of the interior vector v of grid, zero-extended, on
    the full lattice."""
    if not _same_lattice(plan.grid, grid):
        raise ValueError("convolution plan was built on a different grid")
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.n_interior,):
        raise ValueError(f"expected {grid.n_interior} interior values, got shape {v.shape}")
    values = np.zeros(grid.points.shape[0])
    values[grid.interior_idx] = v
    return fftconvolve(values.reshape(grid.shape), plan.kernel, mode="same")


def riesz_gradient(
    grid: Grid, v, s: float, plan: ConvolutionPlan | None = None
) -> np.ndarray:
    """Fractional gradient of order s in (0, 1) of the zero extension of the
    interior vector v, at the interior nodes: shape (n_interior, dim)."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"gradient order s must lie in (0, 1), got {s}")
    if plan is None:
        plan = plan_riesz_convolution(grid, 1.0 - s)
    elif abs(plan.alpha - (1.0 - s)) > 1e-14:
        raise ValueError("convolution plan was built for a different order")
    pot = riesz_potential(plan, grid, v)
    idx = grid.interior_idx
    if grid.dim == 1:
        g = np.zeros(grid.shape[0])
        g[1:-1] = (pot[2:] - pot[:-2]) / (2.0 * grid.h[0])
        return g[idx, None]
    g1 = np.zeros(grid.shape)
    g2 = np.zeros(grid.shape)
    g1[1:-1, :] = (pot[2:, :] - pot[:-2, :]) / (2.0 * grid.h[0])
    g2[:, 1:-1] = (pot[:, 2:] - pot[:, :-2]) / (2.0 * grid.h[1])
    return np.column_stack([g1.ravel()[idx], g2.ravel()[idx]])
