"""Riesz-potential convolution and the fractional gradient field.

The fractional gradient of order s is the classical gradient of the Riesz
potential of order 1 - s:  first convolve the zero extension of an
interior vector with the kernel gamma * |z|^(alpha - N) (alpha = 1 - s),
then take centered finite differences of the potential on the lattice and
keep the interior nodes.

The kernel depends on |z| alone, so it is tabulated as cell integrals over
the nonnegative lattice offsets, like the weight tables of the forms;
``Grid.convolve`` mirrors it to every signed offset and runs one linear
(non-circular) FFT convolution, which reproduces the exact dense sum over
all support cells with no wraparound.  The origin cell uses the exact
singular cell average; other cells use per-cell Gauss quadrature (2D) or
closed-form antiderivatives (1D).

The module also holds the two kernel facts the table needs: the Riesz
constant gamma(N, alpha) and the kernel's average over the origin cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
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
    """Cell-integrated Riesz kernel of order alpha on grid, tabulated over
    nonnegative lattice offsets (shape ``grid.shape``)."""

    grid: Grid
    alpha: float
    kernel: np.ndarray


def _kernel_1d(grid: Grid, alpha: float) -> np.ndarray:
    """The half-line of offsets 0 .. m - 1."""
    h = grid.h[0]
    gamma = riesz_normalization(1, alpha)
    half = np.empty(grid.shape[0])
    half[0] = 2.0 * gamma * (h / 2.0) ** alpha / alpha
    d = np.arange(1, grid.shape[0])
    half[1:] = gamma * power_segment_integral(alpha - 1.0, d * h - h / 2.0, d * h + h / 2.0)
    return half


def _kernel_2d(grid: Grid, alpha: float) -> np.ndarray:
    """The quadrant of offsets (0 .. m1 - 1) x (0 .. m2 - 1)."""
    h1, h2 = grid.h
    m1, m2 = grid.shape
    gamma = riesz_normalization(2, alpha)
    quarter = np.empty(grid.shape)
    z2 = (np.arange(m2) * h2)[:, None] + 0.5 * h2 * _GL_X[None, :]
    w2 = 0.5 * h2 * _GL_W
    for a0 in range(0, m1, _CHUNK):
        d1 = np.arange(a0, min(a0 + _CHUNK, m1))
        z1 = (d1 * h1)[:, None] + 0.5 * h1 * _GL_X[None, :]
        rsq = (
            z1[:, None, :, None] ** 2 + z2[None, :, None, :] ** 2
        )  # (chunk, m2, 10, 10)
        vals = rsq ** ((alpha - 2.0) / 2.0)
        quarter[a0 : a0 + _CHUNK] = gamma * np.einsum(
            "abij,i,j->ab", vals, 0.5 * h1 * _GL_W, w2
        )
    quarter[0, 0] = riesz_cell_average(alpha, grid.h) * grid.cell_volume
    if h1 == h2:
        quarter = 0.5 * (quarter + quarter.T)  # enforce exact octant symmetry
    return quarter


def plan_riesz_convolution(grid: Grid, alpha: float) -> ConvolutionPlan:
    """Tabulate the order-alpha Riesz kernel for linear convolution on grid,
    over every nonnegative offset between lattice nodes."""
    if not 0.0 < alpha < grid.dim:
        raise ValueError(f"Riesz order must lie in (0, {grid.dim}), got {alpha}")
    kernel = _kernel_1d(grid, alpha) if grid.dim == 1 else _kernel_2d(grid, alpha)
    return ConvolutionPlan(grid, float(alpha), kernel)


def riesz_gradient(plan: ConvolutionPlan, v) -> np.ndarray:
    """Fractional gradient of order s = 1 - plan.alpha of the zero extension
    of the interior vector v of plan.grid, at the interior nodes: shape
    (n_interior, dim): centered differences of the potential.  Only a node
    on the lattice edge, a boundary node of a disk that rounding counts as
    interior, gets a one-sided difference."""
    grid = plan.grid
    pot = grid.convolve(plan.kernel, grid.zero_extend(v))
    grads = np.reshape(np.gradient(pot, *grid.h), (grid.dim, -1))
    return grads.T[grid.interior_idx]
