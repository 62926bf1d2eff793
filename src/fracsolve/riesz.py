"""Riesz-potential convolution and the fractional gradient field.

The fractional gradient of order s is the classical gradient of the Riesz
potential of order 1 - s:  first convolve the zero extension of an
interior vector with the kernel gamma * |z|^(alpha - N) (alpha = 1 - s),
then take centered finite differences of the potential on the lattice and
keep the interior nodes.

The kernel depends on |z| alone, so it is tabulated as cell integrals over
the nonnegative lattice offsets, like the weight tables of the forms;
``Grid.offset_spectrum`` mirrors it to every signed offset and transforms
it once per plan, and ``Grid.convolve`` runs one linear (non-circular) FFT
convolution with that spectrum, which reproduces the exact dense sum over
all support cells with no wraparound.  The origin cell uses the exact
singular cell average; every other cell uses one 10-point Gauss rule per
cell axis, the same in every dimension.

The module also holds the two kernel facts the table needs: the Riesz
constant gamma(N, alpha) and the kernel's average over the origin cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid
from .quadrature import _GL_W, _GL_X, cell_average_power


def riesz_normalization(dim, alpha):
    """Constant gamma(dim, alpha) of the kernel gamma * |x|^(alpha-dim).

    Evaluated through log-Gamma to stay stable for small alpha.
    """
    if not 0.0 < alpha < dim:
        raise ValueError(f"Riesz order needs 0 < alpha < dim, got alpha={alpha}, dim={dim}")
    log_val = (
        math.lgamma((dim - alpha) / 2.0)
        - math.lgamma(alpha / 2.0)
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
    """The ``grid.offset_spectrum`` of the cell-integrated Riesz kernel on
    grid, which every convolution reads."""

    grid: Grid
    spectrum: np.ndarray


def _kernel(grid: Grid, alpha: float) -> np.ndarray:
    """The cell-integrated kernel of order alpha over the nonnegative
    offsets (0 .. m_1 - 1) x ... x (0 .. m_N - 1), shape ``grid.shape``: a
    Gauss rule of each cell on every axis, and the exact average over the
    origin cell."""
    dim = grid.dim
    rsq = 0.0
    for a, (m, h) in enumerate(zip(grid.shape, grid.h)):
        z = (np.arange(m) * h)[:, None] + 0.5 * h * _GL_X[None, :]
        # the cell offsets on axis a, their nodes on axis dim + a
        shape = [1] * (2 * dim)
        shape[a], shape[dim + a] = m, _GL_X.size
        rsq = rsq + np.reshape(z**2, shape)
    vals = rsq ** ((alpha - dim) / 2.0)
    cells, nodes = "ab"[:dim], "ij"[:dim]
    kernel = riesz_normalization(dim, alpha) * np.einsum(
        f"{cells}{nodes},{','.join(nodes)}->{cells}", vals, *(0.5 * h * _GL_W for h in grid.h)
    )
    kernel[(0,) * dim] = riesz_cell_average(alpha, grid.h) * grid.cell_volume
    if grid.axes_swap:
        kernel = 0.5 * (kernel + kernel.T)  # enforce exact octant symmetry
    return kernel


def plan_riesz_convolution(grid: Grid, alpha: float) -> ConvolutionPlan:
    """Tabulate the order-alpha Riesz kernel for linear convolution on grid,
    over every nonnegative offset between lattice nodes."""
    if not 0.0 < alpha < grid.dim:
        raise ValueError(f"Riesz order must lie in (0, {grid.dim}), got {alpha}")
    return ConvolutionPlan(grid, grid.offset_spectrum(_kernel(grid, alpha)))


def riesz_gradient(plan: ConvolutionPlan, v) -> np.ndarray:
    """Fractional gradient of order s = 1 - alpha, for a plan of order
    alpha, of the zero extension of the interior vector v of plan.grid, at
    the interior nodes: shape (n_interior, dim): centered differences of
    the potential.  No interior node lies on the lattice edge, so every
    one of them gets a centered difference."""
    grid = plan.grid
    pot = grid.convolve(plan.spectrum, grid.zero_extend(v))
    grads = np.reshape(np.gradient(pot, *grid.h), (grid.dim, -1))
    return grads.T[grid.interior_idx]
