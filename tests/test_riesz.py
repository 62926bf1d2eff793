"""Tests for the Riesz-potential fractional gradient.

Oracles: scipy.quad / dblquad for kernel cell integrals, a brute-force
double-loop convolution for the offset mirror of ``Grid.convolve``, and
Fourier-side integral formulas for the fractional gradient of a Gaussian
(sine transform in 1D, a J1 Hankel integral in 2D).
"""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import j1

from fracsolve.grids import Grid, disk, interval, rectangle
from fracsolve.riesz import (
    _kernel,
    plan_riesz_convolution,
    riesz_cell_average,
    riesz_gradient,
    riesz_normalization,
)


def fractional_gradient(grid, v, s):
    """D^s of the interior vector v through a plan of order 1 - s."""
    return riesz_gradient(plan_riesz_convolution(grid, 1.0 - s), v)


class TestKernelTable1D:
    def test_entries_match_quad(self):
        grid = Grid(interval(-1.0, 1.0), 17)
        alpha = 0.45
        kernel = _kernel(grid, alpha)
        h = grid.h[0]
        assert kernel.shape == grid.shape
        gamma = riesz_normalization(1, alpha)
        # origin cell: split the endpoint singularity at zero
        half, _ = quad(lambda z: z ** (alpha - 1.0), 0.0, h / 2)
        assert kernel[0] == pytest.approx(2.0 * gamma * half, rel=1e-12)
        for d in (1, 2, 7):
            want, err = quad(
                lambda z: z ** (alpha - 1.0), d * h - h / 2, d * h + h / 2
            )
            assert err < 1e-12
            assert kernel[d] == pytest.approx(gamma * want, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    def test_small_orders_match_quad(self, alpha):
        # the Gauss rule of a cell loses the most next to the singularity,
        # at offset 1, and more the smaller alpha is
        grid = Grid(interval(-1.0, 1.0), 17)
        kernel = _kernel(grid, alpha)
        h = grid.h[0]
        gamma = riesz_normalization(1, alpha)
        for d in (1, 2, 7):
            want, err = quad(
                lambda z: z ** (alpha - 1.0), d * h - h / 2, d * h + h / 2
            )
            assert err < 1e-12
            assert kernel[d] == pytest.approx(gamma * want, rel=1e-11)


class TestKernelTable2D:
    def test_entries_match_dblquad(self):
        grid = Grid(rectangle(-1.0, 1.0, -1.0, 1.0), 9)
        alpha = 0.4
        kernel = _kernel(grid, alpha)
        h1, h2 = grid.h
        assert kernel.shape == grid.shape
        gamma = riesz_normalization(2, alpha)

        def cell_integral(d1, d2):
            val, err = dblquad(
                lambda z2, z1: (z1 * z1 + z2 * z2) ** ((alpha - 2.0) / 2.0),
                d1 * h1 - h1 / 2,
                d1 * h1 + h1 / 2,
                lambda z1: d2 * h2 - h2 / 2,
                lambda z1: d2 * h2 + h2 / 2,
            )
            return gamma * val

        far = cell_integral(3, 2)
        assert kernel[3, 2] == pytest.approx(far, rel=1e-8)
        adj = cell_integral(1, 0)
        assert kernel[1, 0] == pytest.approx(adj, rel=1e-4)
        # origin cell uses the exact singular average
        want = riesz_cell_average(alpha, grid.h) * grid.cell_volume
        assert kernel[0, 0] == pytest.approx(want, rel=1e-10)

    def test_symmetry_all_octants(self):
        # the quadrant holds the other octants by its mirror; square cells
        # add the swap of the two axes
        grid = Grid(rectangle(0.0, 1.0, 0.0, 1.0), 7)
        k = _kernel(grid, 0.6)
        np.testing.assert_array_equal(k, k.T)


class TestConvolutionAlignment:
    """``Grid.convolve`` against the double sum over lattice nodes of
    table[|l - k|] * values[k], with a random table that is not symmetric
    under the swap of the axes, so a transposed or shifted mirror fails."""

    def test_1d_matches_double_loop(self):
        grid = Grid(interval(0.0, 1.0), 33)
        rng = np.random.default_rng(4)
        (m,) = grid.shape
        table = rng.random(m)
        values = rng.normal(size=m)
        direct = np.zeros(m)
        for i in range(m):
            for j in range(m):
                direct[i] += table[abs(i - j)] * values[j]
        out = grid.convolve(grid.offset_spectrum(table), values)
        np.testing.assert_allclose(out, direct, rtol=1e-12, atol=1e-13)

    def test_2d_matches_double_loop(self):
        grid = Grid(rectangle(0.0, 2.0, 0.0, 1.0), 9)
        assert grid.h[0] != grid.h[1]
        rng = np.random.default_rng(8)
        m1, m2 = grid.shape
        table = rng.random(grid.shape)
        assert not np.allclose(table, table.T)
        values = rng.normal(size=grid.shape)
        direct = np.zeros((m1, m2))
        for i1 in range(m1):
            for i2 in range(m2):
                acc = 0.0
                for j1 in range(m1):
                    for j2 in range(m2):
                        acc += table[abs(i1 - j1), abs(i2 - j2)] * values[j1, j2]
                direct[i1, i2] = acc
        out = grid.convolve(grid.offset_spectrum(table), values)
        np.testing.assert_allclose(out, direct, rtol=1e-11, atol=1e-13)


class TestStructure:
    def test_linearity(self):
        grid = Grid(interval(-1.0, 1.0), 65)
        rng = np.random.default_rng(11)
        u = rng.normal(size=grid.n_interior)
        v = rng.normal(size=grid.n_interior)
        plan = plan_riesz_convolution(grid, 1.0 - 0.6)
        gu = riesz_gradient(plan, u)
        gv = riesz_gradient(plan, v)
        gw = riesz_gradient(plan, 2.0 * u - 3.0 * v)
        np.testing.assert_allclose(gw, 2.0 * gu - 3.0 * gv, rtol=1e-11, atol=1e-12)

    def test_scaling_identity_exact(self):
        # rescaling the domain by lam multiplies the gradient by lam^-s
        s, lam = 0.55, 2.5
        g1 = Grid(interval(-2.0, 2.0), 33)
        g2 = Grid(interval(-2.0 * lam, 2.0 * lam), 33)
        vals = np.exp(-g1.interior_points[:, 0] ** 2 / 0.98)
        d1 = fractional_gradient(g1, vals, s)[:, 0]
        d2 = fractional_gradient(g2, vals, s)[:, 0]
        np.testing.assert_allclose(d2, lam**-s * d1, rtol=1e-10, atol=1e-13)

    def test_odd_symmetry_for_even_field(self):
        grid = Grid(interval(-1.0, 1.0), 41)
        u = np.cos(0.5 * np.pi * grid.interior_points[:, 0]) ** 2
        plan = plan_riesz_convolution(grid, 0.35)
        pot = grid.convolve(plan.spectrum, grid.zero_extend(u))
        assert np.all(pot > 0.0)
        np.testing.assert_allclose(pot, pot[::-1], rtol=1e-12)
        g = riesz_gradient(plan, u)[:, 0]
        np.testing.assert_allclose(g, -g[::-1], rtol=1e-8, atol=1e-12)

    def test_gradient_field_masked_outside(self):
        # one row per interior node: the centered differences of the
        # potential of the zero extension, read at that node
        grid = Grid(disk(0.0, 0.0, 1.0), 17)
        u = np.ones(grid.n_interior)
        plan = plan_riesz_convolution(grid, 0.5)
        g = riesz_gradient(plan, u)
        assert g.shape == (grid.n_interior, 2)
        pot = grid.convolve(plan.spectrum, grid.zero_extend(u))
        l1, l2 = grid.lattice[grid.interior_idx].T
        h1, h2 = grid.h
        np.testing.assert_array_equal(g[:, 0], (pot[l1 + 1, l2] - pot[l1 - 1, l2]) / (2.0 * h1))
        np.testing.assert_array_equal(g[:, 1], (pot[l1, l2 + 1] - pot[l1, l2 - 1]) / (2.0 * h2))


class TestGridMismatch:
    def test_field_from_another_grid_rejected(self):
        # a vector of another grid's interior nodes has the wrong length
        grid = Grid(interval(0.0, 1.0), 33)
        other = Grid(interval(0.0, 4.0), 35)
        u = np.exp(-((other.interior_points[:, 0] - 2.0) ** 2))
        with pytest.raises(ValueError, match="interior values"):
            riesz_gradient(plan_riesz_convolution(grid, 0.5), u)
        with pytest.raises(ValueError, match="interior values"):
            grid.zero_extend(u)


def gaussian_gradient_1d(x, s, sigma):
    """Fourier-side sine-transform formula for D^s of exp(-x^2/(2 sigma^2))."""

    def integrand(xi):
        return (
            (2.0 * math.pi * xi) ** s
            * sigma
            * math.sqrt(2.0 * math.pi)
            * math.exp(-2.0 * math.pi**2 * sigma**2 * xi**2)
            * math.sin(2.0 * math.pi * xi * x)
        )

    val, err = quad(integrand, 0.0, 6.0 / sigma, limit=200)
    assert err < 1e-7  # far below the percent-level comparison tolerance
    return -2.0 * val


def gaussian_gradient_2d_radial(r, s, sigma):
    """Radial component of D^s of exp(-|x|^2/(2 sigma^2)) via a J1 integral."""

    def integrand(rho):
        return (
            rho
            * (2.0 * math.pi * rho) ** s
            * 2.0
            * math.pi
            * sigma**2
            * math.exp(-2.0 * math.pi**2 * sigma**2 * rho**2)
            * j1(2.0 * math.pi * rho * r)
        )

    val, err = quad(integrand, 0.0, 6.0 / sigma, limit=200)
    assert err < 1e-7  # far below the percent-level comparison tolerance
    return -2.0 * math.pi * val


class TestGaussianOracle:
    def test_1d_pointwise(self):
        s, sigma = 0.55, 0.6
        grid = Grid(interval(-4.0, 4.0), 257)
        x_in = grid.interior_points[:, 0]
        g = fractional_gradient(grid, np.exp(-(x_in**2) / (2 * sigma**2)), s)[:, 0]
        for x in (0.25, 0.75, 1.5):
            idx = int(np.argmin(np.abs(x_in - x)))
            assert abs(x_in[idx] - x) < 1e-12
            want = gaussian_gradient_1d(x, s, sigma)
            assert g[idx] == pytest.approx(want, rel=2e-2)

    def test_1d_near_one_recovers_classical_derivative(self):
        sigma = 0.6
        grid = Grid(interval(-4.0, 4.0), 257)
        x = grid.interior_points[:, 0]
        g = fractional_gradient(grid, np.exp(-(x**2) / (2 * sigma**2)), 0.99)[:, 0]
        classical = -x / sigma**2 * np.exp(-(x**2) / (2 * sigma**2))
        inner = np.abs(x) <= 2.0
        rel = np.linalg.norm(g[inner] - classical[inner]) / np.linalg.norm(
            classical[inner]
        )
        assert rel < 0.05

    def test_2d_pointwise(self):
        s, sigma = 0.5, 0.5
        grid = Grid(rectangle(-2.0, 2.0, -2.0, 2.0), 65)
        pts = grid.interior_points
        g = fractional_gradient(grid, np.exp(-np.sum(pts**2, axis=1) / (2 * sigma**2)), s)
        # node at (0.5, 0): 8 steps right of center along the x axis
        idx = int(np.argmin(np.sum((pts - [0.5, 0.0]) ** 2, axis=1)))
        np.testing.assert_allclose(pts[idx], [0.5, 0.0], atol=1e-12)
        want = gaussian_gradient_2d_radial(0.5, s, sigma)
        assert g[idx, 0] == pytest.approx(want, rel=3e-2)
        assert abs(g[idx, 1]) < 1e-3 * abs(want)
