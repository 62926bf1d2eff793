"""Bessel and pointwise Riesz kernels, kept as test oracles.

The solver needs only the Riesz constant and the origin-cell average
(``fracsolve.riesz``).  The Bessel family (subordination quadrature with
a drift check under node doubling, unit mass, the semigroup identity) and
the pointwise Riesz kernel serve the tests as independent references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import erf, gammaln

from fracsolve.quadrature import panel_nodes
from fracsolve.riesz import riesz_normalization


class QuadratureError(RuntimeError):
    """Bessel quadrature drifted under node doubling."""


class RieszParams(NamedTuple):
    dim: int
    alpha: float  # order, 0 < alpha < dim


@dataclass(frozen=True)
class BesselParams:
    dim: int
    alpha: float
    truncation: float = 40.0   # window |t| <= truncation after delta = e^t
    nodes: int = 400           # composite Gauss-Legendre nodes on the window
    check_rtol: float = 2e-5   # allowed relative drift under node doubling
    check_atol: float = 1e-10  # absolute drift floor for deep-tail values

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.alpha <= 0.0:
            raise ValueError(f"Bessel order must be positive, got {self.alpha}")


def _radii(points, dim):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != dim:
        raise ValueError(f"points must have shape (n, {dim})")
    return np.sqrt(np.sum(pts * pts, axis=1))


def riesz_kernel(params, points):
    """Pointwise kernel values gamma * |x|^(alpha-dim); rejects x = 0."""
    r = _radii(points, params.dim)
    if np.any(r == 0.0):
        raise ValueError("Riesz kernel is singular at the origin; use riesz_cell_average")
    gam = riesz_normalization(params.dim, params.alpha)
    return gam * r ** (params.alpha - params.dim)


def _bessel_t_rule(params, nodes):
    panels = max(1, int(math.ceil(nodes / 10)))
    return panel_nodes(np.linspace(-params.truncation, params.truncation, panels + 1))


def _bessel_point_quad(params, r2, nodes):
    """Quadrature of the subordination integral at squared radii r2."""
    t, w = _bessel_t_rule(params, nodes)
    log_pref = -gammaln(params.alpha / 2.0) - 0.5 * params.alpha * math.log(4.0 * math.pi)
    out = np.empty(r2.shape, dtype=float)
    for lo in range(0, r2.size, 8192):
        blk = r2[lo : lo + 8192, None]
        log_int = (
            -math.pi * blk * np.exp(-t)[None, :]
            - np.exp(t)[None, :] / (4.0 * math.pi)
            + 0.5 * (params.alpha - params.dim) * t[None, :]
            + log_pref
        )
        out[lo : lo + 8192] = np.exp(log_int) @ w
    return out


def bessel_kernel(params, points):
    """Bessel kernel g_alpha at the given points via subordination.

    Every call re-evaluates with doubled node count and raises
    QuadratureError if the two disagree beyond params.check_rtol.
    The origin is only admissible for alpha > dim.
    """
    r = _radii(points, params.dim)
    r2 = r * r
    if params.alpha <= params.dim and np.any(r2 == 0.0):
        raise ValueError("Bessel kernel is singular at the origin for alpha <= dim")
    coarse = _bessel_point_quad(params, r2, params.nodes)
    fine = _bessel_point_quad(params, r2, 2 * params.nodes)
    _check_drift(params, coarse, fine)
    return fine


def _check_drift(params, coarse, fine):
    tol = params.check_rtol * np.abs(fine) + params.check_atol
    if np.any(np.abs(coarse - fine) > tol):
        worst = float(np.max(np.abs(coarse - fine) / np.maximum(np.abs(fine), 1e-300)))
        raise QuadratureError(
            f"Bessel quadrature unstable under node doubling (relative drift {worst:.3e}, "
            f"nodes={params.nodes}, truncation={params.truncation})"
        )


def _bessel_cell_quad(params, centers, widths, nodes):
    t, w = _bessel_t_rule(params, nodes)
    # per-axis cell average of exp(-pi y^2 / delta): (sqrt(delta)/2) * erf difference
    half_sqrt_delta = 0.5 * np.exp(0.5 * t)  # (nt,)
    inv_sqrt = np.sqrt(math.pi) * np.exp(-0.5 * t)  # erf argument scale
    pref = np.exp(
        -np.exp(t) / (4.0 * math.pi)
        + 0.5 * params.alpha * t
        - gammaln(params.alpha / 2.0)
        - 0.5 * params.alpha * math.log(4.0 * math.pi)
    )
    # note: alpha*t/2 = (alpha-dim)*t/2 + dim*t/2 absorbs the sqrt(delta) factors
    # the factors depend on one coordinate each: evaluate erf once per
    # distinct axis coordinate and gather per cell
    factors, where = [], []
    for a in range(params.dim):
        coord, inverse = np.unique(centers[:, a], return_inverse=True)
        hi_edge = (coord + 0.5 * widths[a])[:, None] * inv_sqrt[None, :]
        lo_edge = (coord - 0.5 * widths[a])[:, None] * inv_sqrt[None, :]
        factors.append(0.5 * (erf(hi_edge) - erf(lo_edge)) / widths[a])
        where.append(inverse.reshape(-1))
    out = np.empty(centers.shape[0], dtype=float)
    for lo in range(0, centers.shape[0], 4096):
        prod = factors[0][where[0][lo : lo + 4096]]
        for a in range(1, params.dim):
            prod *= factors[a][where[a][lo : lo + 4096]]
        out[lo : lo + 4096] = prod @ (w * pref)
    return out


def bessel_cell_average(params, centers, widths):
    """Cell averages of g_alpha over cells at `centers` with `widths`.

    Finite for every alpha > 0 including cells containing the origin; the
    in-cell Gaussian integral is an erf difference, so no spatial
    quadrature is needed.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.shape[1] != params.dim:
        raise ValueError(f"centers must have shape (n, {params.dim})")
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    coarse = _bessel_cell_quad(params, centers, widths, params.nodes)
    fine = _bessel_cell_quad(params, centers, widths, 2 * params.nodes)
    _check_drift(params, coarse, fine)
    return fine


def _reference_axis(params, radius, nodes):
    if radius is None:
        radius = 20.0 if params.dim == 1 else 10.0
    if nodes is None:
        nodes = 641 if params.dim == 1 else 201
    x = np.linspace(-radius, radius, nodes)
    return x, x[1] - x[0]


def bessel_mass(params, radius=None, nodes=None):
    """L1 mass of g_alpha summed from cell averages on a reference grid.

    Cell averages tile exactly, so the only errors are the quadrature
    itself and the e^{-radius} tail.
    """
    x, h = _reference_axis(params, radius, nodes)
    if params.dim == 1:
        centers = x[:, None]
        return float(h * np.sum(bessel_cell_average(params, centers, (h,))))
    xx, yy = np.meshgrid(x, x, indexing="ij")
    centers = np.column_stack([xx.ravel(), yy.ravel()])
    return float(h * h * np.sum(bessel_cell_average(params, centers, (h, h))))


def semigroup_residual(dim, alpha, beta, radius=None, nodes=257):
    """L1 residual of (g_alpha * g_beta) - g_(alpha+beta) on a grid.

    Discrete convolution of cell-averaged samples against the
    cell-averaged target; tends to 0 under refinement.
    """
    pa = BesselParams(dim=dim, alpha=alpha)
    pb = BesselParams(dim=dim, alpha=beta)
    pab = BesselParams(dim=dim, alpha=alpha + beta)
    if radius is None:
        radius = 16.0 if dim == 1 else 8.0
    x = np.linspace(-radius, radius, nodes)
    h = x[1] - x[0]
    if dim == 1:
        centers = x[:, None]
        ga = bessel_cell_average(pa, centers, (h,))
        gb = bessel_cell_average(pb, centers, (h,))
        gab = bessel_cell_average(pab, centers, (h,))
        conv = np.convolve(ga, gb, mode="same") * h
        return float(h * np.sum(np.abs(conv - gab)))
    xx, yy = np.meshgrid(x, x, indexing="ij")
    centers = np.column_stack([xx.ravel(), yy.ravel()])
    ga = bessel_cell_average(pa, centers, (h, h)).reshape(nodes, nodes)
    gb = bessel_cell_average(pb, centers, (h, h)).reshape(nodes, nodes)
    gab = bessel_cell_average(pab, centers, (h, h)).reshape(nodes, nodes)
    conv = fftconvolve(ga, gb, mode="same") * h * h
    return float(h * h * np.sum(np.abs(conv - gab)))
