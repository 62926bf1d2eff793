"""Panel-based Gauss-Legendre quadrature for power-law kernels.

Everything here works on |z|^e integrands over boxes, their overlap
(tent) weights, and the closed-form pieces used for exterior tails.
Singular endpoints are handled by geometric panel grading, never by a
regularization parameter.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = [
    "uniform_edges",
    "graded_edges",
    "panel_nodes",
    "axis_nodes",
    "tent",
    "pair_integral",
    "cell_average_power",
    "power_segment_integral",
    "halfplane_profile_constant",
    "quadrant_integral",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(10)
_GL32_X, _GL32_W = np.polynomial.legendre.leggauss(32)
# values per temporary of a batched pair integral (8 MB of float64)
_BLOCK = 1 << 20


def uniform_edges(a, b, panels):
    return np.linspace(a, b, panels + 1)


def graded_edges(a, b, levels):
    """Panel edges on [a, b] clustering geometrically toward a."""
    frac = 0.5 ** np.arange(levels, -1, -1.0)
    return np.concatenate(([a], a + (b - a) * frac))


def panel_nodes(edges):
    """Composite 10-point Gauss nodes/weights over consecutive panels."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    w = (half[:, None] * _GL_W[None, :]).ravel()
    return x, w


def axis_nodes(delta, width):
    """Quadrature for one axis of a tent-supported integrand.

    The power integrand is even, so an offset and its mirror integrate
    alike: the nodes cover the support [|delta| - width, |delta| + width]
    of the tent centred at |delta|.  If 0 lies inside, the axis is split
    there and graded toward it from both sides in 12 geometric levels; if
    0 sits at the low endpoint, the panels grade toward it; otherwise four
    uniform panels suffice.
    """
    lo, hi = abs(delta) - width, abs(delta) + width
    eps = 1e-12 * max(width, abs(delta))
    if lo > eps:
        return panel_nodes(uniform_edges(lo, hi, 4))
    xr, wr = panel_nodes(graded_edges(0.0, hi, 12))
    if abs(lo) <= eps:
        return xr, wr
    xl, wl = panel_nodes(graded_edges(0.0, lo, 12))
    return np.concatenate([xl, xr]), np.concatenate([-wl, wr])


def tent(t, width):
    """Overlap length of two width-`width` intervals at center offset t."""
    return np.maximum(0.0, width - np.abs(t))


def _layout_groups(offsets, width):
    """Axis nodes of each offset, stacked by node count, that is by panel
    layout (split, graded or uniform).  Each group is (positions in
    `offsets`, nodes z, weights times the tent factor), one row per offset."""
    groups = {}
    for pos, delta in enumerate(offsets):
        z, w = axis_nodes(delta, width)
        groups.setdefault(z.size, []).append((pos, z, w * tent(z - delta, width)))
    out = []
    for grp in groups.values():
        pos, z, u = zip(*grp)
        out.append((np.array(pos), np.stack(z), np.stack(u)))
    return out


def pair_integral(exponent, delta, widths):
    """integral of |z|^exponent * prod_a tent(z_a - delta_a, w_a) dz over
    a Cartesian block of offsets.

    `delta` holds, per axis, one center-to-center offset or a vector of
    them, for two axis-aligned cells with per-axis widths `widths`; the
    tent product is the overlap volume in the z = x - y substitution.  The
    result has one axis per vector offset, and is a float when every offset
    is a scalar.  Offsets that share a panel layout are integrated together,
    in blocks of at most _BLOCK values per temporary.
    """
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    offsets = [np.asarray(d, dtype=float) for d in delta]
    if len(offsets) != widths.size or any(d.ndim > 1 for d in offsets):
        raise ValueError("pair_integral needs one scalar or vector offset per axis")
    groups = [_layout_groups(d.reshape(-1), w) for d, w in zip(offsets, widths)]
    out = np.empty(tuple(d.size for d in offsets))
    if widths.size == 1:
        for pos, z, u in groups[0]:
            out[pos] = np.sum(u * np.abs(z) ** exponent, axis=1)
    else:
        for pos1, z1, u1 in groups[0]:
            for pos2, z2, u2 in groups[1]:
                step = max(1, _BLOCK // z2.size // z1.shape[1])
                for a0 in range(0, pos1.size, step):
                    rows = slice(a0, a0 + step)
                    vals = np.hypot(z1[rows, None, :, None], z2[None, :, None, :])
                    np.power(vals, exponent, out=vals)
                    inner = (vals @ u2[:, :, None])[..., 0]
                    out[np.ix_(pos1[rows], pos2)] = np.einsum("an,abn->ab", u1[rows], inner)
    shape = sum((d.shape for d in offsets), ())
    return float(out.reshape(())) if not shape else out.reshape(shape)


def cell_average_power(exponent, widths):
    """Average of |z|^exponent over the cell prod_a [-w_a/2, w_a/2].

    Needs exponent > -dim.  The singular part is integrated exactly over
    the inscribed disk; the remainder is smooth and handled by an angular
    Gauss rule.
    """
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    dim = widths.size
    if exponent <= -dim:
        raise ValueError(f"cell average diverges for exponent {exponent} in dim {dim}")
    if dim == 1:
        w = widths[0]
        return 2.0 * (w / 2.0) ** (1.0 + exponent) / ((1.0 + exponent) * w)
    w1, w2 = widths
    rho = 0.5 * min(w1, w2)
    e2 = exponent + 2.0
    disk = 2.0 * math.pi * rho**e2 / e2
    # quadrant angular split where the two cell edges meet
    theta_hat = math.atan2(w2, w1)
    segs = [(0.0, theta_hat), (theta_hat, 0.5 * math.pi)]
    remainder = 0.0
    for lo, hi in segs:
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        th = mid + half * _GL32_X
        wq = half * _GL32_W
        r_edge = np.minimum(w1 / (2.0 * np.cos(th)), w2 / (2.0 * np.sin(th)))
        remainder += 4.0 * np.sum(wq * (r_edge**e2 - rho**e2) / e2)
    return (disk + remainder) / (w1 * w2)


def power_segment_integral(exponent, a, b):
    """integral_a^b t^exponent dt for 0 < a < b, vectorized and log-aware."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if abs(exponent + 1.0) < 1e-13:
        return np.log(b / a)
    e1 = exponent + 1.0
    return (b**e1 - a**e1) / e1


def halfplane_profile_constant(sp):
    """sqrt(pi) * Gamma((sp+1)/2) / Gamma((sp+2)/2).

    Transverse profile factor of the 2D kernel |z|^{-(2+sp)} integrated
    along a line.
    """
    return math.sqrt(math.pi) * math.exp(gammaln((sp + 1.0) / 2.0) - gammaln((sp + 2.0) / 2.0))


def quadrant_integral(sp, a, b):
    """integral over {y1 > a, y2 > b} of (y1^2 + y2^2)^{-(2+sp)/2}, a,b > 0.

    Polar form: (1/sp) * [ b^-sp int_0^that sin^sp + a^-sp int_that^(pi/2) cos^sp ]
    with that = arctan(b/a).  Vectorized over a, b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta_hat = np.arctan2(b, a)
    t = 0.5 * (_GL32_X + 1.0)  # nodes on [0, 1]
    wt = 0.5 * _GL32_W
    vals = theta_hat[..., None] * t
    np.power(np.sin(vals, out=vals), sp, out=vals)
    seg1 = (vals @ wt) * theta_hat * b ** (-sp)
    span = 0.5 * math.pi - theta_hat
    vals = theta_hat[..., None] + span[..., None] * t
    np.power(np.cos(vals, out=vals), sp, out=vals)
    seg2 = (vals @ wt) * span * a ** (-sp)
    return (seg1 + seg2) / sp
