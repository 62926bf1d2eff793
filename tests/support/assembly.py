"""Per-offset and per-node weight assembly, kept as test oracles.

``gagliardo`` assembles the offset table from Cartesian blocks of offsets
(when the axes swap, only the offsets (k, l) with l <= k, then mirrored),
and the corner part of the exterior tail from the low-corner cell
integrals that some interior node reads, each integrated once (cells
(a, b) and (b, a) as one when the axes swap).  The loops here compute the
same quadrature rules one offset and one node at a time, with no
symmetry: ``offset_table`` integrates each offset with its own axis
nodes, and ``outside_box_tail`` integrates each node's four corners from
its own Gauss points.  They take their axis nodes from ``axis_nodes``,
so they follow any change of its rules and cannot judge one: the
far-field rule is checked against an independent 4-panel 24-point rule
in ``TestFarFieldRule``.  The near axis of an offset whose other axis is
far, which ``pair_integral`` puts on the far-field split rule, is judged
here against ``axis_nodes``' graded rule, and there against the 4-panel
rule.  ``quadrant_integral`` sums the 32-point angular
rule of a corner quadrant node by node, where ``fracsolve.quadrature``
sums the same rule as a power series in the angle.  Every corner cell
here takes one 10 x 10 Gauss rule, where ``gagliardo._corner_cells``
sizes each cell's order by its distance to the box corner, so
``outside_box_tail`` judges those orders rather than follows them.  The half-plane parts
of ``outside_box_tail`` integrate t^(-sp) across each face by adaptive
``scipy.integrate.quad``, node by node, so they judge the closed form
``fracsolve.quadrature.power_segment_integral`` rather than follow it.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from fracsolve.quadrature import axis_nodes, halfplane_profile_constant, tent

_ROW_CHUNK = 512


def quadrant_integral(sp, a, b):
    """integral over {y1 > a, y2 > b} of (y1^2 + y2^2)^{-(2+sp)/2}, a,b > 0,
    in the polar form (1/sp) * [ b^-sp int_0^that sin^sp + a^-sp
    int_that^(pi/2) cos^sp ] with that = arctan(b/a), each angular integral
    by the 32-point Gauss rule evaluated at its nodes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    gx, gw = leggauss(32)
    t = 0.5 * (gx + 1.0)  # nodes on [0, 1]
    wt = 0.5 * gw
    theta_hat = np.arctan2(b, a)
    seg1 = (np.sin(theta_hat[..., None] * t) ** sp @ wt) * theta_hat * b ** (-sp)
    span = 0.5 * math.pi - theta_hat
    seg2 = (np.cos(theta_hat[..., None] + span[..., None] * t) ** sp @ wt) * span * a ** (-sp)
    return (seg1 + seg2) / sp


def pair_integral(exponent, delta, widths):
    """integral of |z|^exponent * prod_a tent(z_a - delta_a, w_a) dz for
    one offset `delta` of two cells with per-axis widths `widths`."""
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    dim = delta.size
    axes = [axis_nodes(delta[a], widths[a]) for a in range(dim)]
    if dim == 1:
        z, w = axes[0]
        vals = np.abs(z) ** exponent * tent(z - delta[0], widths[0])
        return float(np.sum(w * vals))
    (z1, w1), (z2, w2) = axes
    r = np.hypot(z1[:, None], z2[None, :])
    vals = r**exponent
    vals *= tent(z1 - delta[0], widths[0])[:, None]
    vals *= tent(z2 - delta[1], widths[1])[None, :]
    return float(w1 @ vals @ w2)


def offset_table(grid, params):
    """Weights indexed by nonnegative lattice offset, one offset at a time."""
    h = np.asarray(grid.h, dtype=float)
    beta = grid.dim + params.sp
    table = np.zeros(grid.shape)
    for idx in np.ndindex(*grid.shape):
        k = np.asarray(idx)
        if not k.any():
            continue  # self-pair never contributes to differences
        delta = k * h
        if k.max() <= 1:
            dist = float(np.linalg.norm(delta))
            table[idx] = dist ** -params.p * pair_integral(params.p - beta, delta, h)
        else:
            table[idx] = pair_integral(-beta, delta, h)
    return table


def _across_face(sp, near, far):
    """integral of t^(-sp) from near to far, per node, by adaptive quad;
    on these smooth integrands it is within a few ulps of the exact
    value, well inside its requested 1e-13."""
    return np.array(
        [quad(lambda t: t**-sp, a, b, epsabs=0.0, epsrel=1e-13)[0] for a, b in zip(near, far)]
    )


def outside_box_tail(grid, sp):
    """Per interior node: integral over its cell of the kernel mass beyond
    the lattice bounding box, each node's corners from its own points."""
    h = np.asarray(grid.h, dtype=float)
    lo_box = np.array([ax[0] for ax in grid.axes]) - h / 2.0
    hi_box = np.array([ax[-1] for ax in grid.axes]) + h / 2.0
    pts = grid.interior_points
    if grid.dim == 1:
        lo = pts[:, 0] - h[0] / 2.0
        hi = pts[:, 0] + h[0] / 2.0
        left = _across_face(sp, lo - lo_box[0], hi - lo_box[0])
        right = _across_face(sp, hi_box[0] - hi, hi_box[0] - lo)
        return (left + right) / sp

    w1, w2 = h
    c1 = halfplane_profile_constant(sp)
    x1lo, x1hi = pts[:, 0] - w1 / 2.0, pts[:, 0] + w1 / 2.0
    x2lo, x2hi = pts[:, 1] - w2 / 2.0, pts[:, 1] + w2 / 2.0
    halves = (
        w2 * _across_face(sp, x1lo - lo_box[0], x1hi - lo_box[0])
        + w2 * _across_face(sp, hi_box[0] - x1hi, hi_box[0] - x1lo)
        + w1 * _across_face(sp, x2lo - lo_box[1], x2hi - lo_box[1])
        + w1 * _across_face(sp, hi_box[1] - x2hi, hi_box[1] - x2lo)
    )
    tail = halves * c1 / sp

    # half-planes double-count the four corner quadrants
    gx, gw = leggauss(10)
    n = pts.shape[0]
    for a0 in range(0, n, _ROW_CHUNK):
        blk = pts[a0 : a0 + _ROW_CHUNK]
        g1 = blk[:, 0, None] + 0.5 * w1 * gx[None, :]
        g2 = blk[:, 1, None] + 0.5 * w2 * gx[None, :]
        corner_sum = np.zeros(blk.shape[0])
        for adist in (g1 - lo_box[0], hi_box[0] - g1):
            for bdist in (g2 - lo_box[1], hi_box[1] - g2):
                q = quadrant_integral(sp, adist[:, :, None], bdist[:, None, :])
                corner_sum += gw @ q @ gw
        tail[a0 : a0 + _ROW_CHUNK] -= 0.25 * w1 * w2 * corner_sum
    return tail
