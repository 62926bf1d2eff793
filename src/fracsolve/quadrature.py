"""Panel-based Gauss-Legendre quadrature for power-law kernels.

Everything here works on |z|^e integrands over boxes, their overlap
(tent) weights, and the closed-form pieces used for exterior tails,
among them power_segment_integral, the one integral of t^e over a
segment, which the truncated forcing's antiderivative shares.
Singular endpoints are handled by geometric panel grading, never by a
regularization parameter; away from them, two Gauss panels split at the
tent's kink take an order sized to the offset, and so does a near axis
whose pair's other axis is far.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
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


def _split_rule(order):
    """The order-point Gauss rule on each of [-1, 0] and [0, 1]: nodes xi
    and weights, stacked."""
    x, w = (_GL_X, _GL_W) if order == 10 else np.polynomial.legendre.leggauss(order)
    return np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)]), np.concatenate([0.5 * w, 0.5 * w])


# Far-field orders: an axis offset of k = |delta| / width widths takes
# _FAR_ORDERS[i] points per panel for the i with _FAR_BOUNDS[i-1] <= k <
# _FAR_BOUNDS[i].  |z|^-beta has no singularity within (k - 1) widths of
# the nearer panel, which is one width long, so its Gauss error decays
# like rho^(-2 order) for the Bernstein ellipse of rho = (2k - 1) +
# sqrt((2k - 1)^2 - 1), about 4k.  Against a 4-panel 24-point rule, for
# sp from 1.25 to 1.8, a pair integral moves by at most 5.4e-13 relative
# at k = 2 and 2.3e-14 from k = 3 on.  The corner cells of the exterior
# tails take the same orders by their distance to the box corner
# (gagliardo._corner_cells).
_FAR_BOUNDS = (2.5, 3.5, 5.5, 8.5, 14.5, 30.5)
_FAR_ORDERS = (10, 9, 8, 7, 6, 5, 4)
_FAR_RULES = tuple(_split_rule(order) for order in _FAR_ORDERS)
# terms of the power series of quadrant_integral's angular rule
_QUADRANT_TERMS = 24
# values per temporary of a batched pair integral (8 MB of float64)
_BLOCK = 1 << 20


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


def _is_far(delta, width):
    """Whether 0 lies below the support [|delta| - width, |delta| + width]
    of the tent, beyond rounding; vectorized over delta."""
    ad = np.abs(delta)
    return ad - width > 1e-12 * np.maximum(width, ad)


def _far_rule(delta, width):
    """Index into _FAR_RULES of the rule for the far offsets delta."""
    return np.searchsorted(_FAR_BOUNDS, np.abs(delta) / width, side="right")


def axis_nodes(delta, width):
    """Quadrature for one axis of a tent-supported integrand.

    The power integrand is even, so an offset and its mirror integrate
    alike: the nodes cover the support [|delta| - width, |delta| + width]
    of the tent centred at |delta|.  If 0 lies inside, the axis is split
    there and graded toward it from both sides in 12 geometric levels; if
    0 sits at the low endpoint, the panels grade toward it.  Otherwise
    (lattice offsets of k >= 2 widths) the integrand is analytic near the
    support, and two Gauss panels split at the tent's kink, nodes |delta| +
    width * xi, take from 10 points each at k = 2 down to 4 from k = 30.5
    on (_FAR_ORDERS); pair_integral reads the same rules, batched, and
    gives a near axis the split rule too where the other axis of its pair
    is far enough (_mixed_groups).
    """
    lo, hi = abs(delta) - width, abs(delta) + width
    if _is_far(delta, width):
        xi, w = _FAR_RULES[_far_rule(delta, width)]
        return abs(delta) + width * xi, width * w
    eps = 1e-12 * max(width, abs(delta))
    xr, wr = panel_nodes(graded_edges(0.0, hi, 12))
    if abs(lo) <= eps:
        return xr, wr
    xl, wl = panel_nodes(graded_edges(0.0, lo, 12))
    return np.concatenate([xl, xr]), np.concatenate([-wl, wr])


def tent(t, width):
    """Overlap length of two width-`width` intervals at center offset t."""
    return np.maximum(0.0, width - np.abs(t))


def _split_nodes(ad, width, rule):
    """Nodes |delta| + width * xi of the far-field rule _FAR_RULES[rule],
    one row per entry of ad = |delta|, with weights times the tent factor."""
    xi, w = _FAR_RULES[rule]
    z = ad[:, None] + width * xi
    return z, (width * w) * tent(z - ad[:, None], width)


def _layout_groups(offsets, width):
    """Axis nodes of each offset, stacked by panel layout.  Each group is
    (positions in `offsets`, nodes z, weights times the tent factor,
    whether the offsets are far), one row per offset.  The near offsets
    (split or graded) take axis_nodes one at a time; the far ones share
    one reference rule per order, so their nodes are one outer sum per
    group."""
    far = _is_far(offsets, width)
    groups = {}
    for pos in np.flatnonzero(~far):
        z, w = axis_nodes(offsets[pos], width)
        groups.setdefault(z.size, []).append((pos, z, w * tent(z - abs(offsets[pos]), width)))
    out = []
    for grp in groups.values():
        pos, z, u = zip(*grp)
        out.append((np.array(pos), np.stack(z), np.stack(u), False))
    far_pos = np.flatnonzero(far)
    rule = _far_rule(offsets[far_pos], width)
    for r in range(len(_FAR_RULES)):
        pos = far_pos[rule == r]
        if pos.size:
            out.append((pos, *_split_nodes(np.abs(offsets[pos]), width, r), True))
    return out


def _mixed_groups(near, far, near_offsets, far_offsets, near_width, far_width):
    """(near group, part of the far group) pairs that integrate a near
    group of one axis against a far group of the other.  Where the far
    axis keeps |z_far| >= |delta_far| - far_width >= near_width, |z|^e is
    analytic along the near axis, its tent's kink aside, with branch
    points at z_near = +-i |z_far|: that far offset takes the near axis on
    the far-field split rule, sized by the distance in near widths k_eff =
    1 + (|delta_far| - far_width) / near_width as a far axis offset of
    k_eff widths is.  Offsets of k_eff < 2 keep the graded rule.  Each far
    offset's rule depends on its own k_eff alone, so a block integrates
    every offset pair as its scalar call does."""
    k_eff = 1.0 + (np.abs(far_offsets[far[0]]) - far_width) / near_width
    # beyond rounding, as in _is_far: lattice offsets two widths out give
    # k_eff = 2 up to an ulp or so; -1 marks the graded rule
    rule = np.where(
        k_eff < 2.0 * (1.0 - 1e-12), -1, np.searchsorted(_FAR_BOUNDS, k_eff, side="right")
    )
    ad = np.abs(near_offsets[near[0]])
    for r in np.unique(rule):
        sel = rule == r
        part = far[:3] if sel.all() else tuple(x[sel] for x in far[:3])
        yield (near[:3] if r < 0 else (near[0], *_split_nodes(ad, near_width, r))), part


def _group_pairs(groups, offsets, widths):
    """Every (axis-0 group, axis-1 group) pair of nodes, as (positions,
    nodes, weights) each, a near group against a far one split by
    _mixed_groups."""
    for g1 in groups[0]:
        for g2 in groups[1]:
            if g1[3] == g2[3]:
                yield g1[:3], g2[:3]
            elif g2[3]:
                yield from _mixed_groups(g1, g2, *offsets, *widths)
            else:
                for a2, a1 in _mixed_groups(g2, g1, *offsets[::-1], *widths[::-1]):
                    yield a1, a2


def pair_integral(exponent, delta, widths):
    """integral of |z|^exponent * prod_a tent(z_a - delta_a, w_a) dz over
    a Cartesian block of offsets.

    `delta` holds, per axis, one center-to-center offset or a vector of
    them, for two axis-aligned cells with per-axis widths `widths`; the
    tent product is the overlap volume in the z = x - y substitution.  The
    result has one axis per vector offset, and is a float when every offset
    is a scalar.  Each axis takes the nodes of axis_nodes, except a near
    axis offset (k = 0 or 1) paired with a far one in 2D, which takes the
    far-field split rule sized by the far axis's distance (_mixed_groups).
    Offsets that share a panel layout are integrated together, in blocks of
    at most _BLOCK values per temporary: the far offsets of one order (k >=
    2 widths) as one group whose nodes are |delta| + width * xi for the
    order's reference rule xi, the near ones (k = 0 or 1) one layout each.
    """
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    offsets = [np.asarray(d, dtype=float) for d in delta]
    if len(offsets) != widths.size or any(d.ndim > 1 for d in offsets):
        raise ValueError("pair_integral needs one scalar or vector offset per axis")
    flat = [d.reshape(-1) for d in offsets]
    groups = [_layout_groups(d, w) for d, w in zip(flat, widths)]
    out = np.empty(tuple(d.size for d in offsets))
    if widths.size == 1:
        for pos, z, u, _ in groups[0]:
            out[pos] = np.sum(u * np.abs(z) ** exponent, axis=1)
    else:
        for (pos1, z1, u1), (pos2, z2, u2) in _group_pairs(groups, flat, widths):
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

    Needs exponent > -dim.  In 2D, polar coordinates cover a quarter of
    the cell by 0 < r < r_edge(theta) = min(w1 / (2 cos theta), w2 / (2 sin
    theta)), and the radial integral is exact: int_0^r_edge r^(e+1) dr =
    r_edge^(e+2) / (e+2), singular part included.  What is left is the
    angular integral of r_edge^(e+2), smooth on each side of the corner
    angle atan2(w2, w1) where r_edge has its kink, and a 32-point Gauss
    rule on each side gives it to rounding.
    """
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    dim = widths.size
    if exponent <= -dim:
        raise ValueError(f"cell average diverges for exponent {exponent} in dim {dim}")
    if dim == 1:
        w = widths[0]
        return 2.0 * (w / 2.0) ** (1.0 + exponent) / ((1.0 + exponent) * w)
    w1, w2 = widths
    e2 = exponent + 2.0
    theta_hat = math.atan2(w2, w1)
    total = 0.0
    for lo, hi in ((0.0, theta_hat), (theta_hat, 0.5 * math.pi)):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        th = mid + half * _GL32_X
        wq = half * _GL32_W
        r_edge = np.minimum(w1 / (2.0 * np.cos(th)), w2 / (2.0 * np.sin(th)))
        total += 4.0 * np.sum(wq * r_edge**e2 / e2)
    return total / (w1 * w2)


def power_segment_integral(exponent, a, b):
    """integral_a^b t^exponent dt for 0 < a <= b, vectorized over a and b.

    Computed as a^(e+1) expm1((e+1) L) / (e+1) with L = log1p((b - a) / a),
    which is free of the cancellation of a difference of powers over e + 1
    and is exact at e = -1, where the quotient's limit L is taken.
    """
    a = np.asarray(a, dtype=float)
    log_ratio = np.log1p((np.asarray(b, dtype=float) - a) / a)
    e1 = exponent + 1.0
    return a**e1 * (np.expm1(e1 * log_ratio) / e1 if e1 else log_ratio)


def halfplane_profile_constant(sp):
    """sqrt(pi) * Gamma((sp+1)/2) / Gamma((sp+2)/2).

    Transverse profile factor of the 2D kernel |z|^{-(2+sp)} integrated
    along a line.
    """
    log_ratio = math.lgamma((sp + 1.0) / 2.0) - math.lgamma((sp + 2.0) / 2.0)
    return math.sqrt(math.pi) * math.exp(log_ratio)


def _sinc_power_series(sp, terms):
    """The first ``terms`` Taylor coefficients of (sin x / x)^sp in x^2, by
    Miller's recurrence for the power of a series: with f = sin x / x =
    sum_k f_k x^(2k) (f_0 = 1) and g = f^sp, n g_n = sum_{k=1}^n ((sp + 1) k
    - n) f_k g_(n-k)."""
    f = [(-1.0) ** k / math.factorial(2 * k + 1) for k in range(terms)]
    g = [1.0]
    for n in range(1, terms):
        g.append(sum(((sp + 1.0) * k - n) * f[k] * g[n - k] for k in range(1, n + 1)) / n)
    return np.array(g)


def quadrant_integral(sp, a, b):
    """integral over {y1 > a, y2 > b} of (y1^2 + y2^2)^{-(2+sp)/2}, a,b > 0.

    Polar form: (1/sp) * [ b^-sp int_0^that sin^sp + a^-sp int_that^(pi/2) cos^sp ]
    with that = arctan(b/a).  Vectorized over a, b.

    Both angular integrals take the 32-point Gauss rule with nodes t_k and
    weights w_k on [0, 1], in its power series in the angle: for the sin
    segment on [0, phi],

        F(phi) = phi sum_k w_k sin^sp(phi t_k)
               = phi^(1+sp) sum_n c_n M_n phi^(2n),

    where c_n are the Taylor coefficients of (sin x / x)^sp in x^2
    (_sinc_power_series) and M_n = sum_k w_k t_k^(sp+2n) are the rule's
    moments.  The nodes are symmetric about 1/2, so the cos segment on
    [that, pi/2] is F(pi/2 - that), and one Horner loop serves both.  The
    series of (sin x / x)^sp converges for |x| < pi and phi <= pi/2, so a
    term shrinks about 4-fold per power.  With _QUADRANT_TERMS = 24 terms
    the series matches the rule summed node by node within 2e-15 relative
    for sp <= 5.  Above that the coefficients, of alternating sign, grow
    with sp and cancel: 1.6e-14 at sp = 8, and 1.3e-10 at sp = 12 (4.3e-13
    with 28 terms).  In 2D the hypothesis p < N / s1 keeps sp below 2.
    The rule itself is off by up to 2.3e-6 relative at sp = 0.6; the exact
    integrals follow on replacing M_n by int_0^1 t^(sp+2n) dt =
    1/(sp + 2n + 1).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    theta_hat = np.arctan2(b, a)
    t = 0.5 * (_GL32_X + 1.0)  # nodes on [0, 1]
    wt = 0.5 * _GL32_W
    moments = (t ** (sp + 2.0 * np.arange(_QUADRANT_TERMS))[:, None]) @ wt
    coef = _sinc_power_series(sp, _QUADRANT_TERMS) * moments
    # each segment's angle phi, and phi^sp times its factor b^-sp or a^-sp
    phi = np.stack([theta_hat, 0.5 * math.pi - theta_hat])
    scaled = np.stack([theta_hat / b, phi[1] / a])
    np.power(scaled, sp, out=scaled)
    phi2 = phi * phi
    acc = np.full_like(phi2, coef[-1])
    for c in coef[-2::-1]:
        acc *= phi2
        acc += c
    acc *= phi
    acc *= scaled
    return (acc[0] + acc[1]) / sp
