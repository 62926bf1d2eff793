"""Tests for the pairwise-weight Gagliardo form.

Weight oracles are scipy adaptive quadratures (dblquad / quad) run on the
same integrands the assembly is documented to use: the raw kernel
|x-y|^(-(N+sp)) for separated cell pairs, and the interpolant-model
kernel |x_i-x_j|^(-p) |x-y|^(p-(N+sp)) for touching pairs.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from fracsolve import gagliardo
from fracsolve.config import load_config
from fracsolve.gagliardo import (
    MemoryBudgetError,
    OperatorParams,
    PairWeightTable,
    _cache_path,
    _cache_store,
    _offset_table,
    _outside_box_tail,
    assemble_weights,
    energy,
    operator_gradient,
    seminorm,
)
from fracsolve.grids import ScalarField, build_grid, disk, interval, rectangle
from fracsolve.quadrature import pair_integral, quadrant_integral
from support import assembly
from support.oracles import apply_form


@pytest.fixture(scope="module")
def grid_1d():
    return build_grid(interval(0.0, 1.0), 9)


@pytest.fixture(scope="module")
def table_1d(grid_1d):
    return assemble_weights(grid_1d, OperatorParams(s=0.63, p=2.0))


def _random_field(grid, seed, positive=False):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.points.shape[0])
    if positive:
        vals = np.abs(vals) + 0.1
    return ScalarField(grid, vals)


class TestWeights1D:
    def test_separated_pair_matches_dblquad(self, grid_1d, table_1d):
        # nodes 0.25 and 0.625: cells are three lattice steps apart
        h = grid_1d.h[0]
        beta = 1.0 + 0.63 * 2.0
        i, j = 1, 4
        xi, xj = 0.25, 0.625
        lo_i, hi_i = xi - h / 2, xi + h / 2
        lo_j, hi_j = xj - h / 2, xj + h / 2
        want, err = dblquad(
            lambda y, x: abs(x - y) ** -beta, lo_i, hi_i, lambda x: lo_j, lambda x: hi_j
        )
        assert err < 1e-10
        got = table_1d.pair[i, j]
        assert abs(got - want) < 1e-6
        assert got == pytest.approx(want, rel=1e-6)

    def test_touching_pair_matches_model_dblquad(self, grid_1d, table_1d):
        h = grid_1d.h[0]
        s, p = 0.63, 2.0
        expo = p - (1.0 + s * p)  # bounded: 2 - 2.26 = -0.26 is integrable
        i, j = 2, 3
        xi, xj = 0.375, 0.5
        want, err = dblquad(
            lambda y, x: abs(x - y) ** expo,
            xi - h / 2,
            xi + h / 2,
            lambda x: xj - h / 2,
            lambda x: xj + h / 2,
        )
        assert err < 1e-7  # far below the 1e-6 relative comparison tolerance
        want *= h**-p
        got = table_1d.pair[i, j]
        assert got == pytest.approx(want, rel=1e-6)

    def test_symmetry_and_positivity(self, table_1d):
        np.testing.assert_array_equal(table_1d.pair, table_1d.pair.T)
        off_diag = table_1d.pair[~np.eye(table_1d.pair.shape[0], dtype=bool)]
        assert np.all(off_diag > 0.0)
        assert np.all(np.diag(table_1d.pair) == 0.0)
        assert np.all(table_1d.tail > 0.0)

    def test_tail_against_piecewise_oracle(self):
        s, p = 0.44, 2.5
        sp = s * p
        grid = build_grid(interval(0.0, 1.0), 7)
        table = assemble_weights(grid, OperatorParams(s=s, p=p))
        h = grid.h[0]
        x1 = grid.points[grid.interior_idx[0], 0]  # first interior node
        lo, hi = x1 - h / 2, x1 + h / 2
        beta = 1.0 + sp

        # touching exterior cell around the boundary node at 0
        want, _ = dblquad(
            lambda y, x: abs(x - y) ** (p - beta),
            lo,
            hi,
            lambda x: -h / 2,
            lambda x: h / 2,
        )
        total = want * h**-p
        # separated exterior cells: every other non-interior in-box cell
        for xc in grid.points[~grid.interior_mask, 0]:
            if abs(xc - x1) < 1.5 * h:
                continue
            piece, _ = dblquad(
                lambda y, x: abs(x - y) ** -beta,
                lo,
                hi,
                lambda x: xc - h / 2,
                lambda x: xc + h / 2,
            )
            total += piece
        # rays beyond the padded lattice box
        box_lo = grid.axes[0][0] - h / 2
        box_hi = grid.axes[0][-1] + h / 2
        left, _ = quad(lambda x: (x - box_lo) ** -sp / sp, lo, hi)
        right, _ = quad(lambda x: (box_hi - x) ** -sp / sp, lo, hi)
        total += left + right
        assert table.tail[0] == pytest.approx(total, rel=1e-6)


@pytest.fixture(scope="module")
def grid_2d():
    return build_grid(rectangle(0.0, 1.0, 0.0, 1.0), 6)


@pytest.fixture(scope="module")
def table_2d(grid_2d):
    return assemble_weights(grid_2d, OperatorParams(s=0.55, p=2.4))


class TestWeights2D:
    def test_separated_pair_matches_overlap_dblquad(self, grid_2d, table_2d):
        s, p = 0.55, 2.4
        beta = 2.0 + s * p
        h1, h2 = grid_2d.h
        li = grid_2d.lattice[grid_2d.interior_idx]
        # find an interior pair with lattice offset (2, 1)
        cand = None
        for a in range(li.shape[0]):
            for b in range(li.shape[0]):
                if tuple(li[a] - li[b]) == (2, 1):
                    cand = (a, b)
                    break
            if cand:
                break
        assert cand is not None
        a, b = cand
        d1, d2 = 2 * h1, 1 * h2

        def tent(t, w):
            return max(0.0, w - abs(t))

        want, err = dblquad(
            lambda z2, z1: (z1**2 + z2**2) ** (-beta / 2)
            * tent(z1 - d1, h1)
            * tent(z2 - d2, h2),
            d1 - h1,
            d1 + h1,
            lambda z1: d2 - h2,
            lambda z1: d2 + h2,
        )
        assert table_2d.pair[a, b] == pytest.approx(want, rel=1e-6, abs=1e-10)

    def test_touching_diagonal_pair_matches_model(self, grid_2d, table_2d):
        s, p = 0.55, 2.4
        expo = p - (2.0 + s * p)
        h1, h2 = grid_2d.h
        li = grid_2d.lattice[grid_2d.interior_idx]
        cand = None
        for a in range(li.shape[0]):
            for b in range(li.shape[0]):
                if tuple(li[a] - li[b]) == (1, 1):
                    cand = (a, b)
                    break
            if cand:
                break
        a, b = cand
        d1, d2 = h1, h2
        dist = math.hypot(d1, d2)

        def tent(t, w):
            return max(0.0, w - abs(t))

        want, err = dblquad(
            lambda z2, z1: (z1**2 + z2**2) ** (expo / 2)
            * tent(z1 - d1, h1)
            * tent(z2 - d2, h2),
            d1 - h1,
            d1 + h1,
            lambda z1: d2 - h2,
            lambda z1: d2 + h2,
        )
        want *= dist**-p
        assert table_2d.pair[a, b] == pytest.approx(want, rel=2e-5)

    def test_tail_outside_box_against_polar_oracle(self, grid_2d, table_2d):
        sp = 0.55 * 2.4
        got = _outside_box_tail(grid_2d, sp)[0]
        assert got == pytest.approx(_polar_outside_tail(grid_2d, sp, 0), rel=1e-5)

    def test_tail_outside_box_near_high_corner(self):
        # the last interior node sits next to the high corner, where the
        # corner table is read at the mirrored index m - i; h1 != h2
        g = build_grid(rectangle(0.0, 2.0, 0.0, 1.0), 9)
        sp = 0.55 * 2.4
        last = g.n_interior - 1
        assert tuple(g.lattice[g.interior_idx[last]]) == (7, 7)
        got = _outside_box_tail(g, sp)[last]
        assert got == pytest.approx(_polar_outside_tail(g, sp, last), rel=1e-5)


def _polar_outside_tail(grid, sp, k):
    """Kernel mass beyond the lattice box from interior node k's cell: the
    exit distance of each ray, integrated over angle by adaptive quad and
    over the cell by a 6 x 6 Gauss rule."""
    h1, h2 = grid.h
    lo = np.array([grid.axes[0][0] - h1 / 2, grid.axes[1][0] - h2 / 2])
    hi = np.array([grid.axes[0][-1] + h1 / 2, grid.axes[1][-1] + h2 / 2])

    def ray_exit(x, c, s_):
        # distance from x to the box boundary along direction (c, s_)
        ts = []
        for ci, xi, loi, hii in ((c, x[0], lo[0], hi[0]), (s_, x[1], lo[1], hi[1])):
            if ci > 1e-15:
                ts.append((hii - xi) / ci)
            elif ci < -1e-15:
                ts.append((loi - xi) / ci)
        return min(ts)

    def outside_at(x):
        val, _ = quad(
            lambda th: ray_exit(x, math.cos(th), math.sin(th)) ** -sp / sp,
            0.0,
            2.0 * math.pi,
            limit=400,
        )
        return val

    cx, cy = grid.points[grid.interior_idx[k]]
    gx, gw = np.polynomial.legendre.leggauss(6)
    want = 0.0
    for u, wu in zip(gx, gw):
        for v, wv in zip(gx, gw):
            x = (cx + 0.5 * h1 * u, cy + 0.5 * h2 * v)
            want += wu * wv * outside_at(x)
    return want * 0.25 * h1 * h2


# lattices of the assembly oracles: h1 != h2 on the rectangle, h1 == h2
# exactly on the square and the centred disk (their axes swap), and h1, h2
# one ulp apart on the off-centre disk
_ORACLE_GRIDS = {
    "interval": (interval(0.0, 1.0), 33),
    "rectangle": (rectangle(0.0, 2.0, 0.0, 1.0), 17),
    "square": (rectangle(0.0, 1.0, 0.0, 1.0), 17),
    "disk": (disk(0.0, 0.0, 1.0), 25),
    "offcentre_disk": (disk(0.3, -0.2, 0.7), 21),
}
# one order with sp < 1 and one with sp > 1
_ORACLE_PARAMS = [OperatorParams(s=0.3, p=2.0), OperatorParams(s=0.5, p=2.5)]


class TestAssemblyOracles:
    """The batched assembly against the per-offset and per-node loops of
    tests/support/assembly.py, which apply the same rules one at a time."""

    @pytest.mark.parametrize("params", _ORACLE_PARAMS, ids=lambda q: f"sp{q.sp:g}")
    @pytest.mark.parametrize("kind", list(_ORACLE_GRIDS))
    def test_offset_table_matches_per_offset_loop(self, kind, params):
        g = build_grid(*_ORACLE_GRIDS[kind])
        got = _offset_table(g, params)
        want = assembly.offset_table(g, params)
        assert got[(0,) * g.dim] == 0.0
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("params", _ORACLE_PARAMS, ids=lambda q: f"sp{q.sp:g}")
    @pytest.mark.parametrize("kind", ["rectangle", "square", "disk", "offcentre_disk"])
    def test_outside_box_tail_matches_per_node_loop(self, kind, params):
        g = build_grid(*_ORACLE_GRIDS[kind])
        got = _outside_box_tail(g, params.sp)
        want = assembly.outside_box_tail(g, params.sp)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestAssemblyWork:
    """Assembly integrates each distinct quantity once."""

    def test_corner_integrates_only_read_cells_once(self, monkeypatch):
        # the centred disk at res 25 reads 227 distinct corner cells once
        # (i, j) and (j, i) are merged, of the 23 x 25 rows 1..m-1 the
        # whole-table layout integrates; each cell takes 10 x 10 points
        g = build_grid(disk(0.0, 0.0, 1.0), 25)
        points = []

        def counting(sp, a, b):
            points.append(np.broadcast(a, b).size)
            return quadrant_integral(sp, a, b)

        monkeypatch.setattr(gagliardo, "quadrant_integral", counting)
        _outside_box_tail(g, 1.25)
        assert sum(points) == 100 * 227

    def test_offset_table_symmetric_when_axes_swap(self):
        g = build_grid(disk(0.0, 0.0, 1.0), 25)
        assert g.h[0] == g.h[1]
        woff = _offset_table(g, OperatorParams(s=0.5, p=2.5))
        np.testing.assert_array_equal(woff, woff.T)


class TestBatchedPairIntegral:
    """A Cartesian block of pair_integral equals its scalar calls."""

    @pytest.mark.parametrize("exponent", [-1.9, 0.4])
    def test_1d_block_mixing_all_layouts(self, exponent):
        h = 0.1
        # offset 0 is split, 1 graded, the rest uniform panels
        d = h * np.array([3.0, 0.0, 7.0, 1.0, 2.0])
        got = pair_integral(exponent, [d], [h])
        assert got.shape == d.shape
        for a, da in enumerate(d):
            want = pair_integral(exponent, [da], [h])
            assert got[a] == pytest.approx(want, rel=1e-14, abs=0.0)
            assert got[a] == pytest.approx(assembly.pair_integral(exponent, da, h), rel=1e-13)

    @pytest.mark.parametrize("exponent", [-3.25, 0.2])
    def test_2d_block_mixing_all_layouts(self, exponent):
        h = np.array([0.125, 0.0625])
        d1 = h[0] * np.array([0.0, 1.0, 2.0, 5.0])
        d2 = h[1] * np.array([4.0, 1.0, 0.0])
        got = pair_integral(exponent, [d1, d2], h)
        assert got.shape == (4, 3)
        for a, da in enumerate(d1):
            for b, db in enumerate(d2):
                want = pair_integral(exponent, [da, db], h)
                assert isinstance(want, float)
                assert got[a, b] == pytest.approx(want, rel=1e-14, abs=0.0)
                assert got[a, b] == pytest.approx(
                    assembly.pair_integral(exponent, [da, db], h), rel=1e-13
                )

    def test_one_by_one_block_is_the_scalar_call(self):
        h = [0.2, 0.1]
        block = pair_integral(-2.9, [[0.6], [0.1]], h)
        assert block.shape == (1, 1)
        assert block[0, 0] == pytest.approx(pair_integral(-2.9, [0.6, 0.1], h), rel=1e-14, abs=0.0)

    def test_one_offset_per_axis_required(self):
        with pytest.raises(ValueError, match="one scalar or vector offset per axis"):
            pair_integral(-2.5, [0.2], [0.1, 0.1])


class TestFormIdentities:
    def test_zero_field_zero_seminorm(self, grid_1d, table_1d):
        assert seminorm(table_1d, np.zeros(grid_1d.n_interior)) == 0.0

    def test_nonzero_field_positive(self, grid_1d, table_1d):
        u = _random_field(grid_1d, 3)
        assert seminorm(table_1d, grid_1d.pack(u)) > 0.0

    @given(lam=st.floats(min_value=0.01, max_value=50.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_p_homogeneity(self, lam, grid_1d, table_1d):
        u = _random_field(grid_1d, 7)
        lhs = seminorm(table_1d, grid_1d.pack(ScalarField(grid_1d, lam * u.values)))
        rhs = lam * seminorm(table_1d, grid_1d.pack(u))
        assert np.isclose(lhs, rhs, rtol=1e-11)

    def test_apply_form_uu_is_p_energy(self, grid_1d, table_1d):
        for seed in range(5):
            u = grid_1d.pack(_random_field(grid_1d, seed))
            lhs = apply_form(table_1d, u, u)
            rhs = 2.0 * energy(table_1d, u)  # p = 2
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_gradient_matches_pairing(self, grid_1d, table_1d):
        u = grid_1d.pack(_random_field(grid_1d, 11))
        g = operator_gradient(table_1d, u)
        for seed in range(4):
            phi = grid_1d.pack(_random_field(grid_1d, 100 + seed))
            lhs = float(g @ phi)
            rhs = apply_form(table_1d, u, phi)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_gradient_matches_central_difference(self):
        grid = build_grid(interval(0.0, 1.0), 17)
        for p in (2.0, 2.5, 3.0):
            table = assemble_weights(grid, OperatorParams(s=0.6, p=p))
            uvec = grid.pack(_random_field(grid, 21))
            g = operator_gradient(table, uvec)
            eps = 1e-6
            fd = np.empty_like(g)
            for k in range(uvec.size):
                up, dn = uvec.copy(), uvec.copy()
                up[k] += eps
                dn[k] -= eps
                fd[k] = (
                    energy(table, up) - energy(table, dn)
                ) / (2 * eps)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-5

    def test_monotonicity_random_pairs(self, grid_1d):
        for s, p in ((0.5, 2.0), (0.7, 2.5), (0.9, 3.0)):
            table = assemble_weights(grid_1d, OperatorParams(s=s, p=p))
            rng = np.random.default_rng(5)
            for _ in range(40):
                u = grid_1d.pack(ScalarField(grid_1d, rng.normal(size=grid_1d.points.shape[0])))
                w = grid_1d.pack(ScalarField(grid_1d, rng.normal(size=grid_1d.points.shape[0])))
                diff = u - w
                gap = apply_form(table, u, diff) - apply_form(table, w, diff)
                assert gap >= -1e-10

    def test_hoelder_bound(self, grid_1d):
        table = assemble_weights(grid_1d, OperatorParams(s=0.6, p=2.7))
        rng = np.random.default_rng(9)
        for _ in range(40):
            u = grid_1d.pack(ScalarField(grid_1d, rng.normal(size=grid_1d.points.shape[0])))
            phi = grid_1d.pack(ScalarField(grid_1d, rng.normal(size=grid_1d.points.shape[0])))
            lhs = abs(apply_form(table, u, phi))
            rhs = seminorm(table, u) ** (2.7 - 1.0) * seminorm(table, phi)
            assert lhs <= rhs + 1e-8

    def test_energy_convex_along_segments(self, grid_1d):
        table = assemble_weights(grid_1d, OperatorParams(s=0.75, p=3.1))
        rng = np.random.default_rng(13)
        for _ in range(20):
            u = rng.normal(size=grid_1d.points.shape[0])
            w = rng.normal(size=grid_1d.points.shape[0])
            t = rng.uniform()
            mid = ScalarField(grid_1d, (1 - t) * u + t * w)
            lhs = energy(table, grid_1d.pack(mid))
            rhs = (1 - t) * energy(table, grid_1d.pack(ScalarField(grid_1d, u))) + t * energy(
                table, grid_1d.pack(ScalarField(grid_1d, w))
            )
            assert lhs <= rhs + 1e-10


def _tied_signed_vector(grid, seed):
    """Interior vector with both signs, exact zeros and repeated entries, so
    the pair pass meets u_i == u_j and sign changes."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=grid.n_interior)
    u[::5] = u[1]
    u[2::7] = -u[3]
    u[4::9] = 0.0
    return u


@pytest.fixture(scope="module", params=["interval", "disk"])
def one_pass_grid(request):
    if request.param == "interval":
        return build_grid(interval(0.0, 1.0), 23)
    return build_grid(disk(0.0, 0.0, 1.0), 13)


class TestOnePassEvaluation:
    """The pair-triangle pass against the dense apply_form oracle, and the
    two-table call against two single-table calls."""

    def test_two_tables_equal_sum_of_single_calls(self, one_pass_grid):
        g = one_pass_grid
        tp = assemble_weights(g, OperatorParams(s=0.7, p=3.0))
        tq = assemble_weights(g, OperatorParams(s=0.5, p=2.2))
        for seed in range(3):
            u = _tied_signed_vector(g, seed)
            both = energy(tp, u, tq)
            apart = energy(tp, u) + energy(tq, u)
            assert isinstance(both, float)
            assert float(both) == pytest.approx(float(apart), rel=1e-13)
            grad = operator_gradient(tp, u, tq)
            want = operator_gradient(tp, u) + operator_gradient(tq, u)
            np.testing.assert_allclose(
                grad, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want))
            )

    @pytest.mark.parametrize("p", [1.5, 2.2, 3.0])
    def test_gradient_pairing_matches_dense_form(self, one_pass_grid, p):
        g = one_pass_grid
        table = assemble_weights(g, OperatorParams(s=0.6, p=p))
        rng = np.random.default_rng(31)
        for seed in range(3):
            u = _tied_signed_vector(g, 40 + seed)
            grad = operator_gradient(table, u)
            for _ in range(3):
                phi = rng.normal(size=g.n_interior)
                assert float(grad @ phi) == pytest.approx(
                    apply_form(table, u, phi), rel=1e-12, abs=1e-13
                )
            # pairing u with itself is p times the energy
            assert p * energy(table, u) == pytest.approx(apply_form(table, u, u), rel=1e-12)

    def test_row_blocks_agree_with_one_block(self, one_pass_grid, monkeypatch):
        # these grids fit in one block of _ROW_CHUNK rows; force several
        g = one_pass_grid
        tp = assemble_weights(g, OperatorParams(s=0.7, p=3.0))
        tq = assemble_weights(g, OperatorParams(s=0.5, p=1.5))
        u = _tied_signed_vector(g, 5)
        whole_e = energy(tp, u, tq)
        whole_g = operator_gradient(tp, u, tq)
        monkeypatch.setattr(gagliardo, "_ROW_CHUNK", 4)
        assert float(energy(tp, u, tq)) == pytest.approx(float(whole_e), rel=1e-13)
        np.testing.assert_allclose(
            operator_gradient(tp, u, tq), whole_g, rtol=1e-13, atol=1e-13 * np.max(np.abs(whole_g))
        )

    def test_tables_on_different_grids_rejected(self, one_pass_grid):
        other = build_grid(interval(0.0, 2.0), 11)
        tp = assemble_weights(one_pass_grid, OperatorParams(s=0.7, p=3.0))
        tq = assemble_weights(other, OperatorParams(s=0.5, p=2.2))
        u = np.ones(one_pass_grid.n_interior)
        with pytest.raises(ValueError):
            energy(tp, u, tq)
        with pytest.raises(ValueError):
            operator_gradient(tp, u, tq)


class TestHiddenConvexity:
    def test_pointwise_inequality_random_triples(self, grid_1d):
        rng = np.random.default_rng(2024)
        for q, p in ((2.5, 3.0), (2.5, 3.4), (3.0, 3.0), (3.0, 3.4)):
            for _ in range(50):
                u1 = np.abs(rng.normal(size=grid_1d.points.shape[0])) + 1e-3
                u2 = np.abs(rng.normal(size=grid_1d.points.shape[0])) + 1e-3
                t = rng.uniform()
                v1, v2 = u1 ** (1 / q), u2 ** (1 / q)
                v3 = ((1 - t) * u1 + t * u2) ** (1 / q)
                d1 = np.abs(v1[:, None] - v1[None, :]) ** p
                d2 = np.abs(v2[:, None] - v2[None, :]) ** p
                d3 = np.abs(v3[:, None] - v3[None, :]) ** p
                violation = d3 - ((1 - t) * d1 + t * d2)
                assert violation.max() <= 1e-12

    def test_composed_energy_convex_in_qth_power(self, grid_1d):
        # Phi(w) = seminorm(w^{1/q})^p is convex on nonnegative fields
        q, p = 2.5, 3.0
        table = assemble_weights(grid_1d, OperatorParams(s=0.7, p=p))
        rng = np.random.default_rng(77)
        for _ in range(20):
            u1 = np.abs(rng.normal(size=grid_1d.points.shape[0])) + 1e-3
            u2 = np.abs(rng.normal(size=grid_1d.points.shape[0])) + 1e-3
            t = rng.uniform()

            def phi(w):
                root = ScalarField(grid_1d, np.maximum(w, 0.0) ** (1 / q))
                return seminorm(table, grid_1d.pack(root)) ** p

            lhs = phi((1 - t) * u1 + t * u2)
            rhs = (1 - t) * phi(u1) + t * phi(u2)
            assert lhs <= rhs + 1e-10 * (1 + abs(rhs))


class TestStabilityAndBudget:
    def test_seminorm_stable_under_refinement(self):
        vals = []
        for res in (33, 65):
            g = build_grid(interval(0.0, 1.0), res)
            table = assemble_weights(g, OperatorParams(s=0.6, p=2.6))
            u = ScalarField(g, np.sin(np.pi * g.points[:, 0]))
            vals.append(seminorm(table, g.pack(u)))
        assert abs(vals[1] - vals[0]) / vals[0] < 0.05

    def test_memory_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(gagliardo, "NODE_CAP", 16)
        g = build_grid(interval(0.0, 1.0), 65)
        with pytest.raises(MemoryBudgetError):
            assemble_weights(g, OperatorParams(s=0.5, p=2.0))

    def test_exterior_cell_sum_matches_direct(self):
        # the convolution shortcut must agree with brute-force summation
        g = build_grid(rectangle(0.0, 1.0, 0.0, 1.0), 5)
        params = OperatorParams(s=0.6, p=2.2)
        table = assemble_weights(g, params)
        woff = _offset_table(g, params)
        li = g.lattice[g.interior_idx]
        le = g.lattice[~g.interior_mask]
        sp = params.s * params.p
        ext_direct = np.zeros(li.shape[0])
        for a in range(li.shape[0]):
            offs = np.abs(li[a] - le)
            ext_direct[a] = woff[offs[:, 0], offs[:, 1]].sum()
        outside = _outside_box_tail(g, sp)
        np.testing.assert_allclose(table.tail, ext_direct + outside, rtol=1e-10)


class TestCache:
    @pytest.mark.parametrize(
        "config, names",
        [
            (
                "interval_1d",
                ("weights-68ef8276a4fbbafb27fb9992.fwt", "weights-3de299358b56cad5da2ea756.fwt"),
            ),
            (
                "disk_2d",
                ("weights-3d365883c905c05f67115d0e.fwt", "weights-5c7ca5798665fdcc567fc9e4.fwt"),
            ),
        ],
    )
    def test_shipped_config_file_names_unchanged(self, tmp_path, monkeypatch, config, names):
        # the names hash the table's descriptor: a change to it would
        # orphan every cache file already written
        monkeypatch.setenv("FRACSOLVE_CACHE", str(tmp_path))
        cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / f"{config}.json"))
        g, e = cfg.build_grid(), cfg.exponents
        got = tuple(
            _cache_path(g, OperatorParams(s, p)).name for s, p in ((e.s1, e.p), (e.s2, e.q))
        )
        assert got == names

    def test_roundtrip_bitwise(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSOLVE_CACHE", str(tmp_path))
        g = build_grid(interval(0.0, 1.0), 17)
        params = OperatorParams(s=0.58, p=2.3)
        t1 = assemble_weights(g, params)
        files = list(tmp_path.glob("*.fwt"))
        assert len(files) == 1
        t2 = assemble_weights(g, params)
        np.testing.assert_array_equal(t1.pair, t2.pair)
        np.testing.assert_array_equal(t1.tail, t2.tail)

    def test_repeated_store_leaves_one_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSOLVE_CACHE", str(tmp_path))
        g = build_grid(interval(0.0, 1.0), 9)
        params = OperatorParams(s=0.55, p=2.4)
        t1 = assemble_weights(g, params)
        path = _cache_path(g, params)
        _cache_store(path, t1)
        assert [f.name for f in tmp_path.iterdir()] == [path.name]
        t2 = assemble_weights(g, params)
        np.testing.assert_array_equal(t1.pair, t2.pair)

    def test_new_format_version_overwrites_old_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSOLVE_CACHE", str(tmp_path))
        g = build_grid(interval(0.0, 1.0), 9)
        params = OperatorParams(s=0.55, p=2.4)
        assemble_weights(g, params)
        newer = gagliardo._CACHE_VERSION + 1
        monkeypatch.setattr(gagliardo, "_CACHE_VERSION", newer)
        assemble_weights(g, params)
        files = list(tmp_path.glob("*.fwt"))
        assert len(files) == 1
        head = files[0].read_bytes().partition(b"\n")[0]
        assert json.loads(head)["descriptor"]["version"] == newer

    def test_corrupt_cache_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACSOLVE_CACHE", str(tmp_path))
        g = build_grid(interval(0.0, 1.0), 9)
        params = OperatorParams(s=0.5, p=2.0)
        t1 = assemble_weights(g, params)
        for f in tmp_path.glob("*.fwt"):
            f.write_bytes(b"garbage")
        t2 = assemble_weights(g, params)
        np.testing.assert_allclose(t1.pair, t2.pair, rtol=1e-14)

    def test_flipped_body_byte_rebuilt(self, tmp_path, monkeypatch):
        # same length, same header: only the body checksum can tell
        monkeypatch.setenv("FRACSOLVE_CACHE", str(tmp_path))
        g = build_grid(interval(0.0, 1.0), 9)
        params = OperatorParams(s=0.5, p=2.0)
        t1 = assemble_weights(g, params)
        path = _cache_path(g, params)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0x40  # a high mantissa bit of the last tail entry
        path.write_bytes(bytes(raw))
        t2 = assemble_weights(g, params)
        np.testing.assert_array_equal(t1.tail, t2.tail)
        np.testing.assert_array_equal(t1.woff, t2.woff)
        t3 = assemble_weights(g, params)
        np.testing.assert_array_equal(t1.tail, t3.tail)
