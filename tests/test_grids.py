"""Grid and field tests, and the package's export lists."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracsolve.grids import ScalarField, build_grid, disk, interval, rectangle


class TestDomain:
    def test_interval_distance(self):
        dom = interval(0.0, 1.0)
        pts = np.array([[0.1], [0.5], [0.9], [1.2]])
        np.testing.assert_allclose(dom.distance(pts), [0.1, 0.5, 0.1, 0.0])

    def test_rectangle_distance(self):
        dom = rectangle(0.0, 2.0, 0.0, 1.0)
        pts = np.array([[0.3, 0.5], [1.0, 0.1], [1.9, 0.9]])
        np.testing.assert_allclose(dom.distance(pts), [0.3, 0.1, 0.1])

    def test_disk_distance(self):
        dom = disk(1.0, -1.0, 2.0)
        pts = np.array([[1.0, -1.0], [2.0, -1.0], [4.0, -1.0]])
        np.testing.assert_allclose(dom.distance(pts), [2.0, 1.0, 0.0])

    def test_contains_is_strict(self):
        dom = interval(0.0, 1.0)
        assert not dom.contains(np.array([[0.0]]))[0]
        assert not dom.contains(np.array([[1.0]]))[0]
        assert dom.contains(np.array([[0.5]]))[0]


class TestGrid:
    def test_interval_resolution_five(self):
        g = build_grid(interval(0.0, 1.0), 5)
        np.testing.assert_allclose(g.axes[0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.h == (0.25,)
        assert g.n_interior == 3
        np.testing.assert_allclose(g.points[g.interior_mask][:, 0], [0.25, 0.5, 0.75])

    def test_rectangle_node_count(self):
        g = build_grid(rectangle(0.0, 1.0, 0.0, 1.0), 7)
        assert g.points.shape == (49, 2)
        assert g.n_interior == 25

    def test_disk_excludes_corners(self):
        g = build_grid(disk(0.0, 0.0, 1.0), 9)
        pts = g.points[g.interior_mask]
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) < 1.0)
        # the lattice corner (1,1) is well outside
        assert g.n_interior < 0.9 * g.points.shape[0]

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            build_grid(interval(0.0, 1.0), 2)

    def test_pack_unpack_roundtrip(self):
        g = build_grid(interval(0.0, 1.0), 9)
        rng = np.random.default_rng(0)
        vec = rng.normal(size=g.n_interior)
        f = g.unpack(vec)
        np.testing.assert_array_equal(g.pack(f), vec)

    def test_interior_distance_positive(self):
        for domain in (interval(0.0, 1.0), rectangle(0.0, 2.0, 0.0, 1.0), disk(0.3, -0.2, 0.7)):
            g = build_grid(domain, 9)
            d = g.interior_distance
            assert np.all(d > 0.0)
            np.testing.assert_array_equal(d, domain.distance(g.interior_points))

    def test_zero_extend_is_lattice_shaped(self):
        g = build_grid(disk(0.0, 0.0, 1.0), 9)
        vec = np.random.default_rng(1).normal(size=g.n_interior)
        ext = g.zero_extend(vec)
        assert ext.shape == g.shape
        np.testing.assert_array_equal(ext.reshape(-1)[g.interior_idx], vec)
        assert np.all(ext.reshape(-1)[~g.interior_mask] == 0.0)
        for bad in (vec[:-1], vec[:, None]):
            with pytest.raises(ValueError, match="interior values"):
                g.zero_extend(bad)
            with pytest.raises(ValueError, match="interior values"):
                g.unpack(bad)

    def test_rectangle_anisotropic_spacing(self):
        g = build_grid(rectangle(0.0, 2.0, 0.0, 1.0), 5)
        np.testing.assert_allclose(g.h, (0.5, 0.25))
        assert g.cell_volume == pytest.approx(0.125)


class TestScalarField:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_exterior_always_zero(self, seed):
        g = build_grid(disk(0.0, 0.0, 1.0), 9)
        rng = np.random.default_rng(seed)
        f = ScalarField(g, rng.normal(size=g.points.shape[0]))
        assert np.all(f.values[~g.interior_mask] == 0.0)

    def test_shape_mismatch_rejected(self):
        g = build_grid(interval(0.0, 1.0), 5)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(7))


class TestExports:
    @pytest.mark.parametrize("module", ["fracsolve", "fracsolve.grids", "fracsolve.quadrature"])
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing
