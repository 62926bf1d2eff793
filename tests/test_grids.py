"""Grid tests, and the package's export lists."""

import hashlib
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

import fracsolve
from fracsolve.gagliardo import OperatorParams, assemble_weights
from fracsolve.grids import Grid, _fast_len, disk, interval, rectangle


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

    def test_describe(self):
        # the weight-cache key: its form must not change
        assert interval(0.0, 1.0).describe() == {"type": "interval", "bounds": [0.0, 1.0]}
        assert rectangle(0.0, 2.0, -1.0, 1.0).describe() == {
            "type": "rectangle",
            "bounds": [0.0, 2.0, -1.0, 1.0],
        }
        assert disk(1.0, -1.0, 2.0).describe() == {
            "type": "disk",
            "center": [1.0, -1.0],
            "radius": 2.0,
        }

    def test_contains_is_strict(self):
        dom = interval(0.0, 1.0)
        assert not dom.contains(np.array([[0.0]]))[0]
        assert not dom.contains(np.array([[1.0]]))[0]
        assert dom.contains(np.array([[0.5]]))[0]


class TestGrid:
    def test_interval_resolution_five(self):
        g = Grid(interval(0.0, 1.0), 5)
        np.testing.assert_allclose(g.axes[0], [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.h == (0.25,)
        assert g.n_interior == 3
        np.testing.assert_allclose(g.points[g.interior_mask][:, 0], [0.25, 0.5, 0.75])

    def test_rectangle_node_count(self):
        g = Grid(rectangle(0.0, 1.0, 0.0, 1.0), 7)
        assert g.points.shape == (49, 2)
        assert g.n_interior == 25

    def test_disk_excludes_corners(self):
        g = Grid(disk(0.0, 0.0, 1.0), 9)
        pts = g.points[g.interior_mask]
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) < 1.0)
        # the lattice corner (1,1) is well outside
        assert g.n_interior < 0.9 * g.points.shape[0]

    def test_minimum_resolution(self):
        with pytest.raises(ValueError):
            Grid(interval(0.0, 1.0), 2)

    @pytest.mark.parametrize(
        "value", [5.5, 5.0, True, "9"], ids=["fractional", "integral-float", "bool", "str"]
    )
    def test_resolution_that_is_not_an_integer_rejected(self, value):
        # numpy's linspace raised a TypeError for a float, and a bool
        # passed as the integer 1
        with pytest.raises(ValueError, match=f"resolution must be an integer, got {value!r}"):
            Grid(interval(0.0, 1.0), value)
        assert Grid(interval(0.0, 1.0), np.int64(5)).resolution == 5

    def test_pack_inverts_zero_extend(self):
        rng = np.random.default_rng(0)
        for g in (Grid(interval(0.0, 1.0), 9), Grid(disk(0.0, 0.0, 1.0), 9)):
            vec = rng.normal(size=g.n_interior)
            ext = g.zero_extend(vec)
            np.testing.assert_array_equal(g.pack(ext), vec)
            np.testing.assert_array_equal(g.pack(ext.reshape(-1)), vec)

    def test_pack_rejects_wrong_size(self):
        g = Grid(disk(0.0, 0.0, 1.0), 9)
        lattice = np.ones(g.shape)
        for bad in (lattice[:-1], lattice.reshape(-1)[:-1], lattice.reshape(-1, 1), lattice[None]):
            with pytest.raises(ValueError, match="one value per lattice node"):
                g.pack(bad)

    def test_interior_distance_positive(self):
        for domain in (interval(0.0, 1.0), rectangle(0.0, 2.0, 0.0, 1.0), disk(0.3, -0.2, 0.7)):
            g = Grid(domain, 9)
            d = g.interior_distance
            assert np.all(d > 0.0)
            np.testing.assert_array_equal(d, domain.distance(g.interior_points))

    def test_zero_extend_is_lattice_shaped(self):
        g = Grid(disk(0.0, 0.0, 1.0), 9)
        vec = np.random.default_rng(1).normal(size=g.n_interior)
        ext = g.zero_extend(vec)
        assert ext.shape == g.shape
        np.testing.assert_array_equal(ext.reshape(-1)[g.interior_idx], vec)
        assert np.all(ext.reshape(-1)[~g.interior_mask] == 0.0)
        for bad in (vec[:-1], vec[:, None]):
            with pytest.raises(ValueError, match="interior values"):
                g.zero_extend(bad)
            with pytest.raises(ValueError, match="interior values"):
                g.interior_vector(bad)

    def test_interior_lattice_is_cached(self):
        g = Grid(disk(0.0, 0.0, 1.0), 9)
        li = g.interior_lattice
        assert li is g.interior_lattice
        np.testing.assert_array_equal(li, g.lattice[g.interior_idx])

    def test_axes_swap_needs_equal_spacings_in_2d(self):
        assert Grid(disk(0.0, 0.0, 1.0), 9).axes_swap
        assert Grid(rectangle(0.0, 1.0, 2.0, 3.0), 9).axes_swap
        assert not Grid(rectangle(0.0, 2.0, 0.0, 1.0), 9).axes_swap
        assert not Grid(interval(0.0, 1.0), 9).axes_swap
        # the two spacings differ by one ulp
        g = Grid(disk(0.3, -0.2, 0.7), 21)
        assert g.h[0] != g.h[1] and not g.axes_swap

    def test_lattice_edge_nodes_never_interior(self):
        # (-0.9, 0) is on the circle, but rounding puts it 5.6e-17 inside;
        # the disk's relative margin keeps it out all the same
        dom = disk(-1.0, 0.0, 0.1)
        g = Grid(dom, 9)
        edge = np.flatnonzero(np.all(np.isclose(g.points, [-0.9, 0.0], atol=1e-12), axis=1))
        assert edge.size == 1 and g.lattice[edge[0], 0] == 8
        assert not dom.contains(g.points[edge])[0]
        assert not g.interior_mask[edge[0]]
        li = g.lattice[g.interior_idx]
        assert np.all((li > 0) & (li < g.resolution - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the (s1, p) and (s2, q) tables of configs/disk_2d.json
            for params in (OperatorParams(s=0.6, p=3.0), OperatorParams(s=0.5, p=2.5)):
                table = assemble_weights(g, params)
                assert np.all(np.isfinite(table.tail)) and np.all(table.tail > 0.0)

    def test_off_centre_disks_keep_the_lattice_edge_out(self):
        for cx in np.linspace(-1.0, 1.0, 11):
            for r in (0.1, 0.3, 0.7, 1.3):
                for res in (9, 17):
                    g = Grid(disk(cx, 0.0, r), res)
                    li = g.lattice[g.interior_idx]
                    assert np.all((li > 0) & (li < res - 1)), (cx, r, res)

    def test_on_circle_nodes_stay_out(self):
        # (8/17, 15/17) is on the unit circle and a node of the res-35 lattice
        g = Grid(disk(0.0, 0.0, 1.0), 35)
        node = np.flatnonzero(np.all(np.isclose(g.points, [8 / 17, 15 / 17], atol=1e-12), axis=1))
        assert node.size == 1 and not g.interior_mask[node[0]]
        # every centred disk at these odd resolutions has such nodes
        for r in (0.5, 1.0, 2.0, 5.0):
            for res in (35, 69, 79, 103, 111):
                g = Grid(disk(0.0, 0.0, r), res)
                assert np.min(g.interior_distance) > 1e-12 * r, (r, res)

    @pytest.mark.parametrize(
        "domain, res, n, digest",
        [
            (interval(0.0, 1.0), 17, 15, "24dff1b014223b1a"),
            (interval(0.0, 1.0), 129, 127, "c6b75444b19c92d5"),
            (disk(0.0, 0.0, 1.0), 11, 69, "66d14f338faaaf23"),
            (disk(0.0, 0.0, 1.0), 25, 437, "2ca095e28a6186c7"),
            (disk(0.0, 0.0, 1.0), 41, 1245, "cff9cc41d53d9084"),
            (disk(0.0, 0.0, 1.0), 61, 2809, "7335bbf11c6691a0"),
        ],
    )
    def test_shipped_interior_masks_unchanged(self, domain, res, n, digest):
        # the domains of configs/interval_1d.json and configs/disk_2d.json,
        # against masks recorded before the disk's boundary margin
        g = Grid(domain, res)
        assert g.n_interior == n
        assert hashlib.sha256(g.interior_mask.tobytes()).hexdigest()[:16] == digest

    def test_rectangle_anisotropic_spacing(self):
        g = Grid(rectangle(0.0, 2.0, 0.0, 1.0), 5)
        np.testing.assert_allclose(g.h, (0.5, 0.25))
        assert g.cell_volume == pytest.approx(0.125)


class TestConvolve:
    """``Grid.convolve`` runs on numpy.fft and must agree entrywise with
    ``scipy.signal.fftconvolve(values, signed, mode="same")``, with
    ``signed`` the table mirrored to every signed offset, to a few eps of
    ``fftconvolve(|values|, signed, "same")``: the two FFTs round
    differently, and the rounding error of each entry scales with the
    magnitudes summed into it."""

    @pytest.mark.parametrize(
        "domain, res",
        [(interval(0.0, 1.0), 129), (disk(0.0, 0.0, 1.0), 25), (rectangle(0.0, 2.0, 0.0, 1.0), 17)],
    )
    def test_matches_fftconvolve(self, domain, res):
        g = Grid(domain, res)
        rng = np.random.default_rng(res)
        table = rng.random(g.shape)
        values = rng.normal(size=g.shape)
        signed = table[np.ix_(*(np.abs(np.arange(1 - m, m)) for m in g.shape))]
        out = g.convolve(g.offset_spectrum(table), values)
        assert out.shape == g.shape
        scale = fftconvolve(np.abs(values), signed, mode="same")
        err = np.abs(out - fftconvolve(values, signed, mode="same"))
        assert np.all(err <= 4.0 * np.finfo(float).eps * scale)


class TestFastLen:
    def test_matches_scipy_next_fast_len(self):
        # the padded FFT lengths stay the 5-smooth ones scipy.fft picks
        want = [next_fast_len(n, True) for n in range(1, 12289)]
        assert [_fast_len(n) for n in range(1, 12289)] == want


class TestOffsetCounts:
    @pytest.mark.parametrize(
        "domain, res",
        [(interval(0.0, 1.0), 33), (disk(0.3, -0.2, 0.7), 21), (rectangle(0.0, 2.0, 0.0, 1.0), 9)],
    )
    def test_counts_every_ordered_pair_at_its_offset(self, domain, res):
        g = Grid(domain, res)
        li = g.lattice[g.interior_idx]
        offsets = np.abs(li[:, None, :] - li[None, :, :]).reshape(-1, g.dim)
        want = np.zeros(g.shape, dtype=np.int64)
        np.add.at(want, tuple(offsets.T), 1)
        got = g.offset_counts()
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert got[(0,) * g.dim] == g.n_interior


class TestExports:
    @pytest.mark.parametrize("module", ["fracsolve", "fracsolve.grids", "fracsolve.quadrature"])
    def test_every_exported_name_resolves(self, module):
        mod = importlib.import_module(module)
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing

    def test_import_leaves_heavy_scipy_out(self):
        # numpy is the only runtime dependency: scipy serves the tests as an
        # oracle, and importing scipy.special alone costs about 0.3 s
        src = str(Path(fracsolve.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        code = (
            "import sys\n"
            "import fracsolve, fracsolve.cli\n"
            "print(' '.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == ""
