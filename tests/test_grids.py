import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import zonalab as zl

VOL3 = 19.739208802178716


class TestMakeGrid:
    def test_weights_sum_to_volume(self, grid144):
        assert grid144.weights.sum() == pytest.approx(VOL3, rel=1e-12)

    def test_weights_sum_on_s2(self):
        grid = zl.make_grid(zl.SphereSpec(2), 60)
        assert grid.weights.sum() == pytest.approx(4 * math.pi, rel=1e-12)

    def test_nodes_increase_inside_interval(self, grid144):
        th = grid144.nodes
        assert np.all(np.diff(th) > 0)
        assert th[0] > 0 and th[-1] < math.pi

    def test_default_exactness(self, sphere3):
        grid = zl.make_grid(sphere3, 41)
        assert grid.kexact == 20

    def test_rejects_undersized_grid(self, sphere3):
        with pytest.raises(ValueError):
            zl.make_grid(sphere3, 16, kexact=10)
        with pytest.raises(ValueError):
            zl.make_grid(sphere3, 0)

    def test_mirrored_needs_mirrored_weights(self, grid80):
        # nodes mirrored to rounding and weights exactly: a factored
        # operator then keeps its rows on the first half of the nodes
        assert grid80.mirrored and grid80.half == 40
        weights = grid80.weights.copy()
        weights[0] = np.nextafter(weights[0], 1.0)
        moved = zl.ZonalGrid(grid80.sphere, grid80.nodes, weights, "w", 16)
        assert not moved.mirrored and moved.half == 80

    def test_mismatched_arrays_rejected(self, sphere3):
        with pytest.raises(ValueError):
            zl.ZonalGrid(sphere3, np.ones(4), np.ones(3), "custom", 0)
        with pytest.raises(ValueError):
            zl.ZonalGrid(sphere3, np.ones(3), np.array([1.0, -1.0, 1.0]),
                         "custom", 0)


class TestQuadratureExactness:
    def test_zonal_orthogonality(self, grid144):
        z4 = zl.zonal_value(3, 4, grid144.cosines)
        z7 = zl.zonal_value(3, 7, grid144.cosines)
        assert abs(grid144.integrate(z4 * z7)) < 1e-8

    def test_zonal_self_product(self, grid144):
        # <Z_k, Z_k> = Z_k(1)
        for k in (1, 9, 30):
            zk = zl.zonal_value(3, k, grid144.cosines)
            assert grid144.integrate(zk * zk) == pytest.approx(
                zl.zonal_value(3, k, 1.0), rel=1e-10)

    def test_basis_orthonormal(self, grid80):
        B = grid80.basis(range(17))
        gram = (B * grid80.weights) @ B.T
        np.testing.assert_allclose(gram, np.eye(17), atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_basis_slices_one_table(self, n, zonal_s3_mp):
        # on the first half of the nodes, off S^3 bit for bit the rows of
        # one zonal_table, each divided by the root of its value at t = 1,
        # whichever degrees are asked for; on the mirror half exactly
        # (-1)^k times the first, which is the table to rounding.  On S^3
        # the rows are the closed form, and every node is within 1e-13 of
        # each row's max of the exact row
        grid = zl.make_grid(zl.SphereSpec(n), 130, kexact=64)
        assert grid.mirrored and grid.half == 65
        tab = zl.zonal_table(n, 80, grid.cosines)
        z1 = zl.zonal_table(n, 80, np.ones(1))[:, 0]
        want = tab / np.sqrt(z1)[:, None]
        for degrees in (range(6), range(65), [0], [64], [65, 80],
                        [3, 17, 40]):
            B = grid.basis(degrees)
            rows = want[list(degrees)]
            sign = (-1.0) ** np.asarray(degrees)[:, None]
            assert B.shape == (len(degrees), grid.points)
            assert np.array_equal(B[:, 65:], sign * B[:, 64::-1])
            if n == 3:
                for k, row in zip(degrees, B):
                    exact = zonal_s3_mp(k, grid.nodes) * (
                        math.sqrt(2.0) * math.pi / (k + 1))
                    assert (np.abs(row - exact).max()
                            <= 1e-13 * np.abs(exact).max())
                continue
            assert np.array_equal(B[:, :65], rows[:, :65])
            assert (np.abs(B - rows).max(axis=1)
                    <= 1e-14 * np.abs(rows).max(axis=1)).all()
        assert grid.basis([]).shape == (0, grid.points)

    def test_basis_near_both_poles_s3(self, zonal_s3_mp):
        # a node set that is not mirrored has every row computed on every
        # node: within 1e-13 of each row's max at degrees up to 1024, with
        # 40 nodes near each pole
        near = np.geomspace(1e-7, 2e-2, 40)
        nodes = np.concatenate([near, np.linspace(0.03, math.pi - 0.05, 120),
                                math.pi - near[::-1]])
        grid = zl.ZonalGrid(zl.SphereSpec(3), nodes, np.ones(nodes.size),
                            "poles", 1024)
        assert not grid.mirrored
        degrees = [1, 2, 255, 512, 1023, 1024]
        for k, row in zip(degrees, grid.basis(degrees)):
            exact = zonal_s3_mp(k, nodes) * math.sqrt(2.0) * math.pi / (k + 1)
            assert np.abs(row - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("degrees", [[3, 3], [5, 3], [-1]])
    def test_basis_rejects_bad_degrees(self, sphere3, degrees):
        # repeated, decreasing and negative degrees name no row
        grid = zl.make_grid(sphere3, 40)
        with pytest.raises(ValueError, match="strictly increasing"):
            grid.basis(degrees)

    def test_basis_built_in_place(self, sphere3):
        # the rows are scaled and divided into the array that is returned,
        # so building the lambda = 64 resolvent operator holds its rows and
        # a few more, not two copies
        grid = zl.make_grid(sphere3, 1040)
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(64, 1)).kernel
        tracemalloc.start()
        try:
            blocks = zl.operator_from_kernel(kern, grid).factors
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the even and the odd degrees, on the first half of the nodes
        assert kern.coeffs.size == 257
        assert [rows.shape for rows, _ in blocks] == [(129, 520), (128, 520)]
        assert peak < 1.25 * sum(rows.nbytes for rows, _ in blocks)

    def test_refinement_stable(self, sphere3, grid80, grid144):
        # doubling the rule does not move an exactly integrable product
        v1 = grid80.integrate(zl.zonal_value(3, 8, grid80.cosines) ** 2)
        v2 = grid144.integrate(zl.zonal_value(3, 8, grid144.cosines) ** 2)
        assert v1 == pytest.approx(v2, rel=1e-10)


def test_zonal_function_shape_check(grid80):
    with pytest.raises(ValueError):
        zl.ZonalFunction(grid80, np.ones(5))


class TestSerialization:
    def test_roundtrip_exact(self, grid80, tmp_path):
        path = tmp_path / "g.csv"
        zl.save_grid(grid80, path)
        back = zl.load_grid(path)
        assert back == grid80
        np.testing.assert_array_equal(back.nodes, grid80.nodes)
        np.testing.assert_array_equal(back.weights, grid80.weights)
        assert back.rule == grid80.rule and back.kexact == grid80.kexact

    def test_interrupted_save_leaves_no_file(self, grid80, tmp_path):
        # the table is written aside and moved into place whole, so a save
        # that fails midway leaves nothing a later load could trust
        def failing_weights():
            yield from grid80.weights[:10]
            raise OSError("disk full")

        def broken():
            return SimpleNamespace(sphere=grid80.sphere, rule=grid80.rule,
                                   kexact=grid80.kexact, nodes=grid80.nodes,
                                   weights=failing_weights())

        path = tmp_path / "g.csv"
        with pytest.raises(OSError, match="disk full"):
            zl.save_grid(broken(), path)
        assert list(tmp_path.iterdir()) == []
        # nor does it touch a grid already saved there
        zl.save_grid(grid80, path)
        before = path.read_bytes()
        with pytest.raises(OSError, match="disk full"):
            zl.save_grid(broken(), path)
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta,weight\n0.5,1.0\n")
        with pytest.raises(ValueError):
            zl.load_grid(path)

    def test_bad_columns_rejected(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("# n=3 rule=custom kexact=0\nx,y\n0.5,1.0\n")
        with pytest.raises(ValueError):
            zl.load_grid(path)

    @pytest.mark.parametrize("text", [
        "# n=3 kexact=0\ntheta,weight\n0.5,1.0\n",
        "# n=3 rule=custom kexact=0\ntheta,weight\n",
        "# n=3 rule=custom kexact=0\ntheta,weight\n0.5\n",
        "# n=3 rule=custom kexact=0\ntheta,weight\n0.5,1.0\n0.7,"])
    def test_malformed_file_named(self, tmp_path, text):
        # a missing key, no nodes, one column or a cut row: ValueError
        path = tmp_path / "bad3.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match="bad3.csv"):
            zl.load_grid(path)

    @pytest.mark.parametrize("rows", [
        "0.5,nan\ninf,1.0\n", "nan,1.0\n", "0.5,inf\n", "0.5,-1.0\n",
        "-0.25,1.0\n", "3.25,1.0\n"])
    def test_corrupted_cache_file_named(self, tmp_path, rows):
        # a NaN or infinite weight, or a node that is not a polar angle in
        # [0, pi], is refused with the file's name, not loaded
        path = tmp_path / "bad4.csv"
        path.write_text("# n=3 rule=custom kexact=0\ntheta,weight\n0.5,1.0\n"
                        + rows)
        with pytest.raises(ValueError, match="bad4.csv"):
            zl.load_grid(path)
