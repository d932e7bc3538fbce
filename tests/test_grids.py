import math

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
        B = grid80.basis(16)
        gram = (B * grid80.weights) @ B.T
        np.testing.assert_allclose(gram, np.eye(17), atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_basis_slices_one_table(self, n):
        grid = zl.make_grid(zl.SphereSpec(n), 130, kexact=64)
        for k in (0, 1, 5, 17, 64, 80):
            tab = zl.zonal_table(n, k, grid.cosines)
            z1 = zl.zonal_table(n, k, np.ones(1))[:, 0]
            B = grid.basis(k)
            assert np.array_equal(B, tab / np.sqrt(z1)[:, None])
            assert not B.flags.writeable
        assert np.shares_memory(grid.basis(3), grid.basis(64))

    def test_refinement_stable(self, sphere3, grid80, grid144):
        # doubling the rule does not move an exactly integrable product
        v1 = grid80.integrate(zl.zonal_value(3, 8, grid80.cosines) ** 2)
        v2 = grid144.integrate(zl.zonal_value(3, 8, grid144.cosines) ** 2)
        assert v1 == pytest.approx(v2, rel=1e-10)


class TestCap:
    def test_indicator_values(self, grid80):
        f = zl.cap(grid80, 0.7)
        np.testing.assert_array_equal(f.values, (grid80.nodes <= 0.7) * 1.0)

    def test_rejects_bad_angle(self, grid80):
        with pytest.raises(ValueError):
            zl.cap(grid80, 0.0)
        with pytest.raises(ValueError):
            zl.cap(grid80, 4.0)


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
