import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_gegenbauer

import zonalab as zl
from zonalab import _core, specfun
from zonalab._core import geg_eval, geg_table
from zonalab.specfun import SphereSpec, ZonalKernel

VOL3 = 19.739208802178716  # 2 pi^2


def _harmonic_dim(n, k):
    """N(n, k) = C(k+n, n) - C(k+n-2, n), the dimension of the degree-k
    harmonics on S^n, exact."""
    return math.comb(k + n, n) - math.comb(k + n - 2, n)


class TestGegenbauer:
    def test_degree_zero_is_one(self):
        assert zl.gegenbauer(0, 1.0, 0.7) == pytest.approx(1.0, abs=1e-15)

    def test_degree_one(self):
        # C_1^alpha(t) = 2 alpha t
        assert zl.gegenbauer(1, 1.0, 0.3) == pytest.approx(0.6, abs=1e-15)

    def test_degree_two_root(self):
        # C_2^1(t) = 4t^2 - 1 vanishes at t = 1/2
        assert zl.gegenbauer(2, 1.0, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_matches_scipy(self):
        t = np.linspace(-1.0, 1.0, 257)
        for alpha in (0.5, 1.0, 1.5, 2.5):
            for k in (3, 8, 21, 64):
                ours = zl.gegenbauer(k, alpha, t)
                ref = eval_gegenbauer(k, alpha, t)
                scale = np.abs(ref).max()
                np.testing.assert_allclose(ours, ref, atol=1e-10 * scale)

    def test_scalar_in_scalar_out(self):
        v = zl.gegenbauer(4, 1.0, 0.2)
        assert isinstance(v, float)

    def test_array_shape(self):
        t = np.array([0.0, 0.5, -0.5])
        assert zl.gegenbauer(4, 1.0, t).shape == (3,)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            zl.gegenbauer(-1, 1.0, 0.5)
        with pytest.raises(ValueError):
            zl.gegenbauer(2.5, 1.0, 0.5)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            zl.gegenbauer(2, 0.0, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            zl.gegenbauer(2, 1.0, 1.5)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 64])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_recurrence_kernels_agree(alpha, k):
    # geg_eval and the row of geg_table run one recurrence, and both give
    # the bits of the three-term recurrence written out row by row
    t = np.linspace(-1.0, 1.0, 2 * 16384 + 5)
    ref = [np.ones_like(t), 2.0 * alpha * t]
    for m in range(2, k + 1):
        ref.append((2.0 * (m + alpha - 1.0) * t * ref[m - 1]
                    - (m + 2.0 * alpha - 2.0) * ref[m - 2]) / m)
    table = geg_table(k, alpha, t)
    assert table.shape == (k + 1, t.size)
    assert np.array_equal(table, np.array(ref[:k + 1]))
    assert np.array_equal(geg_eval(k, alpha, t), ref[k])


def test_eigenvalue_examples():
    assert zl.eigenvalue(3, 0) == 1.0
    assert zl.eigenvalue(3, 5) == 6.0
    assert zl.eigenvalue(5, 2) == 4.0
    with pytest.raises(ValueError):
        zl.eigenvalue(1, 0)


def test_sphere_volume():
    assert zl.sphere_volume(3) == pytest.approx(VOL3, rel=1e-15)
    assert zl.sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-15)
    assert zl.sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-15)


class TestZonalValue:
    def test_degree_zero_is_inverse_volume(self):
        assert zl.zonal_value(3, 0, 0.3) == pytest.approx(1 / VOL3, rel=1e-14)

    def test_value_at_one(self):
        # Z_k(1) = N(n,k)/vol
        assert zl.zonal_value(3, 1, 1.0) == pytest.approx(
            0.20264236728467555, rel=1e-13)
        for n, k in ((3, 7), (4, 3)):
            expect = _harmonic_dim(n, k) / zl.sphere_volume(n)
            assert zl.zonal_value(n, k, 1.0) == pytest.approx(expect, rel=1e-12)

    def test_sine_quotient_form_on_s3(self):
        # Z_k(cos th) = (k+1) sin((k+1) th) / (2 pi^2 sin th)
        th = np.linspace(0.05, math.pi - 0.05, 401)
        for k in (1, 6, 23):
            ref = (k + 1) * np.sin((k + 1) * th) / (VOL3 * np.sin(th))
            ours = zl.zonal_value(3, k, np.cos(th))
            np.testing.assert_allclose(ours, ref, atol=1e-12 * (k + 1) ** 2)

    @given(k=st.integers(0, 40), t=st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_parity(self, k, t):
        a = zl.zonal_value(3, k, t)
        b = zl.zonal_value(3, k, -t)
        assert b == pytest.approx((-1.0) ** k * a, abs=1e-9 * (k + 1) ** 2)

    def test_global_bound(self):
        # |Z_k| peaks at t = 1
        t = np.linspace(-1.0, 1.0, 4001)
        for n, k in ((3, 9), (3, 24), (4, 6)):
            peak = zl.zonal_value(n, k, 1.0)
            assert np.abs(zl.zonal_value(n, k, t)).max() <= peak * (1 + 1e-12)

    @pytest.mark.parametrize("k", [0, 1, 5, 12, 32, 128])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_table_matches_pointwise(self, n, k):
        # bit-for-bit: callers needing one degree use zonal_value in place
        # of a table row, and CSV output must not change with that choice
        t = np.linspace(-1.0, 1.0, 33)
        assert t[0] == -1.0 and t[-1] == 1.0
        tab = zl.zonal_table(n, k, t)
        assert tab.shape == (k + 1, 33)
        assert np.array_equal(tab[k], zl.zonal_value(n, k, t))
        # a long array, past any length at which a recurrence might split
        long = np.linspace(-1.0, 1.0, 2 * 16384 + 5)
        assert long[0] == -1.0 and long[-1] == 1.0
        assert np.array_equal(zl.zonal_table(n, k, long)[k],
                              zl.zonal_value(n, k, long))


# 40 angles within 1e-2 of each pole, both poles themselves and the float
# next to pi, and 100 between
_POLAR = np.concatenate([
    [0.0, math.pi, np.nextafter(math.pi, 0.0)],
    np.geomspace(1e-9, 1e-2, 40), math.pi - np.geomspace(1e-9, 1e-2, 40),
    np.linspace(0.01, math.pi - 0.01, 100)])


class TestZonalRows:
    def test_s3_closed_form_matches_mpmath(self, zonal_s3_mp):
        # one sine per node, within 1e-13 of each row's max at degrees up
        # to 1024 and near both poles, where the recurrence is off by
        # 1.4e-12 at k = 1024
        degrees = [0, 1, 2, 7, 64, 512, 1024]
        # each row is copied before the next step reuses its buffer
        got = [(k, row.copy(), z1)
               for k, row, z1 in zl.zonal_rows(3, degrees, _POLAR)]
        assert [k for k, _, _ in got] == degrees
        for k, row, z1 in got:
            want = zonal_s3_mp(k, _POLAR)
            assert z1 == pytest.approx(want[0], rel=1e-15)
            assert np.abs(row - want).max() <= 1e-13 * np.abs(want).max(), k

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_off_s3_is_the_table(self, n):
        # one recurrence over cos theta and t = 1: the bits of zonal_table
        degrees = [0, 3, 17, 64]
        tab = zl.zonal_table(n, 64, np.cos(_POLAR))
        z1 = zl.zonal_table(n, 64, np.ones(1))[:, 0]
        for k, row, one in zl.zonal_rows(n, degrees, _POLAR):
            assert np.array_equal(row, tab[k]) and one == z1[k]

    def test_closed_form_takes_no_recurrence_step(self, monkeypatch):
        # on S^3 neither the grid's rows nor the envelope run a recurrence
        # step; on S^4 each runs one pass of k + 1 steps
        steps = []
        rows = _core._rows

        def counted(kmax, alpha, t):
            for row in rows(kmax, alpha, t):
                steps.append(kmax)
                yield row

        monkeypatch.setattr(_core, "_rows", counted)
        monkeypatch.setattr(specfun, "_rows", counted)
        k = 40
        for n, want in ((3, 0), (4, k + 1)):
            grid = zl.make_grid(SphereSpec(n), 2 * k + 2)
            for work in (lambda: grid.basis([k]),
                         lambda: grid.basis([k], folded=True),
                         lambda: zl.envelope_check(SphereSpec(n), k)):
                steps.clear()
                work()
                assert len(steps) == want, n


def test_sphere_spec():
    sp = SphereSpec(3)
    assert sp.subsphere_volume == pytest.approx(4 * math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        SphereSpec(1)


class TestZonalKernel:
    def test_values_are_coefficient_sums(self, sphere3):
        coeffs = np.array([0.5, 0.0, -1.0, 2.0])
        kern = ZonalKernel(sphere3, coeffs)
        t = np.linspace(-1.0, 1.0, 17)
        expect = sum(c * zl.zonal_value(3, k, t) for k, c in enumerate(coeffs))
        np.testing.assert_allclose(kern.values(t), expect, atol=1e-13)
        assert kern.max_degree == 3

    def test_projector_kernel_is_one_hot(self, sphere3):
        kern = zl.projector_kernel(sphere3, 4)
        assert kern.max_degree == 4
        np.testing.assert_array_equal(kern.coeffs, [0, 0, 0, 0, 1])

    def test_rejects_empty_coeffs(self, sphere3):
        with pytest.raises(ValueError):
            ZonalKernel(sphere3, np.array([]))
