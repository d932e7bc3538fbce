import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zonalab as zl
from zonalab.errors import CertificateError
from zonalab.exponents import ExponentPoint
from zonalab.norms import weighted_lp
from zonalab.operators import (NormCertificate, ZonalOperator, _anchor_norms,
                               _dual_power, operator_from_kernel)

VOL3 = 19.739208802178716


@pytest.fixture(scope="module")
def h8(grid144, sphere3):
    return operator_from_kernel(zl.projector_kernel(sphere3, 8), grid144)


@pytest.fixture(scope="module")
def h3(grid80, sphere3):
    return operator_from_kernel(zl.projector_kernel(sphere3, 3), grid80)


class TestOperatorConstruction:
    def test_projector_idempotent(self, h3, grid80):
        HW = h3.matrix * grid80.weights[None, :]
        assert np.abs(HW @ h3.matrix - h3.matrix).max() < 1e-8

    def test_projectors_orthogonal(self, grid80, sphere3):
        a = operator_from_kernel(zl.projector_kernel(sphere3, 3), grid80)
        b = operator_from_kernel(zl.projector_kernel(sphere3, 5), grid80)
        prod = a.matrix @ (grid80.weights[:, None] * b.matrix)
        assert np.abs(prod).max() < 1e-8

    def test_sup_anchor_is_matrix_max(self, h8):
        n1inf = _anchor_norms(h8)["n1inf"]
        assert n1inf == pytest.approx(np.abs(h8.matrix).max(), rel=1e-12)
        # the azimuthal average never exceeds the kernel's sup Z_8(1)
        assert n1inf <= 81 / VOL3

    def test_degree_budget_enforced(self, grid80, sphere3):
        with pytest.raises(ValueError):
            operator_from_kernel(zl.projector_kernel(sphere3, 40), grid80)

    def test_profile_route_matches_spectral(self):
        # the azimuthal average of Z_8 over the full support must reproduce
        # the spectral reduced matrix, and its upper-bound anchors, on every
        # sphere
        for n in (2, 3, 4, 5):
            sphere = zl.SphereSpec(n)
            grid = zl.make_grid(sphere, 80, kexact=16)
            kern = zl.projector_kernel(sphere, 8)
            spectral = operator_from_kernel(kern, grid)
            averaged = zl.operator_from_profile(
                zl.AzimuthalSpectrum(grid, kern))
            scale = np.abs(spectral.matrix).max()
            np.testing.assert_allclose(averaged.matrix, spectral.matrix,
                                       atol=1e-12 * scale)
            dense, factored = _anchor_norms(averaged), _anchor_norms(spectral)
            for name in factored:
                assert dense[name] == pytest.approx(factored[name],
                                                    rel=1e-12), (n, name)

    def test_adjoint_identity_complex(self, grid144, sphere3):
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(3, 1),
                                   kmax=32).kernel
        op = operator_from_kernel(kern, grid144)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid144.points) + 1j * rng.standard_normal(
            grid144.points)
        g = rng.standard_normal(grid144.points) + 1j * rng.standard_normal(
            grid144.points)
        w = grid144.weights
        lhs = np.sum(w * op.apply(f) * np.conj(g))
        rhs = np.sum(w * f * np.conj(op.apply_adjoint(g)))
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # on a dense operator, conjugating the product instead of the matrix
        # changes no bit
        dense = ZonalOperator(grid144, op.matrix)
        assert np.array_equal(dense.apply_adjoint(g),
                              np.conj(op.matrix) @ (w * g))


def _kernel(n, kind):
    sphere = zl.SphereSpec(n)
    if kind == "projector":
        return zl.projector_kernel(sphere, 7)
    return zl.resolvent_kernel(sphere, zl.ResolventParams(3, 1),
                               kmax=24).kernel


class TestFactoredRoute:
    """Multiplier operators apply through their spectral factors; the dense
    matrix built from the same factors is the reference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["projector", "resolvent"])
    @pytest.mark.parametrize("complex_input", [False, True])
    def test_matches_dense(self, n, kind, complex_input):
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        op = operator_from_kernel(_kernel(n, kind), grid)
        rng = np.random.default_rng(n)
        x = rng.standard_normal(grid.points)
        if complex_input:
            x = x + 1j * rng.standard_normal(grid.points)
        wx = grid.weights * x
        for got, want in ((op.apply(x), op.matrix @ wx),
                          (op.apply_adjoint(x), np.conj(op.matrix) @ wx)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [0, 1, 9, 24])
    def test_rank_one_n11_matches_dense(self, n, k):
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        op = operator_from_kernel(zl.projector_kernel(zl.SphereSpec(n), k),
                                  grid)
        dense = float(np.max(np.sum(grid.weights[:, None]
                                    * np.abs(op.matrix), axis=0)))
        assert _anchor_norms(op)["n11"] == pytest.approx(dense, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["projector", "resolvent"])
    def test_dense_anchors_match_factored(self, n, kind):
        grid = zl.make_grid(zl.SphereSpec(n), 64, kexact=24)
        op = operator_from_kernel(_kernel(n, kind), grid)
        dense = _anchor_norms(ZonalOperator(grid, op.matrix))
        for name, value in _anchor_norms(op).items():
            assert dense[name] == pytest.approx(value, rel=1e-12), name

    def test_projector_never_builds_matrix(self, grid144, sphere3):
        op = operator_from_kernel(zl.projector_kernel(sphere3, 8), grid144)
        zl.norm_certificate(op, ExponentPoint(0.8, 0.2))
        assert "matrix" not in vars(op)

    def test_resolvent_builds_matrix_once(self, grid144, sphere3,
                                          monkeypatch):
        kern = zl.resolvent_kernel(sphere3, zl.ResolventParams(3, 1),
                                   kmax=32).kernel
        op = operator_from_kernel(kern, grid144)
        build = ZonalOperator.matrix.func
        builds = []

        def counted(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(ZonalOperator.matrix, "func", counted)
        zl.norm_certificate(op, ExponentPoint(0.8, 0.2))
        zl.norm_certificate(op, ExponentPoint(1.0, 0.2))
        assert len(builds) == 1

    @given(k=st.integers(0, 16), r=st.floats(1.05, 20.0),
           s=st.floats(1.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_rank_one_closed_form(self, grid80, sphere3, k, r, s):
        # H_k f = <f, e_k> e_k, so ||H_k||_{r->s} = ||e_k||_{r'} ||e_k||_s
        op = operator_from_kernel(zl.projector_kernel(sphere3, k), grid80)
        w = grid80.weights
        e = grid80.basis(k)[k]
        exact = weighted_lp(w, e, r / (r - 1.0)) * weighted_lp(w, e, s)
        assert zl.norm_lower(op, r, s).value == pytest.approx(exact,
                                                              rel=1e-12)


class TestApplyKernel:
    def test_reproduces_own_harmonic(self, grid80, sphere3):
        z3 = zl.ZonalFunction(grid80, zl.zonal_value(3, 3, grid80.cosines))
        out = zl.apply_kernel(zl.projector_kernel(sphere3, 3), z3)
        np.testing.assert_allclose(out.values, z3.values, atol=1e-9)

    def test_annihilates_other_degree(self, grid80, sphere3):
        z5 = zl.ZonalFunction(grid80, zl.zonal_value(3, 5, grid80.cosines))
        out = zl.apply_kernel(zl.projector_kernel(sphere3, 3), z5)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-10)

    def test_mean_projector(self, grid80, sphere3, rng):
        f = zl.ZonalFunction(grid80, rng.standard_normal(grid80.points))
        out = zl.apply_kernel(zl.projector_kernel(sphere3, 0), f)
        mean = grid80.integrate(f.values) / VOL3
        np.testing.assert_allclose(out.values, mean, rtol=1e-10)

    def test_degree_budget_enforced(self, grid80, sphere3):
        f = zl.ZonalFunction(grid80, np.ones(grid80.points))
        with pytest.raises(ValueError):
            zl.apply_kernel(zl.projector_kernel(sphere3, 40), f)


class TestNormLower:
    def test_projector_l2_is_one(self, h8):
        low = zl.norm_lower(h8, 2.0, 2.0, restarts=2)
        assert low.value == pytest.approx(1.0, abs=1e-9)

    def test_mean_projector_closed_form(self, grid80, sphere3):
        op = operator_from_kernel(zl.projector_kernel(sphere3, 0), grid80)
        low = zl.norm_lower(op, 1.25, 5.0, restarts=2)
        # rank one onto constants: vol^{1/s} vol^{1/r'} / vol = vol^{-sigma}
        assert low.value == pytest.approx(VOL3 ** (-0.6), rel=1e-9)

    def test_projector_interior_pair(self, h8):
        # quadrature oracle: ||Z_8||_5 ||Z_8||_{5} / Z_8(1), adaptive
        # integration of the sine-quotient form
        low = zl.norm_lower(h8, 1.25, 5.0)
        assert low.value == pytest.approx(0.8229548994300724, rel=1e-6)

    def test_projector_interior_pair_asymmetric(self, h8):
        low = zl.norm_lower(h8, 1.2, 6.0)
        assert low.value == pytest.approx(0.9820244361976119, rel=1e-6)

    def test_sup_endpoint_exact(self, h8):
        low = zl.norm_lower(h8, 5 / 3, np.inf)
        assert low.exact and low.iterations == 0
        # continuum row formula sup|Z_8| ||Z_8||_{5/2} / Z_8(1); the grid
        # peak sits one node off the pole, hence the loose tolerance
        assert low.value == pytest.approx(1.6947160510449641, rel=1e-2)

    def test_row_column_symmetry(self, h8):
        row = zl.norm_lower(h8, 5 / 3, np.inf)
        col = zl.norm_lower(h8, 1.0, 2.5)
        assert col.exact
        assert col.value == pytest.approx(row.value, rel=1e-12)

    def test_corner_is_matrix_sup(self, h8):
        low = zl.norm_lower(h8, 1.0, np.inf)
        assert low.value == pytest.approx(np.abs(h8.matrix).max(), rel=1e-14)

    def test_witness_consistency(self, h8):
        low = zl.norm_lower(h8, 1.25, 5.0, restarts=4)
        w = h8.grid.weights
        ratio = (weighted_lp(w, h8.apply(low.witness.values), 5.0)
                 / weighted_lp(w, low.witness.values, 1.25))
        assert ratio == pytest.approx(low.value, rel=1e-12)

    def test_more_restarts_never_worse(self, h8):
        a = zl.norm_lower(h8, 1.25, 5.0, restarts=1).value
        b = zl.norm_lower(h8, 1.25, 5.0, restarts=8).value
        assert b >= a * (1 - 1e-12)

    def test_ascent_ratios_monotone(self, h8, rng):
        """Each dual-power step may only improve the attained ratio."""
        w = h8.grid.weights
        r, s = 1.25, 5.0
        f = rng.standard_normal(h8.grid.points)
        f = f / weighted_lp(w, f, r)
        prev = 0.0
        for _ in range(20):
            g = h8.apply(f)
            ratio = weighted_lp(w, g, s)
            assert ratio >= prev * (1 - 1e-12)
            prev = ratio
            h = _dual_power(g, s)
            u = h8.apply_adjoint(h / np.abs(h).max())
            f = _dual_power(u, r / (r - 1.0))
            f = f / weighted_lp(w, f, r)

    def test_rejects_bad_exponents(self, h8):
        with pytest.raises(ValueError):
            zl.norm_lower(h8, 0.5, 2.0)
        with pytest.raises(ValueError):
            zl.norm_lower(h8, np.inf, 2.0)
        with pytest.raises(ValueError):
            zl.norm_lower(h8, 2.0, 2.0, restarts=0)


# exponent pairs 1 <= r <= s <= inf: the exact endpoints r = 1 and s = inf,
# and finite r, r' and s up to about 20, as in the ascent's closed-form
# oracle; far larger ones overflow |v|^p inside the lower bound's norms
_PAIRS = st.tuples(
    st.one_of(st.just(1.0), st.floats(1.05, 20.0)),
    st.one_of(st.just(np.inf), st.floats(1.0, 20.0))).map(sorted)


class TestNormUpper:
    def test_l2_anchor_for_projector(self, h8):
        up = zl.norm_upper(h8, ExponentPoint(0.5, 0.5))
        assert up.value == pytest.approx(1.0, abs=1e-12)
        assert up.weights[2] == pytest.approx(1.0, abs=1e-12)

    def test_l2_anchor_for_dense_projector(self, h8, grid144):
        # W^{1/2} A W^{1/2} of a projector is an orthogonal projection
        dense = ZonalOperator(grid144, h8.matrix)
        assert _anchor_norms(dense)["n22"] == pytest.approx(1.0, abs=1e-12)

    @given(k=st.integers(0, 16), pair=_PAIRS)
    @settings(max_examples=60, deadline=None)
    def test_rank_one_upper_covers_closed_form(self, grid80, sphere3, k,
                                               pair):
        # ||H_k||_{r->s} = ||e_k||_{r'} ||e_k||_s
        op = operator_from_kernel(zl.projector_kernel(sphere3, k), grid80)
        r, s = pair
        w, e = grid80.weights, grid80.basis(k)[k]
        rp = r / (r - 1.0) if r > 1 else np.inf
        exact = weighted_lp(w, e, rp) * weighted_lp(w, e, s)
        upper = zl.norm_upper(op, ExponentPoint(1 / r, 1 / s)).value
        assert upper >= exact * (1.0 - 1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1), complex_=st.booleans(),
           pair=_PAIRS)
    @settings(max_examples=80, deadline=None)
    def test_dense_upper_is_rigorous(self, seed, complex_, pair):
        # any attained ratio ||Tf||_s / ||f||_r, from the ascent or from a
        # batch of random and point-mass inputs, sits below the upper bound
        grid = zl.make_grid(zl.SphereSpec(3), 9)
        P, w = grid.points, grid.weights
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((P, P))
        inputs = list(rng.standard_normal((32, P)))
        if complex_:
            A = A + 1j * rng.standard_normal((P, P))
            inputs = [f + 1j * g for f, g in
                      zip(inputs, rng.standard_normal((32, P)))]
        op = ZonalOperator(grid, A + A.T)
        r, s = pair
        bound = zl.norm_upper(op, ExponentPoint(1 / r, 1 / s)).value * (
            1.0 + 1e-12)
        assert zl.norm_lower(op, r, s, restarts=2).value <= bound
        inputs += list(np.diag(1.0 / w))
        best = max(weighted_lp(w, op.apply(f), s) / weighted_lp(w, f, r)
                   for f in inputs)
        assert best <= bound

    def test_mean_projector_sup_anchor(self, grid80, sphere3):
        op = operator_from_kernel(zl.projector_kernel(sphere3, 0), grid80)
        up = zl.norm_upper(op, ExponentPoint(1.0, 0.0))
        assert up.value == pytest.approx(1 / VOL3, rel=1e-12)

    def test_critical_point_through_dual(self, h8, grid144):
        """Interpolated bound at the critical pair, reached via the adjoint.

        Oracle: the hull formula over the anchors of the same operator given
        densely, and the rank-one closed form ||e_8||_{r'} ||e_8||_s below.
        """
        up = zl.norm_upper(h8, ExponentPoint(2 / 3, 1 / 15))
        assert up.dual_used
        np.testing.assert_allclose(up.weights, (0.6, 4 / 15, 2 / 15),
                                   atol=1e-9)
        a, b, c = up.weights
        anchors = _anchor_norms(ZonalOperator(grid144, h8.matrix))
        hull = (anchors["n1inf"] ** a * anchors["n11"] ** b
                * anchors["n22"] ** c)
        assert up.value == pytest.approx(hull, rel=1e-12)
        w, e = grid144.weights, grid144.basis(8)[8]
        assert up.value >= weighted_lp(w, e, 3.0) * weighted_lp(w, e, 15.0)

    def test_interior_point_direct(self, h8):
        up = zl.norm_upper(h8, ExponentPoint(0.9, 0.1))
        assert not up.dual_used
        assert up.value > 0

    def test_anchor_values(self, h8):
        up = zl.norm_upper(h8, ExponentPoint(0.5, 0.5))
        assert up.anchors["n22"] == pytest.approx(1.0, abs=1e-12)
        assert up.anchors["n1inf"] == pytest.approx(np.abs(h8.matrix).max(),
                                                    rel=1e-12)
        # ||Z_8||_{L^1} sup|Z_8| / Z_8(1) = ||Z_8||_{L^1} on the grid
        assert up.anchors["n11"] == pytest.approx(7.311161535600787, rel=1e-2)

    @given(x=st.floats(0.01, 1.0), frac=st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_every_point_covered(self, h8, x, frac):
        # the anchor hull and its dual tile the whole exponent triangle
        up = zl.norm_upper(h8, ExponentPoint(x, x * frac))
        assert up.value > 0


class TestCertificates:
    def test_two_sided(self, h8):
        cert = zl.norm_certificate(h8, ExponentPoint(1 / 1.2, 1 / 6),
                                   label="H_8")
        assert cert.lower <= cert.upper * (1 + 1e-6)
        assert cert.label == "H_8"
        assert cert.n == 3

    def test_record_fields(self, h8):
        cert = zl.norm_certificate(h8, ExponentPoint(1 / 1.2, 1 / 6))
        rec = cert.to_record()
        assert set(rec) == {"n", "label", "r", "s", "lower", "upper",
                            "witness_grid", "seed", "iterations", "gap",
                            "anchors"}
        assert rec["r"] == pytest.approx(1.2)
        assert rec["s"] == pytest.approx(6.0)
        assert rec["gap"] == rec["upper"] / rec["lower"]
        assert rec["anchors"] == _anchor_norms(h8)

    def test_ordering_enforced(self, grid80):
        with pytest.raises(CertificateError):
            NormCertificate(n=3, label="broken",
                            point=ExponentPoint(0.5, 0.5), lower=2.0,
                            upper=1.0, witness=None, grid_ref="g", seed=1,
                            iterations=0, restarts=1)
