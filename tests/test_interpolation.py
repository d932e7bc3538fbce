import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zonalab as zl
from zonalab import dyadic
from zonalab.errors import NumericalError
from zonalab.exponents import ExponentPoint
from zonalab.interpolation import optimal_split
from zonalab.norms import weak_sweep
from zonalab.operators import ZonalOperator


class TestMakeInterp:
    def test_balanced_rates_give_midpoint(self):
        p, q = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q, p, 1.0, 1.0, 0.2, 0.2)
        assert data.theta == pytest.approx(0.5, abs=1e-15)
        assert data.target.x == pytest.approx(2 / 3, abs=1e-12)
        assert data.target.y == pytest.approx(1 / 15, abs=1e-12)

    def test_unbalanced_rates(self):
        # rates 1/2 and 1 put theta at 2/3 and the target on the corner C
        pts = zl.special_points(3)
        data = zl.InterpolationData(pts["A"], pts["B"], 2.0, 3.0, 0.5, 1.0)
        assert data.theta == pytest.approx(2 / 3, abs=1e-14)
        assert data.target.x == pytest.approx(2 / 3, abs=1e-12)
        assert data.target.y == pytest.approx(1 / 6, abs=1e-12)

    def test_target_interpolates_endpoints(self):
        p, q = zl.stein_point(3, 0.55)
        data = zl.InterpolationData(q, p, 4.0, 0.5, 0.31, 0.17)
        th = data.theta
        assert data.target.x == pytest.approx(
            th * q.x + (1 - th) * p.x, abs=1e-14)

    def test_validation(self):
        p, q = zl.stein_point(3, 0.6)
        with pytest.raises(ValueError):
            zl.InterpolationData(q, p, 0.0, 1.0, 0.2, 0.2)
        with pytest.raises(ValueError):
            zl.InterpolationData(q, p, 1.0, 1.0, -0.1, 0.2)


class TestInterpFromFit:
    def _fit(self, sg, sd):
        from zonalab.dyadic import PieceNormFit
        p, q = zl.stein_point(3, 0.6)
        js = np.array([3.0, 4.0, 5.0])
        return PieceNormFit(q, p, js, np.ones(3), np.ones(3), sg, sd,
                            intercept_growth=-1.0, intercept_decay=2.0,
                            residual_growth=0.0, residual_decay=0.0)

    def test_prefactors_from_intercepts(self):
        p, q = zl.stein_point(3, 0.6)
        data = zl.interp_from_fit(self._fit(0.25, -0.2))
        assert data.m_growth == pytest.approx(0.5)
        assert data.m_decay == pytest.approx(4.0)
        assert data.beta_growth == pytest.approx(0.25)
        assert data.beta_decay == pytest.approx(0.2)
        assert data.growth == q and data.decay == p

    def test_rejects_wrong_signs(self):
        # a measured slope of the wrong sign is a numerical failure, not a
        # bad argument
        with pytest.raises(NumericalError, match="growth-side slope -0.100"):
            zl.interp_from_fit(self._fit(-0.1, -0.2))
        with pytest.raises(NumericalError, match="decay-side slope 0.200"):
            zl.interp_from_fit(self._fit(0.1, 0.2))


class TestOptimalSplit:
    def _data(self, m1=1.0, m2=1.0, b1=1.0, b2=1.0):
        p, q = zl.stein_point(3, 0.6)
        return zl.InterpolationData(q, p, m1, m2, b1, b2)

    def test_balanced_is_tail_only(self):
        choice = optimal_split(self._data(), 1.0, 1.0)
        assert choice.branch == "tail-only"
        assert choice.rho == 0
        assert choice.log2_quantity == pytest.approx(0.0, abs=1e-14)

    def test_growth_heavy_splits(self):
        choice = optimal_split(self._data(m1=16.0), 1.0, 1.0)
        assert choice.branch == "split"
        assert choice.rho == 1

    def test_decay_heavy_is_tail_only(self):
        choice = optimal_split(self._data(m1=0.25), 1.0, 1.0)
        assert choice.branch == "tail-only"
        assert choice.rho == 0

    def test_rejects_nonpositive_measures(self):
        with pytest.raises(ValueError):
            optimal_split(self._data(), 0.0, 1.0)

    @given(lm1=st.floats(-20, 20), lm2=st.floats(-20, 20),
           b1=st.floats(0.05, 3.0), b2=st.floats(0.05, 3.0),
           le=st.floats(-10, 2), la=st.floats(-10, 2))
    @settings(max_examples=400, deadline=None)
    def test_split_index_sandwich(self, lm1, lm2, b1, b2, le, la):
        """The chosen index brackets the balance quantity dyadically."""
        data = self._data(2.0 ** lm1, 2.0 ** lm2, b1, b2)
        choice = optimal_split(data, 2.0 ** le, 2.0 ** la)
        if choice.branch == "tail-only":
            assert choice.log2_quantity <= 0.0
            assert choice.rho == 0
        else:
            assert choice.log2_quantity > 0.0
            assert choice.rho < choice.log2_quantity <= choice.rho + 1 + 1e-12
            assert choice.rho >= 0


@pytest.fixture(scope="module")
def h16(grid144):
    """The rank-one H_16 = e_16 e_16^T that the pieces of Z_16 sum to."""
    return zl.operator_from_kernel(zl.projector_kernel(grid144.sphere, 16),
                                   grid144)


def _attaining_set(op, report):
    """Indicator of the report's set: the first `nodes` nodes of sign * e
    in a stable descending sort."""
    e = op.unfolded()[0][0]
    ind = np.zeros(op.grid.points)
    ind[np.argsort(-report["sign"] * e, kind="stable")[:report["nodes"]]] = 1
    return ind


class TestCertify:
    def test_exact_endpoint_norms_bound_the_constant(self, h16):
        """With the exact norms of H_16 at the two Stein points as
        prefactors, Riesz-Thorin puts its norm at the target below
        M1^theta M2^{1-theta}, and the restricted weak-type constant lies
        below that norm, so C_obs cannot exceed 1 beyond rounding."""
        p_pt, q_pt = zl.stein_point(3, 0.6)
        m1 = zl.norm_lower(h16, q_pt.r, q_pt.s).value
        m2 = zl.norm_lower(h16, p_pt.r, p_pt.s).value
        data = zl.InterpolationData(q_pt, p_pt, m1, m2, 1.0, 1.0)
        report = zl.certify_restricted_weak(h16, data)
        assert 0.5 < report["c_obs"] <= 1 + 1e-12
        assert data.target.x == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("n,sigma", [(3, 0.6), (4, 0.45)])
    def test_projector_replays_as_summed_pieces(self, n, sigma):
        # dyadic-certify replays the bound on the rank-one H_k, which the
        # pieces sum to: their summed matrix maps the attaining set to the
        # same weak norm, threshold and superlevel measure, to rounding,
        # with the CLI's fitted data
        k = 16
        grid = zl.make_grid(zl.SphereSpec(n), 144, kexact=32)
        data = zl.interp_from_fit(zl.piece_norm_slopes(k, sigma, grid))
        h_k = zl.operator_from_kernel(zl.projector_kernel(grid.sphere, k),
                                      grid)
        summed = ZonalOperator(grid, np.sum(
            [p.operator().matrix for p in zl.dyadic_decompose(k, grid)],
            axis=0))
        report = zl.certify_restricted_weak(h_k, data)
        weak, t_star, mu_a = weak_sweep(
            grid.weights, summed.apply(_attaining_set(h_k, report)),
            data.target.s)
        assert weak == pytest.approx(report["weak"], rel=1e-12)
        assert t_star == pytest.approx(report["threshold"], rel=1e-12)
        assert mu_a == pytest.approx(report["mu_a"], rel=1e-12)

    def test_full_sphere_annihilated(self, h16, grid144):
        # H_16 kills constants, so the whole sphere scores 0 and the
        # attaining set is a proper subset of the nodes
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 1.0, 1.0, 0.2, 0.2)
        report = zl.certify_restricted_weak(h16, data)
        ones = np.ones(grid144.points)
        assert np.abs(h16.apply(ones)).max() < 1e-10 * report["weak"]
        assert 0 < report["nodes"] < grid144.points

    def test_dense_operator_rejected(self, grid144):
        # a piece's dense matrix, or factors of more than one row, have no
        # closed form over all sets
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 1.0, 1.0, 0.2, 0.2)
        piece = zl.dyadic_decompose(16, grid144)[5].operator()
        two = ZonalOperator(grid144, factors=[(grid144.basis([2, 3]),
                                               np.ones(2))])
        for op in (piece, two):
            with pytest.raises(ValueError, match="rank-one"):
                zl.certify_restricted_weak(op, data)

    def test_report_structure(self, h16):
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 2.0, 1.5, 0.25, 0.2)
        entry = zl.certify_restricted_weak(h16, data)
        for key in ("mu_e", "nodes", "level", "sign", "weak", "c_obs",
                    "threshold", "mu_a", "rho", "branch", "finite_part",
                    "tail_part", "split_bound_on_mu_a"):
            assert key in entry
        assert entry["mu_e"] > 0 and entry["weak"] > 0
        assert entry["level"] > 0 and entry["sign"] in (1, -1)

    def test_set_weak_sweep_matches_brute_force(self, h16, grid144):
        # the report's weak norm, threshold and superlevel measure are
        # those of weak_lq on H_16 applied to the rebuilt set, and of a sup
        # over the image's node values: weak = max_v v mu(|image| >= v)^{1/q}
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 2.0, 1.5, 0.25, 0.2)
        q = data.target.s
        w = grid144.weights
        entry = zl.certify_restricted_weak(h16, data)
        ind = _attaining_set(h16, entry)
        e = h16.unfolded()[0][0]
        np.testing.assert_array_equal(ind > 0, entry["sign"] * e
                                      >= entry["level"])
        assert entry["mu_e"] == pytest.approx(w @ ind, rel=1e-13)
        image = h16.apply(ind)
        assert entry["weak"] == pytest.approx(
            zl.weak_lq(zl.ZonalFunction(grid144, image), q), rel=1e-13)
        a = np.abs(image)
        mass = np.array([w[a >= v].sum() for v in a])
        scores = a * mass ** (1.0 / q)
        best = int(np.argmax(scores))
        assert entry["weak"] == pytest.approx(scores[best], rel=1e-13)
        assert entry["threshold"] == pytest.approx(a[best], rel=1e-13)
        assert entry["mu_a"] == pytest.approx(mass[best], rel=1e-13)

    def test_envelope_screening(self, grid80, monkeypatch):
        fit = zl.piece_norm_slopes(16, 0.6, grid80, restarts=4)
        # the fit carries the Stein points it was measured at
        p_pt, q_pt = zl.stein_point(3, 0.6)
        assert (fit.growth, fit.decay) == (q_pt, p_pt)
        # a two-parameter fit of three well-behaved norms leaves no outliers
        assert fit.violations() == []
        # tightening the envelope factor far enough must flag pieces
        monkeypatch.setattr(dyadic, "ENVELOPE_FACTOR", 0.5)
        strict = fit.violations()
        assert len(strict) >= 1 and set(strict) <= set(fit.js)