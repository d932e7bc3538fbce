import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zonalab as zl
from zonalab import dyadic
from zonalab.errors import NumericalError
from zonalab.exponents import ExponentPoint
from zonalab.interpolation import optimal_split
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
def pieces16(grid144):
    return zl.dyadic_decompose(16, grid144)


@pytest.fixture(scope="module")
def op16(pieces16, grid144):
    """T = sum_j T_j over every piece of degree 16."""
    return ZonalOperator(grid144, np.sum([p.operator().matrix
                                          for p in pieces16], axis=0))


class TestCertify:
    def test_single_piece_midpoint_constant(self, pieces16, grid144):
        """One piece at balanced rates reduces to the two-endpoint product
        bound, so the observed constant cannot exceed 1 by more than the
        lower-bound slack."""
        op = pieces16[5].operator()
        p_pt, q_pt = zl.stein_point(3, 0.6)
        m1 = zl.norm_lower(op, q_pt.r, q_pt.s).value
        m2 = zl.norm_lower(op, p_pt.r, p_pt.s).value
        data = zl.InterpolationData(q_pt, p_pt, m1, m2, 1.0, 1.0)
        caps = [zl.cap(grid144, th) for th in (1 / 17, 1 / 8, 0.5)]
        report = zl.certify_restricted_weak(op, data, caps)
        assert report.c_obs <= 1.02
        assert data.target.x == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("n,sigma", [(3, 0.6), (4, 0.45)])
    def test_projector_replays_as_summed_pieces(self, n, sigma):
        # dyadic-certify replays the bound on the rank-one H_k, which the
        # pieces sum to: the same report as on their summed matrix, to
        # rounding, with the CLI's caps and its fitted data
        k = 16
        grid = zl.make_grid(zl.SphereSpec(n), 144, kexact=32)
        data = zl.interp_from_fit(zl.piece_norm_slopes(k, sigma, grid))
        lam = zl.eigenvalue(n, k)
        caps = [c for c in (zl.cap(grid, th) for th in (1 / lam, 1 / 8, 0.5))
                if c.values.any()]
        h_k = zl.operator_from_kernel(zl.projector_kernel(grid.sphere, k),
                                      grid)
        summed = ZonalOperator(grid, np.sum(
            [p.operator().matrix for p in zl.dyadic_decompose(k, grid)],
            axis=0))
        rank_one = zl.certify_restricted_weak(h_k, data, caps)
        pieces = zl.certify_restricted_weak(summed, data, caps)
        assert rank_one.c_obs == pytest.approx(pieces.c_obs, rel=1e-12)
        assert len(rank_one.cap_reports) == len(pieces.cap_reports) == 3
        for got, want in zip(rank_one.cap_reports, pieces.cap_reports):
            assert got.keys() == want.keys()
            assert "rho" in got
            for key, value in want.items():
                if isinstance(value, float):
                    assert got[key] == pytest.approx(value, rel=1e-12), key
                else:
                    assert got[key] == value, key

    def test_full_sphere_annihilated(self, op16, grid144):
        # the reassembled projector kills constants for k >= 1
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 1.0, 1.0, 0.2, 0.2)
        full = zl.cap(grid144, math.pi)
        report = zl.certify_restricted_weak(op16, data, [full])
        assert report.c_obs < 1e-6

    def test_absolute_kernel_dominates(self, op16, pieces16, grid144):
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 1.0, 1.0, 0.2, 0.2)
        caps = [zl.cap(grid144, th) for th in (1 / 8, 0.5)]
        signed = zl.certify_restricted_weak(op16, data, caps)
        abs_op = ZonalOperator(grid144, np.sum(
            [np.abs(p.operator().matrix) for p in pieces16], axis=0))
        rectified = zl.certify_restricted_weak(abs_op, data, caps)
        assert rectified.c_obs >= signed.c_obs * (1 - 1e-12)

    def test_empty_cap_rejected(self, op16, grid144):
        # no node lies this close to the pole: mu(E) = 0 has no constant
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 1.0, 1.0, 0.2, 0.2)
        empty = zl.cap(grid144, 1e-4)
        assert not empty.values.any()
        with pytest.raises(ValueError):
            zl.certify_restricted_weak(op16, data, [empty])

    def test_report_structure(self, op16, grid144):
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 2.0, 1.5, 0.25, 0.2)
        caps = [zl.cap(grid144, 0.5)]
        report = zl.certify_restricted_weak(op16, data, caps)
        entry = report.cap_reports[0]
        for key in ("mu_e", "weak", "c_obs", "threshold", "mu_a", "rho",
                    "branch", "finite_part", "tail_part"):
            assert key in entry
        assert entry["mu_e"] > 0 and entry["weak"] > 0

    def test_cap_weak_sweep_matches_brute_force(self, op16, grid144):
        # the cap report's weak norm, threshold and superlevel measure are
        # those of weak_lq, and of a sup over the image's node values:
        # weak = max_v v mu(|image| >= v)^{1/q}, attained at threshold v
        p_pt, q_pt = zl.stein_point(3, 0.6)
        data = zl.InterpolationData(q_pt, p_pt, 2.0, 1.5, 0.25, 0.2)
        q = data.target.s
        w = grid144.weights
        caps = [zl.cap(grid144, th) for th in (1 / 8, 0.5, 1.5)]
        report = zl.certify_restricted_weak(op16, data, caps)
        for capfn, entry in zip(caps, report.cap_reports):
            image = op16.apply(capfn.values)
            f = zl.ZonalFunction(grid144, image)
            assert entry["weak"] == zl.weak_lq(f, q)
            a = np.abs(image)
            mass = np.array([w[a >= v].sum() for v in a])
            scores = a * mass ** (1.0 / q)
            best = int(np.argmax(scores))
            assert entry["weak"] == pytest.approx(scores[best], rel=1e-13)
            assert entry["threshold"] == a[best]
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