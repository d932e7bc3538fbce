import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

import zonalab as zl
from zonalab.errors import QuadratureError, TailDominanceError
from zonalab.resolvent import (_panel_integral, _refined_integral,
                               _wave_integrand, _wave_rule)


class TestParams:
    def test_zeta(self):
        p = zl.ResolventParams(2.0, 1.0)
        assert p.zeta == pytest.approx(3 + 4j, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            zl.ResolventParams(0.5, 1.0)
        with pytest.raises(ValueError):
            zl.ResolventParams(2.0, 0.2)

    def test_spectral_separation(self):
        # |zeta - lam_k^2| >= 2 lam |mu| for every harmonic frequency
        for lam, mu in ((8.0, 1.0), (16.0, 2.0), (5.5, -1.0)):
            zeta = zl.ResolventParams(lam, mu).zeta
            lam_k = np.arange(0, 200) + 1.0
            gap = np.abs(zeta - lam_k ** 2).min()
            assert gap >= 2 * lam * abs(mu) - 1e-9


class TestClosedForm:
    def test_reference_value(self):
        m = zl.resolvent_multiplier(zl.ResolventParams(2.0, 1.0), 1.0)
        assert m == pytest.approx(0.1 - 0.2j, abs=1e-14)

    def test_modulus_off_resonance(self):
        # zeta = 255 + 32i, tau = 16: 1/|{-1} + 32i|
        m = zl.resolvent_multiplier(zl.ResolventParams(16.0, 1.0), 16.0)
        assert abs(m) == pytest.approx(0.031234752377721213, rel=1e-13)

    def test_quadratic_decay(self):
        p = zl.ResolventParams(4.0, 1.0)
        a = abs(zl.resolvent_multiplier(p, 1e4))
        b = abs(zl.resolvent_multiplier(p, 2e4))
        assert a / b == pytest.approx(4.0, rel=1e-6)

    def test_array_input(self):
        p = zl.ResolventParams(4.0, 1.0)
        out = zl.resolvent_multiplier(p, np.array([1.0, 2.0, 3.0]))
        assert out.shape == (3,) and out.dtype == np.complex128


class TestWaveIntegral:
    def test_matches_closed_form_small(self):
        p = zl.ResolventParams(2.0, 1.0)
        numeric = zl.multiplier_from_integral(p, 1.0)
        assert numeric == pytest.approx(0.1 - 0.2j, abs=1e-8)

    def test_matches_closed_form_resonant(self):
        # hardest case: tau right at lambda
        p = zl.ResolventParams(16.0, 1.0)
        closed = zl.resolvent_multiplier(p, 16.0)
        numeric = zl.multiplier_from_integral(p, 16.0)
        assert abs(abs(numeric) - abs(closed)) / abs(closed) < 1e-6
        # independently computed with adaptive quadrature
        assert abs(numeric) == pytest.approx(0.03123475238034586, rel=1e-6)

    def test_refinement_check_fires(self):
        # a jump interior to the panels cannot pass the doubling test
        with pytest.raises(QuadratureError):
            _refined_integral(
                functools.partial(_panel_integral,
                                  lambda t: np.sign(t - 0.37)),
                0.0, 1.0, 0.0)

    def test_refinement_check_per_part(self):
        # the jump sits in the imaginary part only; measured against the
        # whole value's scale its error would pass
        with pytest.raises(QuadratureError):
            _refined_integral(
                functools.partial(_panel_integral,
                                  lambda t: 1e6 + 1j * np.sign(t - 0.37)),
                0.0, 1.0, 0.0)

    @pytest.mark.parametrize("lam", [8.0, 16.0, 32.0, 64.0, 128.0])
    @pytest.mark.parametrize("mu", [1.0, -1.0, 3.0])
    def test_panel_rule_matches_node_rule(self, lam, mu):
        # the per-panel sums of the wave rule are the 12-point rule node by
        # node, at the panels `_refined_integral` takes and at twice as many,
        # for the five tau of `multiplier-check`
        params = zl.ResolventParams(lam, mu)
        for tau in np.unique(np.round(np.linspace(1.0, 2.0 * lam, 5))):
            tau = float(tau)
            c, _, tmax, freq = _wave_integrand(params, tau)
            panels = max(8, math.ceil(tmax * (freq + 1.0) / 3.0))
            for count in (panels, 2 * panels):
                got = _wave_rule(c, tau)(0.0, tmax, count)
                want = _panel_integral(
                    lambda t: np.exp(c * t) * np.cos(t * tau),
                    0.0, tmax, count)
                assert abs(got - want) <= 1e-13 * abs(want), (tau, count)


class TestCutoff:
    def test_plateaus(self):
        assert zl.smooth_cutoff(0.0) == 1.0
        assert zl.smooth_cutoff(0.5) == 1.0
        assert zl.smooth_cutoff(1.0) == 0.0
        assert zl.smooth_cutoff(1.7) == 0.0

    def test_even(self):
        t = np.array([0.3, 0.6, 0.9])
        np.testing.assert_array_equal(zl.smooth_cutoff(t),
                                      zl.smooth_cutoff(-t))

    def test_monotone_transition(self):
        t = np.linspace(0.5, 1.0, 200)
        v = zl.smooth_cutoff(t)
        assert np.all(np.diff(v) <= 1e-15)
        assert 0.0 < zl.smooth_cutoff(0.75) < 1.0


class TestTail:
    def test_decay_off_resonance(self):
        p = zl.ResolventParams(8.0, 1.0)
        near = abs(zl.tail_multiplier(p, 8.0))
        far = abs(zl.tail_multiplier(p, 28.0))
        assert far < near / 100

    # at this tolerance QUADPACK reports roundoff on some parts; the 1e-12
    # comparison bounds the reference's error and the tail's together
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("mu", [1.0, -1.0, 3.0, 40.0, -50.0])
    def test_matches_node_rule(self, mu):
        # adaptive quadrature of the real and imaginary parts on [1/2, 1]
        # and [1, inf) as the reference; a tail cut at the truncation tmax,
        # which falls below 1 past |mu| = 14 ln 10, misses it by 1e-3 at
        # mu = 40 and by 0.2 at mu = -50
        params = zl.ResolventParams(8.0, mu)
        for tau in (0.0, 5.0, 8.0, 24.0, 28.0):
            c, prefac, _, _ = _wave_integrand(params, tau)

            def wave(t):
                return np.exp(c * t) * np.cos(t * tau)

            want = prefac * sum(
                complex(*(quad(lambda t: part(fn(t)), a, b, epsabs=0.0,
                               epsrel=1e-13, limit=1000)[0]
                          for part in (np.real, np.imag)))
                for fn, a, b in (
                    (lambda t: wave(t) * (1.0 - zl.smooth_cutoff(t)), 0.5,
                     1.0),
                    (wave, 1.0, np.inf)))
            got = zl.tail_multiplier(params, tau)
            assert abs(got - want) <= 1e-12 * abs(want), (mu, tau)

    def test_finite_at_zero(self):
        p = zl.ResolventParams(8.0, 1.0)
        assert np.isfinite(abs(zl.tail_multiplier(p, 0.0)))


def test_default_degree_cutoff():
    assert zl.default_degree_cutoff(8.0) == 48
    assert zl.default_degree_cutoff(16.0) == 64
    assert zl.default_degree_cutoff(32.0) == 128


class TestSpectralKernel:
    def test_single_mode_modulus(self, sphere3):
        """R applied to Z_8 scales it by 1/(zeta - 81)."""
        params = zl.ResolventParams(8.0, 1.0)
        result = zl.resolvent_kernel(sphere3, params)
        grid = zl.make_grid(sphere3, 112, kexact=result.kmax)
        z8 = zl.ZonalFunction(grid, zl.zonal_value(3, 8, grid.cosines))
        out = zl.apply_kernel(result.kernel, z8)
        expect = z8.values / (params.zeta - 81.0)
        np.testing.assert_allclose(out.values, expect, atol=1e-12)
        ratio = zl.lp_norm(out, 2) / zl.lp_norm(z8, 2)
        # 1/sqrt(580)
        assert ratio == pytest.approx(0.041522739926869986, rel=1e-9)

    def test_tail_gate_reports_ratio(self, sphere3):
        result = zl.resolvent_kernel(sphere3, zl.ResolventParams(8.0, 1.0))
        assert result.kmax == 48
        assert 0 < result.tail_ratio < 1e-2

    def test_tail_gate_fires(self, sphere3):
        with pytest.raises(TailDominanceError):
            zl.resolvent_kernel(sphere3, zl.ResolventParams(32.0, 1.0),
                                kmax=4)

    def test_inverse_composition(self, grid144, sphere3, rng):
        """Applying the shifted operator after its resolvent returns the
        band-limited input."""
        params = zl.ResolventParams(3.0, 1.0)
        res = zl.resolvent_kernel(sphere3, params, kmax=32)
        helm = zl.helmholtz_kernel(sphere3, params, kmax=32)
        coeffs = np.zeros(9)
        coeffs[: 9] = rng.standard_normal(9)
        f = zl.ZonalFunction(
            grid144, zl.ZonalKernel(sphere3, coeffs).values(grid144.cosines))
        back = zl.apply_kernel(helm, zl.apply_kernel(res.kernel, f))
        np.testing.assert_allclose(back.values, f.values, atol=1e-10)
