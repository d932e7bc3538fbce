import math

import numpy as np
import pytest
from scipy.integrate import quad

import zonalab as zl
from zonalab import resolvent
from zonalab.errors import QuadratureError, TailDominanceError
from zonalab.resolvent import _refined_integral


def _wave(params):
    """(c, prefactor) of the wave integral: m(tau) = prefactor times the
    integral of e^{ct} cos(tau t) over t >= 0."""
    sgn = 1.0 if params.mu >= 0 else -1.0
    return (complex(-abs(params.mu), sgn * params.lam),
            sgn / (1j * complex(params.lam, params.mu)))


def _quad(fn, a, b):
    """Adaptive quadrature of a complex integrand, part by part."""
    return complex(*(quad(lambda t: part(fn(t)), a, b, epsabs=0.0,
                          epsrel=1e-13, limit=1000)[0]
                     for part in (np.real, np.imag)))


# tail_multiplier(ResolventParams(lam, mu), tau) as (lam, mu, tau, real part,
# imaginary part), the bits of the tail's first closed-form version
_TAIL_VALUES = [
    (8.0, 1.0, 0.0, '0x1.3e559d3055776p-8', '-0x1.a99581b6b8cfcp-9'),
    (8.0, 1.0, 8.0, '-0x1.a70eb3c9da387p-9', '-0x1.e68f782281b66p-6'),
    (8.0, 1.0, 24.5, '-0x1.4c0e824d60dd8p-11', '-0x1.b12207de55ce8p-14'),
    (8.0, -1.0, 0.0, '0x1.3e559d3055776p-8', '0x1.a99581b6b8cfcp-9'),
    (8.0, -1.0, 8.0, '-0x1.a70eb3c9da387p-9', '0x1.e68f782281b66p-6'),
    (8.0, -1.0, 24.5, '-0x1.4c0e824d60dd8p-11', '0x1.b12207de55ce8p-14'),
    (8.0, 40.0, 0.0, '-0x1.3b4b6ec69b84dp-50', '0x1.06c7b2221a3c8p-49'),
    (8.0, 40.0, 8.0, '-0x1.27c3b3eae980cp-51', '0x1.044dd507097d2p-51'),
    (8.0, 40.0, 24.5, '0x1.71a14882277e6p-51', '-0x1.3eeda9539b5b2p-50'),
    (8.0, -50.0, 0.0, '-0x1.711f785d5ada0p-60', '-0x1.d09d9879d65c6p-59'),
    (8.0, -50.0, 8.0, '-0x1.1fc8421cc7e42p-61', '-0x1.3e64033a0f3bep-61'),
    (8.0, -50.0, 24.5, '0x1.00a00aae3bdd3p-60', '0x1.ecda09710bf65p-60'),
    (64.0, 1.0, 0.0, '0x1.388592ca85beap-24', '0x1.90ab284395ea4p-22'),
    (64.0, 1.0, 64.0, '-0x1.e5318a4deaf5dp-15', '-0x1.e5370f103d666p-9'),
    (64.0, 1.0, 192.5, '-0x1.2f2af3dfd18e7p-28', '-0x1.1d8ec8322399cp-28'),
    (64.0, -1.0, 0.0, '0x1.388592ca85beap-24', '-0x1.90ab284395ea4p-22'),
    (64.0, -1.0, 64.0, '-0x1.e5318a4deaf5dp-15', '0x1.e5370f103d666p-9'),
    (64.0, -1.0, 192.5, '-0x1.2f2af3dfd18e7p-28', '0x1.1d8ec8322399cp-28'),
    (64.0, 40.0, 0.0, '0x1.2b20b46af7b99p-54', '-0x1.c4b6023ec2c3ep-54'),
    (64.0, 40.0, 64.0, '-0x1.77dbee15b2237p-52', '-0x1.2ad329cddef60p-51'),
    (64.0, 40.0, 192.5, '-0x1.8199ff1bfb537p-61', '-0x1.a574aa5ad37b6p-59'),
    (64.0, -50.0, 0.0, '0x1.752ea31dd6880p-68', '0x1.907348cb746b8p-62'),
    (64.0, -50.0, 64.0, '-0x1.96c827ff0da80p-61', '0x1.ff827a265d1e6p-61'),
    (64.0, -50.0, 192.5, '0x1.01781d5df2630p-70', '0x1.9d736c0ecf831p-67'),
]


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
            _refined_integral(lambda t: np.sign(t - 0.37), 0.0, 1.0, 0.0)

    def test_refinement_check_per_part(self):
        # the jump sits in the imaginary part only; measured against the
        # whole value's scale its error would pass
        with pytest.raises(QuadratureError):
            _refined_integral(lambda t: 1e6 + 1j * np.sign(t - 0.37),
                              0.0, 1.0, 0.0)

    @pytest.mark.parametrize("lam", [8.0, 16.0, 32.0, 64.0, 128.0])
    @pytest.mark.parametrize("mu", [1.0, -1.0, 3.0, 40.0, -50.0])
    def test_matches_closed_form_at_check_points(self, lam, mu):
        # the five tau of `multiplier-check`, 0 and resonance; at mu = 40
        # and -50 e^{-|mu| t} falls below 1e-14 before t = 1, so the panel
        # rule carries nearly all of the integral and the closed-form far
        # part nearly none
        params = zl.ResolventParams(lam, mu)
        taus = np.unique(np.round(np.linspace(1.0, 2.0 * lam, 5)))
        for tau in [*taus, 0.0, lam, lam + 0.5]:
            got = zl.multiplier_from_integral(params, float(tau))
            want = zl.resolvent_multiplier(params, float(tau))
            assert abs(got - want) <= 1e-12 * abs(want), (tau, got, want)


class TestLocal:
    # at this tolerance QUADPACK reports roundoff on some parts; the 1e-10
    # comparison bounds the reference's error and the local part's together
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("mu", [1.0, -1.0, 3.0, 40.0, -50.0])
    def test_matches_adaptive_quadrature(self, mu):
        # the local part of the wave integral, the full multiplier less its
        # tail, is prefactor times the integral of rho e^{ct} cos(tau t)
        # over [0, 1], where rho falls from 1 to 0 on [1/2, 1]
        params = zl.ResolventParams(8.0, mu)
        c, prefac = _wave(params)
        for tau in (0.0, 5.0, 8.0, 24.0, 28.0):
            want = prefac * sum(
                _quad(lambda t: np.exp(c * t) * np.cos(t * tau)
                      * zl.smooth_cutoff(t), a, b)
                for a, b in ((0.0, 0.5), (0.5, 1.0)))
            got = (zl.multiplier_from_integral(params, tau)
                   - zl.tail_multiplier(params, tau))
            assert abs(got - want) <= 1e-10 * abs(want), (mu, tau)


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
        # and [1, inf) as the reference; a tail cut where e^{-|mu| t} falls
        # to 1e-14, which is below t = 1 past |mu| = 14 ln 10, misses it by
        # 1e-3 at mu = 40 and by 0.2 at mu = -50
        params = zl.ResolventParams(8.0, mu)
        c, prefac = _wave(params)
        for tau in (0.0, 5.0, 8.0, 24.0, 28.0):

            def wave(t):
                return np.exp(c * t) * np.cos(t * tau)

            want = prefac * (
                _quad(lambda t: wave(t) * (1.0 - zl.smooth_cutoff(t)), 0.5,
                      1.0)
                + _quad(wave, 1.0, np.inf))
            got = zl.tail_multiplier(params, tau)
            assert abs(got - want) <= 1e-12 * abs(want), (mu, tau)

    def test_finite_at_zero(self):
        p = zl.ResolventParams(8.0, 1.0)
        assert np.isfinite(abs(zl.tail_multiplier(p, 0.0)))

    def test_stored_bits(self):
        # the tail's sums run in the order of its first closed-form version,
        # so the values are the same to the bit
        for lam, mu, tau, re, im in _TAIL_VALUES:
            got = zl.tail_multiplier(zl.ResolventParams(lam, mu), tau)
            assert (got.real, got.imag) == (float.fromhex(re),
                                            float.fromhex(im)), (lam, mu, tau)


def test_default_degree_cutoff():
    assert zl.default_degree_cutoff(8.0) == 48
    assert zl.default_degree_cutoff(16.0) == 64
    assert zl.default_degree_cutoff(32.0) == 128


def test_default_cutoff_unchanged_at_mu_one():
    # at mu = +-1 the cutoff is max(ceil(4 lam), ceil(lam) + 40) wherever
    # that passes the gate, so those mu = 1 grids and CSVs stay as they
    # were; on these lam it fails the gate only near lam = 13 (13.495 and
    # 13.5 at n = 3), where the cutoff is the least one that passes
    lams = np.concatenate([np.linspace(1.0, 100.0, 19801),
                           np.geomspace(1.0, 1e6, 2001),
                           [40 / 3, math.nextafter(40 / 3, 0.0),
                            math.nextafter(40 / 3, 20.0)]])
    for n in (2, 3, 4, 5):
        sphere = zl.SphereSpec(n)
        for lam in lams:
            old = max(math.ceil(4.0 * lam), math.ceil(lam) + 40)
            for mu in (1.0, -1.0):
                kmax = zl.default_degree_cutoff(lam, mu, n)
                if kmax != old:
                    params = zl.ResolventParams(lam, mu)
                    assert 12.5 < lam < 14.0 and kmax > old, (n, lam)
                    with pytest.raises(TailDominanceError):
                        zl.resolvent_kernel(sphere, params, old)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_default_cutoff_passes_the_gate_with_mu(n):
    # the cutoff at this mu and n passes the gate, and where the closed form
    # sets it, one degree less does not
    sphere = zl.SphereSpec(n)
    for lam in (4.0, 8.0, 13.5, 16.0, 64.0, 256.0):
        for mu in (1.25, 1.5, -2.0, 4.0, lam / 2, -lam, 2 * lam):
            params = zl.ResolventParams(lam, mu)
            kmax = zl.default_degree_cutoff(lam, mu, n)
            result = zl.resolvent_kernel(sphere, params, kmax)
            assert result.tail_ratio <= 1e-2, (lam, mu)
            if kmax > max(math.ceil(4.0 * lam), math.ceil(lam) + 40):
                with pytest.raises(TailDominanceError):
                    zl.resolvent_kernel(sphere, params, kmax - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_default_kernel_passes_the_gate(n):
    # resolvent_kernel's own cutoff, at this mu and n, on exact decimals
    # lam = i / 20: at mu = 1 the rule max(ceil(4 lam), ceil(lam) + 40)
    # alone fails at lam = 13.5 (n = 3) and 13, 13.05 (n = 2), and a cutoff
    # that ignores mu fails at larger |mu|
    sphere = zl.SphereSpec(n)
    for i in range(20, 1201):
        lam = i / 20
        for mu in (1.0, -1.0, 1.5, 4.0, lam, 2 * lam):
            result = zl.resolvent_kernel(sphere, zl.ResolventParams(lam, mu))
            assert result.kmax == zl.default_degree_cutoff(lam, mu, n)
            assert result.tail_ratio <= 1e-2, (lam, mu)


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("mu", [1.0, -1.0, 2.5, 10.0, 40.0])
    def test_tail_sup_matches_scan(self, monkeypatch, n, mu):
        # the sup over the discarded degrees, taken at kmax + 1 and next to
        # sqrt(Re zeta), is that of a scan far past both, also for cutoffs
        # below lam, where the gate would fire
        monkeypatch.setattr(resolvent, "_TAIL_RATIO_MAX", math.inf)
        sphere = zl.SphereSpec(n)
        for lam in (1.0, 3.0, 8.5, 33.3):
            params = zl.ResolventParams(lam, mu)
            for kmax in {0, 2, int(lam) - 1, int(lam) + 1,
                         zl.default_degree_cutoff(lam)} - {-1}:
                result = zl.resolvent_kernel(sphere, params, kmax)
                lam_k = np.arange(kmax + 1, kmax + 4000) + (n - 1) / 2.0
                scan = np.abs(1.0 / (params.zeta - lam_k ** 2)).max()
                peak = np.abs(result.kernel.coeffs).max()
                assert result.tail_ratio == scan / peak, (lam, kmax)

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
