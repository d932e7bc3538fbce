"""End-to-end acceptance checks, one per headline behavior.

Each test prints a single PASS/FAIL verdict line with the measured
quantities, then asserts.  Run with -s (or read the captured output on
failure) to see the summary table.
"""

import math

import numpy as np
import pytest

import zonalab as zl
from zonalab.cli import default_r, fit_slope
from zonalab.exponents import ExponentPoint
from zonalab.operators import operator_from_kernel

VOL3 = 19.739208802178716
SIGMAS = (0.5, 0.6, 2 / 3)


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _pair(sigma):
    x = 1.0 / default_r(3, sigma)
    return ExponentPoint(x, x - sigma)


@pytest.fixture(scope="module")
def fit16(grid144):
    return zl.piece_norm_slopes(16, 0.6, grid144)


@pytest.fixture(scope="module")
def fit32(grid144):
    return zl.piece_norm_slopes(32, 0.6, grid144)


def test_criterion_1_projector_normalization(sphere3, grid144):
    """L^2 unit norm for every projector; exact rank-one value for the mean."""
    devs = []
    for k in range(33):
        op = operator_from_kernel(zl.projector_kernel(sphere3, k), grid144)
        low = zl.norm_lower(op, 2.0, 2.0, restarts=2)
        devs.append(abs(low.value - 1.0))
    h0 = operator_from_kernel(zl.projector_kernel(sphere3, 0), grid144)
    mean_devs = []
    for sigma in SIGMAS:
        pt = _pair(sigma)
        low = zl.norm_lower(h0, pt.r, pt.s, restarts=4)
        mean_devs.append(abs(low.value - VOL3 ** (-sigma)))
    ok = max(devs) < 1e-6 and max(mean_devs) < 1e-4
    _verdict(1, ok, f"max |norm-1| = {max(devs):.2e} over k=0..32, "
                    f"mean-projector max dev = {max(mean_devs):.2e}")


def test_criterion_2_projector_growth(sphere3, grid144):
    """Lower-bound slopes stay under the predicted power; normalized upper
    bounds stay within a bounded band."""
    ks = (4, 8, 16, 32)
    details = []
    ok = True
    for sigma in SIGMAS:
        pt = _pair(sigma)
        predicted = 3 * sigma - 1
        lowers, uppers = [], []
        for k in ks:
            op = operator_from_kernel(zl.projector_kernel(sphere3, k),
                                      grid144)
            cert = zl.norm_certificate(op, pt, label=f"H_{k}")
            lowers.append(cert["lower"])
            uppers.append(cert["upper"])
        slope, _, _ = fit_slope(list(zip(ks, lowers)))
        norm_upper = [u / k ** predicted for u, k in zip(uppers, ks)]
        spread = max(norm_upper) / min(norm_upper)
        ok = ok and slope <= predicted + 0.1 and spread <= 3.0
        details.append(f"sigma={sigma:.3g}: slope {slope:+.3f} "
                       f"(cap {predicted + 0.1:.2f}), upper spread "
                       f"{spread:.2f}")
    _verdict(2, ok, "; ".join(details))


def test_criterion_3_envelope_constants(sphere3):
    """The flat and oscillatory envelope constants are degree-stable."""
    envs = [zl.envelope_check(sphere3, k) for k in (8, 16, 32, 64)]
    flats = [e.c_flat for e in envs]
    oscs = [e.c_osc for e in envs]
    spread_flat = max(flats) / min(flats)
    spread_osc = max(oscs) / min(oscs)
    ok = spread_flat < 2.0 and spread_osc < 2.0
    _verdict(3, ok, f"flat spread {spread_flat:.3f}, "
                    f"oscillatory spread {spread_osc:.3f}")


def test_criterion_4_piece_slopes(grid144, fit32):
    """Measured dyadic piece-norm slopes land in the predicted windows."""
    fit05 = zl.piece_norm_slopes(32, 0.5, grid144)
    checks = [
        ("growth@3/5", fit32.slope_growth, 0.2, 0.2),
        ("decay@3/5", fit32.slope_decay, -0.2, 0.2),
        ("decay@1/2", fit05.slope_decay, 0.0, 0.15),
    ]
    ok = all(abs(v - mid) <= width for _, v, mid, width in checks)
    detail = ", ".join(f"{name} {v:+.3f} (want {mid:+.2f}+-{w:.2f})"
                       for name, v, mid, w in checks)
    _verdict(4, ok, detail)


def test_criterion_5_split_and_certify(grid144, sphere3, fit16, fit32):
    """Split-index bracketing holds on a large random sweep, and the
    observed weak-type constants for k = 16 and 32 agree within 2x."""
    p_pt, q_pt = zl.stein_point(3, 0.6)
    rng = np.random.default_rng(2024)
    bad = 0
    for _ in range(1000):
        lm1, lm2 = rng.uniform(-12, 12, 2)
        b1, b2 = rng.uniform(0.05, 2.5, 2)
        data = zl.InterpolationData(q_pt, p_pt, 2.0 ** lm1, 2.0 ** lm2,
                                    b1, b2)
        mu_e, mu_a = 2.0 ** rng.uniform(-8, 2, 2)
        choice = zl.optimal_split(data, mu_e, mu_a)
        if choice.branch == "tail-only":
            good = choice.log2_quantity <= 0.0 and choice.rho == 0
        else:
            good = (choice.rho < choice.log2_quantity
                    <= choice.rho + 1 + 1e-12 and choice.rho >= 0)
        bad += 0 if good else 1
    c_obs = {}
    for k, fit in ((16, fit16), (32, fit32)):
        data = zl.interp_from_fit(fit)
        h_k = operator_from_kernel(zl.projector_kernel(sphere3, k), grid144)
        c_obs[k] = zl.certify_restricted_weak(h_k, data)["c_obs"]
    ratio = c_obs[32] / c_obs[16]
    ok = bad == 0 and 0.5 <= ratio <= 2.0
    _verdict(5, ok, f"split sandwich failures {bad}/1000, "
                    f"C_obs 16/32 = {c_obs[16]:.3f}/{c_obs[32]:.3f} "
                    f"(ratio {ratio:.2f})")


def test_criterion_6_multiplier_integrals():
    """Wave-trace integral reproduces the closed form; the cutoff tail obeys
    a uniform cubic-decay envelope across lambda."""
    worst = 0.0
    for lam in (2.0, 4.0, 8.0, 16.0, 32.0):
        for mu in (1.0, 2.0):
            params = zl.ResolventParams(lam, mu)
            for tau in np.unique(np.round(np.linspace(1, 2 * lam, 5))):
                closed = zl.resolvent_multiplier(params, float(tau))
                numeric = zl.multiplier_from_integral(params, float(tau))
                worst = max(worst,
                            abs(abs(numeric) - abs(closed)) / abs(closed))
    products = []
    for lam in (8.0, 16.0, 32.0):
        params = zl.ResolventParams(lam, 1.0)
        taus = np.linspace(0.0, 2.0 * lam, 161)
        vals = [abs(zl.tail_multiplier(params, float(t))) * lam
                * (1.0 + abs(lam - t)) ** 3 for t in taus]
        products.append(max(vals))
    spread = max(products) / min(products)
    ok = worst < 1e-6 and spread <= 4.0
    _verdict(6, ok, f"worst integral rel err {worst:.2e}, "
                    f"tail envelope spread {spread:.3f}")


def test_criterion_7_resolvent_scaling(sphere3):
    """Resolvent norms: flat in lambda at sigma = 2/3, decaying with a slope
    at most -0.35 at sigma = 1/2."""
    lams = (8.0, 16.0, 32.0)
    kmax = zl.default_degree_cutoff(max(lams))
    grid = zl.make_grid(sphere3, 4 * kmax + 16, kmax)
    lowers = {}
    for sigma in (2 / 3, 0.5):
        pt = _pair(sigma)
        vals = []
        for lam in lams:
            result = zl.resolvent_kernel(sphere3, zl.ResolventParams(lam, 1.0),
                                         zl.default_degree_cutoff(lam))
            op = operator_from_kernel(result.kernel, grid)
            vals.append(zl.norm_lower(op, pt.r, pt.s).value)
        lowers[sigma] = vals
    spread = max(lowers[2 / 3]) / min(lowers[2 / 3])
    slope, _, _ = fit_slope(list(zip(lams, lowers[0.5])))
    ok = spread <= 2.0 and slope <= -0.35
    _verdict(7, ok, f"sigma=2/3 spread {spread:.3f} (cap 2), "
                    f"sigma=1/2 slope {slope:+.3f} (cap -0.35)")


def test_criterion_8_inverse_identity(sphere3, rng):
    """Shifted operator composed with the resolvent is the identity on
    band-limited inputs."""
    errs = []
    for lam in (8.0, 16.0):
        params = zl.ResolventParams(lam, 1.0)
        kmax = zl.default_degree_cutoff(lam)
        grid = zl.make_grid(sphere3, 4 * kmax + 16, kmax)
        res = zl.resolvent_kernel(sphere3, params, kmax)
        helm = zl.helmholtz_kernel(sphere3, params, kmax)
        coeffs = rng.standard_normal(kmax // 2 + 1)
        f = zl.ZonalFunction(
            grid, zl.ZonalKernel(sphere3, coeffs).values(grid.cosines))
        back = zl.apply_kernel(helm, zl.apply_kernel(res.kernel, f))
        err = zl.lp_norm(zl.ZonalFunction(grid, back.values - f.values), 2)
        errs.append(err / zl.lp_norm(f, 2))
    ok = max(errs) < 1e-8
    _verdict(8, ok, "relative identity error "
             + ", ".join(f"{e:.2e}" for e in errs))


def test_criterion_9_exponent_algebra():
    """The exponent diagram: named points, duality, predictions, and the
    triple coincidence at the left end of the range."""
    pts = zl.special_points(3)
    checks = [
        abs(pts["A"].x - 0.5), abs(pts["A"].y - 0.25),
        abs(pts["B"].x - 1.0), abs(pts["B"].y),
        abs(pts["C"].x - 2 / 3), abs(pts["C"].y - 1 / 6),
        abs(pts["D"].x - 2 / 3), abs(pts["D"].y),
    ]
    p, q = zl.stein_point(3, 0.6)
    checks += [abs(p.x - 11 / 15), abs(p.y - 2 / 15),
               abs(q.x - 0.6), abs(q.y)]
    e, e_dual = zl.segment_endpoints(3, 0.6)
    checks += [abs(e.x - 2 / 3), abs(e.y - 1 / 15),
               abs(e_dual.x - 14 / 15), abs(e_dual.y - 1 / 3)]
    proj, res = zl.predicted_exponents(3, 2 / 3)
    checks += [abs(proj - 1.0), abs(res)]
    for point in (p, q, e):
        d = point.dual().dual()
        checks += [abs(d.x - point.x), abs(d.y - point.y)]
    # sigma = 2/(n+1): P, C, and the critical endpoint coincide
    p_c, _ = zl.stein_point(3, 0.5)
    e_c, _ = zl.segment_endpoints(3, 0.5)
    checks += [abs(p_c.x - pts["C"].x), abs(p_c.y - pts["C"].y),
               abs(e_c.x - pts["C"].x), abs(e_c.y - pts["C"].y)]
    worst = max(checks)
    ok = worst < 1e-12
    _verdict(9, ok, f"worst algebraic deviation {worst:.2e}")
