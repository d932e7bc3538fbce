"""Resolvent multipliers m(tau) = 1/(zeta - tau^2) with zeta = (lambda + i mu)^2,
their wave-integral representation, and truncated spectral kernels.

The canonical closed form fixes the sign convention; the time integral

    sgn(mu)/(i(lambda + i mu)) int_0^inf e^{i sgn(mu) lambda t} e^{-|mu| t}
                                        cos(t tau) dt

reproduces it and is kept as a cross-check.  The tail multiplier keeps only
t >= 1/2 through a smooth cutoff and decays rapidly off tau = lambda.

Both run through one routine (`_wave_integral`): up to t = 1 a 12-point
Gauss-Legendre rule on equal panels, refined once by doubling the panels as a
check, and beyond t = 1, where the weight is 1, the integral in closed form.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, TailDominanceError
from .specfun import ZonalKernel

_TAIL_RATIO_MAX = 1e-2
_REL_TOL = 1e-8


@dataclass(frozen=True)
class ResolventParams:
    """Spectral parameter zeta = (lam + i mu)^2 with finite lam >= 1 and
    |mu| >= 1."""

    lam: float
    mu: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ValueError(f"need finite lam and mu, got lam={self.lam}, "
                             f"mu={self.mu}")
        if self.lam < 1.0:
            raise ValueError(f"need lam >= 1, got {self.lam}")
        if abs(self.mu) < 1.0:
            raise ValueError(f"need |mu| >= 1, got {self.mu}")

    @property
    def zeta(self):
        return complex(self.lam, self.mu) ** 2


def resolvent_multiplier(params, tau):
    """Closed-form multiplier 1/(zeta - tau^2); tau scalar or array."""
    tau = np.asarray(tau, dtype=np.float64)
    # |zeta - tau^2| >= 2 lam |mu| >= 2 under ResolventParams: no pole
    out = 1.0 / (params.zeta - tau.astype(np.complex128) ** 2)
    return complex(out) if out.ndim == 0 else out


def smooth_cutoff(t):
    """Even C^inf cutoff rho: 1 for |t| <= 1/2, 0 for |t| >= 1."""
    t = np.abs(np.asarray(t, dtype=np.float64))
    x = 2.0 * (1.0 - t)            # 1 at |t|=1/2, 0 at |t|=1
    with np.errstate(divide="ignore", over="ignore"):
        hx = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
        h1 = np.where(1.0 - x > 0,
                      np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return hx / (hx + h1)


@functools.cache
def _panel_rule():
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1] used per
    panel, built on first use: only the wave integrals read it, so no other
    command loads numpy.polynomial."""
    return np.polynomial.legendre.leggauss(12)


def _panel_integral(fn, a, b, panels):
    """The 12-point Gauss-Legendre rule on each of `panels` equal panels."""
    x, u = _panel_rule()
    edges = np.linspace(a, b, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1] - edges[0])
    t = (mid[:, None] + half * x[None, :]).ravel()
    return half * np.sum(fn(t).reshape(panels, -1) * u)


def _refined_integral(fn, a, b, freq):
    """The panel rule for fn on [a, b] at panels sized to the oscillation and
    at twice as many, with a doubling check on the real and the imaginary
    part, each against its own scale."""
    panels = max(8, math.ceil((b - a) * (freq + 1.0) / 3.0))
    v1 = _panel_integral(fn, a, b, panels)
    v2 = _panel_integral(fn, a, b, 2 * panels)
    for p1, p2 in ((v1.real, v2.real), (v1.imag, v2.imag)):
        if abs(p1 - p2) > _REL_TOL * max(abs(p2), 1e-300) + 1e-15:
            raise QuadratureError(
                f"oscillatory integral refinements disagree: {v1} vs {v2}")
    return v2


def _wave_integral(params, tau, start, weight):
    """The wave integral of the module docstring from t = start on, its
    integrand e^{ct} cos(tau t) times a weight that is 1 from t = 1 on.

    [start, 1] runs through the panel rule, with panels sized to the fastest
    oscillation, lam + |tau| + |mu|.  On [1, inf), with c+- = c +- i tau and
    Re c+- = -|mu| < 0,

        int_1^inf e^{ct} cos(tau t) dt = 1/2 sum_+- -e^{c+-} / c+-.
    """
    sgn = 1.0 if params.mu >= 0 else -1.0
    c = complex(-abs(params.mu), sgn * params.lam)
    prefac = sgn / (1j * complex(params.lam, params.mu))
    freq = params.lam + abs(tau) + abs(params.mu)

    def fn(t):
        return np.exp(c * t) * np.cos(t * tau) * weight(t)

    near = _refined_integral(fn, start, 1.0, freq)
    far = -0.5 * sum(np.exp(c + d) / (c + d) for d in (1j * tau, -1j * tau))
    return prefac * (near + far)


def multiplier_from_integral(params, tau):
    """Direct numeric evaluation of the wave-trace integral for m(tau)."""
    return _wave_integral(params, tau, 0.0, lambda t: 1.0)


def tail_multiplier(params, tau):
    """The t >= 1/2 part of the wave integral; decays fast off tau = lambda.

    The integrand carries 1 - rho, which is 1 from t = 1 on; starting the
    panels at t = 1/2 and ending them at t = 1 puts the cutoff's transition
    knots on panel edges, where interior to a panel they would stall
    convergence.
    """
    return _wave_integral(params, tau, 0.5,
                          lambda t: 1.0 - smooth_cutoff(t))


# ---------------------------------------------------------------------------
# truncated spectral kernel

def default_degree_cutoff(lam, mu=1.0, n=3):
    """The larger of max(ceil(4 lam), ceil(lam) + 40) and the least cutoff
    K that `resolvent_kernel`'s gate accepts on S^n, in closed form.

    With lambda_k = k + (n-1)/2, |zeta - lambda_k^2| is least at the degrees
    next to sqrt(Re zeta) - (n-1)/2, or at degree 0 where that is negative,
    so the peak kept |m| is 1 / d with d the lesser of those distances.  The
    discarded sup is at K + 1, as K >= 4 lam puts it beyond sqrt(Re zeta),
    so the gate needs |zeta - lambda_{K+1}^2| >= 100 d, that is

        lambda_{K+1}^2 >= Re zeta + sqrt((100 d)^2 - (Im zeta)^2).

    At mu = +-1 the first rule passes the gate except near lam = 13, so the
    cutoff, the grid and the CSV of such a run are what that rule gave.
    """
    zeta = complex(lam, mu) ** 2
    half = (n - 1) / 2.0
    k0 = math.sqrt(max(zeta.real, 0.0)) - half
    d = min(abs(zeta - (max(k, 0) + half) ** 2)
            for k in (math.floor(k0), math.ceil(k0)))
    # a gate so loose that no degree fails it leaves these at 0
    gap = math.sqrt(max((d / _TAIL_RATIO_MAX) ** 2 - zeta.imag ** 2, 0.0))
    reach = math.sqrt(max(zeta.real + gap, 0.0))
    return max(math.ceil(4.0 * lam), math.ceil(lam) + 40,
               math.ceil(reach - half - 1.0))


@dataclass
class ResolventKernelResult:
    kernel: ZonalKernel
    kmax: int
    tail_ratio: float          # sup of |m| beyond the cutoff / peak kept |m|


def resolvent_kernel(sphere, params, kmax=None):
    """Spectral kernel sum_{k<=kmax} m(lambda_k) Z_k with a truncation gate.

    The discarded multipliers decay like lambda_k^{-2}; the gate requires
    their sup to sit below 1e-2 of the peak kept multiplier, which the
    default cutoff, `default_degree_cutoff` at this lam, mu and n, does.
    """
    if kmax is None:
        kmax = default_degree_cutoff(params.lam, params.mu, sphere.n)
    half = (sphere.n - 1) / 2.0
    coeffs = resolvent_multiplier(params, np.arange(kmax + 1) + half)
    peak = float(np.abs(coeffs).max())
    # |zeta - x^2| grows as x^2 leaves Re zeta on either side: the discarded
    # sup sits at kmax + 1 or at the degrees next to sqrt(Re zeta) - (n-1)/2
    k0 = math.sqrt(max(params.zeta.real, 0.0)) - half
    ks = np.maximum(kmax + 1, [kmax + 1, math.floor(k0), math.ceil(k0)])
    tail_sup = float(np.abs(resolvent_multiplier(params, ks + half)).max())
    tail_ratio = tail_sup / peak
    if tail_ratio > _TAIL_RATIO_MAX:
        raise TailDominanceError(
            f"degree cutoff kmax={kmax} too small for lam={params.lam}, "
            f"mu={params.mu}: discarded-tail ratio {tail_ratio:.2e}")
    return ResolventKernelResult(ZonalKernel(sphere, coeffs), kmax, tail_ratio)


def helmholtz_kernel(sphere, params, kmax):
    """Multiplier kernel of the shifted operator itself, zeta - lambda_k^2;
    composing with the resolvent is the identity on band-limited functions."""
    lam_k = np.arange(kmax + 1) + (sphere.n - 1) / 2.0
    coeffs = params.zeta - lam_k.astype(np.complex128) ** 2
    return ZonalKernel(sphere, coeffs)
