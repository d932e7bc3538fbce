"""Resolvent multipliers m(tau) = 1/(zeta - tau^2) with zeta = (lambda + i mu)^2,
their wave-integral representation, and truncated spectral kernels.

The canonical closed form fixes the sign convention; the time integral

    sgn(mu)/(i(lambda + i mu)) int_0^inf e^{i sgn(mu) lambda t} e^{-|mu| t}
                                        cos(t tau) dt

reproduces it and is kept as a cross-check.  The tail multiplier keeps only
t >= 1/2 through a smooth cutoff and decays rapidly off tau = lambda.

Both integrals run a 12-point Gauss-Legendre rule on equal panels, refined
once by doubling the panels as a check.  Wherever the integrand is
e^{ct} cos(tau t) the rule is summed per panel rather than per node
(`_wave_rule`), so a refinement costs O(panels) transcendentals; only the
tail's cutoff part, where 1 - rho is not 1, is summed node by node.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError, TailDominanceError
from .specfun import ZonalKernel, eigenvalue

_TAIL_RATIO_MAX = 1e-2
# nodes and weights of the Gauss-Legendre rule on [-1, 1] used per panel
_PANEL_RULE = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class ResolventParams:
    """Spectral parameter zeta = (lam + i mu)^2 with lam >= 1, |mu| >= 1."""

    lam: float
    mu: float

    def __post_init__(self):
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
    den = params.zeta - tau.astype(np.complex128) ** 2
    # unreachable under the |mu| >= 1 invariant, which keeps |den| >= 2 lam
    if np.abs(den).min() < 1e-12:
        raise ValueError(f"multiplier pole: |zeta - tau^2| < 1e-12 at "
                         f"zeta={params.zeta}")
    out = 1.0 / den
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


def _panels(a, b, panels):
    """Midpoints and half-width of `panels` equal panels of [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    return 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1] - edges[0])


def _panel_integral(fn, a, b, panels):
    """The 12-point Gauss-Legendre rule on each of `panels` equal panels."""
    x, u = _PANEL_RULE
    mid, half = _panels(a, b, panels)
    t = (mid[:, None] + half * x[None, :]).ravel()
    return half * np.sum(fn(t).reshape(panels, -1) * u)


def _wave_rule(c, tau):
    """The rule of `_panel_integral` for e^{ct} cos(tau t), summed per panel.

    At the nodes t = m + h x of the panel around m, e^{ct} = e^{cm} e^{chx}
    and cos(tau t) = cos(tau m) cos(tau h x) - sin(tau m) sin(tau h x); the
    sums over x are the same on every panel, so a refinement costs
    transcendentals per panel rather than per node.
    """
    x, u = _PANEL_RULE

    def rule(a, b, panels):
        mid, half = _panels(a, b, panels)
        node = u * np.exp(c * half * x)
        cos_sum = node @ np.cos(tau * half * x)
        sin_sum = node @ np.sin(tau * half * x)
        return half * np.sum(np.exp(c * mid) * (
            np.cos(tau * mid) * cos_sum - np.sin(tau * mid) * sin_sum))

    return rule


def _refined_integral(rule, a, b, freq, rel_tol=1e-8):
    """A panel rule(a, b, panels) at panels sized to the oscillation and at
    twice as many, with a doubling check on the real and the imaginary part,
    each against its own scale."""
    panels = max(8, math.ceil((b - a) * (freq + 1.0) / 3.0))
    v1 = rule(a, b, panels)
    v2 = rule(a, b, 2 * panels)
    for p1, p2 in ((v1.real, v2.real), (v1.imag, v2.imag)):
        if abs(p1 - p2) > rel_tol * max(abs(p2), 1e-300) + 1e-15:
            raise QuadratureError(
                f"oscillatory integral refinements disagree: {v1} vs {v2}")
    return v2


def _wave_integrand(params, tau):
    """(c, prefactor, tmax, freq) of the wave integral in the module
    docstring: its integrand is e^{ct} cos(tau t), truncated at tmax, where
    e^{-|mu| t} has fallen to 1e-14, and oscillating at most at freq."""
    sgn = 1.0 if params.mu >= 0 else -1.0
    c = complex(-abs(params.mu), sgn * params.lam)
    prefac = sgn / (1j * complex(params.lam, params.mu))
    tmax = 14.0 * math.log(10.0) / abs(params.mu)
    freq = params.lam + abs(tau) + abs(params.mu)
    return c, prefac, tmax, freq


def multiplier_from_integral(params, tau, rel_tol=1e-8):
    """Direct numeric evaluation of the wave-trace integral for m(tau)."""
    c, prefac, tmax, freq = _wave_integrand(params, tau)
    return prefac * _refined_integral(_wave_rule(c, tau), 0.0, tmax, freq,
                                      rel_tol)


def tail_multiplier(params, tau, rel_tol=1e-8):
    """The t >= 1/2 part of the wave integral; decays fast off tau = lambda.

    The integration is split at t = 1 so the cutoff's transition knots sit
    on panel edges; interior to a panel they would stall convergence.  On
    [1/2, 1] the integrand carries 1 - rho and is summed node by node; on
    [1, tmax] 1 - rho is 1 and the rule is summed per panel (`_wave_rule`).
    Where tmax < 1 (|mu| > 14 ln 10) the second part runs back over
    [tmax, 1], where the cutoff is not 1, so it keeps the node rule too.
    """
    c, prefac, tmax, freq = _wave_integrand(params, tau)

    def fn(t):
        return np.exp(c * t) * np.cos(t * tau) * (1.0 - smooth_cutoff(t))

    nodes = functools.partial(_panel_integral, fn)
    past_one = _wave_rule(c, tau) if tmax >= 1.0 else nodes
    val = (_refined_integral(nodes, 0.5, 1.0, freq, rel_tol)
           + _refined_integral(past_one, 1.0, tmax, freq, rel_tol))
    return prefac * val


# ---------------------------------------------------------------------------
# truncated spectral kernel

def default_degree_cutoff(lam):
    return max(math.ceil(4.0 * lam), math.ceil(lam) + 40)


@dataclass
class ResolventKernelResult:
    kernel: ZonalKernel
    kmax: int
    tail_ratio: float          # sup of |m| beyond the cutoff / peak kept |m|


def resolvent_kernel(sphere, params, kmax=None):
    """Spectral kernel sum_{k<=kmax} m(lambda_k) Z_k with a truncation gate.

    The discarded multipliers decay like lambda_k^{-2}; the gate requires
    their sup to sit below 1e-2 of the peak kept multiplier, which the
    default cutoff satisfies for lam up to the hundreds.
    """
    if kmax is None:
        kmax = default_degree_cutoff(params.lam)
    n = sphere.n
    lam_k = np.array([eigenvalue(n, k) for k in range(kmax + 1)])
    coeffs = 1.0 / (params.zeta - lam_k.astype(np.complex128) ** 2)
    peak = float(np.abs(coeffs).max())
    # beyond lambda_k^2 > 2|zeta| the multiplier modulus is monotone
    # decreasing; scan degrees up to that point and bound the rest
    azeta = abs(params.zeta)
    scan_to = kmax + 1 + math.ceil(2.0 * math.sqrt(azeta))
    ks = np.arange(kmax + 1, scan_to + 1)
    lam_tail = ks + (n - 1) / 2.0
    tail_sup = float(np.abs(1.0 / (params.zeta - lam_tail ** 2)).max())
    tail_ratio = tail_sup / peak
    if tail_ratio > _TAIL_RATIO_MAX:
        raise TailDominanceError(
            f"degree cutoff kmax={kmax} too small for lam={params.lam}, "
            f"mu={params.mu}: discarded-tail ratio {tail_ratio:.2e}")
    kernel = ZonalKernel(sphere, coeffs,
                         description=f"resolvent zeta={params.zeta:.6g}")
    return ResolventKernelResult(kernel, kmax, tail_ratio)


def helmholtz_kernel(sphere, params, kmax):
    """Multiplier kernel of the shifted operator itself, zeta - lambda_k^2;
    composing with the resolvent is the identity on band-limited functions."""
    lam_k = np.array([eigenvalue(sphere.n, k) for k in range(kmax + 1)])
    coeffs = params.zeta - lam_k.astype(np.complex128) ** 2
    return ZonalKernel(sphere, coeffs,
                       description=f"helmholtz zeta={params.zeta:.6g}")
