"""Dyadic decomposition of projector kernels and piece-norm scaling.

The degree-k kernel Z_k is cut into angular annuli theta ~ 2^j / lambda_k.
The cutting profile is the half-open dyadic indicator 1_{(1/2, 1]}: its
dilates tile (0, inf) exactly, so the pieces reconstruct the kernel to the
bit and each piece j >= 1 is supported exactly on
(2^{j-1}/lambda_k, 2^j/lambda_k].  (A smooth profile supported inside one
dyadic block cannot sum to 1 over dilates; the indicator is the profile that
satisfies the support and partition requirements simultaneously.)  The flat
piece j = 0 keeps everything at theta <= 1/lambda_k.  The grid decides the
dimension: the pieces cut Z_k on the grid's sphere.

Piece operators integrate the azimuthal average only over the annulus.  All
pieces of one degree share one azimuthal spectrum of Z_k, built on first use
from the addition theorem; each piece integrates it exactly between the
azimuths of its annulus edges, so the piece matrices sum to the spectral
e_k e_k^T up to rounding.  `piece_norm_slopes` builds each piece once, in
order of j, so an edge shared by two annuli is summed once, and at most one
piece matrix and two edges are held at a time; as the pieces sum to the
rank-one H_k, the restricted weak-type image is taken from H_k itself.

The fit (`PieceNormFit`) carries the Stein points it was measured at and
screens its pieces against its own lines; `least_fit_degree` is the one rule
for the degrees it can fit: `fit_range` must hold at least two pieces.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .exponents import ExponentPoint, stein_point
from .operators import (AzimuthalSpectrum, ZonalOperator, azimuthal_matrix,
                        norm_lower)
from .specfun import eigenvalue, zonal_value

# points per window of envelope_check
_SAMPLES = 4096


def piece_count(n, k):
    """Top dyadic index J = ceil(log2(pi lambda_k)); pieces run 0..J, the
    last one the first whose annulus reaches theta = pi."""
    lam = eigenvalue(n, k)
    return math.ceil(math.log2(math.pi * lam))


@dataclass(frozen=True, eq=False)
class DyadicPiece:
    """One annular piece T_j of a projector kernel."""

    base: int                 # degree k of the parent kernel
    j: int
    support: tuple            # (lo, hi]; the piece vanishes outside
    grid: object
    spectrum: AzimuthalSpectrum   # of Z_k on the grid, shared by all pieces

    def profile(self, gamma, cos_gamma):
        """The piece's kernel at relative angles gamma.  No library code
        calls it; it stays for the tracer's span alone."""
        lo, hi = self.support
        zk = zonal_value(self.grid.sphere.n, self.base, cos_gamma)
        return zk * ((gamma > lo) & (gamma <= hi))

    def operator(self):
        return ZonalOperator(self.grid,
                             azimuthal_matrix(self.spectrum, self.support))


def dyadic_decompose(k, grid):
    """All pieces j = 0..J of the degree-k projector kernel on the grid."""
    if k > grid.kexact:
        raise ValueError(
            f"degree {k} exceeds grid exactness {grid.kexact}")
    lam = eigenvalue(grid.sphere.n, k)
    J = piece_count(grid.sphere.n, k)
    spectrum = AzimuthalSpectrum(grid, k)
    pieces = []
    for j in range(J + 1):
        if j == 0:
            lo, hi = 0.0, 1.0 / lam
        else:
            lo, hi = 2.0 ** (j - 1) / lam, 2.0 ** j / lam
        pieces.append(DyadicPiece(base=k, j=j, support=(lo, hi), grid=grid,
                                  spectrum=spectrum))
    return pieces


def fit_range(n, k):
    """The j over which the norm scaling in j is fitted at degree k.

    The fit is restricted to the middle dyadic range.  An annulus enters the
    fit only when it is wide enough to contain a full half oscillation of the
    kernel, lam * width = 2^(j-1) >= pi; narrower annuli near the pole sit in
    a pre-asymptotic regime and would bias the slope.  The top annulus J,
    clipped at the far pole, is dropped.
    """
    return range(math.ceil(math.log2(math.pi)) + 1, piece_count(n, k))


def least_fit_degree(n):
    """The least degree whose `fit_range` holds at least two pieces, the
    fewest a line is fitted through; every higher degree holds more."""
    return next(k for k in itertools.count() if len(fit_range(n, k)) >= 2)


# a measured piece norm above this multiple of its fitted exponential
# envelope is reported as a hypothesis violation
ENVELOPE_FACTOR = 1.6


@dataclass
class PieceNormFit:
    growth: ExponentPoint      # the size endpoint Q
    decay: ExponentPoint       # the oscillation endpoint P
    js: np.ndarray
    norms_growth: np.ndarray   # at Q
    norms_decay: np.ndarray    # at P
    slope_growth: float
    slope_decay: float
    intercept_growth: float    # log2 of the fitted prefactor
    intercept_decay: float
    residual_growth: float
    residual_decay: float

    def violations(self):
        """The j whose measured norm sits above its fitted line by more than
        ENVELOPE_FACTOR, at Q or at P."""
        line_g = 2.0 ** (self.intercept_growth + self.slope_growth * self.js)
        line_d = 2.0 ** (self.intercept_decay + self.slope_decay * self.js)
        over = ((self.norms_growth > ENVELOPE_FACTOR * line_g)
                | (self.norms_decay > ENVELOPE_FACTOR * line_d))
        return [int(j) for j in self.js[over]]


def fit_line(x, y):
    """Least-squares line y = slope x + intercept.

    Returns (slope, intercept, rms residual).
    """
    coeff, res = np.polyfit(x, y, 1, full=True)[:2]
    rms = math.sqrt(res[0] / len(x)) if len(res) else 0.0
    return float(coeff[0]), float(coeff[1]), rms


def piece_norm_slopes(k, sigma, grid, restarts=8, seed=1):
    """Measure ||T_j|| at the Stein points P and Q and fit log2-slopes in j.

    The degree must leave at least two pieces in `fit_range`, so that a
    middle range remains after the pre-asymptotic annuli near the pole and
    the clipped one at the far pole are dropped (`least_fit_degree`);
    ValueError otherwise, before any piece is built.

    Each piece j = 0..J is built once, measured if it is fitted, and
    dropped.  Returns the `PieceNormFit`.
    """
    n = grid.sphere.n
    least = least_fit_degree(n)
    if k < least:
        raise ValueError(f"degree {k} leaves fewer than two dyadic pieces "
                         f"to fit at n = {n}; the fit needs k >= {least}")
    pieces = dyadic_decompose(k, grid)
    js = fit_range(n, k)
    p_pt, q_pt = stein_point(n, sigma)
    norms = []
    # every piece is built, as the benchmark's piece_sum_err sums them all
    for piece in pieces:
        op = piece.operator()
        if piece.j in js:
            norms.append([norm_lower(op, pt.r, pt.s, restarts=restarts,
                                     seed=seed).value for pt in (q_pt, p_pt)])
        del op  # before the next piece is built
    js = np.asarray(js, dtype=np.float64)
    nq, npp = np.array(norms).T
    if np.any(nq <= 0) or np.any(npp <= 0):
        raise NumericalError("vanishing piece norm; cannot fit slopes")
    sg, ig, rg = fit_line(js, np.log2(nq))
    sd, idc, rd = fit_line(js, np.log2(npp))
    return PieceNormFit(q_pt, p_pt, js, nq, npp, sg, sd, ig, idc, rg, rd)


# ---------------------------------------------------------------------------
# kernel envelope constants

@dataclass
class EnvelopeConstants:
    c_flat: float       # sup |Z_k| / k^{n-1} = Z_k(1) / k^{n-1}
    c_osc: float        # sup |Z_k| theta^{(n-1)/2} / lambda^{(n-1)/2} mid-range
    c_antipodal: float  # same with pi - theta near the far pole


def envelope_check(sphere, k):
    """Constants of the pointwise kernel envelope at degree k: c_flat exact,
    as |Z_k| peaks at t = 1, and c_osc sampled on its window.

    The antipodal window [pi/4, pi - 1/lambda] is the mirror image of the
    oscillatory one [1/lambda, 3 pi/4], and Z_k(-t) = (-1)^k Z_k(t), so
    c_antipodal, the same sup with pi - theta, equals c_osc by parity."""
    if k < 1:
        raise ValueError("envelope constants need degree k >= 1")
    n = sphere.n
    lam = eigenvalue(n, k)
    half = (n - 1) / 2
    th_osc = np.linspace(1.0 / lam, 0.75 * np.pi, _SAMPLES)
    # one recurrence over the window and t = 1; it runs elementwise, so the
    # window and Z_k(1) get the bits of a recurrence over them alone
    z = zonal_value(n, k, np.append(np.cos(th_osc), 1.0))
    c_flat = z[-1] / k ** (n - 1)
    c_osc = np.abs(z[:-1] * th_osc ** half).max() / lam ** half
    return EnvelopeConstants(float(c_flat), float(c_osc), float(c_osc))
