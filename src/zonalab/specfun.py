"""Special-function layer: Gegenbauer polynomials and zonal kernels on the
round n-sphere.

Conventions
-----------
The degree-k zonal kernel is

    Z_k(t) = c_{n,k} C_k^{(n-1)/2}(t),   c_{n,k} = (2k+n-1) / ((n-1) vol(S^n)),

so that Z_k(1) = N(n,k)/vol(S^n) and <Z_k, Z_m>_{L^2(S^n)} = delta_{km} Z_k(1).
A multiplier kernel is K(t) = sum_k m_k Z_k(t); the degree-k spectral projector
is the kernel with m = e_k.  The addition theorem separates Z_k(x . y) into
polar factors of x and y (`addition_factors`) and the zonal kernels of the
subsphere S^{n-1}.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._core import _rows, geg_eval, geg_table


def gegenbauer(k, alpha, t):
    """Gegenbauer polynomial C_k^alpha(t) on [-1, 1].

    t may be a scalar or an array; the return type matches.  Evaluated by the
    forward three-term recurrence, stable on [-1, 1] for the degrees used here.
    """
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {k!r}")
    if not alpha > 0:
        raise ValueError(f"index alpha must be positive, got {alpha!r}")
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if np.any(np.abs(arr) > 1.0 + 1e-12):
        raise ValueError("argument outside [-1, 1]")
    vals = geg_eval(int(k), float(alpha), np.clip(arr, -1.0, 1.0))
    return float(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


def eigenvalue(n, k):
    """Shifted frequency lambda_k = k + (n-1)/2 of the degree-k harmonics."""
    if n < 2 or k < 0:
        raise ValueError(f"need n >= 2 and k >= 0, got n={n}, k={k}")
    return k + (n - 1) / 2


def sphere_volume(n):
    """Surface volume of the unit n-sphere, 2 pi^{(n+1)/2} / Gamma((n+1)/2)."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def zonal_value(n, k, t):
    """Zonal kernel value Z_k(t) = c_{n,k} C_k^{(n-1)/2}(t)."""
    c = (2 * k + n - 1) / ((n - 1) * sphere_volume(n))
    return c * gegenbauer(k, (n - 1) / 2, t)


def zonal_table(n, kmax, t):
    """Rows Z_m(t) for m = 0..kmax over a point array t, shape (kmax+1, len(t))."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    tab = geg_table(int(kmax), (n - 1) / 2, t)
    ks = np.arange(kmax + 1)
    c = (2 * ks + n - 1) / ((n - 1) * sphere_volume(n))
    tab *= c[:, None]
    return tab


# pi - fl(pi), the part of pi that np.pi drops
_PI_TAIL = 1.2246467991473532e-16
# values per block of closed-form rows that zonal_rows computes at once
_ROWS_BLOCK = 2 ** 12


def zonal_rows(n, degrees, theta):
    """Yield (k, Z_k(cos theta), Z_k(1)) for each of the increasing
    `degrees`, at the polar angles theta in [0, pi].  A yielded row is a
    buffer that later steps may overwrite.

    On S^3 the rows are in closed form (DLMF 18.5, C_k^1 = U_k):

        Z_k(cos theta) = (k+1) sin((k+1) theta) / (2 pi^2 sin theta),
        Z_k(1) = (k+1)^2 / (2 pi^2),

    one sine per node and degree over a divisor taken once per call, for a
    block of degrees at a time (at most _ROWS_BLOCK values).  A node past
    pi/2 is taken at phi = pi - theta, to double precision, and its value
    times (-1)^k, so the sine's argument is rounded relative to the node's
    distance from its nearer pole.  On every other sphere one Gegenbauer
    recurrence runs over cos theta with t = 1 appended; its kept rows are
    scaled by c_{n,k}, the bits of the rows of `zonal_table`.
    """
    theta = np.asarray(theta, dtype=np.float64)
    degrees = np.asarray(degrees, dtype=np.intp)
    if not degrees.size:
        return
    if n != 3:
        t = np.append(np.cos(theta), 1.0)
        c = (2 * degrees + n - 1) / ((n - 1) * sphere_volume(n))
        scale = dict(zip(degrees.tolist(), c))
        for m, row in enumerate(_rows(int(degrees[-1]), (n - 1) / 2, t)):
            if m in scale:
                z = row * scale[m]
                yield m, z[:-1], z[-1]
        return
    far = theta > np.pi / 2
    # pi - theta is exact there; adding the tail keeps it exact to rounding
    phi = np.where(far, (np.pi - theta) + _PI_TAIL, theta)
    sign = np.where(far, -1.0, 1.0) if far.any() else None
    pole = np.flatnonzero(phi == 0.0)
    with np.errstate(divide="ignore"):
        divisor = 1.0 / (2.0 * math.pi ** 2 * np.sin(phi))
    # theta = 0, where each row is set to Z_k(1)
    divisor[pole] = 0.0
    step = min(degrees.size, max(1, _ROWS_BLOCK // max(1, phi.size)))
    buf = np.empty((step, phi.size))
    for start in range(0, degrees.size, step):
        ks = degrees[start:start + step]
        m = ks + 1.0
        z1 = m * m / (2.0 * math.pi ** 2)
        block = np.multiply.outer(m, phi, out=buf[:ks.size])
        np.sin(block, out=block)
        block *= divisor
        block *= m[:, None]
        if sign is not None:
            block[ks % 2 == 1] *= sign
        block[:, pole] = z1[:, None]
        yield from zip(ks.tolist(), block, z1.tolist())


# factor by which addition_factors rescales a column whose recurrence grows
_RESCALE_EXP = 400
_RESCALE = 2.0 ** _RESCALE_EXP


def addition_factors(n, k, theta):
    """Factors A_m(theta), m = 0..k, of the Gegenbauer addition theorem on S^n,
    shape (k+1, len(theta)):

        Z_k(cos ti cos tj + sin ti sin tj cos phi)
            = sum_m A_m(ti) A_m(tj) Z^{S^{n-1}}_m(cos phi),

    A_m(theta) = sin^m(theta) C_{k-m}^{alpha+m}(cos theta)
                 / sqrt(h_{k-m}^{alpha+m})
    with alpha = (n-1)/2 and h the Gegenbauer norm (DLMF 18.18.8); the
    functions A_m(theta) Y(xi), Y orthonormal on S^{n-1}, are orthonormal on
    S^n, so sum_i w_i A_m(ti)^2 = vol(S^{n-1}) on an exact grid.

    sin^m and C^{alpha+m} overflow and underflow apart, so A_m is computed as
    the fully normalized associated Legendre functions are (Holmes &
    Featherstone 2002, J. Geodesy 76): a diagonal start
    sin^m / sqrt(h_0^{alpha+m}) by a recurrence in m, then the orthonormal
    three-term recurrence in the degree, k - m steps for column m, all
    columns at once.  Each value runs as a mantissa and a power of two, so
    a start far below the float range still grows into the right value.
    """
    alpha = (n - 1) / 2
    theta = np.asarray(theta, dtype=np.float64)
    t, u = np.cos(theta), np.sin(theta)
    lam = alpha + np.arange(k + 1)
    cur = np.empty((k + 1, theta.size))
    expo = np.zeros((k + 1, theta.size), dtype=np.int64)
    # d_m = d_{m-1} sin(theta) sqrt(h_0^{lam-1} / h_0^{lam}), and
    # h_0^{lam-1} / h_0^{lam} = lam / (lam - 1/2)
    cur[0] = math.sqrt(math.gamma(alpha + 1.0) / (
        math.sqrt(math.pi) * math.gamma(alpha + 0.5)))
    for m in range(1, k + 1):
        cur[m], e = np.frexp(cur[m - 1] * u
                             * math.sqrt(lam[m] / (lam[m] - 0.5)))
        expo[m] = expo[m - 1] + e
    # p_j = (t p_{j-1} - a_{j-1} p_{j-2}) / a_j, with
    # a_j^2 = j (j + 2 lam - 1) / (4 (j + lam) (j + lam - 1)); column m takes
    # k - m steps, so row k - j leaves the block after step j
    prev = np.zeros_like(cur)
    a_prev = np.zeros(k + 1)
    out = np.empty_like(cur)
    out[k] = cur[k]
    for j in range(1, k + 1):
        rows = k + 1 - j
        lm = lam[:rows]
        a = 0.5 * np.sqrt(j * (j + 2.0 * lm - 1.0)
                          / ((j + lm) * (j + lm - 1.0)))
        nxt = prev[:rows]
        nxt *= -a_prev[:rows, None]
        nxt += t * cur[:rows]
        nxt /= a[:, None]
        prev, cur = cur, prev
        a_prev[:rows] = a
        if nxt.max() > _RESCALE or nxt.min() < -_RESCALE:
            big = np.abs(nxt) > _RESCALE
            nxt[big] /= _RESCALE
            prev[:rows][big] /= _RESCALE
            expo[:rows][big] += _RESCALE_EXP
        out[rows - 1] = nxt[rows - 1]
    return np.ldexp(out, expo)


@dataclass(frozen=True)
class SphereSpec:
    """The round sphere S^n with its derived constants."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"sphere dimension must be >= 2, got {self.n}")

    @property
    def subsphere_volume(self):
        # vol(S^{n-1}), the total weight of the polar quadrature rule
        return sphere_volume(self.n - 1)


@dataclass(frozen=True, eq=False)
class ZonalKernel:
    """A zonal convolution kernel K(t) = sum_k coeffs[k] Z_k(t)."""

    sphere: SphereSpec
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs))
        if coeffs.ndim != 1 or coeffs.shape[0] == 0:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def max_degree(self):
        return self.coeffs.shape[0] - 1

    def values(self, t):
        """Pointwise kernel values sum_k m_k Z_k(t) at cosines t."""
        t = np.atleast_1d(np.asarray(t, dtype=np.float64))
        return self.coeffs @ zonal_table(self.sphere.n, self.max_degree, t)


def projector_kernel(sphere, k):
    """Kernel of the projector onto degree-k spherical harmonics."""
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    return ZonalKernel(sphere, coeffs)
