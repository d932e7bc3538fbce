"""Gegenbauer recurrence kernels over float64 point arrays.

Forward three-term recurrence
    m C_m = 2 (m + a - 1) t C_{m-1} - (m + 2a - 2) C_{m-2},
C_0 = 1, C_1 = 2 a t.  One generator, _rows, runs it in place over three
buffers, so no step allocates; geg_eval keeps its last row, geg_table
(1-D points) copies every row, `specfun.zonal_rows` scales the rows of
the degrees it is asked for off S^3, and the azimuthal antiderivative of
`operators.AzimuthalSpectrum` sums the rows as they come.  geg_eval and
geg_table therefore run the same operations in the same order, and
geg_eval(k, a, t) equals row k of geg_table(kmax, a, t) bit for bit.
"""

import numpy as np


def _rows(kmax, alpha, t):
    """Yield C_m^alpha(t) for m = 0..kmax in turn.  The rows rotate through
    three buffers, so a yielded row is overwritten two steps later."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    prev = np.ones_like(t)
    yield prev
    if kmax == 0:
        return
    cur = 2.0 * alpha * t
    yield cur
    tmp = np.empty_like(t)
    for m in range(2, kmax + 1):
        np.multiply(2.0 * (m + alpha - 1.0), t, out=tmp)
        tmp *= cur
        prev *= m + 2.0 * alpha - 2.0
        np.subtract(tmp, prev, out=prev)
        np.divide(prev, m, out=prev)
        prev, cur = cur, prev
        yield cur


def geg_eval(k, alpha, t):
    """Values of C_k^alpha at the points t, shape (len(t),)."""
    for row in _rows(k, alpha, t):
        pass
    return row


def geg_table(kmax, alpha, t):
    """Table of C_m^alpha for m = 0..kmax, shape (kmax+1, len(t))."""
    out = np.empty((kmax + 1, np.shape(t)[0]))
    for m, row in enumerate(_rows(kmax, alpha, t)):
        out[m] = row
    return out
