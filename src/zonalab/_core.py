"""Gegenbauer recurrence kernels over 1-D float64 point arrays.

Forward three-term recurrence
    m C_m = 2 (m + a - 1) t C_{m-1} - (m + 2a - 2) C_{m-2},
C_0 = 1, C_1 = 2 a t.  geg_eval runs it in place over blocks of BLOCK points,
so its working set stays in cache and no step allocates; geg_table keeps whole
rows.  Both run the same operations in the same order, so geg_eval(k, a, t)
equals row k of geg_table(kmax, a, t) bit for bit.
"""

import numpy as np

# points per geg_eval block: a block's slice of t and its three buffers
# (512 KiB) stay in cache across the k recurrence steps
BLOCK = 16384


def geg_eval(k, alpha, t):
    """Values of C_k^alpha at the points t, shape (len(t),)."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    if k == 0:
        return np.ones_like(t)
    if k == 1:
        return 2.0 * alpha * t
    out = np.empty_like(t)
    bufs = np.empty((3, min(BLOCK, t.shape[0])))
    for start in range(0, t.shape[0], BLOCK):
        tb = t[start:start + BLOCK]
        prev, cur, tmp = bufs[:, :tb.shape[0]]
        prev.fill(1.0)
        np.multiply(2.0 * alpha, tb, out=cur)
        for m in range(2, k + 1):
            np.multiply(2.0 * (m + alpha - 1.0), tb, out=tmp)
            tmp *= cur
            prev *= m + 2.0 * alpha - 2.0
            np.subtract(tmp, prev, out=prev)
            np.divide(prev, m, out=prev)
            prev, cur = cur, prev
        out[start:start + BLOCK] = cur
    return out


def geg_table(kmax, alpha, t):
    """Table of C_m^alpha for m = 0..kmax, shape (kmax+1, len(t))."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty((kmax + 1, t.shape[0]))
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 2.0 * alpha * t
    for m in range(2, kmax + 1):
        out[m] = (2.0 * (m + alpha - 1.0) * t * out[m - 1]
                  - (m + 2.0 * alpha - 2.0) * out[m - 2]) / m
    return out
