"""Gegenbauer recurrence kernels over 1-D float64 point arrays.

Forward three-term recurrence
    m C_m = 2 (m + a - 1) t C_{m-1} - (m + 2a - 2) C_{m-2},
C_0 = 1, C_1 = 2 a t.  geg_eval and geg_table run the same operations in the
same order, so geg_eval(k, a, t) equals row k of geg_table(kmax, a, t) bit for
bit.
"""

import numpy as np


def geg_eval(k, alpha, t):
    """Values of C_k^alpha at the points t, shape (len(t),)."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    prev = np.ones_like(t)
    if k == 0:
        return prev
    cur = 2.0 * alpha * t
    for m in range(2, k + 1):
        prev, cur = cur, (2.0 * (m + alpha - 1.0) * t * cur
                          - (m + 2.0 * alpha - 2.0) * prev) / m
    return cur


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
