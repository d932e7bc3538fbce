"""Lebesgue and weak-type norms of zonal grid functions.

All norms are taken against the grid's quadrature measure, so the exact
discrete identities hold: an indicator of node set E has L^p norm
mu(E)^{1/p} and weak-L^q norm mu(E)^{1/q}, with mu the grid measure of E.
The restricted weak-type argument feeds only such indicators, so their
L^{p,1} norm is that same closed form mu(E)^{1/p} and needs no layer cake.

One kernel, `weighted_lp`, takes every L^p norm: of a vector, of each column
of a block, and (`weighted_row_lp`, through the transpose) of each row of a
matrix.  It copies |v| once and scales and powers that copy in place.
"""

import math

import numpy as np


def weighted_lp(w, v, p):
    """L^p norm of node values v against node weights w; p may be inf.

    v is a vector, or a (nodes, m) block whose m column norms are returned
    as an array.  Each column of |v| is divided by its max and raised to p
    in place, so no exponent overflows and no second copy of v is made.
    """
    a = np.abs(v)
    peak = a.max(axis=0)
    if not math.isinf(p):
        a /= np.where(peak > 0, peak, 1.0)
        np.power(a, p, out=a)
        peak = peak * (w @ a) ** (1.0 / p)
    return float(peak) if v.ndim == 1 else peak


def weighted_row_lp(w, A, p):
    """weighted_lp of every row of A."""
    return weighted_lp(w, A.T, p)


def lp_norm(f, p):
    """L^p norm against the grid measure; p may be inf."""
    if p < 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    return weighted_lp(f.grid.weights, f.values, p)


def weak_sweep(w, v, q):
    """(weak-L^q norm, attaining level, its superlevel measure) of node
    values v under node weights w.

    The norm is sup_t t mu(|v| > t)^{1/q}.  mu is a right-continuous step
    function of t, so the sup is attained just below an achieved node value
    level, where mu(|v| > t) = mu(|v| >= level); only the achieved values
    need to be scanned, in descending order with the weights summed down.
    """
    absval = np.abs(v)
    order = np.argsort(absval)[::-1]
    desc = absval[order]
    cumw = np.cumsum(w[order])
    # last index of each run of equal values gives mu(|v| >= value)
    last = np.nonzero(np.diff(desc, append=-1.0))[0]
    levels, mass = desc[last], cumw[last]
    scores = levels * mass ** (1.0 / q)
    i = int(np.argmax(scores))
    return float(scores[i]), float(levels[i]), float(mass[i])


def weak_lq(f, q):
    """Weak-L^q norm sup_t t mu(|f| > t)^{1/q} against the grid measure."""
    if q < 1:
        raise ValueError(f"exponent must be >= 1, got {q}")
    return weak_sweep(f.grid.weights, f.values, q)[0]
