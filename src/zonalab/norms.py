"""Lebesgue and weak-type norms of zonal grid functions.

All norms are taken against the grid's quadrature measure, so the exact
discrete identities hold: an indicator of node set E has L^p norm
mu(E)^{1/p} and weak-L^q norm mu(E)^{1/q}, with mu the grid measure of E.
The restricted weak-type argument feeds only such indicators, so their
L^{p,1} norm is that same closed form mu(E)^{1/p} and needs no layer cake.

One kernel, `weighted_lp`, takes every L^p norm: of a vector, of each column
of a block, and (through the transpose) of each row of a matrix.  It copies
|v| once and scales and powers that copy in place.  The power ascent also
needs the duality map of what it measures; `weighted_lp_dual` takes the norm
and the map from one power.
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


def weighted_lp_dual(w, v, p):
    """(L^p norm, duality map, power sum) of node values v against node
    weights w, from one power; 1 <= p < inf.

    v is a vector, or a (nodes, m) block taken column by column.  With
    a = |v| / max|v| and b = a^{p-1}, the power sum is T = sum_i w_i b_i a_i
    and the norm max|v| T^{1/p}.  The duality map b sgn(conj v) is
    |v|^{p-1} sgn(conj v) divided by max|v|^{p-1}, so no exponent overflows;
    its L^{p'} norm is T^{1/p'}, as b^{p'} = a^p.  A zero column has norm,
    map and sum 0.
    """
    a = np.abs(v)
    peak = a.max(axis=0)
    # sgn(conj v), 0 where v = 0; v / |v| is exactly +-1 for real v
    if np.iscomplexobj(v):
        sgn = np.divide(np.conj(v), a, out=np.zeros_like(v), where=a > 0)
    else:
        sgn = np.sign(v)
    a /= np.where(peak > 0, peak, 1.0)
    b = a ** (p - 1.0)
    total = w @ (b * a)
    return peak * total ** (1.0 / p), b * sgn, total


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


def set_sweep(w, v, x):
    """(sup over non-empty node sets E of |sum_E w v| / mu(E)^x, the level
    of v at the edge of the attaining set {sign v >= level}, its measure,
    node count and sign) for node weights w and 0 < x < 1.

    sum_E w v <= F(mu(E)) = int_0^{mu(E)} v*.  F is concave, F(0) = 0, so
    between breakpoints F = a + b mu with a >= 0, and F / mu^x peaks at a
    breakpoint, where a superlevel set attains F: one descending pass over
    v and one over -v give the sup exactly.
    """
    best = (-math.inf,)
    for sign in (1, -1):
        order = np.argsort(-sign * v, kind="stable")
        desc, cumw = sign * v[order], np.cumsum(w[order])
        scores = np.cumsum(w[order] * desc) / cumw ** x
        # only the last index of a run of equal values is a breakpoint
        last = np.nonzero(np.diff(desc, append=-np.inf))[0]
        i = last[int(np.argmax(scores[last]))]
        if scores[i] > best[0]:
            best = (float(scores[i]), float(desc[i]), float(cumw[i]),
                    int(i) + 1, sign)
    return best


def weak_lq(f, q):
    """Weak-L^q norm sup_t t mu(|f| > t)^{1/q} against the grid measure."""
    if q < 1:
        raise ValueError(f"exponent must be >= 1, got {q}")
    return weak_sweep(f.grid.weights, f.values, q)[0]
