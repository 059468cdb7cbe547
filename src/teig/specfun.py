"""Real-argument special functions for the radial solver, on arrays: the
Bessel pairs (J_nu, J_{nu+1}) and (I_nu, I_{nu+1}) of real order nu >=
-1/2, each up to a positive scale per point that the pair shares.  The
pair gives the derivative too: F' = (nu/x) F - s F_{nu+1}, s = +1 for J
and -1 for I (DLMF 10.6.2, 10.29.2).  J comes from Miller's backward
recurrence for every order and argument: one ladder per argument and block
of 16 orders serves the whole block, in units of P = (x/2)^nu0 /
Gamma(nu0+1) of its base order, rescaled by exact powers of two so nothing
under- or overflows.  All ladders of a call recur together in one loop
over the rungs (_ladders), each keeping only the rungs its points read,
and each point reads its two rungs after the loop (_read).  A ladder's
start depends only on its argument and block, so a point's value does
not depend on the rest of the array.  On request the loop also counts
each ladder's sign changes: the number of sign changes of J_{nu+k}(x),
k >= 0, is the number of zeros of J_nu in (0, x), as those zeros are the
reciprocal eigenvalues of a Jacobi matrix built from the recurrence in
the order and the sequence is its Sturm count (Ikebe, Math. Comp. 29,
1975; Ikebe, Kikuchi & Fujishiro, J. Comput. Appl. Math. 38, 1991), and
a ladder keeps one sign from its start down to the turning point nu ~ x.
I is its all-positive power series, in units of P at the point's own
order.  J serves arguments in [bessel_j_min_arg(ell), 200] and I
arguments up to 60.
"""

import numpy as np

BESSEL_J_MAX_ARG = 200.0
BESSEL_I_MAX_ARG = 60.0

_SERIES_CUTOFF = 1e-18  # term-ratio stopping rule of the I series
_TINY_START = 1e-30  # trial seed for the backward recurrence
_RESCALE = 2.0**500  # ladder values past this are scaled down by it, exactly
_BLOCK = 16  # orders per ladder block; a ladder starts from its argument and block alone
_MAX_STEP = 2.0**60  # largest ladder step factor: 8 rungs grow by at most 2^480 < _RESCALE


def bessel_j_min_arg(ell):
    """Smallest argument x at which the J ladders of the orders nu0 + ell
    (nu0 <= 1/2) stay finite, on arrays of ell.

    The step down to rung j multiplies by 2(nu0 + j + 1)/x, and for x <= 1
    a ladder starts at rung ell + 38 or below, so every factor is at most
    2(ell + 40)/x.  Where that is <= 2^60, eight rungs grow by at most
    2^480, which the 2^-500 rescale every 8 rungs absorbs; far enough
    below, the ladder overflows to inf or NaN.
    """
    return 2.0 * (np.asarray(ell, dtype=float) + 40.0) / _MAX_STEP


def _i_pair(nu, x):
    """(I_nu, I_{nu+1}) / P by the all-positive power series, on arrays, with
    no cancellation.  The two sums run as rows of one array.  A point's term
    is zeroed once it drops below the cutoff relative to its sum, so every
    point stops where a series of its own would, whatever else the array
    holds.
    """
    q = 0.25 * x * x
    shift = np.array((nu, nu + 1.0))  # rows I_nu, I_{nu+1}
    total = np.ones((2,) + x.shape)
    term = q / (shift + 1)
    for m in range(1, 502):
        total += term
        term[term <= _SERIES_CUTOFF * total] = 0.0
        if not term.any():
            break
        term *= q / ((m + 1) * (shift + (m + 1)))
    return np.array((total[0], x / (2.0 * (nu + 1.0)) * total[1]))


def _groups(keys):
    """(order, {key: slice of order}) grouping non-negative ints by value."""
    order = np.argsort(keys, kind="stable")
    ends = np.cumsum(np.bincount(keys)).tolist()
    return order, {k: slice(a, b) for k, (a, b) in enumerate(zip([0, *ends], ends)) if b > a}


def _starts(rung, x):
    """Whether each point (rung, x) starts a ladder: each run of
    consecutive points with equal x and order block b = rung // 16 shares
    one."""
    block = rung // _BLOCK
    new = np.ones(x.size, dtype=bool)
    new[1:] = (x[1:] != x[:-1]) | (block[1:] != block[:-1])
    return new


def _runs(rung, x):
    """The ladders of the points (rung, x) (_starts): the mask of the
    points that start one, each ladder's argument and lowest read rung, and
    the most rungs a ladder keeps (from its lowest read rung to its highest
    plus one; 0 without points)."""
    new = _starts(rung, x)
    start = np.flatnonzero(new)
    low = np.minimum.reduceat(rung, start)
    width = np.max(np.maximum.reduceat(rung, start) - low, initial=-2) + 2
    return new, x[new], low, int(width)


def _ladders(nu0, x, low, width, zeros=False):
    """Run the Miller ladder of every argument x[i] from its start down to
    rung 0, all in one loop over the rungs, keeping rungs low[i] .. low[i]
    + width - 1 of ladder i.

    Ladder i starts with trial values at rung max(x, 16b + 16) + 14 + 6
    x^(1/3) + 2, b = low[i] // 16, and accumulates the normalization sum
    sum_k d_k f_{2k} = s  (J_{nu0+j} = f_j P / s)  by Horner's rule on the
    way down; every 8 rungs a ladder grown past 2^500 is scaled by exactly
    2^-500.  Rung j is kept, as it was before its rescale, in row j % width
    of the ladder's column of one (width, ladders) array.  The columns run
    by lowest kept rung, highest first, so the ladders still keeping at
    rung j are the columns from some k on.  With ``zeros``, the sign
    changes of each ladder from rung j up to its start are counted on the
    way too, one comparison per rung, and kept like rung j (the rescale
    keeps signs).  Returns (column, rungs, rescaled, s, changes): each
    ladder's column, the kept rungs, {step: mask of the columns it
    rescaled} for the steps that rescaled any, s after the last rescale,
    and the kept rungs' sign-change counts (None without ``zeros``).
    """
    order = np.argsort(-low, kind="stable")
    column = np.argsort(order)
    tops = np.maximum(x, _BLOCK * (low // _BLOCK + 1.0)) + 14.0 + 6.0 * x ** (1.0 / 3.0)
    by_top, entries = _groups(tops[order].astype(int) + 2)  # columns by start rung
    two_over_x = 2.0 / x[order]
    low = low[order]
    keeps = np.searchsorted(-low, -np.arange(max(entries) + 1)).tolist()  # first column keeping j
    above = low[0] + width  # no ladder keeps this rung or one above it
    del order, tops, low  # not needed in the loop, which holds the call's peak
    rungs = np.empty((width, two_over_x.size))
    changes = np.empty(rungs.shape, dtype=np.int16) if zeros else None
    rescaled = {}
    f_hi = np.zeros_like(two_over_x)  # f_{j+1}
    f_hi2 = np.zeros_like(two_over_x)  # f_{j+2}
    f = np.empty_like(two_over_x)
    acc = np.zeros_like(two_over_x)  # sum over k >= j/2 of (nu0 + 2k) (d_k / d_{j/2}) f_{2k}
    flips = np.zeros(two_over_x.size, dtype=np.int16)  # sign changes from rung j up
    neg, neg_hi = np.zeros((2, two_over_x.size), dtype=bool)  # f_j < 0, f_{j+1} < 0
    for j in range(max(entries), -1, -1):
        np.multiply(two_over_x, nu0 + j + 1.0, out=f)
        f *= f_hi
        f -= f_hi2
        if j in entries:
            f[by_top[entries[j]]] = _TINY_START
        if j >= 2 and j % 2 == 0:
            k = j // 2
            acc *= (nu0 + k) / (k + 1.0)
            acc += (nu0 + j) * f
        if zeros:
            np.less(f, 0.0, out=neg)
            flips += neg != neg_hi  # a ladder not yet started holds zeros: no change
            neg, neg_hi = neg_hi, neg
        if j < above:
            rungs[j % width, keeps[j] :] = f[keeps[j] :]
            if zeros:
                changes[j % width, keeps[j] :] = flips[keeps[j] :]
        if j % 8 == 0:
            big = np.maximum(np.abs(f), np.abs(acc)) > _RESCALE
            if np.count_nonzero(big):
                shrink = np.where(big, 1.0 / _RESCALE, 1.0)
                f *= shrink
                f_hi *= shrink
                acc *= shrink
                rescaled[j] = big
        f, f_hi, f_hi2 = f_hi2, f, f_hi
    return column, rungs, rescaled, f_hi + acc, changes  # rung 0 after its rescale; d_0 = 1


def _read(ladders, ladder, rung):
    """(J_nu, J_{nu+1}) / P_{nu0} at the orders nu0 + rung of the points on
    ladder ``ladder`` of _ladders, up to 2^(-500 shift), shift the number
    of its rescalings at steps <= rung: rungs rung and rung + 1, with the
    rescale of step rung + 1 re-applied to the second (bit for bit).
    Returns the pairs and the zeros of J_nu in (0, x), the sign changes of
    the ladder from rung up (None for ladders run without ``zeros``)."""
    column, rungs, rescaled, s, changes = ladders
    c = column[ladder]
    row = np.arange(rung.max(initial=0) + 2) % len(rungs) * rungs.shape[1]  # each rung's row
    pair = np.empty((2, rung.size))
    for k in range(2):  # one flat gather per rung keeps the index temporaries small
        rungs.take(row[rung + k] + c, out=pair[k])
    for step, big in rescaled.items():
        pair[1, (rung == step - 1) & big[c]] *= 1.0 / _RESCALE
    pair /= s[c]
    return pair, None if changes is None else changes.take(row[rung] + c)

