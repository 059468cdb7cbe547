"""Real-argument special functions for the radial solver, on arrays:
Bessel J/I of real order >= -1/2 and the n-dimensional radial wave
value/derivative built from them, each up to a positive scale per point.
J comes from Miller's backward recurrence for every order and argument:
one ladder per argument and block of 16 orders serves the whole block, in
units of P = (x/2)^nu0 / Gamma(nu0+1) of its base order, rescaled by exact
powers of two so nothing under- or overflows.  The ladders are read
once: they store every rung a point can read as they recur, and each point
gathers its three rungs after the loop.  A ladder's start depends only on
its argument and block, so a point's value does not depend on the rest of
the array.  I is its all-positive power series, in units of P at
the point's own order.  J serves arguments in [bessel_j_min_arg(ell),
200] and I arguments up to 60.
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


def _i_triplet(nu, x):
    """(I_{nu-1}, I_nu, I_{nu+1}) / P by the all-positive power series, on
    arrays, with no cancellation.

    The nu-1 sum is arranged so no Gamma of a non-positive argument is ever
    formed; it is valid down to nu = -1/2.  The three sums run as rows of
    one array.  A point's term is zeroed once it drops below the cutoff
    relative to its sum, so every point stops where a series of its own
    would, whatever else the array holds.
    """
    q = 0.25 * x * x
    shift = np.array((nu, nu + 1.0, nu - 1.0))  # rows I_nu, I_{nu+1}, I_{nu-1}
    total = np.array((np.ones_like(x), np.ones_like(x), nu))
    term = np.array((q / (nu + 1), q / (shift[1] + 1), q))
    for m in range(1, 502):
        total += term
        term[np.abs(term) <= _SERIES_CUTOFF * (np.abs(total) + 1e-300)] = 0.0
        if not term.any():
            break
        term *= q / ((m + 1) * (shift + (m + 1)))
    return np.array((2.0 / x * total[2], total[0], x / (2.0 * (nu + 1.0)) * total[1]))


def _groups(keys):
    """(order, {key: slice of order}) grouping non-negative ints by value."""
    order = np.argsort(keys, kind="stable")
    ends = np.cumsum(np.bincount(keys)).tolist()
    return order, {k: slice(a, b) for k, (a, b) in enumerate(zip([0, *ends], ends)) if b > a}


def _j_triplet(nu0, ell, x):
    """(triplet, shift) on arrays, with triplet * 2^(-500 shift) equal to
    (J_{nu-1}, J_nu, J_{nu+1})(x) / P_{nu0}(x) at the orders nu = nu0 + ell.

    Each run of consecutive points with equal x and order block b = ell //
    16 shares one ladder, which recurs downward with trial values from rung
    max(x, 16b + 16) + 14 + 6 x^(1/3) + 2 to rung -1.  The normalization
    sum  sum_k d_k f_{2k} = s  (J_{nu0+j} = f_j P / s)  is accumulated by
    Horner's rule on the way down.  Every 8 rungs a ladder grown past 2^500
    is scaled by exactly 2^-500.  The ladders recur in the rows of one array;
    after the loop each point gathers rungs ell - 1, ell and ell + 1 and
    re-applies the rescales of steps ell and ell + 1 in the loop's order
    (bit for bit); its shift counts the rescalings below ell.
    """
    rung = ell.astype(int)
    block = rung // _BLOCK
    new = np.ones(x.size, dtype=bool)
    new[1:] = (x[1:] != x[:-1]) | (block[1:] != block[:-1])
    ladder = np.cumsum(new) - 1
    xs = x[new]
    tops = np.maximum(xs, _BLOCK * (block[new] + 1.0)) + 14.0 + 6.0 * xs ** (1.0 / 3.0)
    by_top, entries = _groups(tops.astype(int) + 2)  # ladders by start rung
    last = int(rung.max()) + 1  # the highest rung a point reads
    rungs = np.empty((last + 2, xs.size))  # rungs -1 .. last, before their rescale
    rescaled = np.zeros((max(entries) // 8 + 1, xs.size), dtype=bool)  # at steps 0, 8, ...
    two_over_x = 2.0 / xs
    f_hi = np.zeros_like(xs)  # f_{j+1}
    f_hi2 = np.zeros_like(xs)  # f_{j+2}
    acc = np.zeros_like(xs)  # sum over k >= j/2 of (nu0 + 2k) (d_k / d_{j/2}) f_{2k}
    for j in range(max(entries), -2, -1):
        f = rungs[j + 1] if j <= last else np.empty_like(xs)  # kept before its rescale
        np.multiply(two_over_x, nu0 + j + 1.0, out=f)
        f *= f_hi
        f -= f_hi2
        if j in entries:
            f[by_top[entries[j]]] = _TINY_START
        if j >= 2 and j % 2 == 0:
            k = j // 2
            acc *= (nu0 + k) / (k + 1.0)
            acc += (nu0 + j) * f
        if j % 8 == 0:
            big = np.maximum(np.abs(f), np.abs(acc)) > _RESCALE
            if big.any():
                shrink = np.where(big, 1.0 / _RESCALE, 1.0)
                f = f * shrink
                f_hi = f_hi * shrink
                acc *= shrink
                rescaled[j // 8] = big
        if j == 0:
            s = f + acc  # d_0 = 1
        f_hi, f_hi2 = f, f_hi
    trip = rungs[rung + np.arange(3)[:, None], ladder]
    at = np.stack((rung, rung + 1))  # steps ell, ell + 1
    factor = np.where((at % 8 == 0) & rescaled[at // 8, ladder], 1.0 / _RESCALE, 1.0)
    trip[2] *= factor[1]
    trip[1:] *= factor[0]
    below = np.vstack((np.zeros(xs.size, dtype=int), np.cumsum(rescaled, axis=0)))
    return trip / s[ladder], below[(rung + 7) // 8, ladder]


def _radial_wave_eval(p, nu0, ell, k, r, oscillatory):
    """Value and radial derivative of r^p F_nu(kr), nu = nu0 + ell, up to a
    positive factor per point, on arrays of orders, wavenumbers and branch
    flags at the scalar radius r.  p = (2-n)/2; F = J (ladders) where
    ``oscillatory``, else I (series); F' = (J_{nu-1}-J_{nu+1})/2 or
    (I_{nu-1}+I_{nu+1})/2."""
    x = k * r
    trip = np.empty((3,) + x.shape)
    if oscillatory.any():
        trip[:, oscillatory] = _j_triplet(nu0, ell[oscillatory], x[oscillatory])[0]
    if not oscillatory.all():
        trip[:, ~oscillatory] = _i_triplet(nu0 + ell[~oscillatory], x[~oscillatory])
    fm1, f0, fp1 = trip
    fprime = 0.5 * np.where(oscillatory, fm1 - fp1, fm1 + fp1)
    rp = r**p
    return rp * f0, rp * (p / r * f0 + k * fprime)
