"""Real-argument special functions for the radial solver.

Bessel J/I of real order >= -1/2 and the n-dimensional radial wave
value/derivative built from them.  Gamma comes from the standard library.

All Bessel evaluations run internally in "prefactor units": the routines
return F_nu(x) divided by P = (x/2)^nu / Gamma(nu+1), which keeps every
intermediate O(1) even when the actual function value under- or overflows
for large order or tiny argument.  The public entry points multiply the
prefactor back in.

J is summed by its power series only while the alternating terms cannot
cancel catastrophically (small argument, or terms decaying from the first
one); elsewhere it switches to Miller's backward recurrence with the
standard (x/2)^nu normalization sum.  I has all-positive terms, so its
series is used on the whole admissible window.

The kernels run on numpy arrays of (order, argument) points, and a point's
value does not depend on the other points of the array.  The scalar entry
points bessel_j, bessel_i and radial_wave are thin wrappers over them.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArgumentOutOfRange, NonPositiveArgument

BESSEL_J_MAX_ARG = 200.0
BESSEL_I_MAX_ARG = 60.0

_SERIES_CUTOFF = 1e-18  # term-ratio stopping rule for all series below
_TINY_START = 1e-30  # trial seed for the backward recurrence
_RESCALE = 2.0**500  # ladder values past this are scaled down by it, exactly


def _log_prefactor(nu, x):
    """log of P = (x/2)^nu / Gamma(nu+1) for x > 0, nu > -1."""
    return nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)


def _series_triplet(nu, x, sign):
    """(F_{nu-1}, F_nu, F_{nu+1}) / P by direct series, on arrays.

    sign = -1.0 gives J (alternating), +1.0 gives I.  The nu-1 sum is
    arranged so no Gamma of a non-positive argument is ever formed; it is
    valid down to nu = -1/2 and reproduces J_{-1} = -J_1 at integer nu.
    The three sums run as rows of one array.  A point's term is zeroed once
    it drops below the cutoff relative to its sum, so every point stops
    where a series of its own would, whatever else the array holds.
    """
    q = sign * (0.25 * x * x)
    shift = np.array((nu, nu + 1.0, nu - 1.0))  # rows F_nu, F_{nu+1}, F_{nu-1}
    total = np.array((np.ones_like(x), np.ones_like(x), nu))
    term = np.array((q / (nu + 1), q / (shift[1] + 1), q))
    for m in range(1, 502):
        total += term
        term[np.abs(term) <= _SERIES_CUTOFF * (np.abs(total) + 1e-300)] = 0.0
        if not term.any():
            break
        term *= q / ((m + 1) * (shift + (m + 1)))
    return np.array((2.0 / x * total[2], total[0], x / (2.0 * (nu + 1.0)) * total[1]))


def _miller_triplet(nu, x):
    """(J_{nu-1}, J_nu, J_{nu+1}) / P by backward recurrence, on arrays.

    Each point recurses downward from its own order nu + M, M = max(nu, x)
    + 14 + 6 x^(1/3), with trial values, then rescales with the
    normalization sum  sum_k d_k f_{2k} = s  for which J_{nu+j} = f_j P / s.
    One ladder runs to the largest M of the call; a point enters it at its
    own M, so its value does not depend on the rest of the array.  The sum
    is accumulated by Horner's rule on the way down, and the ladder is
    scaled by an exact power of two wherever it grows past 2^500.
    """
    m_tops = (x + (14.0 + 6.0 * x ** (1.0 / 3.0)) + np.maximum(0.0, nu - x)).astype(int) + 2
    order = np.argsort(-m_tops, kind="stable")
    nu, x, m_tops = nu[order], x[order], m_tops[order]
    neg_tops, firsts = np.unique(-m_tops, return_index=True)
    entries = {  # ladder step -> the points that enter the ladder there
        -int(t): slice(a, b) for t, a, b in zip(neg_tops, firsts, [*firsts[1:], len(x)])
    }
    nu2 = 2.0 * nu
    f_hi = np.zeros_like(x)  # f_{j+1}
    f_hi2 = np.zeros_like(x)  # f_{j+2}
    acc = np.zeros_like(x)  # sum over k >= j/2 of (nu + 2k) (d_k / d_{j/2}) f_{2k}
    for j in range(int(m_tops[0]), -1, -1):
        f = (nu2 + 2.0 * (j + 1)) / x * f_hi - f_hi2
        if j in entries:
            f[entries[j]] = _TINY_START
        if j >= 2 and j % 2 == 0:
            k = j // 2
            acc = (nu + j) * f + (nu + k) / (k + 1.0) * acc
        if j % 8 == 0:
            big = np.maximum(np.abs(f), np.abs(acc)) > _RESCALE
            if big.any():
                shrink = np.where(big, 1.0 / _RESCALE, 1.0)
                f *= shrink
                f_hi *= shrink
                acc *= shrink
        f_hi, f_hi2 = f, f_hi
    s = f_hi + acc  # d_0 = 1
    f0 = f_hi / s
    fp1 = f_hi2 / s
    out = np.empty((3,) + x.shape)
    out[:, order] = ((2.0 * nu / x) * f0 - fp1, f0, fp1)
    return out


def _split(mask, nu, x, on_true, on_false):
    """Triplets from ``on_true`` where ``mask`` holds and ``on_false``
    elsewhere, each evaluated only on its own points."""
    if mask.all():
        return on_true(nu, x)
    if not mask.any():
        return on_false(nu, x)
    out = np.empty((3,) + x.shape)
    out[:, mask] = on_true(nu[mask], x[mask])
    out[:, ~mask] = on_false(nu[~mask], x[~mask])
    return out


def _j_series(nu, x):
    return _series_triplet(nu, x, -1.0)


def _j_triplet(nu, x):
    """(J_{nu-1}, J_nu, J_{nu+1}) / P on arrays, with the series/Miller
    switch made per point."""
    series = (x <= 8.0) | (x * x <= 2.0 * (nu + 1.0))
    return _split(series, nu, x, _j_series, _miller_triplet)


def _i_triplet(nu, x):
    """(I_{nu-1}, I_nu, I_{nu+1}) / P; all-positive series, no cancellation."""
    return _series_triplet(nu, x, 1.0)


def _radial_wave_eval(p, nu, k, r, oscillatory):
    """Value and radial derivative of r^p F_nu(kr) divided by the Bessel
    prefactor, on arrays of orders ``nu``, wavenumbers ``k`` and branch
    flags ``oscillatory`` at the scalar radius ``r``.

    p = (2-n)/2; F = J on the oscillatory branch, I on the evanescent one.
    F' comes from the symmetric two-order recurrences (J_{nu-1}-J_{nu+1})/2
    and (I_{nu-1}+I_{nu+1})/2.
    """
    fm1, f0, fp1 = _split(oscillatory, nu, k * r, _j_triplet, _i_triplet)
    fprime = 0.5 * np.where(oscillatory, fm1 - fp1, fm1 + fp1)
    rp = r**p
    return rp * f0, rp * (p / r * f0 + k * fprime)


class Branch(Enum):
    OSCILLATORY = "oscillatory"
    EVANESCENT = "evanescent"


@dataclass(frozen=True)
class RadialWave:
    """Radial factor r^{(2-n)/2} F_nu(kr) with nu = (n-2)/2 + ell."""

    dim: int
    ell: int
    branch: Branch = Branch.OSCILLATORY

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ArgumentOutOfRange(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.ell < 0:
            raise ArgumentOutOfRange(f"ell must be >= 0, got {self.ell}")

    @property
    def order(self):
        return 0.5 * (self.dim - 2) + self.ell


def gamma_real(x):
    """Gamma function for x > 0, from the standard library."""
    if not x > 0.0:
        raise NonPositiveArgument(f"gamma_real requires x > 0, got {x}")
    try:
        return math.gamma(float(x))
    except OverflowError:
        raise ArgumentOutOfRange(f"gamma_real({x}) overflows a double") from None


def _check_bessel_args(nu, x, x_max, name):
    if nu < -0.5:
        raise ArgumentOutOfRange(f"{name}: order must be >= -1/2, got {nu}")
    if not 0.0 <= x <= x_max:
        raise ArgumentOutOfRange(f"{name}: argument {x} outside [0, {x_max}]")


def bessel_j(nu, x):
    """Bessel J_nu(x) for nu >= -1/2, 0 <= x <= 200."""
    nu = float(nu)
    x = float(x)
    _check_bessel_args(nu, x, BESSEL_J_MAX_ARG, "bessel_j")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    _, f0, _ = _j_triplet(np.array([nu]), np.array([x]))
    return float(f0[0] * math.exp(_log_prefactor(nu, x)))


def bessel_i(nu, x):
    """Modified Bessel I_nu(x) for nu >= -1/2, 0 <= x <= 60."""
    nu = float(nu)
    x = float(x)
    _check_bessel_args(nu, x, BESSEL_I_MAX_ARG, "bessel_i")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    _, f0, _ = _i_triplet(np.array([nu]), np.array([x]))
    return float(f0[0] * math.exp(_log_prefactor(nu, x)))


def radial_wave(w, k, r):
    """Evaluate y(r) = r^{(2-n)/2} F_nu(kr) and y'(r) for k, r > 0."""
    if not (k > 0.0 and r > 0.0):
        raise ArgumentOutOfRange("radial_wave requires k > 0 and r > 0")
    nu = w.order
    x = k * r
    osc = w.branch is Branch.OSCILLATORY
    x_max = BESSEL_J_MAX_ARG if osc else BESSEL_I_MAX_ARG
    _check_bessel_args(nu, x, x_max, "radial_wave")
    p = 0.5 * (2 - w.dim)
    val, der = _radial_wave_eval(p, np.array([nu]), np.array([float(k)]), float(r), np.array([osc]))
    pref = math.exp(_log_prefactor(nu, x))
    return float(val[0] * pref), float(der[0] * pref)
