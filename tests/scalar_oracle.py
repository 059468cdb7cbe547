"""Scalar reference implementation of the radial oracle's kernels.

This is the one-point-at-a-time code the array kernels in ``teig.specfun``
and ``teig.radial`` replaced: the Bessel power series, Miller's backward
recurrence with its retry-on-overflow loop, the normalized matching
determinant and bisection of one bracket.  Tests compare the array path
against it.
"""

import math

from teig.model import ProblemKind
from teig.radial import DEGENERATE_KAPPA_SQ
from teig.specfun import BESSEL_I_MAX_ARG, BESSEL_J_MAX_ARG

_SERIES_CUTOFF = 1e-18
_TINY_START = 1e-30


def series_triplet(nu, x, sign):
    """(F_{nu-1}, F_nu, F_{nu+1}) / P by direct series; sign -1 gives J,
    +1 gives I."""
    t = 0.25 * x * x
    s0 = 1.0
    term = 1.0
    m = 1
    while True:
        term *= sign * t / (m * (nu + m))
        s0 += term
        if abs(term) <= _SERIES_CUTOFF * abs(s0) or m > 500:
            break
        m += 1
    sp = 1.0
    term = 1.0
    m = 1
    while True:
        term *= sign * t / (m * (nu + 1.0 + m))
        sp += term
        if abs(term) <= _SERIES_CUTOFF * abs(sp) or m > 500:
            break
        m += 1
    sm = nu
    term = sign * t
    m = 1
    while True:
        sm += term
        if abs(term) <= _SERIES_CUTOFF * (abs(sm) + 1e-300) or m > 500:
            break
        m += 1
        term *= sign * t / (m * (nu + m - 1.0))
    return (2.0 / x) * sm, s0, x / (2.0 * (nu + 1.0)) * sp


def miller_triplet(nu, x, n_extra):
    """(J_{nu-1}, J_nu, J_{nu+1}) / P by backward recurrence from order
    nu + M with trial values, retried with a smaller seed on overflow."""
    m_top = int(x + n_extra + max(0.0, nu - x)) + 2
    f = [0.0] * (m_top + 2)
    seed = _TINY_START
    for _attempt in range(4):
        f[m_top] = seed
        for j in range(m_top - 1, -1, -1):
            f[j] = (2.0 * (nu + j + 1.0) / x) * f[j + 1] - f[j + 2]
            if not math.isfinite(f[j]):
                break
        else:
            break
        seed *= 1e-60
    s = f[0]
    g = 1.0
    for k in range(1, m_top // 2 + 1):
        s += (nu + 2.0 * k) * g * f[2 * k]
        g *= (nu + k) / (k + 1.0)
    f0 = f[0] / s
    fp1 = f[1] / s
    return (2.0 * nu / x) * f0 - fp1, f0, fp1


def j_triplet(nu, x):
    if x <= 8.0 or x * x <= 2.0 * (nu + 1.0):
        return series_triplet(nu, x, -1.0)
    return miller_triplet(nu, x, 14.0 + 6.0 * x ** (1.0 / 3.0))


def radial_wave_eval(p, nu, k, r, oscillatory):
    """Value and derivative of r^p F_nu(kr) in prefactor units."""
    x = k * r
    if oscillatory:
        fm1, f0, fp1 = j_triplet(nu, x)
        fprime = 0.5 * (fm1 - fp1)
    else:
        fm1, f0, fp1 = series_triplet(nu, x, 1.0)
        fprime = 0.5 * (fm1 + fp1)
    rp = r**p
    return rp * f0, rp * (p / r * f0 + k * fprime)


def det_scalar(kind, n, radius, v0, ell, lam):
    """Normalized matching determinant at one lambda; NaN where the array
    path gives NaN."""
    if lam <= 0.0:
        return math.nan
    ksq = lam - v0 if kind is ProblemKind.SCHRODINGER else lam * (1.0 - v0)
    if abs(ksq) < DEGENERATE_KAPPA_SQ:
        return math.nan
    oscillatory = ksq > 0.0
    k_ext = math.sqrt(lam)
    k_int = math.sqrt(abs(ksq))
    if k_ext * radius > BESSEL_J_MAX_ARG:
        return math.nan
    if k_int * radius > (BESSEL_J_MAX_ARG if oscillatory else BESSEL_I_MAX_ARG):
        return math.nan
    p = 0.5 * (2 - n)
    nu = 0.5 * (n - 2) + ell
    ye, dye = radial_wave_eval(p, nu, k_ext, radius, True)
    yi, dyi = radial_wave_eval(p, nu, k_int, radius, oscillatory)
    se = max(abs(ye), abs(dye))
    si = max(abs(yi), abs(dyi))
    if se == 0.0 or si == 0.0:
        return math.nan
    return (ye / se) * (dyi / si) - (yi / si) * (dye / se)


def bisect(f, a, b, fa, tol):
    """Bisect [a, b] (f(a) = fa != 0, opposite sign at b) to width tol."""
    while b - a > tol:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if not math.isfinite(fm):
            # nudge off a degenerate point; the bracket is strictly wider
            mid = mid + 0.25 * (b - a) * 1e-6
            fm = f(mid)
            if not math.isfinite(fm):
                break
        if fm == 0.0:
            return float(mid)
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return float(0.5 * (a + b))
