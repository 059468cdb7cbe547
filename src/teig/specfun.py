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
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ArgumentOutOfRange, NonPositiveArgument

BESSEL_J_MAX_ARG = 200.0
BESSEL_I_MAX_ARG = 60.0

_SERIES_CUTOFF = 1e-18  # term-ratio stopping rule for all series below
_TINY_START = 1e-30  # trial seed for the backward recurrence


def _log_prefactor(nu, x):
    """log of P = (x/2)^nu / Gamma(nu+1) for x > 0, nu > -1."""
    return nu * math.log(0.5 * x) - math.lgamma(nu + 1.0)


def _series_triplet(nu, x, sign):
    """(F_{nu-1}, F_nu, F_{nu+1}) / P by direct series.

    sign = -1.0 gives J (alternating), +1.0 gives I.  The nu-1 sum is
    arranged so no Gamma of a non-positive argument is ever formed; it is
    valid down to nu = -1/2 and reproduces J_{-1} = -J_1 at integer nu.
    """
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
    f0 = s0
    fp1 = x / (2.0 * (nu + 1.0)) * sp
    fm1 = (2.0 / x) * sm
    return fm1, f0, fp1


def _miller_triplet(nu, x, n_extra):
    """(J_{nu-1}, J_nu, J_{nu+1}) / P by backward recurrence.

    Recurses downward from order nu + M with trial values, then rescales
    with the normalization sum  sum_k d_k f_{2k} = s  for which
    J_{nu+j} = f_j * P / s.  Retries with a smaller seed if the trial
    ladder overflows.
    """
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
    # normalization sum over even order offsets
    s = f[0]  # d_0 = 1
    g = 1.0  # Gamma(nu+k)/(k! Gamma(nu+1)) at k = 1
    for k in range(1, m_top // 2 + 1):
        s += (nu + 2.0 * k) * g * f[2 * k]
        g *= (nu + k) / (k + 1.0)
    f0 = f[0] / s
    fp1 = f[1] / s
    fm1 = (2.0 * nu / x) * f0 - fp1
    return fm1, f0, fp1


def _j_triplet(nu, x):
    """(J_{nu-1}, J_nu, J_{nu+1}) / P with automatic series/Miller switch."""
    if x <= 8.0 or x * x <= 2.0 * (nu + 1.0):
        return _series_triplet(nu, x, -1.0)
    extra = 14.0 + 6.0 * x ** (1.0 / 3.0)
    return _miller_triplet(nu, x, extra)


def _i_triplet(nu, x):
    """(I_{nu-1}, I_nu, I_{nu+1}) / P; all-positive series, no cancellation."""
    return _series_triplet(nu, x, 1.0)


def _radial_wave_eval(p, nu, k, r, oscillatory, scaled):
    """Value and radial derivative of r^p F_nu(kr), divided by the Bessel
    prefactor when ``scaled`` is nonzero.

    p = (2-n)/2; F = J on the oscillatory branch, I on the evanescent one.
    F' comes from the symmetric two-order recurrences (J_{nu-1}-J_{nu+1})/2
    and (I_{nu-1}+I_{nu+1})/2.
    """
    x = k * r
    if oscillatory:
        fm1, f0, fp1 = _j_triplet(nu, x)
        fprime = 0.5 * (fm1 - fp1)
    else:
        fm1, f0, fp1 = _i_triplet(nu, x)
        fprime = 0.5 * (fm1 + fp1)
    rp = r ** p
    val = rp * f0
    der = rp * (p / r * f0 + k * fprime)
    if scaled:
        return val, der
    pref = math.exp(_log_prefactor(nu, x))
    return val * pref, der * pref


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
    _, f0, _ = _j_triplet(nu, x)
    return float(f0 * math.exp(_log_prefactor(nu, x)))


def bessel_i(nu, x):
    """Modified Bessel I_nu(x) for nu >= -1/2, 0 <= x <= 60."""
    nu = float(nu)
    x = float(x)
    _check_bessel_args(nu, x, BESSEL_I_MAX_ARG, "bessel_i")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    _, f0, _ = _i_triplet(nu, x)
    return float(f0 * math.exp(_log_prefactor(nu, x)))


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
    val, der = _radial_wave_eval(p, nu, float(k), float(r), osc, False)
    return float(val), float(der)
