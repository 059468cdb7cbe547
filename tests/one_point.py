"""One-point Bessel, radial-wave and determinant values for tests, built
over the array kernels of ``teig.specfun`` and ``teig.radial``.

The package evaluates these functions only on arrays and only up to a
positive scale per point; tests check them against closed forms, so here
they come with their prefactors and input checks.  ``bessel_j`` and
``bessel_i`` take one order and a scalar or an array of arguments, which
share one kernel call.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from teig.errors import ArgumentOutOfRange, DegenerateInterior, NonPositiveArgument
from teig.radial import DEGENERATE_KAPPA_SQ, _check_window, _det_grid, _kappa_sq
from teig.specfun import BESSEL_I_MAX_ARG, BESSEL_J_MAX_ARG, _i_triplet, _j_triplet


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


def _triplet(nu, x, oscillatory, name):
    """(F_{nu-1}, F_nu, F_{nu+1}) at the arguments x (shape (3, *x.shape)),
    0 <= x <= the window of F; at x = 0 only F_nu is meaningful.  J
    (oscillatory) comes from ladders on nu0 = nu - floor(nu + 1/2), I from
    its series, each times its prefactor (x/2)^nu0 / Gamma(nu0 + 1)."""
    nu, x = float(nu), np.asarray(x, dtype=float)
    x_max = BESSEL_J_MAX_ARG if oscillatory else BESSEL_I_MAX_ARG
    if nu < -0.5:
        raise ArgumentOutOfRange(f"{name}: order must be >= -1/2, got {nu}")
    outside = ~((x >= 0.0) & (x <= x_max))
    if outside.any():
        raise ArgumentOutOfRange(f"{name}: argument {x[outside].flat[0]} outside [0, {x_max}]")
    flat = x.ravel()
    out = np.zeros((3, flat.size))
    out[1, flat == 0.0] = 1.0 if nu == 0.0 else 0.0
    pos = flat > 0.0
    if pos.any():
        xp = flat[pos]
        ell = math.floor(nu + 0.5) if oscillatory else 0
        nu0 = nu - ell
        pref = np.exp(nu0 * np.log(0.5 * xp) - math.lgamma(nu0 + 1.0))
        if oscillatory:
            trip, shift = _j_triplet(nu0, np.full(xp.size, float(ell)), xp)
            out[:, pos] = np.ldexp(trip, -500 * shift.astype(int)) * pref
        else:
            out[:, pos] = _i_triplet(np.full(xp.size, nu), xp) * pref
    return out.reshape((3, *x.shape))


def _value(vals):
    return float(vals) if vals.ndim == 0 else vals


def bessel_j(nu, x):
    """Bessel J_nu(x) for nu >= -1/2, 0 <= x <= 200."""
    return _value(_triplet(nu, x, True, "bessel_j")[1])


def bessel_i(nu, x):
    """Modified Bessel I_nu(x) for nu >= -1/2, 0 <= x <= 60."""
    return _value(_triplet(nu, x, False, "bessel_i")[1])


def radial_wave(w, k, r):
    """y(r) = r^{(2-n)/2} F_nu(kr) and y'(r) for k, r > 0."""
    if not (k > 0.0 and r > 0.0):
        raise ArgumentOutOfRange("radial_wave requires k > 0 and r > 0")
    osc = w.branch is Branch.OSCILLATORY
    fm1, f0, fp1 = _triplet(w.order, k * r, osc, "radial_wave").tolist()
    p = 0.5 * (2 - w.dim)
    return r**p * f0, r**p * (p / r * f0 + 0.5 * k * (fm1 - fp1 if osc else fm1 + fp1))


def interior_wavenumber(kind, v0, lam):
    """Wavenumber and branch of the perturbed interior radial equation:
    oscillatory when kappa^2 > 0, evanescent otherwise."""
    if not lam > 0:
        raise ArgumentOutOfRange(f"lambda must be > 0, got {lam}")
    ksq = _kappa_sq(kind, v0, lam)
    if abs(ksq) < DEGENERATE_KAPPA_SQ:
        raise DegenerateInterior(f"interior wavenumber degenerates at lambda = {lam}")
    if ksq > 0:
        return math.sqrt(ksq), Branch.OSCILLATORY
    return math.sqrt(-ksq), Branch.EVANESCENT


def characteristic_determinant(problem, lam, ell=0):
    """The normalized matching determinant D(lambda) of a RadialProblem at
    one lambda > 0 and angular order ell; a NaN value raises the error
    naming its source."""
    if not lam > 0:
        raise ArgumentOutOfRange(f"lambda must be > 0, got {lam}")
    lam = float(lam)
    val = _det_grid(problem.kind, problem.dim, problem.radius, problem.v0, ell, [lam])[0]
    if math.isnan(val):
        if abs(_kappa_sq(problem.kind, problem.v0, lam)) < DEGENERATE_KAPPA_SQ:
            raise DegenerateInterior(f"lambda = {lam} sits on the branch boundary")
        _check_window(problem.kind, problem.radius, problem.v0, [lam])
        raise ArgumentOutOfRange(f"matching determinant has a zero column at lambda = {lam}")
    return float(val)
