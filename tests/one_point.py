"""One-point Bessel, radial-wave and determinant values for tests, built
over the array kernels of ``teig.specfun`` and ``teig.determinant``.

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

from teig.errors import ArgumentOutOfRange, TeigError
from teig.determinant import DEGENERATE_KAPPA_SQ, _check_window, _det_grid, _kappa_sq
from teig.specfun import BESSEL_I_MAX_ARG, BESSEL_J_MAX_ARG, _i_pair, _ladders, _read, _runs


class NonPositiveArgument(TeigError, ValueError):
    pass


class DegenerateInterior(TeigError, ArithmeticError):
    pass


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


def _j_read(nu0, ell, x):
    """(_read of every point, shift): one _ladders pass over the ladders of
    _runs, each point (nu0 + ell, x) read from its ladder; shift counts the
    rescalings at steps <= ell."""
    rung = ell.astype(int)
    new, xs, low, width = _runs(rung, x)
    ladders = _ladders(nu0, xs, low, width, zeros=True)
    ladder = np.cumsum(new) - 1
    column, _, rescaled, *_ = ladders
    shift = np.zeros(rung.size, dtype=int)
    for step, big in rescaled.items():
        shift += (rung >= step) & big[column[ladder]]
    return _read(ladders, ladder, rung), shift


def _j_pair(nu0, ell, x):
    """(pair, shift) on arrays, with pair * 2^(-500 shift) equal to
    (J_nu, J_{nu+1})(x) / P_{nu0}(x) at the orders nu = nu0 + ell."""
    (pair, _), shift = _j_read(nu0, ell, x)
    return pair, shift


def ladder_zeros(nu0, ell, x):
    """The sign changes of the Miller ladder of each point from its rung
    ell up to its start, on arrays: teig's count of the zeros of J_{nu0 +
    ell} in (0, x)."""
    (_, zeros), _ = _j_read(nu0, ell, x)
    return zeros


def _pair(nu, x, oscillatory, name):
    """(F_nu, F_{nu+1}) at the arguments x (shape (2, *x.shape)), 0 <= x <=
    the window of F.  J (oscillatory) comes from ladders on nu0 = nu -
    floor(nu + 1/2), I from its series, each times its prefactor (x/2)^nu0 /
    Gamma(nu0 + 1)."""
    nu, x = float(nu), np.asarray(x, dtype=float)
    x_max = BESSEL_J_MAX_ARG if oscillatory else BESSEL_I_MAX_ARG
    if nu < -0.5:
        raise ArgumentOutOfRange(f"{name}: order must be >= -1/2, got {nu}")
    outside = ~((x >= 0.0) & (x <= x_max))
    if outside.any():
        raise ArgumentOutOfRange(f"{name}: argument {x[outside].flat[0]} outside [0, {x_max}]")
    flat = x.ravel()
    out = np.zeros((2, flat.size))
    out[0, flat == 0.0] = 1.0 if nu == 0.0 else 0.0
    pos = flat > 0.0
    if pos.any():
        xp = flat[pos]
        ell = math.floor(nu + 0.5) if oscillatory else 0
        nu0 = nu - ell
        pref = np.exp(nu0 * np.log(0.5 * xp) - math.lgamma(nu0 + 1.0))
        if oscillatory:
            pair, shift = _j_pair(nu0, np.full(xp.size, float(ell)), xp)
            out[:, pos] = np.ldexp(pair, -500 * shift.astype(int)) * pref
        else:
            out[:, pos] = _i_pair(np.full(xp.size, nu), xp) * pref
    return out.reshape((2, *x.shape))


def _value(vals):
    return float(vals) if vals.ndim == 0 else vals


def bessel_j(nu, x):
    """Bessel J_nu(x) for nu >= -1/2, 0 <= x <= 200."""
    return _value(_pair(nu, x, True, "bessel_j")[0])


def bessel_i(nu, x):
    """Modified Bessel I_nu(x) for nu >= -1/2, 0 <= x <= 60."""
    return _value(_pair(nu, x, False, "bessel_i")[0])


def radial_wave(w, k, r):
    """y(r) = r^{(2-n)/2} F_nu(kr) and y'(r) for k, r > 0, with F' =
    (nu/x) F - s F_{nu+1}, s = +1 for J and -1 for I, so r y' / r^p =
    ell F - s k r F_{nu+1}."""
    if not (k > 0.0 and r > 0.0):
        raise ArgumentOutOfRange("radial_wave requires k > 0 and r > 0")
    osc = w.branch is Branch.OSCILLATORY
    f, g = _pair(w.order, k * r, osc, "radial_wave").tolist()
    rp = r ** (0.5 * (2 - w.dim))
    return rp * f, rp * (w.ell / r * f - (k if osc else -k) * g)


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
    one lambda > 0 and angular order ell, evaluated on its unit ball at
    lambda R^2; a NaN value raises the error naming its source."""
    if not lam > 0:
        raise ArgumentOutOfRange(f"lambda must be > 0, got {lam}")
    lam = float(lam)
    unit, (mu,), _ = problem.unit_ball([lam])
    val = _det_grid(unit.kind, unit.dim, unit.v0, ell, [mu])[0]
    if math.isnan(val):
        if abs(_kappa_sq(unit.kind, unit.v0, mu)) < DEGENERATE_KAPPA_SQ:
            raise DegenerateInterior(f"lambda = {lam} sits on the branch boundary")
        _check_window(unit.kind, unit.v0, np.array([float(ell)]), np.array([mu]))
        raise ArgumentOutOfRange(f"matching determinant has a zero column at lambda = {lam}")
    return float(val)
