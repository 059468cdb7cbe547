"""Independent radial oracle: transmission eigenvalues of a ball with a
constant potential, characterized as zeros of the value/derivative matching
determinant between the regular interior and exterior radial waves.

The determinant is evaluated with each column in prefactor-normalized units
(leading Bessel amplitude divided out) and additionally rescaled to unit sup
per column at every lambda, so zero sets survive the extreme dynamic range
of high-order Bessel functions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    DegenerateInterior,
    HelmholtzContrastDegenerate,
    NonPositivePotential,
    UnsupportedDimension,
    ValidationError,
)
from .model import HELMHOLTZ_CONTRAST_TOL, ProblemKind
from .specfun import BESSEL_I_MAX_ARG, BESSEL_J_MAX_ARG, Branch, _radial_wave_eval

DEGENERATE_KAPPA_SQ = 1e-14
LAMBDA_FLOOR = 1e-6
EXACT_HIT_TOL = 1e-13


@dataclass(frozen=True)
class RadialProblem:
    """Ball of given radius and dimension with constant potential v0,
    restricted to the angular sector of order ell."""

    kind: ProblemKind
    dim: int
    radius: float
    v0: float
    ell: int = 0

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise UnsupportedDimension(f"dim must be 1, 2 or 3, got {self.dim}")
        if not (math.isfinite(self.radius) and math.isfinite(self.v0)):
            raise ValidationError(
                f"radius and v0 must be finite, got radius={self.radius}, v0={self.v0}"
            )
        if not self.radius > 0:
            raise ValidationError(f"radius must be > 0, got {self.radius}")
        if not self.v0 > 0:
            raise NonPositivePotential(f"v0 must be > 0, got {self.v0}")
        if self.ell < 0:
            raise ValidationError(f"ell must be >= 0, got {self.ell}")
        if self.kind is ProblemKind.HELMHOLTZ and abs(self.v0 - 1.0) < HELMHOLTZ_CONTRAST_TOL:
            raise HelmholtzContrastDegenerate("v0 = 1 gives a degenerate Helmholtz contrast")


def _kappa_sq(kind, v0, lam):
    """Squared interior wavenumber: lambda - v0 (Schrodinger) or
    lambda(1 - v0) (Helmholtz)."""
    if kind is ProblemKind.SCHRODINGER:
        return lam - v0
    return lam * (1.0 - v0)


def interior_wavenumber(kind, v0, lam):
    """Wavenumber and branch of the perturbed interior radial equation.

    Oscillatory when kappa^2 > 0, evanescent otherwise.
    """
    if not lam > 0:
        raise ArgumentOutOfRange(f"lambda must be > 0, got {lam}")
    ksq = _kappa_sq(kind, v0, lam)
    if abs(ksq) < DEGENERATE_KAPPA_SQ:
        raise DegenerateInterior(f"interior wavenumber degenerates at lambda = {lam}")
    if ksq > 0:
        return math.sqrt(ksq), Branch.OSCILLATORY
    return math.sqrt(-ksq), Branch.EVANESCENT


def _check_window(kind, radius, v0, lam):
    """Raise ArgumentOutOfRange when a Bessel argument at lambda leaves its
    validity window: sqrt(lambda) R <= 200 outside, |kappa| R <= 200 inside
    on the oscillatory branch and <= 60 on the evanescent one."""
    x_ext = math.sqrt(lam) * radius
    if not x_ext <= BESSEL_J_MAX_ARG:
        raise ArgumentOutOfRange(
            f"exterior Bessel argument {x_ext} exceeds {BESSEL_J_MAX_ARG} at lambda = {lam}"
            f" (radius {radius})"
        )
    ksq = _kappa_sq(kind, v0, lam)
    x_int = math.sqrt(abs(ksq)) * radius
    x_max = BESSEL_J_MAX_ARG if ksq > 0.0 else BESSEL_I_MAX_ARG
    if not x_int <= x_max:
        raise ArgumentOutOfRange(
            f"interior Bessel argument {x_int} exceeds {x_max} at lambda = {lam}"
            f" (radius {radius})"
        )


def _det_scalar(kind, n, radius, v0, ell, lam):
    """Normalized matching determinant at a single lambda.

    Returns NaN at degenerate interior wavenumbers and when an argument
    leaves the Bessel validity window (scan callers skip such points).
    """
    if lam <= 0.0:
        return math.nan
    k_ext = math.sqrt(lam)
    ksq = _kappa_sq(kind, v0, lam)
    if abs(ksq) < DEGENERATE_KAPPA_SQ:
        return math.nan
    oscillatory = ksq > 0.0
    k_int = math.sqrt(abs(ksq))
    if k_ext * radius > BESSEL_J_MAX_ARG:
        return math.nan
    if k_int * radius > (BESSEL_J_MAX_ARG if oscillatory else BESSEL_I_MAX_ARG):
        return math.nan

    p = 0.5 * (2 - n)
    nu = 0.5 * (n - 2) + ell
    ye, dye = _radial_wave_eval(p, nu, k_ext, radius, True, True)
    yi, dyi = _radial_wave_eval(p, nu, k_int, radius, oscillatory, True)
    se = max(abs(ye), abs(dye))
    si = max(abs(yi), abs(dyi))
    if se == 0.0 or si == 0.0:
        return math.nan
    return (ye / se) * (dyi / si) - (yi / si) * (dye / se)


def _det_grid(kind, n, radius, v0, ell, lambdas):
    return np.array([_det_scalar(kind, n, radius, v0, ell, lam) for lam in lambdas])


def characteristic_determinant(problem, lam):
    """D(lambda) whose positive zeros are the transmission eigenvalues of
    angular order ell; columns are amplitude-normalized, zeros preserved."""
    if not lam > 0:
        raise ArgumentOutOfRange(f"lambda must be > 0, got {lam}")
    lam = float(lam)
    val = _det_scalar(problem.kind, problem.dim, problem.radius, problem.v0, problem.ell, lam)
    if math.isnan(val):
        # distinguish the NaN sources for a meaningful error
        if abs(_kappa_sq(problem.kind, problem.v0, lam)) < DEGENERATE_KAPPA_SQ:
            raise DegenerateInterior(f"lambda = {lam} sits on the branch boundary")
        _check_window(problem.kind, problem.radius, problem.v0, lam)
        raise ArgumentOutOfRange(f"matching determinant has a zero column at lambda = {lam}")
    return val


def scan_roots(f, lo, hi, steps, tol, values=None):
    """Roots of a scalar function on [lo, hi] from a uniform sign scan.

    Evaluates f on the grid (or reuses precomputed ``values``), records grid
    points with |f| < 1e-13 as exact hits (excluded from neighboring
    brackets), refines every strict sign change by bisection until the
    bracket is narrower than tol, and returns a list of (root, (a, b))
    sorted by root.  NaN values make their two cells unusable but do not
    abort the scan.
    """
    if not lo < hi:
        raise ValidationError(f"scan needs lo < hi, got [{lo}, {hi}]")
    if steps < 2:
        raise ValidationError(f"scan needs steps >= 2, got {steps}")
    grid = np.linspace(lo, hi, steps)
    if values is None:
        values = np.array([f(x) for x in grid], dtype=float)
    else:
        values = np.asarray(values, dtype=float)

    roots = []
    exact = np.zeros(len(grid), dtype=bool)
    for i, v in enumerate(values):
        if math.isfinite(v) and abs(v) < EXACT_HIT_TOL:
            exact[i] = True
            roots.append((float(grid[i]), (float(grid[i]), float(grid[i]))))
    for i in range(len(grid) - 1):
        if exact[i] or exact[i + 1]:
            continue
        a, b = grid[i], grid[i + 1]
        fa, fb = values[i], values[i + 1]
        if not (math.isfinite(fa) and math.isfinite(fb)) or fa * fb >= 0.0:
            continue
        root = _bisect(f, a, b, fa, fb, tol)
        roots.append((root, (float(a), float(b))))
    roots.sort(key=lambda item: item[0])
    return roots


def _bisect(f, a, b, fa, fb, tol):
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
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return float(0.5 * (a + b))


def harmonic_multiplicity(n, ell):
    """Dimension of the degree-ell spherical harmonics on R^n (n <= 3)."""
    if n not in (1, 2, 3):
        raise UnsupportedDimension(f"dim must be 1, 2 or 3, got {n}")
    if ell < 0:
        raise ValidationError(f"ell must be >= 0, got {ell}")
    first = math.comb(ell + n - 1, ell)
    second = math.comb(ell + n - 3, ell - 2) if ell >= 2 and ell + n - 3 >= 0 else 0
    return first - second


@dataclass(frozen=True)
class TEList:
    """Sorted transmission eigenvalues with their angular degeneracies."""

    entries: tuple  # of (lambda, ell, degeneracy)

    def weighted_count(self, x=None):
        return sum(d for lam, _, d in self.entries if x is None or lam <= x)


DEFAULT_SCAN_STEPS = 400
_CLOSE_ROOT_CELLS = 5
_CLEAN_DET = 1e-11  # samples below this are inside the fp noise band


_POLISH_STENCIL = tuple(j for j in range(-8, 9) if j != 0)


def _estimate_multiplicity(samples):
    """Odd root order from dyadic sample ratios D(2h)/D(h) ~ 2^m.

    Returns 1 unless every ratio consistently points at the same odd
    m >= 3 with opposite signs across the root.
    """
    if samples[1] * samples[-1] >= 0.0:
        return 1
    logs = []
    for a, b in ((1, 2), (2, 4), (4, 8), (-1, -2), (-2, -4), (-4, -8)):
        ratio = samples[b] / samples[a]
        if ratio <= 0.0:
            return 1
        logs.append(math.log2(ratio))
    m = round(sum(logs) / len(logs))
    if m < 3 or m % 2 == 0 or any(abs(g - m) > 0.45 for g in logs):
        return 1
    return m


def _polish_root(f, lam, scale):
    """Sharpen a sign-change root at which the determinant vanishes to odd
    order > 1 (interior and exterior Dirichlet traces vanishing together).

    Bisection stalls at the floating-point noise floor there, so the root
    is re-estimated from clean off-root samples: sign(D)|D|^(1/m) is
    smooth with a simple zero, and a weighted quartic fit of it is solved
    for the root.  Simple roots are detected and left untouched.
    """
    h = 2e-3 * scale
    for _round in range(2):
        # widen the stencil until its innermost samples clear the noise band
        for _grow in range(12):
            samples = {j: f(lam + j * h) for j in _POLISH_STENCIL}
            if any(not math.isfinite(v) for v in samples.values()):
                return lam
            if min(abs(v) for v in samples.values()) >= _CLEAN_DET:
                break
            h *= 2.0
        else:
            return lam
        m = _estimate_multiplicity(samples)
        if m == 1:
            return lam
        offsets = np.array(_POLISH_STENCIL, dtype=float) * h
        t = np.array(
            [math.copysign(abs(samples[j]) ** (1.0 / m), samples[j]) for j in _POLISH_STENCIL]
        )
        weights = np.array(
            [abs(samples[j]) ** ((m - 1.0) / m) for j in _POLISH_STENCIL]
        )
        coef = np.polynomial.polynomial.polyfit(offsets, t, 4, w=weights)
        candidates = np.roots(coef[::-1])
        candidates = candidates[np.abs(candidates.imag) < 1e-11].real
        inside = candidates[np.abs(candidates) <= offsets.max()]
        if inside.size == 0:
            return lam
        lam = lam + float(inside[np.argmin(np.abs(inside))])
        h *= 0.35
    return lam


def _scan_determinant(kind, n, radius, v0, ell, lo, hi, steps, tol):
    """Sign scan of the determinant with one automatic grid doubling when
    two roots land within 5 cells of each other (alias guard); every root
    is polished against odd-order degeneracy before being reported."""
    _check_window(kind, radius, v0, lo)
    _check_window(kind, radius, v0, hi)

    def f(lam):
        return _det_scalar(kind, n, radius, v0, ell, lam)

    current = steps
    for _pass in range(2):
        grid = np.linspace(lo, hi, current)
        values = _det_grid(kind, n, radius, v0, ell, grid)
        roots = scan_roots(f, lo, hi, current, tol, values=values)
        spacing = (hi - lo) / (current - 1)
        close = any(
            r2 - r1 < _CLOSE_ROOT_CELLS * spacing
            for (r1, _), (r2, _) in zip(roots, roots[1:])
        )
        if not close:
            break
        current *= 2
    return [
        (_polish_root(f, root, max(1.0, abs(root))), bracket) for root, bracket in roots
    ]


def te_list_up_to(base, x, ell_max, steps=DEFAULT_SCAN_STEPS, tol=None):
    """All transmission eigenvalues of the ball up to x for ell <= ell_max.

    ``base`` is a RadialProblem whose ell field is ignored.  Orders with no
    root in the window contribute nothing but do not stop the sweep; roots
    are not monotone in ell.
    """
    if not x > 0:
        raise ArgumentOutOfRange(f"x must be > 0, got {x}")
    if ell_max < 0:
        raise ValidationError(f"ell_max must be >= 0, got {ell_max}")
    if tol is None:
        tol = 1e-10 * max(1.0, x)
    entries = []
    for ell in range(ell_max + 1):
        mult = harmonic_multiplicity(base.dim, ell)
        if mult == 0:
            continue
        roots = _scan_determinant(
            base.kind, base.dim, base.radius, base.v0, ell, LAMBDA_FLOOR, x, steps, tol
        )
        entries.extend((root, ell, mult) for root, _ in roots)
    entries.sort(key=lambda e: (e[0], e[1]))
    return TEList(entries=tuple(entries))


def adaptive_ell_max(n, radius, v0, x, kind=ProblemKind.HELMHOLTZ):
    """Smallest angular cutoff that provably covers all roots up to x.

    A determinant zero requires the exterior wave J_nu(sqrt(x) R) to have
    left its power-law onset, i.e. nu below roughly sqrt(x)*R; a fixed
    margin absorbs the onset width.  Evanescent-interior problems are
    bounded by the same exterior argument.
    """
    nu_max = math.sqrt(x) * radius
    ell = int(math.ceil(nu_max - 0.5 * (n - 2))) + 2
    return max(ell, 0)


def first_te(kind, n, radius, v0, ell_values=(0, 1), cap=1e6, steps=DEFAULT_SCAN_STEPS):
    """Smallest determinant root over the given angular orders.

    Doubles the scan window until a root appears (or the cap is reached).
    """
    hi = max(4.0 / radius**2, 2.0 * v0, 1.0)
    while hi <= cap:
        best = None
        for ell in ell_values:
            roots = _scan_determinant(
                kind, n, radius, v0, ell, LAMBDA_FLOOR, hi, steps, 1e-12 * max(1.0, hi)
            )
            if roots:
                lam = roots[0][0]
                if best is None or lam < best:
                    best = lam
        if best is not None:
            return float(best)
        hi *= 2.0
    raise ArgumentOutOfRange(f"no transmission eigenvalue found below {cap}")
