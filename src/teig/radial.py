"""Independent radial oracle: transmission eigenvalues of a ball with a
constant potential, characterized as zeros of the value/derivative matching
determinant between the regular interior and exterior radial waves.

The determinant is evaluated with each column in prefactor-normalized units
(leading Bessel amplitude divided out) and additionally rescaled to unit sup
per column at every lambda, so zero sets survive the extreme dynamic range
of high-order Bessel functions.  It is evaluated on arrays of (order,
lambda) points, and a scan hands all angular orders of its window to each
call.
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


_DET_CHUNK = 2048  # determinant points per array call; bounds the ladder temporaries


def _det_grid(kind, n, radius, v0, ells, lambdas):
    """Normalized matching determinant at the points (ells[i], lambdas[i]).

    ``ells`` and ``lambdas`` are 1-D and broadcast against each other.  The
    value is NaN at degenerate interior wavenumbers, at lambda <= 0 and
    where an argument leaves the Bessel validity window (scan callers skip
    such points).  Points are evaluated in chunks of at most _DET_CHUNK.
    """
    ells, lambdas = np.broadcast_arrays(
        np.asarray(ells, dtype=float), np.asarray(lambdas, dtype=float)
    )
    out = np.empty(lambdas.shape)
    for start in range(0, lambdas.size, _DET_CHUNK):
        part = slice(start, start + _DET_CHUNK)
        out[part] = _det_chunk(kind, n, radius, v0, ells[part], lambdas[part])
    return out


def _det_chunk(kind, n, radius, v0, ell, lam):
    """_det_grid on at most _DET_CHUNK points."""
    out = np.full(lam.shape, np.nan)
    ksq = _kappa_sq(kind, v0, lam)
    k_ext = np.sqrt(np.maximum(lam, 0.0))
    k_int = np.sqrt(np.abs(ksq))
    oscillatory = ksq > 0.0
    ok = (
        (lam > 0.0)
        & (np.abs(ksq) >= DEGENERATE_KAPPA_SQ)
        & (k_ext * radius <= BESSEL_J_MAX_ARG)
        & (k_int * radius <= np.where(oscillatory, BESSEL_J_MAX_ARG, BESSEL_I_MAX_ARG))
    )
    if not ok.any():
        return out
    if not ok.all():
        ell, k_ext, k_int, oscillatory = ell[ok], k_ext[ok], k_int[ok], oscillatory[ok]
    m = ell.size
    nu = 0.5 * (n - 2) + ell
    # exterior and interior waves in one call: the exterior one is always J
    val, der = _radial_wave_eval(
        0.5 * (2 - n),
        np.concatenate((nu, nu)),
        np.concatenate((k_ext, k_int)),
        radius,
        np.concatenate((np.ones(m, dtype=bool), oscillatory)),
    )
    ye, yi, dye, dyi = val[:m], val[m:], der[:m], der[m:]
    se = np.maximum(np.abs(ye), np.abs(dye))
    si = np.maximum(np.abs(yi), np.abs(dyi))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero column gives NaN
        out[ok] = (ye / se) * (dyi / si) - (yi / si) * (dye / se)
    return out


def characteristic_determinant(problem, lam):
    """D(lambda) whose positive zeros are the transmission eigenvalues of
    angular order ell; columns are amplitude-normalized, zeros preserved."""
    if not lam > 0:
        raise ArgumentOutOfRange(f"lambda must be > 0, got {lam}")
    lam = float(lam)
    val = _det_grid(
        problem.kind, problem.dim, problem.radius, problem.v0, problem.ell, [lam]
    )[0]
    if math.isnan(val):
        # distinguish the NaN sources for a meaningful error
        if abs(_kappa_sq(problem.kind, problem.v0, lam)) < DEGENERATE_KAPPA_SQ:
            raise DegenerateInterior(f"lambda = {lam} sits on the branch boundary")
        _check_window(problem.kind, problem.radius, problem.v0, lam)
        raise ArgumentOutOfRange(f"matching determinant has a zero column at lambda = {lam}")
    return float(val)


def _sign_brackets(values):
    """Exact hits and sign-change cells of every row of a scan grid.

    ``values`` is (orders, steps).  Returns boolean masks ``hits``
    (orders, steps), the points with |D| < EXACT_HIT_TOL, and ``cells``
    (orders, steps - 1), the cells whose ends are finite, are not exact
    hits and have strictly opposite signs.  NaN values make their two cells
    unusable but do not abort the scan.
    """
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    hits = finite & (np.abs(values) < EXACT_HIT_TOL)
    usable = finite & ~hits
    negative = values < 0.0
    cells = usable[:, :-1] & usable[:, 1:] & (negative[:, :-1] != negative[:, 1:])
    return hits, cells


def _bisect_brackets(det, ells, a, b, fa, tol):
    """Bisect every bracket [a_i, b_i] of order ells[i] down to width tol,
    all brackets sharing one determinant call per halving.

    ``det(ells, lambdas)`` evaluates D on arrays; fa_i = D(a_i) is nonzero
    and D(b_i) has the opposite sign.  Each bracket makes the decisions of
    a scalar bisection: a non-finite midpoint is nudged by 1e-6 of a
    quarter bracket and, if still non-finite, ends that bracket at its
    midpoint; an exact zero is the root.
    """
    a, b, fa = (np.array(v, dtype=float) for v in (a, b, fa))
    live = np.flatnonzero(b - a > tol)
    while live.size:
        mid = 0.5 * (a[live] + b[live])
        fm = det(ells[live], mid)
        bad = ~np.isfinite(fm)
        if bad.any():
            mid[bad] = mid[bad] + 0.25 * (b[live[bad]] - a[live[bad]]) * 1e-6
            fm[bad] = det(ells[live[bad]], mid[bad])
        stuck = ~np.isfinite(fm)
        zero = fm == 0.0
        a[live[zero]] = b[live[zero]] = mid[zero]
        left = fa[live] * fm < 0.0
        go = ~(stuck | zero)
        to_b, to_a = go & left, go & ~left
        b[live[to_b]] = mid[to_b]
        a[live[to_a]] = mid[to_a]
        fa[live[to_a]] = fm[to_a]
        live = live[go]
        live = live[b[live] - a[live] > tol]
    return 0.5 * (a + b)


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


def _fit_root(samples, h, m):
    """Offset of the root nearest the stencil centre from a weighted quartic
    fit of sign(D)|D|^(1/m), or None when no real root lies inside."""
    offsets = np.array(_POLISH_STENCIL, dtype=float) * h
    t = np.array([math.copysign(abs(v) ** (1.0 / m), v) for v in samples])
    weights = np.array([abs(v) ** ((m - 1.0) / m) for v in samples])
    coef = np.polynomial.polynomial.polyfit(offsets, t, 4, w=weights)
    candidates = np.roots(coef[::-1])
    candidates = candidates[np.abs(candidates.imag) < 1e-11].real
    inside = candidates[np.abs(candidates) <= offsets.max()]
    if inside.size == 0:
        return None
    return float(inside[np.argmin(np.abs(inside))])


def _polish_roots(det, ells, lams):
    """Sharpen sign-change roots at which the determinant vanishes to odd
    order > 1 (interior and exterior Dirichlet traces vanishing together).

    Bisection stalls at the floating-point noise floor there, so the root
    is re-estimated from clean off-root samples: sign(D)|D|^(1/m) is
    smooth with a simple zero, and a weighted quartic fit of it is solved
    for the root.  Simple roots are detected and left untouched.

    Each root gets up to two rounds.  A round samples D on a 16-point
    stencil of spacing h, doubling h (at most 11 times) until the innermost
    samples clear the noise band; h starts at 2e-3 max(1, |lambda|) and
    shrinks by 0.35 after each fit.  The stencils of all pending roots
    share one determinant call.
    """
    lam = np.array(lams, dtype=float)
    h = 2e-3 * np.maximum(1.0, np.abs(lam))
    rounds = np.zeros(lam.size, dtype=int)
    grows = np.zeros(lam.size, dtype=int)
    stencil = np.array(_POLISH_STENCIL, dtype=float)
    todo = np.arange(lam.size)
    while todo.size:
        points = lam[todo, None] + stencil * h[todo, None]
        samples = det(np.repeat(ells[todo], stencil.size), points.ravel())
        samples = samples.reshape(points.shape)
        finite = np.isfinite(samples).all(axis=1)
        clean = finite & (np.abs(samples).min(axis=1) >= _CLEAN_DET)
        again = []
        for i, row, ok, is_clean in zip(todo.tolist(), samples, finite, clean):
            if not ok:
                continue
            if not is_clean:
                # widen the stencil until its innermost samples clear the noise band
                h[i] *= 2.0
                grows[i] += 1
                if grows[i] < 12:
                    again.append(i)
                continue
            row = row.tolist()
            m = _estimate_multiplicity(dict(zip(_POLISH_STENCIL, row)))
            if m == 1:
                continue
            shift = _fit_root(row, h[i], m)
            if shift is None:
                continue
            lam[i] += shift
            h[i] *= 0.35
            rounds[i] += 1
            grows[i] = 0
            if rounds[i] < 2:
                again.append(i)
        todo = np.array(again, dtype=int)
    return lam


def _close_pair(roots, spacing):
    return any(
        r2 - r1 < _CLOSE_ROOT_CELLS * spacing for (r1, _), (r2, _) in zip(roots, roots[1:])
    )


def _scan_pass(det, ells, lo, hi, steps, tol):
    """One sign scan of every order on linspace(lo, hi, steps): exact grid
    hits plus one bisected root per sign-change cell, sorted per order."""
    grid = np.linspace(lo, hi, steps)
    values = det(np.repeat(ells, steps), np.tile(grid, ells.size)).reshape(ells.size, steps)
    hits, cells = _sign_brackets(values)
    order, cell = np.nonzero(cells)
    a, b = grid[cell], grid[cell + 1]
    found = _bisect_brackets(det, ells[order], a, b, values[order, cell], tol)
    roots = [[] for _ in ells]
    for o, i in zip(*np.nonzero(hits)):
        roots[o].append((float(grid[i]), (float(grid[i]), float(grid[i]))))
    for o, root, left, right in zip(order.tolist(), found.tolist(), a.tolist(), b.tolist()):
        roots[o].append((root, (left, right)))
    for per_order in roots:
        per_order.sort(key=lambda item: item[0])
    return roots


def _scan_determinant(kind, n, radius, v0, ells, lo, hi, steps, tol):
    """Sign scan of the determinant on [lo, hi] for every angular order in
    ``ells``; returns one list of (root, (a, b)) per order, sorted by root.

    All orders share each array determinant call: the (order x lambda)
    grid, every halving of every bracket and the polish stencils.  An order
    with two roots within 5 cells of each other is re-scanned once at twice
    the steps (alias guard); every root is polished against odd-order
    degeneracy before being reported.
    """
    if not lo < hi:
        raise ValidationError(f"scan needs lo < hi, got [{lo}, {hi}]")
    if steps < 2:
        raise ValidationError(f"scan needs steps >= 2, got {steps}")
    _check_window(kind, radius, v0, lo)
    _check_window(kind, radius, v0, hi)

    def det(ell, lam):
        return _det_grid(kind, n, radius, v0, ell, lam)

    ells = np.array(ells, dtype=float)
    roots = _scan_pass(det, ells, lo, hi, steps, tol)
    spacing = (hi - lo) / (steps - 1)
    close = [i for i, per_order in enumerate(roots) if _close_pair(per_order, spacing)]
    if close:
        for i, per_order in zip(close, _scan_pass(det, ells[close], lo, hi, 2 * steps, tol)):
            roots[i] = per_order
    flat = [(i, root, bracket) for i, per_order in enumerate(roots) for root, bracket in per_order]
    owner = np.array([i for i, _, _ in flat], dtype=int)
    polished = _polish_roots(det, ells[owner], [root for _, root, _ in flat])
    out = [[] for _ in roots]
    for (i, _, bracket), lam in zip(flat, polished.tolist()):
        out[i].append((lam, bracket))
    return out


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
    ells = [ell for ell in range(ell_max + 1) if harmonic_multiplicity(base.dim, ell)]
    roots = _scan_determinant(
        base.kind, base.dim, base.radius, base.v0, ells, LAMBDA_FLOOR, x, steps, tol
    )
    entries = [
        (root, ell, harmonic_multiplicity(base.dim, ell))
        for ell, per_order in zip(ells, roots)
        for root, _ in per_order
    ]
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
    RadialProblem(kind, n, radius, v0)  # validates inputs
    hi = max(4.0 / radius**2, 2.0 * v0, 1.0)
    while hi <= cap:
        roots = _scan_determinant(
            kind, n, radius, v0, ell_values, LAMBDA_FLOOR, hi, steps, 1e-12 * max(1.0, hi)
        )
        firsts = [per_order[0][0] for per_order in roots if per_order]
        if firsts:
            return float(min(firsts))
        hi *= 2.0
    raise ArgumentOutOfRange(f"no transmission eigenvalue found below {cap}")
