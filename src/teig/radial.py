"""Independent radial oracle: transmission eigenvalues of a ball with a
constant potential, characterized as zeros of the value/derivative matching
determinant between the regular interior and exterior radial waves.

Each column of the determinant is rescaled to unit sup at every lambda, so
zero sets survive the extreme dynamic range of high-order Bessel functions
and the positive scale the Bessel kernels leave on each column cancels.
It is evaluated on arrays of (order, lambda) points.  A scan lists each
lambda's orders together, so one Bessel ladder per (lambda, block of 16
orders) serves the whole grid; the windows of one problem are scanned
together and share every determinant call.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentOutOfRange,
    HelmholtzContrastDegenerate,
    NonPositivePotential,
    UnsupportedDimension,
    ValidationError,
)
from .model import HELMHOLTZ_CONTRAST_TOL, ProblemKind
from .specfun import BESSEL_I_MAX_ARG, BESSEL_J_MAX_ARG, _radial_wave_eval

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
    such points).  Points go in chunks of at most _DET_CHUNK; consecutive
    points at one lambda share Bessel ladders, which saves time only."""
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
    # exterior and interior waves in one call: the exterior one is always J
    val, der = _radial_wave_eval(
        0.5 * (2 - n),
        0.5 * (n - 2),
        np.concatenate((ell, ell)),
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
    """Bisect every bracket [a_i, b_i] of order ells[i] down to width tol
    (a scalar or one width per bracket), all brackets sharing one
    determinant call per halving.

    ``det(ells, lambdas)`` evaluates D on arrays; fa_i = D(a_i) is nonzero
    and D(b_i) has the opposite sign.  Each bracket makes the decisions of
    a scalar bisection: a non-finite midpoint is nudged by 1e-6 of a
    quarter bracket and, if still non-finite, ends that bracket at its
    midpoint; an exact zero is the root.
    """
    a, b, fa = (np.array(v, dtype=float) for v in (a, b, fa))
    tol = np.broadcast_to(tol, a.shape)
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
        live = live[b[live] - a[live] > tol[live]]
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
_PRESCREEN = (-2, -1, 1, 2)  # the stencil's inner offsets, sampled first


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


def _surely_simple(samples):
    """Per row of clean samples of D at offsets -2h, -h, h, 2h: True where
    _estimate_multiplicity on the full stencil at h must return 1.

    It returns 1 with no sign change across the root, with a non-positive
    ratio D(2h)/D(h) on either side, or with log2 of one below 2.55, since
    every log2 ratio must lie within 0.45 of an odd m >= 3.  Rows with a
    non-finite sample or one below _CLEAN_DET are never simple here.  The
    twelve outer samples are not looked at: had one of them been unclean,
    the full stencil would have widened h and looked again.
    """
    s = np.asarray(samples, dtype=float)
    clean = np.isfinite(s).all(axis=1) & (np.abs(s).min(axis=1) >= _CLEAN_DET)
    with np.errstate(divide="ignore", invalid="ignore"):  # unclean rows only
        ratios = np.stack((s[:, 0] / s[:, 1], s[:, 3] / s[:, 2]), axis=1)
        low = (ratios <= 0.0) | (np.log2(np.abs(ratios)) < 2.55)
    return clean & ((s[:, 1] * s[:, 2] >= 0.0) | low.any(axis=1))


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
    shrinks by 0.35 after each fit.  The first round starts from the four
    inner samples at +-h and +-2h alone, and a root they show simple
    (_surely_simple) is left untouched without the other twelve.  The
    samples of all pending roots share one determinant call per step.
    """
    lam = np.array(lams, dtype=float)
    h = 2e-3 * np.maximum(1.0, np.abs(lam))
    rounds = np.zeros(lam.size, dtype=int)
    grows = np.zeros(lam.size, dtype=int)
    stencil = np.array(_POLISH_STENCIL, dtype=float)
    points = lam[:, None] + np.array(_PRESCREEN, dtype=float) * h[:, None]
    samples = det(np.repeat(ells, len(_PRESCREEN)), points.ravel()).reshape(points.shape)
    todo = np.flatnonzero(~_surely_simple(samples))
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


def _scan_pass(det, ells, lo, hi, tol, steps):
    """One sign scan of every row r (order ells[r] on linspace(lo[r], hi[r],
    steps)), lambda-major so a window's rows share ladders: exact grid hits
    plus one bisected root per sign-change cell, sorted per row."""
    grid = np.linspace(lo, hi, steps)  # (steps, rows)
    values = det(np.tile(ells, steps), grid.ravel()).reshape(grid.shape)
    hits, cells = _sign_brackets(values.T)
    row, cell = np.nonzero(cells)
    a, b = grid[cell, row], grid[cell + 1, row]
    found = _bisect_brackets(det, ells[row], a, b, values[cell, row], tol[row])
    roots = [[] for _ in ells]
    for r, i in zip(*np.nonzero(hits)):
        roots[r].append((float(grid[i, r]), (float(grid[i, r]), float(grid[i, r]))))
    for r, root, left, right in zip(row.tolist(), found.tolist(), a.tolist(), b.tolist()):
        roots[r].append((root, (left, right)))
    for per_row in roots:
        per_row.sort(key=lambda item: item[0])
    return roots


def _scan_determinant(kind, n, radius, v0, ells, lo, hi, steps, tol):
    """Sign scan of the determinant, one row per order in ``ells`` on its
    window [lo, hi] bisected to width tol (lo, hi and tol broadcast against
    ells, so rows may span several windows of one problem); returns one
    list of (root, (a, b)) per row, sorted by root.

    All rows share each determinant call: the grids, every halving of every
    bracket and the polish stencils.  A row with two roots within 5 cells
    is re-scanned once at twice the steps (alias guard); every root is
    polished against odd-order degeneracy.  Values do not depend on the
    batch and each bracket decides alone, so rows scan as if alone.
    """
    ells = np.array(ells, dtype=float)
    lo, hi, tol = (np.broadcast_to(np.asarray(v, dtype=float), ells.shape) for v in (lo, hi, tol))
    if steps < 2:
        raise ValidationError(f"scan needs steps >= 2, got {steps}")
    for a, b in dict.fromkeys(zip(lo.tolist(), hi.tolist())):
        if not a < b:
            raise ValidationError(f"scan needs lo < hi, got [{a}, {b}]")
        _check_window(kind, radius, v0, a)
        _check_window(kind, radius, v0, b)

    def det(ell, lam):
        return _det_grid(kind, n, radius, v0, ell, lam)

    roots = _scan_pass(det, ells, lo, hi, tol, steps)
    spacing = (hi - lo) / (steps - 1)
    close = [r for r, per_row in enumerate(roots) if _close_pair(per_row, spacing[r])]
    if close:
        again = _scan_pass(det, ells[close], lo[close], hi[close], tol[close], 2 * steps)
        for r, per_row in zip(close, again):
            roots[r] = per_row
    flat = [(r, root, bracket) for r, per_row in enumerate(roots) for root, bracket in per_row]
    owner = np.array([r for r, _, _ in flat], dtype=int)
    polished = _polish_roots(det, ells[owner], [root for _, root, _ in flat])
    out = [[] for _ in roots]
    for (r, _, bracket), lam in zip(flat, polished.tolist()):
        out[r].append((lam, bracket))
    return out


def te_lists_up_to(base, xs, ell_maxes, steps=DEFAULT_SCAN_STEPS):
    """One TEList per (x, ell_max): all transmission eigenvalues of the ball
    up to x for ell <= ell_max, the windows scanned together, each bisected
    to 1e-10 max(1, x).  ``base``'s ell field is ignored.  Orders with no
    root do not stop the sweep; roots are not monotone in ell."""
    rows = []  # (window, ell) per scanned row
    for w, (x, ell_max) in enumerate(zip(xs, ell_maxes)):
        if not x > 0:
            raise ArgumentOutOfRange(f"x must be > 0, got {x}")
        if ell_max < 0:
            raise ValidationError(f"ell_max must be >= 0, got {ell_max}")
        rows += [(w, ell) for ell in range(ell_max + 1) if harmonic_multiplicity(base.dim, ell)]
    ells, his = [ell for _, ell in rows], np.array([xs[w] for w, _ in rows], dtype=float)
    tols = 1e-10 * np.maximum(1.0, his)
    roots = _scan_determinant(
        base.kind, base.dim, base.radius, base.v0, ells, LAMBDA_FLOOR, his, steps, tols
    )
    entries = [[] for _ in xs]
    for (w, ell), per_row in zip(rows, roots):
        entries[w] += [(root, ell, harmonic_multiplicity(base.dim, ell)) for root, _ in per_row]
    return [TEList(entries=tuple(sorted(e, key=lambda t: (t[0], t[1])))) for e in entries]


def te_list_up_to(base, x, ell_max, steps=DEFAULT_SCAN_STEPS):
    """te_lists_up_to on the one window (x, ell_max)."""
    return te_lists_up_to(base, [x], [ell_max], steps)[0]


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
