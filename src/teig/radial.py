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
    ProblemTooLarge,
    UnsupportedDimension,
    ValidationError,
)
from .model import HELMHOLTZ_CONTRAST_TOL, MEMORY_BUDGET_BYTES, ProblemKind
from .specfun import BESSEL_I_MAX_ARG, BESSEL_J_MAX_ARG, _radial_wave_eval

DEGENERATE_KAPPA_SQ = 1e-14
LAMBDA_FLOOR = 1e-6
EXACT_HIT_TOL = 1e-13


@dataclass(frozen=True)
class RadialProblem:
    """Ball of given radius and dimension with constant potential v0."""

    kind: ProblemKind
    dim: int
    radius: float
    v0: float

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
        if self.kind is ProblemKind.HELMHOLTZ and abs(self.v0 - 1.0) < HELMHOLTZ_CONTRAST_TOL:
            raise HelmholtzContrastDegenerate("v0 = 1 gives a degenerate Helmholtz contrast")


def _kappa_sq(kind, v0, lam):
    """Squared interior wavenumber: lambda - v0 (Schrodinger) or
    lambda(1 - v0) (Helmholtz)."""
    if kind is ProblemKind.SCHRODINGER:
        return lam - v0
    return lam * (1.0 - v0)


def _bessel_window(kind, radius, v0, lam):
    """The Bessel validity rule on an array of lambdas.  Returns kappa^2
    and three arrays with a first axis of 2 (exterior wave, interior wave):
    the wavenumbers k = (sqrt(lambda), |kappa|), whether the wave is a J
    (oscillatory: the exterior one always, the interior one where kappa^2
    > 0) rather than an I, and whether its argument k R lies in the
    window, <= 200 for J and <= 60 for I."""
    ksq = _kappa_sq(kind, v0, lam)
    k = np.stack((np.sqrt(np.maximum(lam, 0.0)), np.sqrt(np.abs(ksq))))
    oscillatory = np.stack((np.ones(ksq.shape, dtype=bool), ksq > 0.0))
    x_max = np.where(oscillatory, BESSEL_J_MAX_ARG, BESSEL_I_MAX_ARG)
    return ksq, k, oscillatory, k * radius <= x_max


def _check_window(kind, radius, v0, lams):
    """Raise ArgumentOutOfRange at the first of ``lams`` where a Bessel
    argument leaves its window (_bessel_window), the exterior one first."""
    lams = np.asarray(lams, dtype=float)
    _, k, oscillatory, inside = _bessel_window(kind, radius, v0, lams)
    bad = np.argwhere(~inside.T)  # (point, wave) pairs
    if bad.size:
        i, wave = bad[0]
        x_max = BESSEL_J_MAX_ARG if oscillatory[wave, i] else BESSEL_I_MAX_ARG
        raise ArgumentOutOfRange(
            f"{('exterior', 'interior')[wave]} Bessel argument {k[wave, i] * radius} exceeds "
            f"{x_max} at lambda = {lams[i]} (radius {radius})"
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
    ksq, k, oscillatory, inside = _bessel_window(kind, radius, v0, lam)
    ok = (lam > 0.0) & (np.abs(ksq) >= DEGENERATE_KAPPA_SQ) & inside.all(axis=0)
    if not ok.any():
        return out
    if not ok.all():
        ell, k, oscillatory = ell[ok], k[:, ok], oscillatory[:, ok]
    # exterior and interior waves in one call
    val, der = _radial_wave_eval(
        0.5 * (2 - n), 0.5 * (n - 2), np.tile(ell, 2), k.ravel(), radius, oscillatory.ravel()
    )
    (ye, yi), (dye, dyi) = val.reshape(2, -1), der.reshape(2, -1)
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

    def weighted_count(self, x):
        return sum(d for lam, _, d in self.entries if lam <= x)


DEFAULT_SCAN_STEPS = 400
_CLOSE_ROOT_CELLS = 5
_CLEAN_DET = 1e-11  # samples below this are inside the fp noise band


_POLISH_STENCIL = tuple(j for j in range(-8, 9) if j != 0)
_PRESCREEN = (-2, -1, 1, 2)  # the stencil's inner offsets, sampled first


def _multiplicity(samples, offsets):
    """Root order per row of samples of D at ``offsets`` * h around a root.

    0 where a sample is non-finite or inside the noise band (< _CLEAN_DET);
    otherwise the odd m >= 3 when D changes sign across the root and every
    dyadic ratio D(2jh)/D(jh) (j = +-1, +-2, +-4, both offsets sampled) is
    positive with log2 within 0.45 of m, the rounded mean log2; else 1.
    On the four inner samples it is 1 wherever the full stencil's would
    be: six log2 ratios within 0.45 of an odd m put the two inner ones
    within 0.45 of m too.
    """
    s = np.asarray(samples, dtype=float)
    col = list(offsets).index
    pairs = [(col(j), col(2 * j)) for j in (1, 2, 4, -1, -2, -4) if 2 * j in offsets]
    clean = np.isfinite(s).all(axis=1) & (np.abs(s).min(axis=1) >= _CLEAN_DET)
    with np.errstate(divide="ignore", invalid="ignore"):  # unclean rows only
        ratios = np.stack([s[:, b] / s[:, a] for a, b in pairs], axis=1)
        logs = np.log2(ratios)
        m = np.round(logs.sum(axis=1) / len(pairs))
        odd = (
            (s[:, col(1)] * s[:, col(-1)] < 0.0)
            & (ratios > 0.0).all(axis=1)
            & (m >= 3)
            & (m % 2 == 1)
            & (np.abs(logs - m[:, None]) <= 0.45).all(axis=1)
        )
    return np.where(clean, np.where(odd, m, 1), 0).astype(int)


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
    (_multiplicity 1) is left untouched without the other twelve.  The
    samples of all pending roots share one determinant call per step.
    """
    lam = np.array(lams, dtype=float)
    h = 2e-3 * np.maximum(1.0, np.abs(lam))
    rounds = np.zeros(lam.size, dtype=int)
    grows = np.zeros(lam.size, dtype=int)
    stencil = np.array(_POLISH_STENCIL, dtype=float)
    points = lam[:, None] + np.array(_PRESCREEN, dtype=float) * h[:, None]
    samples = det(np.repeat(ells, len(_PRESCREEN)), points.ravel()).reshape(points.shape)
    todo = np.flatnonzero(_multiplicity(samples, _PRESCREEN) != 1)
    while todo.size:
        points = lam[todo, None] + stencil * h[todo, None]
        samples = det(np.repeat(ells[todo], stencil.size), points.ravel())
        samples = samples.reshape(points.shape)
        m = _multiplicity(samples, _POLISH_STENCIL)
        # widen a noisy stencil until its innermost samples clear the noise band
        noisy = (m == 0) & np.isfinite(samples).all(axis=1)
        h[todo[noisy]] *= 2.0
        grows[todo[noisy]] += 1
        again = noisy & (grows[todo] < 12)
        for k in np.flatnonzero(m > 1).tolist():
            i = todo[k]
            shift = _fit_root(samples[k].tolist(), h[i], int(m[k]))
            if shift is None:
                continue
            lam[i] += shift
            h[i] *= 0.35
            rounds[i] += 1
            grows[i] = 0
            again[k] = rounds[i] < 2
        todo = todo[again]
    return lam


def _check_scan_size(rows, steps):
    """Reject a scan whose grids would pass MEMORY_BUDGET_BYTES: a pass holds
    about 32 bytes per (row, step) cell (the grid, its tiled orders, the
    values and their masks), and the alias re-scan may redo every row at
    twice the steps."""
    need = 64 * rows * steps
    if need > MEMORY_BUDGET_BYTES:
        raise ProblemTooLarge(
            f"a scan of {rows} order(s) at up to {2 * steps} steps needs {need} bytes, "
            f"over the budget of {MEMORY_BUDGET_BYTES}"
        )


def _scan_pass(det, ells, lo, hi, tol, steps):
    """One sign scan of every row r (order ells[r] on linspace(lo[r], hi[r],
    steps)), lambda-major so a window's rows share ladders: exact grid hits
    above LAMBDA_FLOOR plus one bisected root per sign-change cell, as the
    table (row, root, left, right) sorted by row then root; a hit is its
    own bracket.  D vanishes like lambda as lambda -> 0, so a hit at the
    floor is no root."""
    grid = np.linspace(lo, hi, steps)  # (steps, rows)
    values = det(np.tile(ells, steps), grid.ravel()).reshape(grid.shape)
    hits, cells = _sign_brackets(values.T)
    hits &= grid.T > LAMBDA_FLOOR
    row, cell = np.nonzero(cells)
    a, b = grid[cell, row], grid[cell + 1, row]
    found = _bisect_brackets(det, ells[row], a, b, values[cell, row], tol[row])
    hit_row, hit = np.nonzero(hits)
    at = grid[hit, hit_row]
    row, root, left, right = (
        np.concatenate(pair) for pair in ((hit_row, row), (at, found), (at, a), (at, b))
    )
    order = np.lexsort((root, row))
    return row[order], root[order], left[order], right[order]


def _scan_determinant(ball, ells, lo, hi, steps, tol):
    """Sign scan of the determinant of the RadialProblem ``ball``, one row
    per order in ``ells`` on its window [lo, hi] bisected to width tol (lo,
    hi and tol broadcast against ells, so rows may span several windows of
    one problem); returns the table (row, root, left, right) of four
    arrays, sorted by row then by the root before its polish, with [left,
    right] the root's bracket.

    All rows share each determinant call: the grids, every halving of every
    bracket and the polish stencils.  A row with two roots within 5 cells
    is re-scanned once at twice the steps (alias guard); every root is
    polished against odd-order degeneracy.  Values do not depend on the
    batch and each bracket decides alone, so rows scan as if alone.
    """
    if steps < 2:
        raise ValidationError(f"scan needs steps >= 2, got {steps}")
    _check_scan_size(len(ells), steps)
    ells = np.array(ells, dtype=float)
    lo, hi, tol = (np.broadcast_to(np.asarray(v, dtype=float), ells.shape) for v in (lo, hi, tol))
    for a, b in dict.fromkeys(zip(lo.tolist(), hi.tolist())):
        if not a < b:
            raise ValidationError(f"scan needs lo < hi, got [{a}, {b}]")
    _check_window(ball.kind, ball.radius, ball.v0, np.column_stack((lo, hi)).ravel())

    def det(ell, lam):
        return _det_grid(ball.kind, ball.dim, ball.radius, ball.v0, ell, lam)

    row, root, left, right = _scan_pass(det, ells, lo, hi, tol, steps)
    spacing = (hi - lo) / (steps - 1)
    near = (row[1:] == row[:-1]) & (np.diff(root) < _CLOSE_ROOT_CELLS * spacing[row[1:]])
    close = np.zeros(ells.size, dtype=bool)
    close[row[1:][near]] = True
    if close.any():
        again = _scan_pass(det, ells[close], lo[close], hi[close], tol[close], 2 * steps)
        keep = ~close[row]
        row, root, left, right = (
            np.concatenate((old[keep], new))
            for old, new in zip(
                (row, root, left, right), (np.flatnonzero(close)[again[0]], *again[1:])
            )
        )
        order = np.argsort(row, kind="stable")
        row, root, left, right = row[order], root[order], left[order], right[order]
    return row, _polish_roots(det, ells[row], root), left, right


def te_lists_up_to(base, xs, ell_maxes, steps=DEFAULT_SCAN_STEPS):
    """One TEList per (x, ell_max): all transmission eigenvalues of the ball
    up to x for ell <= ell_max, the windows scanned together, each bisected
    to 1e-10 max(1, x).  Orders with no root do not stop the sweep; roots
    are not monotone in ell."""
    orders = []  # per window; dim 1 has orders 0 and 1 only
    for x, ell_max in zip(xs, ell_maxes):
        if not x > 0:
            raise ArgumentOutOfRange(f"x must be > 0, got {x}")
        if ell_max < 0:
            raise ValidationError(f"ell_max must be >= 0, got {ell_max}")
        orders.append(range((ell_max if base.dim > 1 else min(ell_max, 1)) + 1))
    _check_scan_size(sum(map(len, orders)), steps)
    rows = [(w, ell) for w, window in enumerate(orders) for ell in window]
    ells, his = [ell for _, ell in rows], np.array([xs[w] for w, _ in rows], dtype=float)
    tols = 1e-10 * np.maximum(1.0, his)
    row, root, _, _ = _scan_determinant(base, ells, LAMBDA_FLOOR, his, steps, tols)
    entries = [[] for _ in xs]
    for r, lam in zip(row.tolist(), root.tolist()):
        w, ell = rows[r]
        entries[w].append((lam, ell, harmonic_multiplicity(base.dim, ell)))
    return [TEList(entries=tuple(sorted(e, key=lambda t: (t[0], t[1])))) for e in entries]


def te_list_up_to(base, x, ell_max, steps=DEFAULT_SCAN_STEPS):
    """te_lists_up_to on the one window (x, ell_max)."""
    return te_lists_up_to(base, [x], [ell_max], steps)[0]


def adaptive_ell_max(n, radius, x):
    """Smallest angular cutoff that provably covers all roots up to x.

    A determinant zero requires the exterior wave J_nu(sqrt(x) R) to have
    left its power-law onset, i.e. nu below roughly sqrt(x)*R; a fixed
    margin absorbs the onset width.  Evanescent-interior problems are
    bounded by the same exterior argument.
    """
    nu_max = math.sqrt(x) * radius
    ell = int(math.ceil(nu_max - 0.5 * (n - 2))) + 2
    return max(ell, 0)


FIRST_TE_CAP = 1e6


def first_te(ball):
    """Smallest determinant root of angular order 0 of the RadialProblem
    ``ball``.

    The scan window [LAMBDA_FLOOR, hi] starts at hi = max(4 / R^2, 2 v0, 1)
    and doubles until a root appears; ArgumentOutOfRange when hi passes
    FIRST_TE_CAP first, at once when the first hi is not finite.
    """
    try:
        hi = max(4.0 / ball.radius**2, 2.0 * ball.v0, 1.0)
    except (ZeroDivisionError, OverflowError):  # R^2 underflows to 0 or overflows
        hi = math.inf
    while hi <= FIRST_TE_CAP:
        row, root, _, _ = _scan_determinant(
            ball, (0,), LAMBDA_FLOOR, hi, DEFAULT_SCAN_STEPS, 1e-12 * max(1.0, hi)
        )
        if row.size:  # the first root by its value before the polish
            return float(root[0])
        hi *= 2.0
    raise ArgumentOutOfRange(
        f"no transmission eigenvalue of radius {ball.radius} found below {FIRST_TE_CAP}"
    )
