"""Independent radial oracle: transmission eigenvalues of a ball with a
constant potential, characterized as zeros of the value/derivative
matching determinant between the regular interior and exterior radial
waves (teig.determinant).

A scan lists each lambda's orders together, so one Bessel ladder per
(lambda, block of 16 orders) serves the whole grid; the windows of one
problem are scanned together and share every determinant call.  Nested
windows scan each order once: on each segment between consecutive window
ends the grid is that window's own, the joint is one point of both
segments, and a bracket is solved (ITP, with odd-order roots handed to a
batched fit) to its segment's window tolerance.  No order is scanned below
a lower bound of its first Bessel zero, where D has no root
(_root_free_below).  te_lists_up_to is the one listing: first_te and
every radial command read it, and it alone runs the scan.
"""

import math
from dataclasses import dataclass

import numpy as np

from .determinant import _check_window, _det_grid
from .errors import ArgumentOutOfRange, ProblemTooLarge, UnsupportedDimension, ValidationError
from .model import MEMORY_BUDGET_BYTES, ProblemKind, check_constant_potential
from .specfun import BESSEL_J_MAX_ARG

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
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValidationError(f"radius must be finite and > 0, got {self.radius}")
        check_constant_potential(self.kind, self.v0)


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


def harmonic_multiplicity(n, ell):
    """Dimension of the degree-ell spherical harmonics on R^n (n <= 3)."""
    if n not in (1, 2, 3):
        raise UnsupportedDimension(f"dim must be 1, 2 or 3, got {n}")
    if ell < 0:
        raise ValidationError(f"ell must be >= 0, got {ell}")
    first = math.comb(ell + n - 1, ell)
    second = math.comb(ell + n - 3, ell - 2) if ell >= 2 and ell + n - 3 >= 0 else 0
    return first - second


DEFAULT_SCAN_STEPS = 400
_CLOSE_ROOT_CELLS = 5
_CLEAN_DET = 1e-11  # samples below this are inside the fp noise band
_POLISH_STENCIL = tuple(j for j in range(-8, 9) if j != 0)
_PRESCREEN = (-2, -1, 1, 2)  # the stencil's inner offsets, sampled first
_POLISH_H = 2e-3  # the polish stencil's first spacing, relative to max(1, |lambda|)
_STENCIL = np.array(_POLISH_STENCIL, dtype=float)
_VANDERMONDE = np.vander(_STENCIL / 8.0, 5, increasing=True)  # in u = offset / 8h, for every fit


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


def _fit_roots(samples, h, m):
    """Offset of the root nearest each stencil centre from a weighted quartic
    fit of sign(D)|D|^(1/m) to its row of samples, NaN where no real root
    lies inside the stencil: all rows' least-squares problems in u in one
    modified Gram-Schmidt pass, then Newton's method from u = 0."""
    w = np.abs(samples) ** (1.0 - 1.0 / m[:, None])
    t = np.sign(samples) * np.abs(samples) ** (1.0 / m[:, None])
    q = np.concatenate((w[..., None] * _VANDERMONDE, (w * t)[..., None]), axis=2)
    r = np.zeros((len(q), 5, 6))  # [R | Q^T W t] with a unit diagonal, Q^T Q diagonal
    for k in range(5):
        qk = q[:, :, k]
        r[:, k, k + 1 :] = np.einsum("ij,ijl->il", qk, q[:, :, k + 1 :]) / (qk * qk).sum(1)[:, None]
        q[:, :, k + 1 :] -= qk[..., None] * r[:, None, k, k + 1 :]
    for k in range(3, -1, -1):  # back substitution: column 5 becomes the coefficients
        r[:, k, 5] -= np.einsum("ij,ij->i", r[:, k, k + 1 : 5], r[:, k + 1 :, 5])
    down = r[:, ::-1, 5].T  # the coefficients in np.polyval's order, one column per fit
    slope = down[:-1] * np.arange(4.0, 0.0, -1.0)[:, None]
    u = np.zeros(len(q))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(50):
            step = np.polyval(down, u) / np.polyval(slope, u)
            u -= step
            if not (np.abs(step) > 1e-15).any():
                break
    return np.where((np.abs(u) <= 1.0) & (np.abs(step) <= 1e-12), 8.0 * u * h, np.nan)


def _polish_roots(det, ells, lams):
    """Sharpen sign-change roots at which the determinant vanishes to odd
    order > 1 (interior and exterior Dirichlet traces vanishing together).

    A bracket solver stalls at the floating-point noise floor there, so the
    root is re-estimated from clean off-root samples: sign(D)|D|^(1/m) is
    smooth with a simple zero, and a weighted quartic fit of it is solved
    for the root (_fit_roots, all roots of a round at once).  Simple roots
    are detected and left untouched.

    Each root gets up to two rounds.  A round samples D on a 16-point
    stencil of spacing h, doubling h (at most 11 times) until the innermost
    samples clear the noise band; h starts at 2e-3 max(1, |lambda|) and
    shrinks by 0.35 after each fit.  The first round starts from the four
    inner samples at +-h and +-2h alone, and a root they show simple
    (_multiplicity 1) is left untouched without the other twelve.  The
    samples of all pending roots share one determinant call per step, and
    no roots make no call.
    """
    lam = np.array(lams, dtype=float)
    if not lam.size:
        return lam
    h = _POLISH_H * np.maximum(1.0, np.abs(lam))
    rounds, grows = np.zeros((2, lam.size), dtype=int)
    samples = _stencil_samples(det, ells, lam, h, np.arange(lam.size), _PRESCREEN)
    todo = np.flatnonzero(_multiplicity(samples, _PRESCREEN) != 1)
    while todo.size:
        samples = _stencil_samples(det, ells, lam, h, todo, _POLISH_STENCIL)
        m = _multiplicity(samples, _POLISH_STENCIL)
        # widen a noisy stencil until its innermost samples clear the noise band
        noisy = (m == 0) & np.isfinite(samples).all(axis=1)
        h[todo[noisy]] *= 2.0
        grows[todo[noisy]] += 1
        again = noisy & (grows[todo] < 12)
        odd = np.flatnonzero(m > 1)
        shift = _fit_roots(samples[odd], h[todo[odd]], m[odd])
        odd, shift = odd[~np.isnan(shift)], shift[~np.isnan(shift)]
        i = todo[odd]
        lam[i] += shift
        h[i] *= 0.35
        rounds[i] += 1
        grows[i] = 0
        again[odd] = rounds[i] < 2
        todo = todo[again]
    return lam


def _stencil_samples(det, ells, lam, h, todo, offsets):
    """D at lam[i] + offsets * h[i] for the roots i in ``todo``, one row
    each, all in one determinant call."""
    points = lam[todo, None] + np.array(offsets, dtype=float) * h[todo, None]
    return det(np.repeat(ells[todo], len(offsets)), points.ravel()).reshape(points.shape)


def _bisect_brackets(det, ells, a, b, fa, fb, tol):
    """Solve every bracket [a_i, b_i] of order ells[i] to width tol (a
    scalar or one per bracket) by ITP (Oliveira & Takahashi, ACM TOMS 47(1),
    2021; kappa1 = 0.2 / (b - a), kappa2 = 2, n0 = 1), all brackets sharing
    one determinant call per step, and return the midpoints.  The truncation
    steps at least tol / 4 (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4), so a probe next to a simple root crosses it.

    ``det(ells, lambdas)`` evaluates D on arrays; fa_i = D(a_i) and fb_i =
    D(b_i) are nonzero, of opposite signs.  Probes lie strictly inside, and
    a bracket ends in ceil(log2((b - a) / tol)) + 1 steps.  A non-finite
    probe falls back to the midpoint nudged by 1e-6 of a quarter bracket,
    and if still non-finite ends the bracket at its midpoint; an exact zero
    is the root.  Interpolation crawls at odd-order coincidence roots: a
    bracket whose last two steps shrank it no more than two halvings has
    the polish stencil sampled at its midpoint in its next call, and stops
    there for _polish_roots if that reads odd order >= 3 with a fit root.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    tol = np.broadcast_to(tol, a.shape)
    kappa, left = 0.2 / (b - a), np.ceil(np.log2((b - a) / tol)) + 1.0  # left: n_max - j
    handed = np.full(a.shape, np.nan)  # the midpoint a bracket stopped at
    widths = np.full((2,) + a.shape, np.inf)  # two steps ago, one step ago
    live = np.flatnonzero(b - a > tol)
    while live.size:
        lo, hi, f_lo, f_hi = a[live], b[live], fa[live], fb[live]
        w, mid = hi - lo, 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
        sigma, delta = np.sign(mid - x), np.maximum(kappa[live] * w * w, 0.25 * tol[live])
        x = np.where(delta <= np.abs(mid - x), x + sigma * delta, mid)
        r = 0.5 * tol[live] * 2.0 ** left[live] - 0.5 * w
        x = np.where(np.abs(x - mid) <= r, x, mid - sigma * r)
        x = np.where((lo < x) & (x < hi), x, mid)
        (c,) = np.nonzero(4.0 * w >= widths[0, live])  # slow brackets, checked
        h = _POLISH_H * np.maximum(1.0, np.abs(mid[c]))
        near = (mid[c, None] + _STENCIL * h[:, None]).ravel()
        fx = det(np.r_[ells[live], np.repeat(ells[live[c]], _STENCIL.size)], np.r_[x, near])
        samples, fx = fx[live.size :].reshape(c.size, _STENCIL.size), fx[: live.size]
        bad = ~np.isfinite(fx)
        if bad.any():
            x[bad] = mid[bad] + 0.25 * w[bad] * 1e-6
            fx[bad] = det(ells[live[bad]], x[bad])
        zero, go = fx == 0.0, np.isfinite(fx) & (fx != 0.0)
        to_b, to_a = go & (f_lo * fx < 0.0), go & ~(f_lo * fx < 0.0)
        b[live], fb[live] = np.where(to_b, x, hi), np.where(to_b, fx, f_hi)
        a[live], fa[live] = np.where(to_a, x, lo), np.where(to_a, fx, f_lo)
        a[live[zero]] = b[live[zero]] = x[zero]
        if c.size:
            m = _multiplicity(samples, _POLISH_STENCIL)
            (odd,) = np.nonzero(m > 1)
            stop = c[odd[~np.isnan(_fit_roots(samples[odd], h[odd], m[odd]))]]
            handed[live[stop]], go[stop] = mid[stop], False
        left[live] -= 1.0
        widths[:, live] = widths[1, live], w
        live = live[go & (b[live] - a[live] > tol[live]) & (left[live] > 0.0)]
    return np.where(np.isnan(handed), 0.5 * (a + b), handed)


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


def _root_free_below(n, radius, ells):
    """Per order, a lambda at and below which the matching determinant has
    no zero: (b(nu)/R)^2 with nu = ell + (n - 2)/2 and the lower bound
    b(nu) = max(nu, 2 (nu+1)^(1/2) (nu+2)^(1/4)) < j_{nu,1}.

    D = 0 exactly when x_i F_i'/F_i = x_e J_nu'/J_nu at x_e = sqrt(lambda) R
    and x_i = |kappa| R.  By the Mittag-Leffler expansion x J'/J = nu -
    2 sum_k x^2 / (j_{nu,k}^2 - x^2), which is strictly decreasing and
    below nu on (0, j_{nu,1}), while x I'/I > nu; a J interior has x_i <
    x_e (kappa^2 is lambda (1 - v0) or lambda - v0).  So D has no zero
    while x_e < j_{nu,1}.  j_{nu,1} > nu, and the Rayleigh sum
    sum_k j_{nu,k}^-4 = 1/(16 (nu+1)^2 (nu+2)) puts j_{nu,1} above the
    second term (Watson, A Treatise on the Theory of Bessel Functions,
    sections 15.3 and 15.51).
    """
    nu = np.asarray(ells, dtype=float) + 0.5 * (n - 2)
    b = np.maximum(nu, 2.0 * np.sqrt(nu + 1.0) * (nu + 2.0) ** 0.25)
    return (b / radius) ** 2


def _window(hi, row, right):
    """The window of each bracket: the index of the first of its row's
    ends at or above its right end."""
    return np.argmax(hi[row] >= right[:, None], axis=1)


def _scan_pass(det, ells, hi, tol, steps, floor):
    """One sign scan of every row r, order ells[r] over its window ends
    hi[r] (ascending, NaN for a window the row skips).  On each segment
    (e', e] between consecutive ends the row's grid takes the points of
    linspace(LAMBDA_FLOOR, e, steps), so a joint e' is one point of both
    segments.  The row's cells start at its last grid point at or below
    floor[r] (_root_free_below): each window keeps at most one point at or
    below it, and a cell that ends there is dropped.  Returns exact grid
    hits above floor[r] and LAMBDA_FLOOR plus one root per sign-change
    cell, solved to tol[r, j] of the window j of the cell's right end, as
    the table (row, root, left, right) sorted by row then root; a hit is
    its own bracket.  D vanishes like lambda as lambda -> 0, so a hit at
    the floor is no root.  Points are evaluated window by window,
    lambda-major, so the rows of a window share ladders."""
    lam, rid = [], []
    last = np.full(ells.shape, -np.inf)  # each row's previous window end
    for end in hi.T:
        (r,) = np.nonzero(~np.isnan(end))
        grid = np.linspace(LAMBDA_FLOOR, end[r], steps)  # (steps, rows of this window)
        keep = grid > last[r]
        # the last point at or below the floor, and every point above it
        keep &= grid >= np.max(grid, axis=0, where=keep & (grid <= floor[r]), initial=-np.inf)
        lam.append(grid[keep])
        rid.append(np.broadcast_to(r, grid.shape)[keep])
        last[r] = end[r]
    lam, rid = np.concatenate(lam), np.concatenate(rid)
    values = det(ells[rid], lam)
    order = np.argsort(rid, kind="stable")  # row by row, each ascending
    lam, rid, values = lam[order], rid[order], values[order]
    (hits,), (cells,) = _sign_brackets(values[None])
    above = lam > np.maximum(LAMBDA_FLOOR, floor[rid])
    hits &= above
    (cell,) = np.nonzero(cells & (rid[1:] == rid[:-1]) & above[1:])
    row, a, b = rid[cell], lam[cell], lam[cell + 1]
    found = _bisect_brackets(
        det, ells[row], a, b, values[cell], values[cell + 1], tol[row, _window(hi, row, b)]
    )
    (hit,) = np.nonzero(hits)
    at = lam[hit]
    row, root, left, right = (
        np.concatenate(pair) for pair in ((rid[hit], row), (at, found), (at, a), (at, b))
    )
    order = np.lexsort((root, row))
    return row[order], root[order], left[order], right[order]


def _scan_determinant(ball, ells, hi, steps, tol):
    """Sign scan of the determinant of the RadialProblem ``ball``, one row
    per order in ``ells`` from LAMBDA_FLOOR over its window ends hi, solved
    to width tol; returns the table (row, root, left, right) of four
    arrays, sorted by row then by the root before its polish, with [left,
    right] the root's bracket.  hi and tol are one value per (row,
    window), the ends above LAMBDA_FLOOR, ascending and NaN where a row
    skips a window (_scan_pass), so the nested windows of one problem scan
    each order once.

    All rows share each determinant call: the grids, every solver step and
    the polish stencils.  Where two roots that a window of a
    row lists (brackets ending at or below its end) lie within 5 of that
    window's cells, the roots of the window's segment come from a second
    pass at twice the steps (alias guard); every root is polished against
    odd-order degeneracy.  Values do not depend on the batch and each
    bracket decides alone, so rows scan as if alone.
    """
    ells = np.array(ells, dtype=float)
    ell_ends, ends = np.broadcast_arrays(ells[:, None], np.insert(hi, 0, LAMBDA_FLOOR, axis=1))
    known = ~np.isnan(ends)
    _check_window(ball.kind, ball.radius, ball.v0, ell_ends[known], ends[known])

    def det(ell, lam):
        return _det_grid(ball.kind, ball.dim, ball.radius, ball.v0, ell, lam)

    floor = _root_free_below(ball.dim, ball.radius, ells)
    table = _scan_pass(det, ells, hi, tol, steps, floor)
    row, root, _, right = table
    pair = np.flatnonzero(row[1:] == row[:-1])  # consecutive roots of one row
    spacing = (hi - LAMBDA_FLOOR) / (steps - 1)
    near = (right[pair + 1, None] <= hi[row[pair]]) & (
        np.diff(root)[pair, None] < _CLOSE_ROOT_CELLS * spacing[row[pair]]
    )
    close = np.zeros(hi.shape, dtype=bool)
    p, w = np.nonzero(near)
    close[row[pair[p]], w] = True
    if close.any():
        (again,) = np.nonzero(close.any(axis=1))
        new = _scan_pass(det, ells[again], hi[again], tol[again], 2 * steps, floor[again])
        new = (again[new[0]], *new[1:])
        old_keep = ~close[row, _window(hi, row, right)]
        new_keep = close[new[0], _window(hi, new[0], new[3])]
        table = [np.concatenate((o[old_keep], n[new_keep])) for o, n in zip(table, new)]
        order = np.lexsort((table[1], table[0]))
        table = [column[order] for column in table]
    row, root, left, right = table
    return row, _polish_roots(det, ells[row], root), left, right


def top_order(n, ell_max):
    """The largest angular order a ball in dimension n has up to ell_max:
    ell_max itself, except that dimension 1 has orders 0 and 1 only
    (harmonic_multiplicity(1, ell >= 2) == 0)."""
    if ell_max < 0:
        raise ValidationError(f"ell_max must be >= 0, got {ell_max}")
    return ell_max if n > 1 else min(ell_max, 1)


def te_lists_up_to(base, xs, ell_maxes, steps=DEFAULT_SCAN_STEPS):
    """One tuple of (lambda, ell, degeneracy, left, right) entries per (x,
    ell_max), sorted: all transmission eigenvalues of the ball up to x for
    ell <= top_order(dim, ell_max), each with its bracket [left, right] (a
    grid hit is its own bracket).  Orders with no root do not stop the
    sweep; roots are not monotone in ell.

    The windows are nested, so each order is scanned once
    (_scan_determinant), on each segment (x', x] on that window's own grid
    linspace(LAMBDA_FLOOR, x, steps) with brackets solved to 1e-10
    max(1, x); window (x, ell_max) lists the roots of its orders whose
    bracket ends at or below x.  So a root has the bits that scanning
    alone the smallest window listing it gives, except in the first cell
    past a joint, which starts at the joint.  No order is scanned in its
    root-free zone (_root_free_below).  Every x must exceed LAMBDA_FLOOR
    (ArgumentOutOfRange), and steps be at least 2.
    """
    tops = []
    for x, ell_max in zip(xs, ell_maxes):
        if not x > LAMBDA_FLOOR:
            raise ArgumentOutOfRange(f"x must be > the scan floor {LAMBDA_FLOOR}, got {x}")
        tops.append(top_order(base.dim, ell_max))
    _check_scan_size(sum(top + 1 for top in tops), steps)
    if steps < 2:
        raise ValidationError(f"scan needs steps >= 2, got {steps}")
    ends = sorted(set(map(float, xs)))
    holds = np.zeros((max(tops) + 1, len(ends)), dtype=bool)  # (order, window end)
    for x, top in zip(xs, tops):
        holds[: top + 1, ends.index(x)] = True
    his = np.where(holds, ends, np.nan)
    tols = 1e-10 * np.maximum(1.0, his)
    row, root, left, right = _scan_determinant(base, range(holds.shape[0]), his, steps, tols)
    degeneracy = [harmonic_multiplicity(base.dim, ell) for ell in row.tolist()]
    table = sorted(zip(root.tolist(), row.tolist(), degeneracy, left.tolist(), right.tolist()))
    # a window lists its orders' roots whose bracket ends at or below it
    return [tuple(e for e in table if e[1] <= top and e[4] <= x) for x, top in zip(xs, tops)]


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


def first_te(ball):
    """Smallest transmission eigenvalue of angular order 0 of the
    RadialProblem ``ball``: the first entry of te_lists_up_to(ball, [hi],
    [0]).

    The window end hi starts at max(4 / R^2, 2 v0, 1) and doubles until
    the window lists a root; ArgumentOutOfRange once the exterior argument
    sqrt(hi) R passes BESSEL_J_MAX_ARG before that, at once when the first
    hi is not finite.
    """
    try:
        hi = max(4.0 / ball.radius**2, 2.0 * ball.v0, 1.0)
    except (ZeroDivisionError, OverflowError):  # R^2 underflows to 0 or overflows
        hi = math.inf
    while math.sqrt(hi) * ball.radius <= BESSEL_J_MAX_ARG:
        (entries,) = te_lists_up_to(ball, [hi], [0])
        if entries:
            return entries[0][0]
        hi *= 2.0
    raise ArgumentOutOfRange(
        f"no transmission eigenvalue of radius {ball.radius} found while the exterior "
        f"Bessel argument stays within {BESSEL_J_MAX_ARG}"
    )
