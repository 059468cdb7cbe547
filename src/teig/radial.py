"""Independent radial oracle: transmission eigenvalues of a ball with a
constant potential, characterized as zeros of the value/derivative
matching determinant between the regular interior and exterior radial
waves (teig.determinant).

A scan lists each lambda's orders together, so one Bessel ladder per
(lambda, block of 16 orders) serves the whole grid, and every order of a
window shares the grid linspace(LAMBDA_FLOOR, mu, steps) and each
determinant call; a bracket is solved (ITP, with odd-order roots handed to
a batched fit) to the window's tolerance.  No order is scanned below a
lower bound of its first Bessel zero, where D has no root
(_root_free_below), and one rule, _orders_below, picks the orders of a
window.  te_list_up_to is the one listing, of one window: first_tes and
the radial and hypothesis commands read it, and it alone runs the scan.
A count needs less than a listing: te_counts_up_to reads each order's
count of a Helmholtz ball off one determinant sample per (order, window
end) and the Bessel-zero counts of its ladders, and scans nothing.  Both
run on the unit ball: no function below RadialProblem.unit_ball takes a
radius."""

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

    def unit_ball(self, xs):
        """The one map to the unit ball, as D depends on lambda R^2 and v0 R^2
        alone: the unit ball (v0 R^2 for Schrodinger), the windows mu = x R^2
        of ``xs``, and R^2, for lambda = mu / R^2.  ArgumentOutOfRange unless
        each is a positive finite float; the unit ball maps to itself."""
        r2 = self.radius * self.radius
        v0 = self.v0 * r2 if self.kind is ProblemKind.SCHRODINGER else self.v0
        mus = [x * r2 for x in xs]
        named = [("R^2", r2), ("unit-ball v0", v0)] + [(f"{x} R^2", mu) for x, mu in zip(xs, mus)]
        for name, value in named:
            if not 0.0 < value < math.inf:
                raise ArgumentOutOfRange(f"{name} = {value} is not a positive finite float")
        return RadialProblem(self.kind, self.dim, 1.0, v0), mus, r2


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
_POLISH_H = 2e-3  # the polish stencil's first spacing, relative to max(1, |lambda|)
_STENCIL = np.array(_POLISH_STENCIL, dtype=float)
_VANDERMONDE = np.vander(_STENCIL / 8.0, 5, increasing=True)  # in u = offset / 8h, for every fit


def _multiplicity(samples):
    """Root order per row of samples of D on the stencil _POLISH_STENCIL * h
    around a root.

    0 where a sample is non-finite or inside the noise band (< _CLEAN_DET);
    otherwise the odd m >= 3 when D changes sign across the root and each
    of the six dyadic ratios D(2jh)/D(jh) (j = +-1, +-2, +-4) is positive
    with log2 within 0.45 of m, the rounded mean log2; else 1.
    """
    s = np.asarray(samples, dtype=float)
    col = _POLISH_STENCIL.index
    pairs = [(col(j), col(2 * j)) for j in (1, 2, 4, -1, -2, -4)]
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

    Each root gets up to two rounds.  Every step samples D on the 16-point
    stencil _POLISH_STENCIL * h of each pending root, doubling h (at most
    11 times) until the innermost samples clear the noise band; h starts
    at 2e-3 max(1, |lambda|) and shrinks by 0.35 after each fit.  The
    samples of all pending roots share one determinant call per step, so
    roots the stencil reads simple (_multiplicity 1) cost one call, and no
    roots make no call.
    """
    lam = np.array(lams, dtype=float)
    h = _POLISH_H * np.maximum(1.0, np.abs(lam))
    rounds, grows = np.zeros((2, lam.size), dtype=int)
    todo = np.arange(lam.size)
    while todo.size:
        samples = _stencil_samples(det, ells, lam, h, todo)
        m = _multiplicity(samples)
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


def _stencil_samples(det, ells, lam, h, todo):
    """D at lam[i] + _POLISH_STENCIL * h[i] for the roots i in ``todo``, one
    row each, all in one determinant call."""
    points = lam[todo, None] + _STENCIL * h[todo, None]
    return det(np.repeat(ells[todo], _STENCIL.size), points.ravel()).reshape(points.shape)


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
    and if still non-finite ends the bracket at its midpoint.  A bracket
    ends at a point p by closing to a = b = p, whose midpoint is p: at an
    exact zero, p is the probe.  Interpolation crawls at odd-order
    coincidence roots: a bracket whose last two steps shrank it no more
    than two halvings has the polish stencil sampled at its midpoint in
    its next call, and closes at that midpoint for _polish_roots if the
    stencil reads odd order >= 3 with a fit root.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    tol = np.broadcast_to(tol, a.shape)
    kappa, left = 0.2 / (b - a), np.ceil(np.log2((b - a) / tol)) + 1.0  # left: n_max - j
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
            m = _multiplicity(samples)
            (odd,) = np.nonzero(m > 1)
            stop = c[odd[~np.isnan(_fit_roots(samples[odd], h[odd], m[odd]))]]
            a[live[stop]] = b[live[stop]] = mid[stop]
        left[live] -= 1.0
        widths[:, live] = widths[1, live], w
        live = live[go & (b[live] - a[live] > tol[live]) & (left[live] > 0.0)]
    return 0.5 * (a + b)


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


def _root_free_below(n, ells):
    """Per order, a unit-ball lambda at and below which the matching
    determinant has no zero: b(nu)^2 with nu = ell + (n - 2)/2 and the
    lower bound b(nu) = max(nu, 2 (nu+1)^(1/2) (nu+2)^(1/4)) < j_{nu,1}.

    D = 0 exactly when x_i F_i'/F_i = x_e J_nu'/J_nu at x_e = sqrt(lambda)
    and x_i = |kappa|.  By the Mittag-Leffler expansion x J'/J = nu -
    2 sum_k x^2 / (j_{nu,k}^2 - x^2), which is strictly decreasing and
    below nu on (0, j_{nu,1}), while x I'/I > nu; a J interior has x_i <
    x_e (kappa^2 is lambda (1 - v0) or lambda - v0).  So D has no zero
    while x_e < j_{nu,1}.  j_{nu,1} > nu, and the Rayleigh sum
    sum_k j_{nu,k}^-4 = 1/(16 (nu+1)^2 (nu+2)) puts j_{nu,1} above the
    second term (Watson, A Treatise on the Theory of Bessel Functions,
    sections 15.3 and 15.51).
    """
    nu = np.asarray(ells, dtype=float) + 0.5 * (n - 2)
    return np.maximum(nu, 2.0 * np.sqrt(nu + 1.0) * (nu + 2.0) ** 0.25) ** 2


def _scan_pass(det, ells, mu, tol, steps, floor):
    """One sign scan of every row r, order ells[r], on the grid
    linspace(LAMBDA_FLOOR, mu, steps).  The row's cells start at its last
    grid point at or below floor[r] (_root_free_below), and a cell that
    ends there is dropped.  Returns exact grid hits above floor[r] plus one
    root per sign-change cell, solved to width tol, as the table (row,
    root, left, right) sorted by row then root; a hit is its own bracket.
    Points are evaluated lambda-major, so the rows share ladders."""
    grid = np.repeat(np.linspace(LAMBDA_FLOOR, mu, steps)[:, None], ells.size, axis=1)
    # the last point at or below the floor, and every point above it
    keep = grid >= np.max(grid, axis=0, where=grid <= floor, initial=-np.inf)
    lam, rid = grid[keep], np.broadcast_to(np.arange(ells.size), grid.shape)[keep]
    values = det(ells[rid], lam)
    order = np.argsort(rid, kind="stable")  # row by row, each ascending
    lam, rid, values = lam[order], rid[order], values[order]
    (hits,), (cells,) = _sign_brackets(values[None])
    above = lam > floor[rid]
    hits &= above
    (cell,) = np.nonzero(cells & (rid[1:] == rid[:-1]) & above[1:])
    row, a, b = rid[cell], lam[cell], lam[cell + 1]
    found = _bisect_brackets(det, ells[row], a, b, values[cell], values[cell + 1], tol)
    (hit,) = np.nonzero(hits)
    at = lam[hit]
    row, root, left, right = (
        np.concatenate(pair) for pair in ((rid[hit], row), (at, found), (at, a), (at, b))
    )
    order = np.lexsort((root, row))
    return row[order], root[order], left[order], right[order]


def _scan_determinant(kind, dim, v0, ells, mu, steps):
    """Sign scan of the determinant of the unit ball (kind, dim, v0) up to
    mu, one row per order in ``ells`` (each with its _root_free_below under
    mu), brackets solved to width 1e-10 max(1, mu) (_scan_pass); returns
    the table (row, root, left, right) of four arrays, sorted by row then
    by the root before its polish, with [left, right] the root's bracket.

    All rows share each determinant call: the grid, every solver step and
    the polish stencils.  Where two roots of a row lie within 5 cells, the
    row's roots come from a second pass at twice the steps (alias guard);
    every root is polished against odd-order degeneracy.  Values do not
    depend on the batch and each bracket decides alone, so rows scan as
    if alone.
    """
    ells = np.array(ells, dtype=float)
    _check_window(kind, v0, np.repeat(ells, 2), np.tile((LAMBDA_FLOOR, mu), ells.size))

    def det(ell, lam):
        return _det_grid(kind, dim, v0, ell, lam)

    floor, tol = _root_free_below(dim, ells), 1e-10 * max(1.0, mu)
    table = _scan_pass(det, ells, mu, tol, steps, floor)
    row, root, _, _ = table
    spacing = (mu - LAMBDA_FLOOR) / (steps - 1)
    close = (row[1:] == row[:-1]) & (np.diff(root) < _CLOSE_ROOT_CELLS * spacing)
    again = np.unique(row[1:][close])  # the rows with two roots within 5 cells
    if again.size:
        new = _scan_pass(det, ells[again], mu, tol, 2 * steps, floor[again])
        new = (again[new[0]], *new[1:])
        keep = ~np.isin(row, again)
        table = [np.concatenate((o[keep], n)) for o, n in zip(table, new)]
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


def _orders_below(n, ell_max, mu):
    """The number k of orders a window up to the unit-ball lambda mu samples:
    the orders 0 .. k - 1, up to top_order(n, ell_max), whose
    _root_free_below (rising with ell) lies below mu.  None past
    adaptive_ell_max of mu (or of the Bessel window's edge) is looked at."""
    top = min(top_order(n, ell_max), adaptive_ell_max(n, min(mu, BESSEL_J_MAX_ARG**2)))
    return int(np.count_nonzero(_root_free_below(n, np.arange(top + 1)) < mu))


def te_list_up_to(base, x, ell_max, steps=DEFAULT_SCAN_STEPS):
    """The sorted tuple of (lambda, ell, degeneracy, left, right) entries:
    all transmission eigenvalues of the ball up to x for ell <=
    top_order(dim, ell_max), each with its bracket [left, right] (a grid
    hit is its own bracket).  Orders with no root do not stop the sweep;
    roots are not monotone in ell.

    The unit ball (RadialProblem.unit_ball) is scanned up to mu = x R^2 on
    the grid linspace(LAMBDA_FLOOR, mu, steps), brackets solved to 1e-10
    max(1, mu) (_scan_determinant), and a root mu is listed as mu / R^2.
    Only the orders 0 .. k - 1 of _orders_below are scanned, and the scan
    budget counts those rows alone.  steps must be at least 2.
    """
    unit, (mu,), r2 = base.unit_ball([x])
    rows = _orders_below(base.dim, ell_max, mu)
    _check_scan_size(rows, steps)
    if steps < 2:
        raise ValidationError(f"scan needs steps >= 2, got {steps}")
    if not rows:  # the window ends in every order's root-free zone
        return ()
    table = _scan_determinant(unit.kind, unit.dim, unit.v0, range(rows), mu, steps)
    row, root, left, right = (column.tolist() for column in table)
    degeneracy = [harmonic_multiplicity(base.dim, ell) for ell in row]
    table = sorted(zip(root, row, degeneracy, left, right))
    return tuple((lam / r2, ell, d, a / r2, b / r2) for lam, ell, d, a, b in table)


def te_counts_up_to(base, xs, ell_maxes):
    """One int array per (x, ell_max): the number of transmission
    eigenvalues up to x of a Helmholtz ball with 0 < v0 < 1 in each order
    0 .. k - 1 the listing of the window scans (k = _orders_below of mu =
    x R^2), from one determinant sample per (order, window end) and no
    scan.  Every order past k has no root up to x, as its bound is at
    least mu.

    With c = sqrt(1 - v0) < 1, t = sqrt(mu), phi(t) = t J_nu'(t) / J_nu(t)
    and g(t) = phi(t) - phi(c t), D's numerator is -J_nu(c t) J_nu(t) g(t)
    (x G = (nu - phi) F, the README's relation).  Bessel's equation gives
    phi' = (nu^2 - t^2 - phi^2) / t, so g' = -(1 - c^2) t < 0 at every zero
    of g; g jumps from -inf to +inf at each zero of J_nu(t) and back at
    each zero of J_nu(c t), and g(0+) < 0.  So the gap between two
    consecutive zeros of J_nu(t) holds one root if no zero of J_nu(c t)
    falls in it and none otherwise, and an order holds N = Z(t) - Z(c t) -
    [g(t) > 0] roots in (0, mu], Z(t) the number of zeros of J_nu in (0,
    t) and [g > 0] = [(-1)^(Z(t) + Z(c t)) D < 0].  Z is read off the
    ladders of the one determinant call, whose points (order, mu) run
    window after window, so a window's orders share their ladders.

    Where |D(mu)| < EXACT_HIT_TOL the sign of D says nothing: the
    listing's grid reads mu as a root (a hit), and at the coincidence
    roots on the default ball's window ends D stays below it within about
    1e-6 of the root.  Such a point keeps the listing's rule: N at the
    grid point before mu in linspace(LAMBDA_FLOOR, mu, DEFAULT_SCAN_STEPS),
    plus 1 if _polish_roots leaves the hit at or below x.

    Runs on the unit ball of ``base`` (RadialProblem.unit_ball) and raises
    the listing's ArgumentOutOfRange at a window end outside the Bessel
    window; ValidationError for any other ball.
    """
    unit, mus, r2 = base.unit_ball(xs)
    if unit.kind is not ProblemKind.HELMHOLTZ or not 0.0 < unit.v0 < 1.0:
        raise ValidationError(f"a count needs a Helmholtz ball with 0 < v0 < 1, got {base}")
    sizes = [_orders_below(base.dim, ell_max, mu) for ell_max, mu in zip(ell_maxes, mus)]
    ells = np.concatenate([np.arange(k, dtype=float) for k in sizes])
    ends, at = np.repeat(mus, sizes), np.repeat(xs, sizes)
    count = np.zeros(ells.size, dtype=int)
    if ells.size:
        _check_window(unit.kind, unit.v0, ells, ends)

        def det(ell, lam, zeros=False):
            return _det_grid(unit.kind, unit.dim, unit.v0, ell, lam, zeros)

        count, d = _root_counts(det, ells, ends)
        (tie,) = np.nonzero(np.abs(d) < EXACT_HIT_TOL)
        if tie.size:
            before = np.linspace(LAMBDA_FLOOR, ends[tie], DEFAULT_SCAN_STEPS)[-2]
            tie_count, _ = _root_counts(det, ells[tie], before)
            # the listing's tie rule; counting a root at x in would read tie_count + 1
            count[tie] = tie_count + (_polish_roots(det, ells[tie], ends[tie]) / r2 <= at[tie])
    return np.split(count, np.cumsum(sizes)[:-1])


def _root_counts(det, ells, mus):
    """N = Z(t) - Z(c t) - [(-1)^(Z(t) + Z(c t)) D < 0] roots in (0, mu] of
    each point (order, mu) of a Helmholtz unit ball with 0 < v0 < 1
    (te_counts_up_to), and D, from one determinant call."""
    d, (z_e, z_i) = det(ells, mus, zeros=True)
    return z_e - z_i - (np.where((z_e + z_i) % 2, -d, d) < 0.0), d


def adaptive_ell_max(n, mu):
    """Angular cutoff for the unit-ball window end mu: every order above it
    has no root up to mu.  Such an order has nu = ell + (n - 2)/2 >=
    sqrt(mu) + 2, so its _root_free_below is at least nu^2 > mu; the 2
    orders of margin hold no root either."""
    return int(math.ceil(math.sqrt(mu) - 0.5 * (n - 2))) + 2


def first_tes(balls):
    """The smallest transmission eigenvalue of angular order 0 of each
    RadialProblem of the iterable ``balls``, in turn: the first entry of
    te_list_up_to(unit, mu, 0) on its unit ball, over R^2.  mu starts
    at twice the order-0 _root_free_below and doubles until the window
    lists a root, once per distinct unit ball (balls that differ in their
    radius alone share one).  Each ball is mapped to its unit ball, and
    its root divided, before the next is read: ArgumentOutOfRange once
    sqrt(mu) passes BESSEL_J_MAX_ARG before the window lists a root, or if
    the root over R^2 overflows."""
    found, tes = {}, []
    for ball in balls:
        unit, _, r2 = ball.unit_ball([])
        if unit not in found:
            mu, entries = 2.0 * float(_root_free_below(ball.dim, [0])[0]), ()
            while not entries and math.sqrt(mu) <= BESSEL_J_MAX_ARG:
                entries = te_list_up_to(unit, mu, 0)
                mu *= 2.0
            found[unit] = entries[0][0] if entries else math.inf
        if not found[unit] / r2 < math.inf:
            raise ArgumentOutOfRange(
                f"no first root mu <= {BESSEL_J_MAX_ARG}^2 is finite over R^2 = {r2}"
            )
        tes.append(found[unit] / r2)
    return tes


def first_te(ball):
    """first_tes of the one RadialProblem ``ball``."""
    (te,) = first_tes([ball])
    return te
