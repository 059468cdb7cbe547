"""The value/derivative matching determinant D of the radial oracle
(teig.radial) on arrays of (order, lambda) points, and the Bessel validity
window its arguments must lie in.

Each column is the dimensionless Cauchy data (y, R y') of its wave at the
boundary, built from the Bessel pair (F_nu, F_{nu+1}) and scaled to unit
Euclidean norm.  So D is the sine of the angle between the two columns: it
lies in [-1, 1], survives the extreme dynamic range of high-order Bessel
functions, the positive scales the Bessel kernels leave on the columns
cancel, and it depends on lambda R^2 and v0 R^2 alone: every lambda and
Schrodinger v0 here is the unit ball's (teig.radial.RadialProblem.unit_ball).
"""

import numpy as np

from .errors import ArgumentOutOfRange
from .model import ProblemKind
from .specfun import (
    BESSEL_I_MAX_ARG,
    BESSEL_J_MAX_ARG,
    _i_pair,
    _ladders,
    _read,
    _runs,
    _starts,
    bessel_j_min_arg,
)

DEGENERATE_KAPPA_SQ = 1e-14


def _kappa_sq(kind, v0, lam):
    """Squared interior wavenumber: lambda - v0 (Schrodinger) or
    lambda(1 - v0) (Helmholtz)."""
    if kind is ProblemKind.SCHRODINGER:
        return lam - v0
    return lam * (1.0 - v0)


def _bessel_window(kind, v0, ell, lam):
    """The Bessel validity rule on arrays of orders and lambdas.  Returns
    kappa^2 and three arrays with a first axis of 2 (exterior wave,
    interior wave): the arguments x = (sqrt(lambda), |kappa|),
    whether the wave is a J (oscillatory: the exterior one always, the
    interior one where kappa^2 > 0) rather than an I, and whether x lies in
    the window, [bessel_j_min_arg(ell), 200] for J and <= 60 for I."""
    ksq = _kappa_sq(kind, v0, lam)
    x = np.stack((np.sqrt(np.maximum(lam, 0.0)), np.sqrt(np.abs(ksq))))
    oscillatory = np.stack((np.ones(ksq.shape, dtype=bool), ksq > 0.0))
    j_inside = (x >= bessel_j_min_arg(ell)) & (x <= BESSEL_J_MAX_ARG)
    return ksq, x, oscillatory, np.where(oscillatory, j_inside, x <= BESSEL_I_MAX_ARG)


def _check_window(kind, v0, ells, lams):
    """Raise ArgumentOutOfRange at the first point (ells[i], lams[i]) of two
    float arrays of one shape where a Bessel argument leaves its window
    (_bessel_window), the exterior one first."""
    _, x, oscillatory, inside = _bessel_window(kind, v0, ells, lams)
    bad = np.argwhere(~inside.T)  # (point, wave) pairs
    if bad.size:
        i, wave = bad[0]
        x_max = BESSEL_J_MAX_ARG if oscillatory[wave, i] else BESSEL_I_MAX_ARG
        at = x[wave, i]
        limit = f"exceeds {x_max}" if at > x_max else f"is below {bessel_j_min_arg(ells[i])}"
        raise ArgumentOutOfRange(
            f"{('exterior', 'interior')[wave]} Bessel argument {at} {limit} at lambda R^2 = "
            f"{lams[i]}, order {ells[i]:g}"
        )


_DET_CHUNK = 2048  # points per slice of the per-point work; bounds its temporaries


def _det_grid(kind, n, v0, ells, lambdas, zeros=False):
    """Normalized matching determinant at the points (ells[i], lambdas[i]):
    with x = k and G = F_{nu+1}, (x_e F_i G_e - s x_i F_e G_i) over the
    Euclidean norms of the columns (F, ell F - s x G), s = +1 for a J
    interior and -1 for an I one (the module docstring).  With ``zeros``,
    also the number of zeros of F_nu in (0, x) of each wave, as an int
    array (2, points) (exterior, interior; 0 for an I wave and outside D's
    domain), read off the ladders (teig.specfun._read).

    ``ells`` and ``lambdas`` are 1-D and broadcast against each other.  The
    value is NaN at degenerate interior wavenumbers, at lambda <= 0 and
    where an argument leaves the Bessel validity window (scan callers skip
    such points).  The J ladders of all points recur in one _ladders pass;
    the rest goes in slices of at most _DET_CHUNK points, twice: once to
    list each slice's ladders (consecutive points at one lambda share
    them, which saves time only) and once to read the pairs and form D.
    The last slice's points are still at hand from the first sweep, so a
    call of one slice evaluates its window once."""
    ells, lambdas = np.broadcast_arrays(
        np.asarray(ells, dtype=float), np.asarray(lambdas, dtype=float)
    )
    nu0 = 0.5 * (n - 2)
    parts = [slice(start, start + _DET_CHUNK) for start in range(0, lambdas.size, _DET_CHUNK)]
    ladders, last = _det_ladders(kind, nu0, v0, ells, lambdas, parts, zeros)
    out = np.empty(lambdas.shape)
    count = np.zeros((2,) + lambdas.shape, dtype=int) if zeros else None
    first = 0  # each slice's first ladder
    for p in parts:
        points = last if p is parts[-1] else _det_points(kind, v0, ells[p], lambdas[p])
        part = None if count is None else count[:, p]
        out[p], first = _det_chunk(nu0, points, ladders, first, part)
    return (out, count) if zeros else out


def _det_chunk(nu0, points, ladders, first, count):
    """_det_grid on the _det_points of at most _DET_CHUNK points, whose
    ladders are those of ``ladders`` from ``first`` on; returns the values
    and the next slice's first ladder, and writes the zero counts of the
    waves into ``count`` (2, points) unless it is None."""
    ok, ell, x, oscillatory, rung, xj = points
    out = np.full(ok.shape, np.nan)
    if not ell.size:
        return out, first
    new = _starts(rung, xj)
    ladder = np.cumsum(new)
    ladder += first - 1
    # exterior and interior pairs (F, G) (every exterior wave is a J); a
    # column (y, R y') / R^p is (F, ell F - s x G), s = +1 for J and -1 for
    # I, as p + nu = ell
    fg, z = _read(ladders, ladder, rung)
    inner_j = oscillatory[1]
    if count is not None:
        count[0, ok] = z[: ell.size]
        count[1, np.flatnonzero(ok)[inner_j]] = z[ell.size :]
    if inner_j.all():
        f, g = fg.reshape(2, 2, ell.size)
    else:
        f, g = np.empty((2, 2, ell.size))
        f[0], g[0] = fg[:, : ell.size]
        f[1, inner_j], g[1, inner_j] = fg[:, ell.size :]
        f[1, ~inner_j], g[1, ~inner_j] = _i_pair(nu0 + ell[~inner_j], x[1, ~inner_j])
    sxg = np.where(oscillatory, x, -x) * g
    norm = np.hypot(f, ell * f - sxg)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num, den = f[1] * sxg[0] - f[0] * sxg[1], norm[0] * norm[1]
        d = num / den  # a zero column gives NaN
        redo = ~(np.isfinite(num) & np.isfinite(den))
        if redo.any():  # the pairs' 2^(500 shift) scale overflowed: unit columns first
            u, v = f[:, redo] / norm[:, redo], sxg[:, redo] / norm[:, redo]
            d[redo] = u[1] * v[0] - u[0] * v[1]
    out[ok] = d
    return out, first + np.count_nonzero(new)


def _det_ladders(kind, nu0, v0, ells, lambdas, parts, zeros):
    """The _ladders pass of the J waves of every slice ``parts`` of the
    points (counting their zeros with ``zeros``), the ladders of each slice
    after those of the slices before it (None without a J wave), and the
    last slice's _det_points."""
    x, low, width, points = [], [], 0, None
    for p in parts:
        points = _det_points(kind, v0, ells[p], lambdas[p])
        _, xs, lows, most = _runs(*points[-2:])
        x.append(xs)
        low.append(lows)
        width = max(width, most)
    if not width:
        return None, points
    x, low = np.concatenate(x), np.concatenate(low)  # the slices' arrays go before the pass
    return _ladders(nu0, x, low, width, zeros), points


def _det_points(kind, v0, ell, lam):
    """The points of a slice at which D is defined (the mask ``ok``), their
    orders, arguments and branch flags (_bessel_window, first axis
    exterior, interior), and their J waves as (rungs, arguments): every
    exterior wave, then the oscillatory interior ones."""
    ksq, x, oscillatory, inside = _bessel_window(kind, v0, ell, lam)
    ok = (lam > 0.0) & (np.abs(ksq) >= DEGENERATE_KAPPA_SQ) & inside.all(axis=0)
    if not ok.all():
        ell, x, oscillatory = ell[ok], x[:, ok], oscillatory[:, ok]
    rung, inner_j = ell.astype(int), oscillatory[1]
    rungs = np.concatenate((rung, rung[inner_j]))
    return ok, ell, x, oscillatory, rungs, np.concatenate((x[0], x[1, inner_j]))
