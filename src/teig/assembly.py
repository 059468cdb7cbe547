"""Galerkin machinery on interval unions: clamped cubic B-spline basis,
Gauss-Legendre quadrature, the six symmetric form matrices per interval,
and the lambda-dependent combination A(lambda).

Basis functions and both end derivatives vanish at every interval
endpoint, so the discrete space conforms to the doubly-vanishing boundary
class; functions living on different intervals have disjoint supports.
"""

from dataclasses import dataclass

import numpy as np

from .eigensolve import eigvalsh
from .errors import OrderOutOfRange, ValidationError
from .model import MAX_QUAD_POINTS, ProblemKind, potential_value, weight_value

SPLINE_DEGREE = 3


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature


def gauss_legendre(q):
    """(nodes, weights) of the Gauss-Legendre rule of order q on [-1, 1]
    (exact through degree 2q-1): numpy's leggauss step for step, so the same
    bits, without importing numpy.polynomial.  The nodes are the eigenvalues
    of the Jacobi matrix (Golub-Welsch) after one Newton step, the weights
    1 / (P_q' P_{q-1}) at them, normalized to sum to 2."""
    if q < 1 or q > MAX_QUAD_POINTS:
        raise OrderOutOfRange(f"quadrature order must lie in [1, {MAX_QUAD_POINTS}], got {q}")
    scl = 1.0 / np.sqrt(2 * np.arange(q) + 1)
    off = np.arange(1, q) * scl[:-1] * scl[1:]  # as legcompanion builds it
    x = eigvalsh((np.diag(off, 1) + np.diag(off, -1))[None], ["gauss_legendre"])[0]
    k, unit = np.arange(q + 1), np.eye(q + 1)  # unit rows q, q - 1: P_q, P_{q-1}
    df = _legendre_series(x, np.where((q - 1 - k) % 2 == 0, 2 * k + 1.0, 0.0))  # P_q'
    x -= _legendre_series(x, unit[q]) / df
    fm = _legendre_series(x, unit[q - 1])
    w = 1 / (fm / np.abs(fm).max() * (df / np.abs(df).max()))
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    return x, w * (2.0 / w.sum())


def _legendre_series(x, c):
    """sum_k c[k] P_k(x), len(c) >= 2, by Clenshaw's recurrence grouped as
    numpy's legval (a trailing zero coefficient leaves every bit)."""
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


# ---------------------------------------------------------------------------
# clamped cubic B-spline basis


def _ratio(num, den):
    """num / den elementwise, with x / 0 taken as 0 (a repeated knot)."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def bspline_ders(knots, span, u):
    """The four nonzero cubic B-splines N_{span-3..span} and their first two
    derivatives at the points u: shape (3, len(u), 4).

    Cox-de Boor on arrays: N_{i,d} = (u - t_i) N_{i,d-1} / (t_{i+d} - t_i)
    + (t_{i+d+1} - u) N_{i+1,d-1} / (t_{i+d+1} - t_{i+1}); a derivative is
    the same two-term combination with numerators d and -d.  ``span`` (a
    scalar or one per point) picks the knot cell [t_span, t_span+1) whose
    polynomial pieces are evaluated.
    """
    u = np.asarray(u, dtype=float)[:, None]
    i = np.asarray(span)[..., None] + np.arange(-SPLINE_DEGREE, 1)

    def step(N, d, left, right):
        shifted = np.concatenate([N[:, 1:], np.zeros_like(N[:, :1])], axis=1)
        return _ratio(left * N, knots[i + d] - knots[i]) + _ratio(
            right * shifted, knots[i + d + 1] - knots[i + 1]
        )

    def value(N, d):
        return step(N, d, u - knots[i], knots[i + d + 1] - u)

    def deriv(N, d):
        return step(N, d, d, -d)

    N0 = np.zeros((len(u), SPLINE_DEGREE + 1))
    N0[:, -1] = 1.0
    N1 = value(N0, 1)
    N2 = value(N1, 2)
    return np.stack([value(N2, 3), deriv(N2, 3), deriv(deriv(N1, 2), 3)])


class ClampedBasis:
    """H0^2-conforming cubic splines on an interval union.

    Per interval: an open uniform knot vector with ``cells`` cells; the two
    first and two last B-splines are dropped (their coefficients clamped to
    zero), which enforces u = u' = 0 at both endpoints and leaves
    cells - 1 free functions per interval.  Every interval carries the
    affine image of the same spline space on the reference knots
    ``knots`` = 0, 0, 0, 0, 1, ..., cells, cells, cells, cells.  The
    problem's validation requires at least 4 cells.
    """

    def __init__(self, intervals, cells_per_interval):
        self.intervals = tuple((float(a), float(b)) for a, b in intervals)
        self.cells = int(cells_per_interval)
        self.per_interval = self.cells - 1
        self.dim = self.per_interval * len(self.intervals)
        inner = np.arange(self.cells + 1.0)
        self.knots = np.concatenate([[0.0] * SPLINE_DEGREE, inner, [inner[-1]] * SPLINE_DEGREE])

    def tables(self, quad):
        """Per-cell evaluation tables at the nodes of the rule ``quad`` =
        (nodes, weights).

        Returns a list over intervals of dicts with arrays of shape
        (cells, q): ``x``, ``w``; shape (cells, q, 4): ``val``, ``d1``,
        ``d2``; and (cells, 4) ``local``, the block-local index of each
        cell's four B-splines (-1 = clamped), the same for every interval.
        The reference cells are evaluated once; each interval's table is
        their affine image.  The same tables drive assembly and the tests'
        form-value oracle, so both routes share one set of basis evaluations.
        """
        nodes, weights = quad
        cell = np.arange(self.cells)
        t = cell[:, None] + 0.5 * (nodes + 1.0)
        span = np.repeat(cell + SPLINE_DEGREE, len(nodes))
        val, d1, d2 = bspline_ders(self.knots, span, t.ravel()).reshape(3, *t.shape, 4)
        k = cell[:, None] + np.arange(SPLINE_DEGREE + 1)
        local = np.where((k >= 2) & (k <= self.cells), k - 2, -1)
        out = []
        for a, b in self.intervals:
            h = np.float64((b - a) / self.cells)  # h**2 past the float range: inf, not an error
            w = np.broadcast_to(0.5 * h * weights, t.shape)
            out.append(
                {"x": a + h * t, "w": w, "local": local, "val": val, "d1": d1 / h, "d2": d2 / h**2}
            )
        return out


# ---------------------------------------------------------------------------
# form matrices


@dataclass(frozen=True)
class FormMatrices:
    """The six symmetric Galerkin matrices of one interval:

    S    = int (1/V) b_i'' b_j''      C = int (1/V)(b_i'' b_j + b_i b_j'')
    K    = int b_i' b_j'              M = int b_i b_j
    Minv = int (1/V) b_i b_j          Mw = int w b_i b_j

    Basis functions on different intervals have disjoint supports, so the
    matrices of an interval union are block-diagonal with one such block
    per interval.
    """

    S: np.ndarray
    C: np.ndarray
    K: np.ndarray
    M: np.ndarray
    Minv: np.ndarray
    Mw: np.ndarray

    @property
    def dim(self):
        return self.S.shape[0]


def _cell_blocks(coef, Ba, Bb):
    """Per-cell 4x4 blocks of int coef Ba_a Bb_b, symmetrised so that the
    assembled matrix is symmetric to the last bit (np.add.at adds the cells
    in order, so entries (i, j) and (j, i) receive equal sums)."""
    L = np.einsum("cq,cqa,cqb->cab", coef, Ba, Bb)
    return 0.5 * (L + L.transpose(0, 2, 1))


def _scatter(blocks, local, n):
    """Sum per-cell 4x4 blocks into an n x n matrix at the block-local
    indices ``local``; index -1 (a clamped function) lands in a padding row
    and column that is dropped."""
    out = np.zeros((n + 1, n + 1))
    np.add.at(out, (local[:, :, None], local[:, None, :]), blocks)
    return out[:n, :n]


def assemble(basis, potential, weight, quad):
    """The six matrices of each interval by per-cell Gauss quadrature:
    a tuple with one FormMatrices of size cells - 1 per interval.

    An interval too long or too short for its cells, or a potential or
    weight that under- or overflows on it, raises ValidationError naming
    the interval and the matrix: the matrix has a non-finite entry, or it
    is one of the Gram matrices (all but C) and a diagonal entry, a
    positive integral, came out <= 0 because it underflowed."""
    n = basis.per_interval
    out = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked per matrix
        for interval, entry in zip(basis.intervals, basis.tables(quad)):
            x, w = entry["x"], entry["w"]
            B0, B1, B2 = entry["val"], entry["d1"], entry["d2"]
            wv = w / potential_value(potential, x)
            cells = {
                "S": _cell_blocks(wv, B2, B2),
                # C = E + E^T with E = int (1/V) b_i'' b_j; doubling is exact
                "C": 2.0 * _cell_blocks(wv, B2, B0),
                "K": _cell_blocks(w, B1, B1),
                "M": _cell_blocks(w, B0, B0),
                "Minv": _cell_blocks(wv, B0, B0),
                "Mw": _cell_blocks(w * weight_value(weight, x), B0, B0),
            }
            mats = {}
            for name, blocks in cells.items():
                mat = _scatter(blocks, entry["local"], n)
                if not np.isfinite(mat).all() or (name != "C" and not (np.diag(mat) > 0).all()):
                    raise ValidationError(
                        f"interval {interval}: form matrix {name} is out of floating-point range"
                    )
                mats[name] = mat
            out.append(FormMatrices(**mats))
    return tuple(out)


def quadratic_coefficients(m, kind):
    """A0, A1, A2 of one block's A(lambda) = A0 + lambda A1 + lambda^2 A2.

    Schrodinger: A0 = S + K, A1 = C - M, A2 = Minv, realizing
    int (1/V)|u'' + lambda u|^2 + int |u'|^2 - lambda int |u|^2.
    Helmholtz:  A0 = S, A1 = C + K, A2 = Minv - M, realizing
    int (1/V)|u'' + lambda u|^2 + lambda int |u'|^2 - lambda^2 int |u|^2.
    """
    if kind is ProblemKind.SCHRODINGER:
        return m.S + m.K, m.C - m.M, m.Minv
    return m.S, m.C + m.K, m.Minv - m.M


def assemble_A(m, kind, lam):
    """A(lambda) whose generalized spectrum gives the eigenvalue curves."""
    A0, A1, A2 = quadratic_coefficients(m, kind)
    return A0 + lam * A1 + lam * lam * A2
