"""Galerkin machinery on interval unions: clamped cubic B-spline basis,
Gauss-Legendre quadrature, the six symmetric form matrices, and the
lambda-dependent combination A(lambda) together with its unexpanded
quadratic-form oracle.

Basis functions and both end derivatives vanish at every interval
endpoint, so the discrete space conforms to the doubly-vanishing boundary
class; functions living on different intervals have disjoint supports.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricAssembly, OrderOutOfRange, TooFewCells
from .model import ProblemKind, potential_value, weight_value

SPLINE_DEGREE = 3
ASYMMETRY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Gauss-Legendre quadrature


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def order(self):
        return len(self.nodes)

    def mapped(self, a, b):
        """Affinely mapped nodes and weights for the cell [a, b]."""
        half = 0.5 * (b - a)
        return a + half * (self.nodes + 1.0), half * self.weights


def gauss_legendre(q):
    """Gauss-Legendre rule of order q (exact through degree 2q-1).

    Roots of P_q by Newton iteration from Chebyshev initial guesses;
    weights 2 / ((1-x^2) P_q'(x)^2); node set exactly symmetric about 0.
    """
    if q < 1 or q > 64:
        raise OrderOutOfRange(f"quadrature order must lie in [1, 64], got {q}")
    nodes = np.empty(q)
    weights = np.empty(q)
    for i in range((q + 1) // 2):
        x = math.cos(math.pi * (i + 0.75) / (q + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, q + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            if q == 1:
                p1, p0 = x, 1.0
            dp = q * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) < 1e-15:
                break
        p0, p1 = 1.0, x
        for k in range(2, q + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        if q == 1:
            p1, p0 = x, 1.0
        dp = q * (x * p1 - p0) / (x * x - 1.0)
        w = 2.0 / ((1.0 - x * x) * dp * dp)
        nodes[i], weights[i] = -abs(x), w
        nodes[q - 1 - i], weights[q - 1 - i] = abs(x), w
    if q % 2 == 1:
        nodes[q // 2] = 0.0
    return QuadratureRule(nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# clamped cubic B-spline basis


def _ders_basis_funs(span, u, knots, nders=2):
    """Nonzero B-spline basis functions and derivatives at u (Cox-de Boor).

    Returns ders[k][j], k = 0..nders, j = 0..degree: the k-th derivative of
    basis function N_{span-degree+j} at u.
    """
    p = SPLINE_DEGREE
    ndu = np.zeros((p + 1, p + 1))
    left = np.zeros(p + 1)
    right = np.zeros(p + 1)
    ndu[0, 0] = 1.0
    for j in range(1, p + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved
    ders = np.zeros((nders + 1, p + 1))
    ders[0, :] = ndu[:, p]
    a = np.zeros((2, p + 1))
    for r in range(p + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for k in range(1, nders + 1):
            dval = 0.0
            rk, pk = r - k, p - k
            if r >= k:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                dval = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = k - 1 if r - 1 <= pk else p - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                dval += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, k] = -a[s1, k - 1] / ndu[pk + 1, r]
                dval += a[s2, k] * ndu[r, pk]
            ders[k, r] = dval
            s1, s2 = s2, s1
    rfact = 1.0
    for k in range(1, nders + 1):
        rfact *= p - k + 1
        ders[k, :] *= rfact
    return ders


class ClampedBasis:
    """H0^2-conforming cubic splines on an interval union.

    Per interval: an open uniform knot vector with ``cells`` cells; the two
    first and two last B-splines are dropped (their coefficients clamped to
    zero), which enforces u = u' = 0 at both endpoints and leaves
    cells - 1 free functions per interval.
    """

    def __init__(self, intervals, cells_per_interval):
        if cells_per_interval < 4:
            raise TooFewCells(
                f"need at least 4 cells per interval, got {cells_per_interval}"
            )
        self.intervals = tuple((float(a), float(b)) for a, b in intervals)
        self.cells = int(cells_per_interval)
        self.per_interval = self.cells - 1
        self.dim = self.per_interval * len(self.intervals)
        self._knots = []
        for a, b in self.intervals:
            inner = np.linspace(a, b, self.cells + 1)
            knots = np.concatenate([[a] * SPLINE_DEGREE, inner, [b] * SPLINE_DEGREE])
            self._knots.append(knots)
        self._tables = {}

    def n_local(self):
        """Number of B-splines per interval, constrained ones included."""
        return self.cells + SPLINE_DEGREE

    def global_index(self, interval, local):
        """Global index of a local B-spline, or -1 if it is clamped away."""
        if 2 <= local <= self.cells:
            return interval * self.per_interval + (local - 2)
        return -1

    def tables(self, quad):
        """Per-cell evaluation tables at the quadrature nodes.

        Returns a list over intervals of dicts with arrays of shape
        (cells, q): ``x``, ``w``; shape (cells, q, 4): ``val``, ``d1``,
        ``d2``; and (cells, 4) ``gidx`` of global indices (-1 = clamped).
        The same tables drive assembly, the form-value oracle, and tests,
        so both routes share one set of basis evaluations.
        """
        key = (quad.order, tuple(quad.nodes))
        if key in self._tables:
            return self._tables[key]
        out = []
        q = quad.order
        for iv, (a, b) in enumerate(self.intervals):
            knots = self._knots[iv]
            h = (b - a) / self.cells
            x = np.empty((self.cells, q))
            w = np.empty((self.cells, q))
            val = np.empty((self.cells, q, 4))
            d1 = np.empty((self.cells, q, 4))
            d2 = np.empty((self.cells, q, 4))
            gidx = np.empty((self.cells, 4), dtype=np.int64)
            for c in range(self.cells):
                ca, cb = a + c * h, a + (c + 1) * h
                xs, ws = quad.mapped(ca, cb)
                x[c], w[c] = xs, ws
                span = c + SPLINE_DEGREE
                for k in range(4):
                    gidx[c, k] = self.global_index(iv, c + k)
                for j, u in enumerate(xs):
                    ders = _ders_basis_funs(span, u, knots)
                    val[c, j] = ders[0]
                    d1[c, j] = ders[1]
                    d2[c, j] = ders[2]
            out.append({"x": x, "w": w, "val": val, "d1": d1, "d2": d2, "gidx": gidx})
        self._tables[key] = out
        return out

    def evaluate_all(self, interval, u, nders=2):
        """All local B-splines (clamped included) and derivatives at u."""
        a, b = self.intervals[interval]
        knots = self._knots[interval]
        h = (b - a) / self.cells
        c = min(int((u - a) / h), self.cells - 1)
        span = c + SPLINE_DEGREE
        ders = _ders_basis_funs(span, u, knots, nders)
        full = np.zeros((nders + 1, self.n_local()))
        full[:, c : c + 4] = ders
        return full

    def reconstruct(self, coeffs, table_entry):
        """u, u', u'' at the table's quadrature nodes from coefficients."""
        gidx = table_entry["gidx"]
        cm = np.where(gidx >= 0, coeffs[gidx], 0.0)
        uval = np.einsum("cqk,ck->cq", table_entry["val"], cm)
        ud1 = np.einsum("cqk,ck->cq", table_entry["d1"], cm)
        ud2 = np.einsum("cqk,ck->cq", table_entry["d2"], cm)
        return uval, ud1, ud2


def build_basis(intervals, cells_per_interval):
    """Clamped cubic B-spline basis on the given disjoint intervals."""
    return ClampedBasis(intervals, cells_per_interval)


# ---------------------------------------------------------------------------
# form matrices


@dataclass(frozen=True)
class FormMatrices:
    """The six symmetric Galerkin matrices generating A(lambda):

    S    = int (1/V) b_i'' b_j''      C = int (1/V)(b_i'' b_j + b_i b_j'')
    K    = int b_i' b_j'              M = int b_i b_j
    Minv = int (1/V) b_i b_j          Mw = int w b_i b_j

    Basis functions on different intervals have disjoint supports, so all
    six are block-diagonal with ``block_size`` rows per interval block
    (None: one block spanning the whole matrix).
    """

    S: np.ndarray
    C: np.ndarray
    K: np.ndarray
    M: np.ndarray
    Minv: np.ndarray
    Mw: np.ndarray
    block_size: int | None = None

    @property
    def dim(self):
        return self.S.shape[0]


def _check_symmetrize(name, mat):
    asym = np.max(np.abs(mat - mat.T)) if mat.size else 0.0
    if asym > ASYMMETRY_TOL:
        raise AsymmetricAssembly(f"{name} asymmetric by {asym:.3e}")
    return 0.5 * (mat + mat.T)


def assemble(basis, potential, weight, quad):
    """Assemble the six matrices by per-cell Gauss quadrature."""
    dim = basis.dim
    S = np.zeros((dim, dim))
    E = np.zeros((dim, dim))  # int (1/V) b_i'' b_j ; C = E + E^T
    K = np.zeros((dim, dim))
    M = np.zeros((dim, dim))
    Minv = np.zeros((dim, dim))
    Mw = np.zeros((dim, dim))
    for entry in basis.tables(quad):
        ncells = entry["x"].shape[0]
        for c in range(ncells):
            xs = entry["x"][c]
            ws = entry["w"][c]
            vinv = np.array([1.0 / potential_value(potential, x) for x in xs])
            wvals = np.array([weight_value(weight, x) for x in xs])
            B0 = entry["val"][c]
            B1 = entry["d1"][c]
            B2 = entry["d2"][c]
            gi = entry["gidx"][c]
            # symmetric blocks share one accumulation per (a, b) pair, so
            # assembled matrices are symmetric to the last bit
            sym_blocks = (
                (S, ws * vinv, B2),
                (K, ws, B1),
                (M, ws, B0),
                (Minv, ws * vinv, B0),
                (Mw, ws * wvals, B0),
            )
            for target, coef, Bq in sym_blocks:
                for a in range(4):
                    ga = gi[a]
                    if ga < 0:
                        continue
                    ca = coef * Bq[:, a]
                    for b in range(a, 4):
                        gb = gi[b]
                        if gb < 0:
                            continue
                        val = float(np.dot(ca, Bq[:, b]))
                        target[ga, gb] += val
                        if gb != ga:
                            target[gb, ga] += val
            coef = ws * vinv
            for a in range(4):
                ga = gi[a]
                if ga < 0:
                    continue
                ca = coef * B2[:, a]
                for b in range(4):
                    gb = gi[b]
                    if gb >= 0:
                        E[ga, gb] += float(np.dot(ca, B0[:, b]))
    C = E + E.T
    return FormMatrices(
        S=_check_symmetrize("S", S),
        C=_check_symmetrize("C", C),
        K=_check_symmetrize("K", K),
        M=_check_symmetrize("M", M),
        Minv=_check_symmetrize("Minv", Minv),
        Mw=_check_symmetrize("Mw", Mw),
        block_size=basis.per_interval,
    )


def assemble_A(m, kind, lam):
    """A(lambda) whose generalized spectrum gives the eigenvalue curves.

    Schrodinger: A = (S + K) + lambda (C - M) + lambda^2 Minv,
    realizing  int (1/V)|u'' + lambda u|^2 + int |u'|^2 - lambda int |u|^2.
    Helmholtz:  A = S + lambda (C + K) + lambda^2 (Minv - M),
    realizing  int (1/V)|u'' + lambda u|^2 + lambda int |u'|^2
               - lambda^2 int |u|^2.
    """
    if kind is ProblemKind.SCHRODINGER:
        return (m.S + m.K) + lam * (m.C - m.M) + lam * lam * m.Minv
    return m.S + lam * (m.C + m.K) + lam * lam * (m.Minv - m.M)


def direct_form_value(basis, potential, kind, coeffs, lam, quad):
    """Quadrature value of the defining, unexpanded quadratic form.

    Schrodinger: int (-u'' + (V - lambda) u) (1/V) (-u'' - lambda u);
    Helmholtz replaces V by lambda V in the first factor.  Serves as the
    independent oracle for the expanded S/C/K/M combination in assemble_A.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    total = 0.0
    for entry in basis.tables(quad):
        uval, _, ud2 = basis.reconstruct(coeffs, entry)
        xs = entry["x"]
        vvals = np.array([[potential_value(potential, x) for x in row] for row in xs])
        if kind is ProblemKind.SCHRODINGER:
            first = -ud2 + (vvals - lam) * uval
        else:
            first = -ud2 + (lam * vvals - lam) * uval
        second = -ud2 - lam * uval
        total += float(np.sum(entry["w"] * first * second / vvals))
    return total
