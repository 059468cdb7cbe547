"""Transmission-eigenvalue detection and eigenvalue curve sweeps.

Transmission eigenvalues (TEs) are the real lambda at which the quadratic
matrix polynomial A(lambda) = A0 + lambda A1 + lambda^2 A2 is singular.
A(lambda) is block-diagonal with one block per interval; the form matrices
come as one FormMatrices per interval, and every query works block by
block.

Detection (``run_pipeline``): the companion linearization of each block's
quadratic eigenproblem (``eigensolve.quadratic_eigvals``) gives all its
eigenvalues at once, as two half-size companions, one per parity, for a
block that is mirror-symmetric; those inside the window with an exactly
zero imaginary part are the candidates.  Sylvester inertia counts of the
full A(lambda) at the window ends and between consecutive candidates
check them and name the sorted curve each one crosses; every accepted
root is polished by bisection on that curve's sign, and the crossings are
clustered and reported.

Sweep (``sweep``): the sorted lowest-K generalized eigenvalues of
(A(lambda), Mw) over a uniform grid, returned as the arrays (lambdas,
values) that ``serialize.curve_table_csv`` writes.  Sorted-index
curves may permute branches at intersections, but they are continuous, so
their sign changes are genuine zero crossings.  Each block is reduced to
standard form once by ``eigensolve.reduce``, and the grid is solved in
stacked chunks by ``eigensolve.eigvalsh``, the solver behind ``lowest_k``;
the report residuals come from the same evaluator.  A chunk solves only
the blocks that can reach its lowest K values: the blocks that reached
them in the chunk before, plus any other block that
``eigensolve.above`` cannot certify to lie wholly above the candidate
K-th value.  The skipped blocks hold none of the K smallest values, so
the table is bit for bit that of solving every block.
"""

import numpy as np

from .assembly import ClampedBasis, assemble, assemble_A, gauss_legendre, quadratic_coefficients
from .eigensolve import above, eigvalsh, quadratic_eigvals, reduce
from .errors import InertiaMismatch
from .model import SWEEP_CHUNK_BYTES, Constant, ProblemKind, canonical_config
from .serialize import config_hash


def prepare_matrices(problem):
    """The per-interval form matrices of a validated problem."""
    basis = ClampedBasis(problem.intervals, problem.discretization.cells_per_interval)
    quad = gauss_legendre(problem.discretization.quad_points)
    return assemble(basis, problem.potential, problem.weight, quad)


def _curves(kind, matrices, lambdas, k):
    """The k smallest eigenvalues of (A(lambda), Mw), all blocks merged, at
    each of ``lambdas``: a (len(lambdas), k) array, rows ascending.

    Mw does not depend on lambda, so every block is reduced once and
    C(lambda) = C0 + lambda C1 + lambda^2 C2 has the eigenvalues of
    (A(lambda), Mw).  All blocks have one dimension, so the grid is built
    in chunks of at most SWEEP_CHUNK_BYTES of C(lambda) stacks and each
    chunk is solved by _lowest, first the blocks that reached the lowest k
    in the chunk before (every block in the first chunk).  A row does not
    depend on the chunk it falls in or on the blocks skipped.
    """
    C0, C1, C2 = np.stack(
        [reduce(np.stack(quadratic_coefficients(m, kind)), m.Mw) for m in matrices], axis=1
    )
    lambdas = np.asarray(lambdas, dtype=float)
    size = max(1, SWEEP_CHUNK_BYTES // C0.nbytes)
    buf = np.empty((min(size, lambdas.size), *C0.shape))
    values = np.empty((lambdas.size, k))
    first = list(range(len(matrices)))
    for start in range(0, lambdas.size, size):
        lams = lambdas[start : start + size]
        c = buf[: lams.size]
        x = lams[:, None, None, None]
        np.multiply(x, C2, out=c)  # Horner, in place: (lambda C2 + C1) lambda + C0
        c += C1
        c *= x
        c += C0
        labels = [f"at lambda = {lam}" for lam in lams]
        values[start : start + lams.size], first = _lowest(c, k, first, labels)
    return values


def _lowest(c, k, first, labels):
    """The k smallest eigenvalues of the blocks c[:, b] merged, per point,
    and the blocks whose lowest eigenvalue is among them at some point.

    The blocks in ``first`` are solved by one eigvalsh call, which gives a
    candidate k-th value mu per point.  Every other block is skipped where
    eigensolve.above certifies that all its eigenvalues lie above mu, one
    call for all of them; if that fails, block by block, and a block that
    fails is solved and merged.  Merging only lowers mu, so an earlier skip
    stays valid.  A skipped block holds none of the k smallest values, so
    the rows are the floats of solving every block, bit for bit.
    """
    vals = eigvalsh(c if len(first) == c.shape[1] else c[:, first], labels)
    solved, lows = list(first), [vals[:, :, 0]]
    merged = np.sort(vals.reshape(len(labels), -1), axis=1)
    rest = [b for b in range(c.shape[1]) if b not in solved]

    def certified(blocks):
        return merged.shape[1] >= k and above(c[:, blocks], merged[:, k - 1, None], labels)

    if rest and not certified(rest):
        for b in rest:
            if not certified([b]):
                vals = eigvalsh(c[:, b], labels)
                solved.append(b)
                lows.append(vals[:, :1])
                merged = np.sort(np.concatenate([merged, vals], axis=1), axis=1)
    lowest = merged[:, :k]
    reached = (np.concatenate(lows, axis=1) <= lowest[:, -1:]).any(axis=0)
    return lowest, sorted(b for b, hit in zip(solved, reached.tolist()) if hit)


def sweep(problem, matrices):
    """The lowest-K curve table over the sweep grid: (lambdas, values), the
    grid and a (steps, K) array of mu values, each row ascending."""
    cfg = problem.sweep
    lambdas = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.steps)
    return lambdas, _curves(problem.kind, matrices, lambdas, problem.discretization.num_curves)


def _identity_spectrum(kind, matrices, lam):
    """Ascending eigenvalues of A(lambda), all blocks merged.

    Bit-identical to lowest_k with an identity mass: the Cholesky factor
    and inverse in eigensolve.reduce are exactly I, and assemble_A is
    exactly symmetric, so the reduction leaves A(lambda) unchanged.
    """
    A = np.stack([assemble_A(m, kind, lam) for m in matrices])
    return np.sort(eigvalsh(A[None], [f"at lambda = {lam}"]), axis=None)


def _inertia(kind, matrices, lam):
    """Number of negative eigenvalues of A(lambda)."""
    return int(np.count_nonzero(_identity_spectrum(kind, matrices, lam) < 0.0))


def _crossing_indicator(problem, matrices, nu, lam):
    """nu-th eigenvalue of A(lambda) against the identity.

    By Sylvester inertia its sign equals that of the nu-th curve of
    (A, Mw) for every positive definite mass matrix, so bisecting on it
    finds the same crossing while making the iteration independent of the
    weight to the last bit (the weight-invariance property relies on
    that).  It is negative exactly when the inertia count is at least nu.
    """
    return _identity_spectrum(problem.kind, matrices, lam)[nu - 1]


def _mirrored(problem):
    """Per block: whether its A(lambda) commutes with the index flip
    J: i -> n-1-i.  The uniform clamped basis and the Gauss-Legendre rule
    are mirror-symmetric on every interval, so a block commutes with J
    (up to rounding in the quadrature nodes) when V is even about the
    interval's centre: a constant potential, or the power decay on an
    interval centred at 0.  The weight enters Mw alone, never A(lambda)."""
    if isinstance(problem.potential, Constant):
        return [True] * len(problem.intervals)
    return [a == -b for a, b in problem.intervals]


def _mirror_halves(A):
    """The even and odd parts of a flip-symmetric matrix A of order
    n = 2h + c: A acting on vectors x = Jx, read in their first h + c
    entries, and on x = -Jx, read in their first h."""
    h, c = divmod(A.shape[0], 2)
    even = A[: h + c, : h + c].copy()
    even[:, :h] += A[: h + c, ::-1][:, :h]
    return even, A[:h, :h] - A[:h, ::-1][:, :h]


def _qep_eigenvalues(m, kind, mirrored):
    """All 2 dim eigenvalues of one block's quadratic pencil A(lambda).

    A ``mirrored`` block's eigenvectors are even or odd under the flip, so
    its spectrum is the union of those of the even and odd halves of the
    pencil, two companions of about half the order.
    """
    coefficients = quadratic_coefficients(m, kind)
    pencils = zip(*map(_mirror_halves, coefficients)) if mirrored else [coefficients]
    return np.concatenate([quadratic_eigvals(*pencil) for pencil in pencils])


def refine(problem, matrices, nu, guess, window, left_negative):
    """Polish the sign change of the nu-th crossing indicator near ``guess``.

    The indicator's signs differ at the two ends of ``window`` (it is
    negative at the left end iff ``left_negative``).  A bracket from the
    guess toward the end whose sign differs from the guess's, first
    problem.sweep.refine_tol wide, is doubled until it holds a sign change,
    capped at that end, then bisected until narrower than refine_tol or
    down to two adjacent floats.  Returns the final midpoint, the number of
    bisection steps and the final bracket.
    """
    refine_tol = problem.sweep.refine_tol
    f_guess = _crossing_indicator(problem, matrices, nu, guess)
    if f_guess == 0.0:
        return guess, 0, (guess, guess)
    negative = f_guess < 0.0
    end = window[1] if negative == left_negative else window[0]
    inner, outer = guess, end
    step = refine_tol
    while abs(end - inner) > step:
        probe = inner + step if end > inner else inner - step
        fp = _crossing_indicator(problem, matrices, nu, probe)
        if fp == 0.0:
            return probe, 0, (probe, probe)
        if (fp < 0.0) != negative:
            outer = probe
            break
        inner = probe
        step *= 2.0
    steps = 0
    while abs(outer - inner) > refine_tol:
        mid = 0.5 * (inner + outer)
        if mid == inner or mid == outer:  # the ends are adjacent floats
            break
        fm = _crossing_indicator(problem, matrices, nu, mid)
        steps += 1
        if fm == 0.0:
            return mid, steps, (mid, mid)
        if (fm < 0.0) == negative:
            inner = mid
        else:
            outer = mid
    a, b = sorted((inner, outer))
    return 0.5 * (a + b), steps, (a, b)


def _runs(items, tol, key):
    """Items, ascending in key, split into runs whose neighbours' keys are
    within tol of each other."""
    runs = []
    for item in items:
        if runs and key(item) - key(runs[-1][-1]) <= tol:
            runs[-1].append(item)
        else:
            runs.append([item])
    return runs


def report(problem, refined, matrices):
    """Cluster refined crossings into the TE report: the dict
    {"transmission_eigenvalues", "metadata", "diagnostics"} that ``teig
    find`` writes, with empty diagnostics.

    ``refined`` is a list of (lambda, curve_index).  Crossings within
    problem.sweep.cluster_tol of each other merge into one entry whose
    multiplicity estimate is the cluster size; the entry lambda is the
    cluster mean and its curve index the smallest member index.  Helmholtz
    entries with |lambda| < cluster_tol are dropped (lambda = 0 is excluded
    there).
    """
    cluster_tol = problem.sweep.cluster_tol
    clusters = _runs(sorted(refined, key=lambda t: (t[0], t[1])), cluster_tol, lambda t: t[0])
    kept = []
    for members in clusters:
        lam = sum(m[0] for m in members) / len(members)
        if not (problem.kind is ProblemKind.HELMHOLTZ and abs(lam) < cluster_tol):
            kept.append((lam, members))
    k = max((nu for _, members in kept for _, nu in members), default=1)
    values = _curves(problem.kind, matrices, [lam for lam, _ in kept], k)
    entries = [
        {
            "lambda": float(lam),
            "curve_index": int(min(nu for _, nu in members)),
            "multiplicity_estimate": len(members),
            "residual": float(max(abs(row[nu - 1]) for _, nu in members)),
        }
        for (lam, members), row in zip(kept, values)
    ]
    entries.sort(key=lambda e: e["lambda"])
    return {"transmission_eigenvalues": entries, "metadata": _metadata(problem), "diagnostics": {}}


def _metadata(problem):
    cfg = canonical_config(problem)
    return {
        "problem_hash": config_hash(cfg),
        "kind": problem.kind.value,
        "grid": {
            "lambda_min": problem.sweep.lambda_min,
            "lambda_max": problem.sweep.lambda_max,
            "steps": problem.sweep.steps,
        },
        "tolerances": {
            "refine_tol": problem.sweep.refine_tol,
            "cluster_tol": problem.sweep.cluster_tol,
        },
        "num_curves": problem.discretization.num_curves,
        "cells_per_interval": problem.discretization.cells_per_interval,
    }


def _merge_groups(groups, points, counts):
    """Merge each group whose inertia count changes by more than its size
    with the nearer neighbour whose count changes by less than its own,
    until no group has more crossings than candidates.  Two blocks may
    place one near-multiple root over refine_tol apart, and the cut between
    the two candidates then falls on the wrong side of one.  With no such
    neighbour a root was missed: InertiaMismatch."""
    groups, points, counts = list(groups), list(points), list(counts)

    def excess(i):
        return abs(counts[i + 1] - counts[i]) - len(groups[i])

    i = 0
    while i < len(groups):
        if excess(i) <= 0:
            i += 1
            continue
        spare = [j for j in (i - 1, i + 1) if 0 <= j < len(groups) and excess(j) < 0]
        if not spare:
            raise InertiaMismatch(
                f"the inertia of A(lambda) goes from {counts[i]} to {counts[i + 1]} over "
                f"[{points[i]}, {points[i + 1]}], which holds {len(groups[i])} real root(s)"
            )
        j = min(spare, key=lambda j: groups[max(i, j)][0] - groups[min(i, j)][-1])
        i = min(i, j)
        groups[i : i + 2] = [groups[i] + groups[i + 1]]
        del points[i + 1], counts[i + 1]
    return groups, points, counts


def run_pipeline(problem, matrices=None):
    """The TEs of a validated problem in [lambda_min, lambda_max]: detect,
    check, polish and report; returns the report dict of ``report`` with
    its diagnostics filled in.

    Real candidates closer than refine_tol form one group, since no
    inertia count between them is reliable.  Across each group, once
    _merge_groups has run, the count changes by at most the group's size.
    A group whose count changes by c accepts its first c members, on
    curves min(left, right) + 1, ..., and drops the rest as tangential; a
    root on a curve above num_curves is dropped too, as the curve table
    would not show it.
    """
    if matrices is None:
        matrices = prepare_matrices(problem)
    cfg = problem.sweep
    kind = problem.kind
    vals = np.concatenate(
        [
            _qep_eigenvalues(m, kind, mirrored)
            for m, mirrored in zip(matrices, _mirrored(problem), strict=True)
        ]
    )
    inside = (vals.real >= cfg.lambda_min) & (vals.real <= cfg.lambda_max)
    nonreal = np.abs(vals.imag[inside & (vals.imag != 0.0)])
    real = np.sort(vals.real[inside & (vals.imag == 0.0)]).tolist()
    groups = _runs(real, cfg.refine_tol, lambda lam: lam) or [[]]
    cuts = [0.5 * (g[-1] + h[0]) for g, h in zip(groups, groups[1:])]
    points = [cfg.lambda_min, *cuts, cfg.lambda_max]
    counts = [_inertia(kind, matrices, lam) for lam in points]
    checked = len(points)
    groups, points, counts = _merge_groups(groups, points, counts)

    refined, accepted, dropped = [], [], []
    for i, group in enumerate(groups):
        left, right = counts[i], counts[i + 1]
        crossings = abs(right - left)
        for j, candidate in enumerate(group):
            nu = min(left, right) + 1 + j
            if j >= crossings:
                dropped.append({"candidate": candidate, "reason": "tangential"})
            elif nu > problem.discretization.num_curves:
                dropped.append(
                    {"candidate": candidate, "reason": "above_num_curves", "curve_index": nu}
                )
            else:
                lam, steps, (a, b) = refine(
                    problem, matrices, nu, candidate, (points[i], points[i + 1]), left >= nu
                )
                refined.append((lam, nu))
                accepted.append(
                    {
                        "candidate": candidate,
                        "lambda": lam,
                        "curve_index": nu,
                        "bisection_steps": steps,
                        "bracket": [a, b],
                        "bracket_width": b - a,
                    }
                )
    diagnostics = {
        "accepted": accepted,
        "dropped": dropped,
        "nonreal_in_window": {
            "count": int(nonreal.size),
            "min_abs_imag": float(nonreal.min()) if nonreal.size else None,
        },
        "inertia": {
            "at_lambda_min": counts[0],
            "at_lambda_max": counts[-1],
            "points_checked": checked,
            "check": "consistent",
        },
    }
    te_report = report(problem, refined, matrices)
    te_report["diagnostics"] = diagnostics
    return te_report
