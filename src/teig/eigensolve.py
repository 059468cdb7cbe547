"""Dense symmetric generalized eigensolver A v = mu B v with B positive
definite, on numpy/LAPACK: Cholesky reduction to the standard problem
C = L^-1 A L^-T, then LAPACK's symmetric eigensolver.

``reduce`` and ``eigvalsh`` are the one implementation of both steps: the
curve sweep and the report residuals in ``curves`` run them on stacks of
matrices, and a single pencil is a stack of one.  Only eigenvalues are
computed.  ``above`` proves from a shifted Cholesky factorization that a
stack has no eigenvalue at or below a bound, which lets the sweep skip the
blocks that cannot reach its lowest curves.  ``quadratic_eigvals`` solves a
quadratic pencil through its companion linearization, the one
non-symmetric eigenproblem of the package.  Failures at the LAPACK
boundary come back as typed errors: non-finite input, a LAPACK error or a
non-finite result raise NoConvergence; a non-finite B, or a Cholesky pivot
at or below 1e-13 times B's largest diagonal entry, NotPositiveDefinite.
"""

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, ValidationError

CHOLESKY_PIVOT_TOL = 1e-13


def cholesky(B):
    """Lower-triangular L with B = L L^T; raises NotPositiveDefinite."""
    B = np.ascontiguousarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValidationError("cholesky requires a square matrix")
    if not np.isfinite(B).all():  # the pivot tolerance below needs a finite diagonal
        i, j = np.argwhere(~np.isfinite(B))[0]
        raise NotPositiveDefinite(f"B[{i}, {j}] = {B[i, j]} is not finite")
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    # the outer-product pivots are L[j, j]^2
    tol = CHOLESKY_PIVOT_TOL * np.max(np.diag(B), initial=0.0)
    failed = np.flatnonzero(~(np.diag(L) ** 2 > tol))
    if failed.size:
        raise NotPositiveDefinite(f"pivot failure at row {failed[0]}")
    return L


def reduce(mats, B):
    """L^-1 A L^-T, symmetrised, for every A in the stack ``mats`` of shape
    (..., n, n), where B = L L^T."""
    L = cholesky(B)
    try:
        Linv = np.linalg.inv(L)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK inverse failed: {exc}") from None
    C = Linv @ mats @ Linv.T
    return 0.5 * (C + np.swapaxes(C, -1, -2))


def eigvalsh(c, labels):
    """Ascending eigenvalues of every symmetric matrix in the stack ``c``;
    ``labels`` names each index of its leading axis.  A failure raises
    NoConvergence naming the first label at fault."""
    bad = ~np.isfinite(c).reshape(len(labels), -1).all(axis=1)
    if bad.any():
        raise NoConvergence(f"{labels[bad.argmax()]}: matrix has non-finite entries")
    try:
        vals = np.linalg.eigvalsh(c)
    except np.linalg.LinAlgError as exc:
        if len(labels) > 1:  # find the point at fault
            for i in range(len(labels)):
                eigvalsh(c[i : i + 1], labels[i : i + 1])
        raise NoConvergence(f"{labels[0]}: LAPACK eigensolver failed: {exc}") from None
    bad = ~np.isfinite(vals).reshape(len(labels), -1).all(axis=1)
    if bad.any():
        raise NoConvergence(f"{labels[bad.argmax()]}: eigensolver returned non-finite values")
    return vals


def above(c, mu, labels):
    """True when a Cholesky factorization of c - (mu + delta) I succeeds for
    every symmetric matrix in the stack ``c`` (``mu`` broadcasts against its
    leading axes, ``labels`` names each index of the first one).

    By Sylvester inertia every eigenvalue of such a matrix then exceeds
    mu + delta, up to the factorization's backward error.  The margin
    delta = 4 n^2 eps (||c||_F + |mu|) bounds that error and the one of
    eigvalsh together, so every eigenvalue eigvalsh would return for the
    matrix lies above mu; a rounding-level tie gives False.  Non-finite
    matrices raise NoConvergence naming the first label at fault.
    """
    bad = ~np.isfinite(c).reshape(len(labels), -1).all(axis=1)
    if bad.any():
        raise NoConvergence(f"{labels[bad.argmax()]}: matrix has non-finite entries")
    n = c.shape[-1]
    frobenius = np.sqrt(np.einsum("...ij,...ij->...", c, c))
    shift = mu + 4.0 * n * n * np.finfo(float).eps * (frobenius + np.abs(mu))
    shifted = np.array(c, dtype=float)
    diagonal = np.arange(n)
    shifted[..., diagonal, diagonal] -= shift[..., None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def quadratic_eigvals(A0, A1, A2):
    """All 2 n eigenvalues of the n x n pencil A0 + lambda A1 + lambda^2 A2
    with A2 nonsingular, complex in general.

    A(lambda) x = 0 is the standard eigenproblem of the companion matrix
    [[0, I], [-A2^-1 A0, -A2^-1 A1]] acting on (x, lambda x) (Tisseur &
    Meerbergen, SIAM Rev. 43 (2001), section 3).
    """
    n = A0.shape[0]
    try:
        B = np.linalg.solve(A2, np.hstack([A0, A1]))
        companion = np.block([[np.zeros((n, n)), np.eye(n)], [-B[:, :n], -B[:, n:]]])
        vals = np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"quadratic eigenproblem failed: {exc}") from None
    if not np.isfinite(vals).all():
        raise NoConvergence("quadratic eigenproblem returned non-finite eigenvalues")
    return vals

