"""Dense symmetric generalized eigensolver A v = mu B v with B positive
definite, on numpy/LAPACK: Cholesky reduction to the standard problem
C = L^-1 A L^-T, then LAPACK's symmetric eigensolver.

Only eigenvalues are part of the public contract; the vector-producing
path exists for residual checks in the test suite.  Failures at the LAPACK
boundary come back as typed errors: non-finite input, a LAPACK error or a
non-finite result raise NoConvergence, and a Cholesky pivot at or below
1e-13 times the largest diagonal entry of B raises NotPositiveDefinite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, ValidationError

CHOLESKY_PIVOT_TOL = 1e-13


def cholesky(B):
    """Lower-triangular L with B = L L^T; raises NotPositiveDefinite."""
    B = np.ascontiguousarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValidationError("cholesky requires a square matrix")
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None
    # the outer-product pivots are L[j, j]^2; NaN pivots fail too
    tol = CHOLESKY_PIVOT_TOL * np.max(np.diag(B), initial=0.0)
    failed = np.flatnonzero(~(np.diag(L) ** 2 > tol))
    if failed.size:
        raise NotPositiveDefinite(f"pivot failure at row {failed[0]}")
    return L


@dataclass(frozen=True)
class SpectrumSlice:
    """Lowest eigenvalues of a generalized symmetric problem, ascending."""

    eigenvalues: tuple
    dimension: int


def _checked(A, B):
    A = np.ascontiguousarray(A, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValidationError("lowest_k requires matching square matrices")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise NoConvergence("matrix has non-finite entries")
    return A, B


def _solve(A, B, vectors):
    """Ascending eigenvalues of (A, B) and, if ``vectors``, the B-orthonormal
    eigenvectors as columns (else None)."""
    L = cholesky(B)
    try:
        Linv = np.linalg.inv(L)
        C = Linv @ A @ Linv.T
        C = 0.5 * (C + C.T)
        vals, Z = np.linalg.eigh(C) if vectors else (np.linalg.eigvalsh(C), None)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigensolver failed: {exc}") from None
    if not np.isfinite(vals).all():
        raise NoConvergence("eigensolver returned non-finite values")
    return vals, (Linv.T @ Z if vectors else None)  # back-transform v = L^-T z


def lowest_k(A, B, K):
    """Lowest K eigenvalues of A v = mu B v (values only, sorted)."""
    A, B = _checked(A, B)
    if K < 1:
        raise ValidationError(f"K must be >= 1, got {K}")
    vals, _ = _solve(A, B, vectors=False)
    k = min(K, A.shape[0])
    return SpectrumSlice(eigenvalues=tuple(float(v) for v in vals[:k]), dimension=A.shape[0])


def _solve_with_vectors(A, B):
    """All eigenpairs of (A, B); internal, for residual tests only."""
    return _solve(*_checked(A, B), vectors=True)
