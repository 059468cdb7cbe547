"""The generalized eigenvalues of one symmetric pencil, through the stacked
solve of ``teig.eigensolve`` that the curve sweep and the report residuals
run: a single pencil is a stack of one."""

from teig.eigensolve import eigvalsh, reduce


def spectrum(A, B):
    """Ascending eigenvalues of A v = mu B v, B positive definite."""
    return eigvalsh(reduce(A[None], B), ["pencil"])[0]
