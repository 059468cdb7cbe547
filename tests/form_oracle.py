"""The unexpanded quadratic form of A(lambda), evaluated by quadrature on
the basis tables of ``teig.assembly``: the independent oracle for the
expanded S/C/K/M combination that ``assemble_A`` forms.
"""

import numpy as np

from teig.model import ProblemKind, potential_value


def reconstruct(coeffs, table_entry):
    """u, u', u'' at the table's quadrature nodes from the coefficients of
    the table's interval block."""
    local = table_entry["local"]
    cm = np.where(local >= 0, coeffs[local], 0.0)
    uval = np.einsum("cqk,ck->cq", table_entry["val"], cm)
    ud1 = np.einsum("cqk,ck->cq", table_entry["d1"], cm)
    ud2 = np.einsum("cqk,ck->cq", table_entry["d2"], cm)
    return uval, ud1, ud2


def direct_form_value(basis, potential, kind, coeffs, lam, quad):
    """Quadrature value of the defining, unexpanded quadratic form.

    Schrodinger: int (-u'' + (V - lambda) u) (1/V) (-u'' - lambda u);
    Helmholtz replaces V by lambda V in the first factor.
    """
    blocks = np.asarray(coeffs, dtype=float).reshape(len(basis.intervals), basis.per_interval)
    total = 0.0
    for block, entry in zip(blocks, basis.tables(quad)):
        uval, _, ud2 = reconstruct(block, entry)
        vvals = potential_value(potential, entry["x"])
        if kind is ProblemKind.SCHRODINGER:
            first = -ud2 + (vvals - lam) * uval
        else:
            first = -ud2 + (lam * vvals - lam) * uval
        second = -ud2 - lam * uval
        total += float(np.sum(entry["w"] * first * second / vvals))
    return total
