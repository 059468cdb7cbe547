"""Eigenvalue curve sweeps and transmission-eigenvalue detection.

The sorted lowest-K generalized eigenvalues of (A(lambda), Mw) are tracked
over a uniform lambda grid; sign changes of each sorted-index curve are
bracketed, refined by bisection in lambda, clustered, and reported.
Sorted-index curves may permute branches at intersections, but they are
continuous, so sign changes are genuine zero crossings either way.

A(lambda) and Mw are block-diagonal with one block per interval; the form
matrices come as one FormMatrices per interval, and every eigenvalue query
solves each block on its own and merges the lowest values.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import assemble, assemble_A, build_basis, gauss_legendre
from .eigensolve import lowest_k
from .errors import BracketInvalid, ValidationError
from .model import ProblemKind, canonical_config
from .serialize import config_hash, curve_table_csv

EXACT_ZERO_REL = 1e-12


@dataclass(frozen=True)
class CurveTable:
    """mu values (grid points x K, each row ascending) over the grid."""

    lambdas: np.ndarray
    values: np.ndarray

    def to_csv(self):
        return curve_table_csv(self.lambdas, self.values)


@dataclass(frozen=True)
class Bracket:
    """Sign change of curve ``index`` (1-based) between two grid points."""

    index: int
    lam_left: float
    lam_right: float


@dataclass(frozen=True)
class TEReport:
    entries: tuple  # of dicts: lambda, curve_index, multiplicity_estimate, residual
    metadata: dict

    def to_json_obj(self):
        return {
            "transmission_eigenvalues": [dict(e) for e in self.entries],
            "metadata": self.metadata,
        }


def prepare_matrices(problem):
    """Basis, quadrature, and the per-interval form matrices for a
    validated problem."""
    basis = build_basis(problem.intervals, problem.discretization.cells_per_interval)
    quad = gauss_legendre(problem.discretization.quad_points)
    matrices = assemble(basis, problem.potential, problem.weight, quad)
    return basis, quad, matrices


def _lowest(kind, matrices, lam, k, identity=False):
    """The k smallest eigenvalues of (A(lambda), Mw), or of A(lambda)
    against the identity, merged from one solve per interval block."""
    vals = []
    for m in matrices:
        mass = np.eye(m.dim) if identity else m.Mw
        vals.append(lowest_k(assemble_A(m, kind, lam), mass, k).eigenvalues)
    return np.sort(np.concatenate(vals))[:k]


def sweep(problem, matrices, sweepcfg=None):
    """Lowest-K curve table over the sweep grid (grid order, deterministic)."""
    cfg = sweepcfg if sweepcfg is not None else problem.sweep
    k = problem.discretization.num_curves
    lambdas = np.linspace(cfg.lambda_min, cfg.lambda_max, cfg.steps)
    values = np.empty((cfg.steps, k))
    for i, lam in enumerate(lambdas):
        try:
            values[i] = _lowest(problem.kind, matrices, lam, k)
        except Exception as exc:
            raise type(exc)(f"at lambda = {lam}: {exc}") from exc
    return CurveTable(lambdas=lambdas, values=values)


def find_crossings(table):
    """Brackets for every sign change of every sorted-index curve.

    Grid values within 1e-12 of zero (relative to the curve's scale) are
    exact hits reported as width-zero brackets and excluded from the sign
    logic of their neighboring cells.
    """
    lambdas = table.lambdas
    if len(lambdas) < 2:
        raise ValidationError("crossing detection needs at least 2 grid points")
    brackets = []
    num_curves = table.values.shape[1]
    for nu in range(num_curves):
        col = table.values[:, nu]
        scale = max(1.0, float(np.max(np.abs(col))))
        exact = np.abs(col) < EXACT_ZERO_REL * scale
        for i in np.nonzero(exact)[0]:
            brackets.append(Bracket(nu + 1, float(lambdas[i]), float(lambdas[i])))
        for i in range(len(lambdas) - 1):
            if exact[i] or exact[i + 1]:
                continue
            if col[i] * col[i + 1] < 0.0:
                brackets.append(Bracket(nu + 1, float(lambdas[i]), float(lambdas[i + 1])))
    brackets.sort(key=lambda b: (b.lam_left, b.index))
    return brackets


def _curve_value(problem, matrices, nu, lam):
    return _lowest(problem.kind, matrices, lam, nu)[nu - 1]


def _crossing_indicator(problem, matrices, nu, lam):
    """nu-th eigenvalue of A(lambda) against the identity.

    By Sylvester inertia its sign equals that of the nu-th curve of
    (A, Mw) for every positive definite mass matrix, so bisecting on it
    finds the same crossing while making the iteration independent of the
    weight to the last bit (the weight-invariance property relies on
    that).
    """
    return _lowest(problem.kind, matrices, lam, nu, identity=True)[nu - 1]


def refine(problem, matrices, bracket, refine_tol):
    """Bisect the bracketed sign change of the sorted nu-th curve until the
    bracket is narrower than refine_tol; returns the midpoint."""
    a, b = bracket.lam_left, bracket.lam_right
    if a == b:
        return a
    fa = _crossing_indicator(problem, matrices, bracket.index, a)
    fb = _crossing_indicator(problem, matrices, bracket.index, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        raise BracketInvalid(
            f"curve {bracket.index} has equal signs at [{a}, {b}]; re-sweep finer"
        )
    while b - a > refine_tol:
        mid = 0.5 * (a + b)
        fm = _crossing_indicator(problem, matrices, bracket.index, mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (fa < 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return 0.5 * (a + b)


def report(problem, refined, cluster_tol, matrices):
    """Cluster refined crossings into a TEReport.

    ``refined`` is a list of (lambda, curve_index).  Crossings within
    cluster_tol of each other merge into one entry whose multiplicity
    estimate is the cluster size; the entry lambda is the cluster mean and
    its curve index the smallest member index.  Helmholtz entries with
    |lambda| < cluster_tol are dropped (lambda = 0 is excluded there).
    """
    ordered = sorted(refined, key=lambda t: (t[0], t[1]))
    clusters = []
    for lam, nu in ordered:
        if clusters and lam - clusters[-1][-1][0] <= cluster_tol:
            clusters[-1].append((lam, nu))
        else:
            clusters.append([(lam, nu)])
    entries = []
    for members in clusters:
        lam = sum(m[0] for m in members) / len(members)
        if problem.kind is ProblemKind.HELMHOLTZ and abs(lam) < cluster_tol:
            continue
        residual = max(
            abs(_curve_value(problem, matrices, nu, lam)) for _, nu in members
        )
        entries.append(
            {
                "lambda": float(lam),
                "curve_index": int(min(nu for _, nu in members)),
                "multiplicity_estimate": len(members),
                "residual": float(residual),
            }
        )
    entries.sort(key=lambda e: e["lambda"])
    return TEReport(entries=tuple(entries), metadata=_metadata(problem))


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


def run_pipeline(problem):
    """Sweep, detect, refine, report; returns (CurveTable, TEReport)."""
    _, _, matrices = prepare_matrices(problem)
    table = sweep(problem, matrices)
    brackets = find_crossings(table)
    refined = []
    for bracket in brackets:
        lam = refine(problem, matrices, bracket, problem.sweep.refine_tol)
        refined.append((lam, bracket.index))
    te_report = report(problem, refined, problem.sweep.cluster_tol, matrices=matrices)
    return table, te_report
