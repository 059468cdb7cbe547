"""Reproducible experiment drivers: dilation scaling, eigenvalue counting
growth, the packing lower bound, truncation stability on shrinking chains,
and the open-question scanner for Schrodinger balls.

Every driver returns the dict {name, inputs, tables, verdict, margins}
that its subcommand writes; the verdict cites the tolerance it was judged
against, and Report-only drivers never pass or fail.
"""

import itertools
import math
from dataclasses import replace

import numpy as np

from . import curves
from .errors import InsufficientCounts, ValidationError
from .model import (
    Constant,
    DiscretizationConfig,
    IntervalUnion,
    PowerDecay,
    ProblemKind,
    ProblemSpec,
    SweepConfig,
    Unweighted,
    validate_problem,
)
from .radial import (
    RadialProblem,
    adaptive_ell_max,
    first_te,
    first_tes,
    harmonic_multiplicity,
    te_counts_up_to,
    te_list_up_to,
    top_order,
)

PASS = "Pass"
FAIL = "Fail"
REPORT_ONLY = "Report-only"

SCALING_ORACLE_TOL = 1e-8
SCALING_GALERKIN_TOL = 1e-3
COUNTING_SLOPE_WINDOW = 0.3
PACKING_SLACK = 0.8
PACKING_CURVES = 16
TRUNCATION_CURVES = 12


def _table(label, columns, rows):
    return {"label": label, "columns": list(columns), "rows": [list(r) for r in rows]}


def _galerkin_tes(kind, domain, potential, weight, cells, num_curves, window, tols):
    """The report entries of run_pipeline on one Galerkin problem with 8
    quadrature points, searched over ``window`` with tols = (refine_tol,
    cluster_tol)."""
    spec = ProblemSpec(
        kind=kind,
        domain=domain,
        potential=potential,
        weight=weight,
        discretization=DiscretizationConfig(cells, 8, num_curves),
        # run_pipeline reads no sweep grid: steps is the smallest valid value
        sweep=SweepConfig(window[0], window[1], 2, *tols),
    )
    return curves.run_pipeline(validate_problem(spec))["transmission_eigenvalues"]


# ---------------------------------------------------------------------------
# dilation scaling


def _galerkin_te_near(radius, v0, target):
    """Nearest Galerkin-reported TE to ``target`` on the interval
    (-radius, radius) with constant potential v0 (Helmholtz), from 48
    cells, 8 curves and the window [target / 2, 3 target / 2]."""
    entries = _galerkin_tes(
        ProblemKind.HELMHOLTZ, IntervalUnion([(-radius, radius)]), Constant(v0), Unweighted(),
        48, 8, (0.5 * target, 1.5 * target), (1e-10, 1e-8),
    )
    if not entries:
        raise ValidationError(f"no Galerkin TE found near {target}")
    return min((e["lambda"] for e in entries), key=lambda lam: abs(lam - target))


def scaling_check(n, radius, v0, epsilons, galerkin=False):
    """First-TE dilation law: the first eigenvalue of the ball of radius
    eps*R must equal the radius-R value divided by eps^2.

    The first TE is taken over angular order 0 for both radii.  Every
    radius has the same unit ball, which first_tes searches once, so the
    oracle table checks only the rounding of mu / R^2; with ``galerkin``
    the law is tested through the Galerkin pipeline on (-R, R), dimension
    1 only.
    """
    if not 0.0 < v0 < 1.0:
        raise ValidationError(f"scaling check requires v0 in (0, 1), got {v0}")
    if not epsilons:
        raise ValidationError("epsilons must be a non-empty list")
    for eps in epsilons:
        if not 0 < eps < math.inf:
            raise ValidationError(f"epsilon must be finite and > 0, got {eps}")
    if galerkin and n != 1:
        raise ValidationError("the Galerkin repeat runs in dimension 1 only")
    # each ball is built and checked only after the ball before it is done
    radii = itertools.chain([radius], (radius * eps for eps in epsilons))
    lam_base, *scaled = first_tes(RadialProblem(ProblemKind.HELMHOLTZ, n, r, v0) for r in radii)
    rows = []
    worst = 0.0
    for eps, lam_scaled in zip(epsilons, scaled):
        expected = lam_base / (eps * eps)
        rel = abs(lam_scaled - expected) / expected
        worst = max(worst, rel)
        rows.append((eps, lam_base, lam_scaled, expected, rel))
    tables = [
        _table(
            "oracle_scaling",
            ("epsilon", "first_te_base", "first_te_scaled", "expected", "rel_err"),
            rows,
        )
    ]
    margins = {"tolerance": SCALING_ORACLE_TOL, "max_rel_err": worst}
    verdict = PASS if worst <= SCALING_ORACLE_TOL else FAIL
    if galerkin:
        g_rows = []
        g_worst = 0.0
        g_base = _galerkin_te_near(radius, v0, lam_base)
        for eps in epsilons:
            g_scaled = _galerkin_te_near(radius * eps, v0, lam_base / eps**2)
            expected_ratio = 1.0 / (eps * eps)
            rel = abs(g_scaled / g_base - expected_ratio) / expected_ratio
            g_worst = max(g_worst, rel)
            g_rows.append((eps, g_base, g_scaled, expected_ratio, rel))
        tables.append(
            _table(
                "galerkin_scaling",
                ("epsilon", "galerkin_base", "galerkin_scaled", "expected_ratio", "rel_err"),
                g_rows,
            )
        )
        margins["galerkin_tolerance"] = SCALING_GALERKIN_TOL
        margins["galerkin_max_rel_err"] = g_worst
        if g_worst > SCALING_GALERKIN_TOL:
            verdict = FAIL
    return {
        "name": "scaling",
        "inputs": {
            "dim": n,
            "radius": radius,
            "v0": v0,
            "epsilons": list(epsilons),
            "galerkin": galerkin,
        },
        "tables": tables,
        "verdict": verdict,
        "margins": margins,
    }


# ---------------------------------------------------------------------------
# counting growth


def counting_experiment(n, radius, v0, x_values, ell_max=None):
    """Degeneracy-weighted count N(x) of ball eigenvalues up to x, from
    each order's count (te_counts_up_to), and the least-squares slope of
    log N against log x (target n/2)."""
    if not 0.0 < v0 < 1.0:
        raise ValidationError(f"counting requires Helmholtz contrast v0 in (0,1), got {v0}")
    base = RadialProblem(ProblemKind.HELMHOLTZ, n, radius, v0)  # validates the ball
    xs = sorted(float(x) for x in x_values)
    if not all(math.isfinite(x) and x > 0 for x in xs):
        raise ValidationError(f"x values must be finite and > 0, got {xs}")
    if len(set(xs)) < 2:
        raise ValidationError("counting needs at least two distinct x values")
    _, mus, _ = base.unit_ball(xs)
    ell_maxes = [adaptive_ell_max(n, mu) if ell_max is None else int(ell_max) for mu in mus]
    rows = []
    counts = []
    for x, lm, per_order in zip(xs, ell_maxes, te_counts_up_to(base, xs, ell_maxes)):
        nx = sum(harmonic_multiplicity(n, ell) * int(c) for ell, c in enumerate(per_order))
        if nx < 5:
            raise InsufficientCounts(
                f"N({x}) = {nx} < 5; widen the window before fitting a slope"
            )
        counts.append(nx)
        rows.append((x, nx, top_order(n, lm)))
    slope, intercept = np.polyfit(np.log(xs), np.log(counts), 1)
    target = 0.5 * n
    margins = {
        "slope": float(slope),
        "target": target,
        "window": COUNTING_SLOPE_WINDOW,
        "intercept": float(intercept),
    }
    verdict = PASS if abs(slope - target) <= COUNTING_SLOPE_WINDOW else FAIL
    return {
        "name": "counting",
        "inputs": {"dim": n, "radius": radius, "v0": v0, "x_values": xs, "ell_max": ell_max},
        "tables": [_table("counts", ("x", "weighted_count", "ell_max_used"), rows)],
        "verdict": verdict,
        "margins": margins,
    }


# ---------------------------------------------------------------------------
# packing lower bound


def packing_prediction(length, v0, x):
    """Number of disjoint scaled copies of the base interval that fit in
    (0, length), each contributing its first TE at exactly x.

    The base interval has half-width length/4; the prediction is scale
    free because first TEs scale like radius^-2.
    """
    r_base = 0.25 * length
    lam1 = first_te(RadialProblem(ProblemKind.HELMHOLTZ, 1, r_base, v0))
    eps = math.sqrt(lam1 / x)
    width = 2.0 * eps * r_base
    return int(math.floor(length / width + 1e-9)), lam1, eps


def packing_bound_check(length, v0, x, cells):
    """Mini-max packing bound: the Galerkin count of eigenvalues of the
    interval (0, length) up to x, on PACKING_CURVES curves, must reach at
    least 80% of the packing prediction (the continuum bound is one-sided;
    the slack absorbs discretization)."""
    if not 0.0 < v0 < 1.0:
        raise ValidationError(f"packing requires v0 in (0,1), got {v0}")
    if not (0 < length < math.inf and 0 < x < math.inf):
        raise ValidationError(f"packing requires finite length > 0 and x > 0, got {length}, {x}")
    prediction, lam1, eps = packing_prediction(length, v0, x)
    if prediction < 1:
        raise InsufficientCounts(
            f"packing predicts 0 copies at x = {x}: a copy fits once x reaches a quarter "
            f"of the base interval's first TE {lam1}"
        )
    entries = _galerkin_tes(
        ProblemKind.HELMHOLTZ, IntervalUnion([(0.0, length)]), Constant(v0), Unweighted(),
        cells, PACKING_CURVES, (1e-3 * x, float(x)), (1e-8, 1e-6),
    )
    observed = sum(e["multiplicity_estimate"] for e in entries if e["lambda"] <= x)
    required = PACKING_SLACK * prediction
    verdict = PASS if observed >= required - 1e-9 else FAIL
    rows = [(e["lambda"], e["curve_index"], e["multiplicity_estimate"]) for e in entries]
    return {
        "name": "packing",
        "inputs": {
            "length": length,
            "v0": v0,
            "x": x,
            "cells": cells,
            "num_curves": PACKING_CURVES,
        },
        "tables": [
            _table(
                "prediction",
                ("base_first_te", "epsilon", "prediction", "observed"),
                [(lam1, eps, prediction, observed)],
            ),
            _table("galerkin_entries", ("lambda", "curve_index", "multiplicity"), rows),
        ],
        "verdict": verdict,
        "margins": {
            "slack": PACKING_SLACK,
            "prediction": prediction,
            "observed": observed,
            "required": required,
        },
    }


# ---------------------------------------------------------------------------
# truncation stability on shrinking chains


def _hausdorff(left, right):
    """Symmetric Hausdorff distance between two sorted value lists."""
    worst = 0.0
    for a in left:
        worst = max(worst, min(abs(a - b) for b in right))
    for b in right:
        worst = max(worst, min(abs(a - b) for a in left))
    return worst


def check_counts(counts):
    """The chain truncation counts as ints; they must be non-empty and ascending."""
    counts = [int(c) for c in counts]
    if counts != sorted(counts) or not counts:
        raise ValidationError("counts must be a non-empty ascending list")
    return counts


def truncation_stability(chain, counts, window, potential, kind, cells):
    """Run the full pipeline at increasing chain truncations, on
    TRUNCATION_CURVES curves, and report the drift of the in-window
    eigenvalue lists between consecutive counts.

    Report-only: there is no quantitative truncation claim to judge
    against, so the drift table is emitted as evidence.  When exactly one
    of two consecutive lists is empty the drift is recorded as the window
    width (a finite, clearly-labeled sentinel).  validate_problem rejects
    alpha <= 3 on the chain (AlphaTooSmall).
    """
    if not isinstance(potential, PowerDecay):
        raise ValidationError("truncation study requires a PowerDecay potential")
    counts = check_counts(counts)
    lo, hi = float(window[0]), float(window[1])
    te_lists = []
    list_rows = []
    count_rows = []
    for count in counts:
        entries = _galerkin_tes(
            kind, replace(chain, count=count), potential, "agmon", cells, TRUNCATION_CURVES,
            (lo, hi), (1e-8, 1e-6),
        )
        lams = [e["lambda"] for e in entries if lo <= e["lambda"] <= hi]
        te_lists.append(lams)
        count_rows.append((count, len(lams)))
        for i, lam in enumerate(lams):
            list_rows.append((count, i, lam))
    drift_rows = []
    for (c0, l0), (c1, l1) in zip(zip(counts, te_lists), zip(counts[1:], te_lists[1:])):
        if not l0 and not l1:
            drift = 0.0
        elif not l0 or not l1:
            drift = hi - lo
        else:
            drift = _hausdorff(l0, l1)
        drift_rows.append((c0, c1, drift))
    return {
        "name": "truncation",
        "inputs": {
            "chain": {
                "start": chain.start,
                "gap": chain.gap,
                "first_length": chain.first_length,
                "decay_ratio": chain.decay_ratio,
            },
            "counts": counts,
            "window": [lo, hi],
            "potential": {"c": potential.c, "alpha": potential.alpha},
            "kind": kind.value,
            "cells": cells,
        },
        "tables": [
            _table("te_counts", ("count", "entries_in_window"), count_rows),
            _table("te_lists", ("count", "index", "lambda"), list_rows),
            _table("drift", ("count_from", "count_to", "drift"), drift_rows),
        ],
        "verdict": REPORT_ONLY,
        "margins": {"max_drift": max((r[2] for r in drift_rows), default=0.0)},
    }


# ---------------------------------------------------------------------------
# Schrodinger-ball existence scanner


def hypothesis_scan(n, radius, v0, lambda_max, steps, ell_max):
    """Scan the Schrodinger radial determinant for sign changes across both
    interior branches (evanescent below v0, oscillatory above), over the
    orders te_list_up_to lists up to lambda_max for ell <= ell_max.

    Whether such an eigenvalue always exists is an open question, so the
    verdict is always Report-only: the scan reports refined roots, or the
    explicit absence of any sign change in the window.
    """
    ball = RadialProblem(ProblemKind.SCHRODINGER, n, radius, v0)
    entries = te_list_up_to(ball, lambda_max, ell_max, steps)
    rows = [(lam, left, right, ell) for lam, ell, _, left, right in entries]
    return {
        "name": "hypothesis",
        "inputs": {
            "dim": n,
            "radius": radius,
            "v0": v0,
            "lambda_max": lambda_max,
            "steps": steps,
            "ell_max": ell_max,
        },
        "tables": [_table("sign_changes", ("root", "bracket_left", "bracket_right", "ell"), rows)],
        "verdict": REPORT_ONLY,
        "margins": {"roots_found": len(rows)},
    }
