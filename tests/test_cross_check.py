"""A randomized cross-check of the two routes on the dim-1 ball.

The interval (-R, R) is the ball of dim 1, so the radial oracle (orders 0
and 1) and the Galerkin pipeline must list the same transmission
eigenvalues on it.  The problems are drawn with a fixed seed and alternate
Helmholtz (v0 in [0.2, 0.9]) and Schrodinger (v0 in [2, 40]), with R in
[1, 3.5], over the window [0.5, 40].

The draws are generic: their roots are simple and well apart.  Coincidence
problems, where an order-0 and an order-1 root meet (the Helmholtz ball
R = pi, v0 = 3/4 at lambda = 4), are kept out: there the Galerkin pair
converges at a reduced rate (order 1.4-1.8 measured, against 4 at simple
roots), and acceptance criterion 2 checks that case on its own.
"""

import math

import numpy as np
import pytest

from teig import curves
from teig.model import (
    Constant,
    DiscretizationConfig,
    IntervalUnion,
    ProblemKind,
    ProblemSpec,
    SweepConfig,
    Unweighted,
    validate_problem,
)
from teig.radial import RadialProblem, te_list_up_to

SEED = 2026
WINDOW = (0.5, 40.0)
EDGE = 0.05  # roots this close to a window end are not compared
GAP_BOUND = 1e-3  # the largest measured relative gap at 64 cells is 3.6e-4


def draw_problems(count=8):
    rng = np.random.default_rng(SEED)
    problems = []
    for i in range(count):
        if i % 2 == 0:
            kind, v0 = ProblemKind.HELMHOLTZ, rng.uniform(0.2, 0.9)
        else:
            kind, v0 = ProblemKind.SCHRODINGER, rng.uniform(2.0, 40.0)
        problems.append((kind, rng.uniform(1.0, 3.5), v0))
    return problems


def inside(lams):
    lams = np.sort(np.asarray(lams, dtype=float))
    return lams[(lams > WINDOW[0] + EDGE) & (lams < WINDOW[1] - EDGE)]


def oracle_tes(kind, radius, v0):
    entries = te_list_up_to(RadialProblem(kind, 1, radius, v0), WINDOW[1], 1)
    return inside([lam for lam, *_ in entries])


def galerkin_tes(kind, radius, v0, cells):
    spec = ProblemSpec(
        kind=kind,
        domain=IntervalUnion([(-radius, radius)]),
        potential=Constant(v0),
        weight=Unweighted(),
        discretization=DiscretizationConfig(cells, 8, cells - 1),
        sweep=SweepConfig(*WINDOW, 2, 1e-10, 1e-6),
    )
    report = curves.run_pipeline(validate_problem(spec))
    return inside([
        e["lambda"]
        for e in report["transmission_eigenvalues"]
        for _ in range(e["multiplicity_estimate"])
    ])


@pytest.mark.parametrize(
    "kind, radius, v0",
    draw_problems(),
    ids=lambda value: value.value if isinstance(value, ProblemKind) else f"{value:.3f}",
)
def test_oracle_and_galerkin_agree_on_the_dim1_ball(kind, radius, v0):
    oracle = oracle_tes(kind, radius, v0)
    # generic: the roots lie far apart against the gap, so sorted lists pair up
    assert np.all(np.diff(oracle) > 10 * GAP_BOUND * oracle[1:])
    worst = {}
    for cells in (32, 64):
        galerkin = galerkin_tes(kind, radius, v0, cells)
        assert galerkin.size == oracle.size, cells
        worst[cells] = np.max(np.abs(galerkin - oracle) / oracle, initial=0.0)
    assert worst[64] <= GAP_BOUND
    if oracle.size:
        # cubic splines: the error falls by 2^4 when the mesh halves
        assert 3.5 <= math.log2(worst[32] / worst[64]) <= 4.5
