"""Smoke test of the benchmark harness on reduced inputs.

    python3 -m pytest perfbench
"""

import copy
import dataclasses
import json

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _small(name, reference, argv=None, **problem_changes):
    workload = WORKLOADS[name]
    problem = copy.deepcopy(workload.problem)
    for section, changes in problem_changes.items():
        problem[section].update(changes)
    return dataclasses.replace(
        workload,
        argv=argv or workload.argv,
        problem=problem if workload.problem else None,
        reference=reference,
    )


SMALL_FIND = _small(
    "find_interval",
    {
        "transmission_eigenvalues": [[4.0007881028812466, 1], [4.1634085811987624, 1]],
        "abs_tol": 1e-7,
    },
    discretization={"cells_per_interval": 24},
    sweep={"steps": 120},
)
SMALL_SWEEP = _small(
    "sweep_chain",
    {
        "transmission_eigenvalues": [[4.1581925438860292, 1], [37.774976740519591, 1]],
        "abs_tol": 1e-7,
        "rows": 40,
        "curves": 4,
    },
    domain={"count": 2},
    discretization={"cells_per_interval": 12, "num_curves": 4},
    sweep={"steps": 40},
)
SMALL_COUNT = _small(
    "count_ball3",
    {"counts": [[50, 481], [100, 1437]], "verdict": "Pass"},
    argv=("count", "--dim", "3", "--x-values", "50,100", "--out", "{work}/count.json"),
)


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_untraced_run_emits_every_end_to_end_metric():
    summary = run.measure(SMALL_FIND, 0, trace=False)
    assert summary["failures"] == []
    assert summary["attempted"] >= 2
    assert set(summary["end_to_end"]) == _names("end_to_end")
    assert all(value > 0 for value in summary["end_to_end"].values())


@pytest.mark.parametrize(
    "workload, layer_count",
    [(SMALL_SWEEP, "eigensolve.lowest_k.calls"), (SMALL_COUNT, "radial.det_grid.calls")],
)
def test_traced_run_emits_every_per_layer_metric(workload, layer_count):
    summary = run.measure(workload, 0, trace=True)
    assert summary["failures"] == []
    assert summary["absent"] == [] and summary["probe_errors"] == 0
    assert set(summary["per_layer"]) == _names("per_layer")
    assert summary["per_layer"][layer_count] > 0


def test_wrong_reference_value_counts_as_failure():
    wrong = dict(SMALL_COUNT.reference, counts=[[50, 482], [100, 1437]])
    summary = run.measure(dataclasses.replace(SMALL_COUNT, reference=wrong), 0, trace=False)
    assert summary["attempted"] >= 2
    assert summary["failed"] == summary["attempted"]
    assert all("482" in failure for failure in summary["failures"])
