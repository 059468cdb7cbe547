"""The benchmark's workloads: fixed ``teig`` CLI calls and the checks their
outputs must pass.

Each workload is chosen so that one layer dominates and another is
bypassed, so an optimisation of one layer shows on one workload and is
predicted to change nothing on another:

* ``find_interval`` -- one block of dim 63 with trivial assembly and a
  split double root: the eigensolve and curve-sweep path.
* ``sweep_chain`` -- six blocks (dim 186) with non-constant potential and
  weight; the full curve table must be written whatever method ``find``
  uses, so a direct solve is bypassed while a per-block eigensolve shows.
* ``count_ball3`` -- the radial Bessel-determinant oracle only; assembly
  and the eigensolve are never called.

The inputs are fixed reference problems, so the stored reference values in
``reference.json`` apply to every run.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())

FIND_INTERVAL_PROBLEM = {
    "problem": "helmholtz",
    "domain": {"type": "interval_union", "intervals": [[-math.pi, math.pi]]},
    "potential": {"type": "constant", "v0": 0.75},
    "weight": "unweighted",
    "discretization": {"cells_per_interval": 64, "quad_points": 8, "num_curves": 12},
    "sweep": {
        "lambda_min": 0.5,
        "lambda_max": 10.0,
        "steps": 400,
        "refine_tol": 1e-8,
        "cluster_tol": 5e-2,
    },
}

SWEEP_CHAIN_PROBLEM = {
    "problem": "schrodinger",
    "domain": {
        "type": "shrinking_chain",
        "count": 6,
        "start": 0.0,
        "gap": 1.0,
        "first_length": math.pi,
        "decay_ratio": 0.5,
    },
    "potential": {"type": "power_decay", "c": 60.0, "alpha": 4.0},
    "weight": "agmon",
    "discretization": {"cells_per_interval": 32, "quad_points": 8, "num_curves": 16},
    "sweep": {"lambda_min": 0.5, "lambda_max": 50.0, "steps": 250},
}


@dataclass(frozen=True)
class Workload:
    """One CLI call. ``{work}`` in ``argv`` stands for the output directory."""

    name: str
    argv: tuple
    problem: dict  # written to {work}/problem.json when not None
    outputs: tuple  # files the call writes into {work}
    check: object  # check(work_dir, reference) -> list of error strings
    reference: dict

    def cli_args(self, work):
        return [arg.replace("{work}", str(work)) for arg in self.argv]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_entries(report, ref):
    """The report's (lambda, multiplicity) pairs against the reference,
    within its ``abs_tol`` plus ``rel_tol`` times the reference value."""
    got = [
        (e["lambda"], e["multiplicity_estimate"]) for e in report["transmission_eigenvalues"]
    ]
    want = ref["transmission_eigenvalues"]
    if len(got) != len(want):
        return [f"expected {len(want)} transmission eigenvalues, got {got}"]
    errors = []
    for (lam, mult), (ref_lam, ref_mult) in zip(got, want):
        tol = ref.get("abs_tol", 0.0) + ref.get("rel_tol", 0.0) * abs(ref_lam)
        if not abs(lam - ref_lam) <= tol:
            errors.append(f"eigenvalue {lam!r} is not within {tol} of {ref_lam}")
        if mult != ref_mult:
            errors.append(f"eigenvalue {lam!r} has multiplicity {mult}, expected {ref_mult}")
    return errors


def check_find(work, ref):
    return _check_entries(_read_json(work / "report.json"), ref)


def check_sweep(work, ref):
    errors = _check_entries(_read_json(work / "report.json"), ref)
    with open(work / "curves.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    if len(header) != ref["curves"] + 1 or len(rows) != ref["rows"]:
        errors.append(
            f"curve table is {len(rows)} x {len(header) - 1}, "
            f"expected {ref['rows']} x {ref['curves']}"
        )
    for i, row in enumerate(rows):
        try:
            mu = [float(v) for v in row[1:]]
        except ValueError:
            errors.append(f"curve table row {i} is not numeric")
            break
        if not all(math.isfinite(v) for v in mu):
            errors.append(f"curve table row {i} has a non-finite value")
            break
        if any(b < a for a, b in zip(mu, mu[1:])):
            errors.append(f"curve table row {i} does not ascend")
            break
    return errors


def check_count(work, ref):
    result = _read_json(work / "count.json")
    errors = []
    if result["verdict"] != ref["verdict"]:
        errors.append(f"verdict {result['verdict']!r}, expected {ref['verdict']!r}")
    counts = [[x, n] for x, n, _ in result["tables"][0]["rows"]]
    if counts != ref["counts"]:
        errors.append(f"counts {counts}, expected {ref['counts']}")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="find_interval",
            argv=("find", "--config", "{work}/problem.json", "--out", "{work}/report.json"),
            problem=FIND_INTERVAL_PROBLEM,
            outputs=("report.json",),
            check=check_find,
            reference=REFERENCE["find_interval"],
        ),
        Workload(
            name="sweep_chain",
            argv=(
                "sweep",
                "--config",
                "{work}/problem.json",
                "--out-curves",
                "{work}/curves.csv",
                "--out-report",
                "{work}/report.json",
            ),
            problem=SWEEP_CHAIN_PROBLEM,
            outputs=("curves.csv", "report.json"),
            check=check_sweep,
            reference=REFERENCE["sweep_chain"],
        ),
        Workload(
            name="count_ball3",
            argv=(
                "count",
                "--dim",
                "3",
                "--x-values",
                "50,100,200,400",
                "--out",
                "{work}/count.json",
            ),
            problem=None,
            outputs=("count.json",),
            check=check_count,
            reference=REFERENCE["count_ball3"],
        ),
    )
}
