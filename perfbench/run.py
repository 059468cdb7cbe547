"""teig benchmark: one workload through the public CLI, measured end to end
or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``teig`` is imported from its
``src`` directory. Every call into ``teig.cli.main`` runs in a fresh
process, one after another (closed loop, one client), until S seconds
have passed and at least two calls were made. Every call's outputs are
checked against ``reference.json``, and the first two calls of a run
must write byte-identical files; a call that fails either check or exits
non-zero counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``: ``solve_s`` (dispatch into ``teig.cli.main`` to its
return, output writes included), ``setup_s`` (process spawn to dispatch,
the median of several set-up-only processes and the calls), ``cpu_s``
(user+sys of a call's process) and ``peak_rss_mb``, each the median over
the calls. With ``--trace 1`` each untraced call is followed by a traced
one, whose spans give the per-layer metrics; the tracing overhead is
the traced minus the untraced ``solve_s``.

The workloads are fixed reference problems: ``--seed`` is recorded but
does not change the inputs. BLAS threads are pinned to
min(2, available cores) and recorded with the rest of the environment.
The last line of standard output is the result as one JSON object.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
SETUP_SPAWNS = 11  # after one discarded warm-up spawn
RUN_LIMIT_S = 170  # a run stops starting calls, and kills a call, at this age
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def git_commit(root):
    """The checked-out commit read from ``.git``, or "unknown"."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(mode, cli_args, result_path, deadline):
    """Run child.py once; returns (child result, error message)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    command = [sys.executable, str(HERE / "child.py"), str(result_path), mode, *cli_args]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t_spawn),
        )
    except subprocess.TimeoutExpired:
        return None, "killed at the run's time limit"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"process exited with code {proc.returncode}: {tail[0]}"
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["t_dispatch"] - t_spawn
    result["solve_s"] = result["t_return"] - result["t_dispatch"]
    return result, None


def measure_setup(run_dir, deadline):
    """Set-up times of SETUP_SPAWNS processes that stop at the dispatch
    point, and the environment they report."""
    run_dir.mkdir(parents=True)
    times = []
    for i in range(SETUP_SPAWNS + 1):
        result, error = spawn("setup", [], run_dir / "setup.json", deadline)
        if error:
            raise HarnessError(f"cannot start teig: {error}")
        if i:
            times.append(result["setup_s"])
    teig_file = Path(result["env"]["teig_file"]).resolve()
    if not teig_file.is_relative_to(ROOT / "src"):
        raise HarnessError(f"teig was imported from outside this checkout: {teig_file}")
    env = dict(result["env"], blas_threads=BLAS_THREADS, nproc=NPROC, commit=git_commit(ROOT))
    del env["teig_file"]
    return times, env


def run_call(workload, mode, work, deadline):
    """One CLI call in its own process and the check of its outputs."""
    work.mkdir()
    if workload.problem is not None:
        (work / "problem.json").write_text(json.dumps(workload.problem))
    result, error = spawn(mode, workload.cli_args(work), work / "child.json", deadline)
    if error:
        return {"mode": mode, "errors": [error]}
    errors = []
    if result["exit_code"] != 0:
        errors.append(f"teig exited with code {result['exit_code']}")
    else:
        try:
            errors += workload.check(work, workload.reference)
        except CHECK_ERRORS as exc:
            errors.append(f"unreadable output: {exc!r}")
    return dict(result, mode=mode, errors=errors)


def same_outputs(workload, first, second):
    return all(
        (first / name).read_bytes() == (second / name).read_bytes() for name in workload.outputs
    )


def tail_percentile(values):
    """(q, value) for the highest whole percentile q > 50 with at least ten
    samples beyond it, or None when there are too few samples."""
    q = int(100 - 1000 / len(values)) if values else 0
    if q <= 50:
        return None
    return q, sorted(values)[math.ceil(len(values) * q / 100) - 1]  # nearest rank


def layer_metrics(trace, solve_s):
    """Per-layer metrics of one traced call; a span the program no longer
    has reads as zero."""
    spans, edges = trace["spans"], trace["edges"]

    def stat(span, key):
        return spans.get(span, {}).get(key, 0)

    def counted(name, parent=None):
        return sum(
            n
            for edge, n in edges.items()
            if edge.endswith(">" + name) and (parent is None or edge == f"{parent}>{name}")
        )

    def ratio(a, b):
        return a / b if b else 0.0

    solves = stat("eigensolve.lowest_k", "calls")
    return {
        "eigensolve.lowest_k.calls": solves,
        "eigensolve.lowest_k.self_s": stat("eigensolve.lowest_k", "self_s"),
        "eigensolve.lowest_k.mean_dim": ratio(stat("eigensolve.lowest_k", "dim"), solves),
        "eigensolve.lowest_k.flops_computed": stat("eigensolve.lowest_k", "flops_computed"),
        "assembly.assemble.self_s": stat("assembly.assemble", "self_s"),
        "assembly.assemble_A.calls": stat("assembly.assemble_A", "calls"),
        "assembly.assemble_A.self_s": stat("assembly.assemble_A", "self_s"),
        "curves.sweep.points": stat("curves.sweep", "points"),
        "curves.sweep.self_s": stat("curves.sweep", "self_s"),
        "curves.find_crossings.brackets": stat("curves.find_crossings", "brackets"),
        "curves.refine.calls": stat("curves.refine", "calls"),
        "curves.refine.solves": counted("eigensolve.lowest_k", "curves.refine"),
        "curves.refine.total_s": stat("curves.refine", "total_s"),
        "curves.report.total_s": stat("curves.report", "total_s"),
        "curves.report.entries": stat("curves.report", "entries"),
        "curves.solves_per_te": ratio(solves, stat("curves.report", "entries")),
        "radial.det_grid.calls": stat("radial.det_grid", "calls"),
        "radial.det_grid.points": stat("radial.det_grid", "points"),
        "radial.det_grid.self_s": stat("radial.det_grid", "self_s"),
        "radial.det_grid.nan_cells": stat("radial.det_grid", "nan_cells"),
        "radial.bisect.calls": stat("radial.bisect", "calls"),
        "radial.bisect.evals": counted("radial.det_scalar", "radial.bisect"),
        "radial.bisect.self_s": stat("radial.bisect", "self_s"),
        "radial.polish_root.calls": stat("radial.polish_root", "calls"),
        "radial.polish_root.self_s": stat("radial.polish_root", "self_s"),
        "radial.polish_root.moved_ratio": ratio(
            stat("radial.polish_root", "moved"), stat("radial.polish_root", "calls")
        ),
        "radial.grid_doublings": stat("radial.det_grid", "calls")
        - counted("radial.scan_determinant"),
        "specfun.radial_wave_eval.calls": counted("specfun.radial_wave_eval"),
        "serialize.write_text.self_s": stat("serialize.write_text", "self_s"),
        "serialize.bytes_written": stat("serialize.write_text", "bytes"),
        "model.load_validate.self_s": stat("model.load_validate", "self_s"),
        "cli.main.self_s": stat("cli.main", "self_s"),
        "experiments.counting_experiment.self_s": stat(
            "experiments.counting_experiment", "self_s"
        ),
        "trace.solve_s": solve_s,
        "trace.self_share": ratio(sum(s.get("self_s", 0) for s in spans.values()), solve_s),
    }


def measure(workload, seconds, trace):
    """Run one workload; returns the summary printed by main()."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    try:
        setup_times, env = measure_setup(run_dir, deadline)
        modes = ("run", "trace") if trace else ("run",)
        calls = []
        start = time.monotonic()
        while time.monotonic() < deadline:
            for mode in modes:
                calls.append(run_call(workload, mode, run_dir / str(len(calls)), deadline))
                if len(calls) == 2 and not calls[1]["errors"] and not calls[0]["errors"]:
                    if not same_outputs(workload, run_dir / "0", run_dir / "1"):
                        calls[1]["errors"].append("outputs differ from the first call's")
                if len(calls) > 2:
                    shutil.rmtree(run_dir / str(len(calls) - 1))
            rounds = len(calls) // len(modes)
            if len(calls) >= 2 and (time.monotonic() - start) * (rounds + 1) / rounds > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    return summarize(calls, setup_times, env)


def _median(values):
    return statistics.median(values) if values else 0.0


def summarize(calls, setup_times, env):
    """Medians over the calls that ran to the end; failures counted over all."""
    timed = [c for c in calls if "solve_s" in c]
    untraced = [c for c in timed if c["mode"] == "run"]
    traced = [c for c in timed if c["mode"] == "trace"]
    solve = [c["solve_s"] for c in untraced]
    per_layer = {}
    if traced:
        per_call = [layer_metrics(c["trace"], c["solve_s"]) for c in traced]
        per_layer = {name: _median([m[name] for m in per_call]) for name in per_call[0]}
        per_layer["trace.overhead_s"] = per_layer["trace.solve_s"] - _median(solve)
    return {
        "env": env,
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c["errors"]),
        "failures": [
            f"call {i} ({c['mode']}): {error}" for i, c in enumerate(calls) for error in c["errors"]
        ],
        "solve_samples": solve,
        "end_to_end": {
            "solve_s": _median(solve),
            "setup_s": _median(setup_times + [c["setup_s"] for c in untraced]),
            "cpu_s": _median([c["cpu_s"] for c in untraced]),
            "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
        },
        "per_layer": per_layer,
        "absent": sorted({name for c in traced for name in c["trace"]["absent"]}),
        "probe_errors": sum(c["trace"]["probe_errors"] for c in traced),
    }


def load_metric_units(trace):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "teig" / "cli.py").is_file():
        print("perfbench: no teig sources under src/ in this checkout", file=sys.stderr)
        return 2
    units = load_metric_units(args.trace)
    try:
        summary = measure(WORKLOADS[args.workload], args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = summary["attempted"], summary["failed"]
    print(
        f"workload {args.workload}  seed {args.seed} (inputs are fixed)  "
        f"seconds {args.seconds:g}  trace {args.trace}  closed loop, one client"
    )
    print("env " + json.dumps(summary["env"], sort_keys=True))
    for failure in summary["failures"]:
        print("FAILED " + failure)
    values = summary["per_layer"] if args.trace else summary["end_to_end"]
    for name, unit in units.items():
        print(f"{name:40s} {values[name]!r} {unit}")
    if args.trace:
        print(f"absent spans: {', '.join(summary['absent']) or 'none'}")
        print(f"probe errors: {summary['probe_errors']}")
    else:
        tail = tail_percentile(summary["solve_samples"])
        print(
            f"solve_s samples ({len(summary['solve_samples'])}): "
            + " ".join(f"{v:.4f}" for v in summary["solve_samples"])
            + "; tail percentile: "
            + (f"p{tail[0]} = {tail[1]!r} s" if tail else "none with ten samples beyond it")
        )
    print(f"{'failed_ratio':40s} {failed / attempted!r} ratio ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
