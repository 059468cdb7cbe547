"""Time the hot kernels: Bessel triplets, the radial determinant grid, the
LAPACK-backed generalized eigensolve, and a short curve sweep.

Run directly:  python benchmarks/bench_kernels.py
With numba installed, the script times the JIT-compiled kernels, re-executes
itself with TEIG_NO_NUMBA=1 and prints both columns with speedups.  Without
numba (or with TEIG_NO_NUMBA set) JIT is unavailable: it says so and prints
the interpreted timings alone.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

import numpy as np


def _bench(fn, repeat, warmup=2):
    for _ in range(warmup):
        fn()
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmarks(repeat):
    from teig import radial
    from teig.eigensolve import lowest_k
    from teig.model import ProblemKind
    from teig.specfun import _j_triplet

    timings = {}

    def bessel_batch():
        total = 0.0
        for x in np.linspace(0.5, 60.0, 2000):
            total += _j_triplet(1.5, float(x))[1]
        return total

    timings["bessel J triplet x2000"] = _bench(bessel_batch, repeat)

    lambdas = np.linspace(1e-6, 400.0, 2000)

    def det_grid():
        return radial._det_grid(radial._HELMHOLTZ, 3, math.pi, 0.75, 12, lambdas)

    timings["determinant grid x2000 (n=3, ell=12)"] = _bench(det_grid, repeat)

    rng = np.random.default_rng(0)
    a = rng.standard_normal((63, 63))
    A = 0.5 * (a + a.T)
    g = rng.standard_normal((63, 63))
    B = g @ g.T + 63.0 * np.eye(63)

    def eig():
        return lowest_k(A, B, 12)

    timings["generalized eigensolve dim 63"] = _bench(eig, repeat)

    from teig import curves
    from teig.model import (
        Constant,
        DiscretizationConfig,
        IntervalUnion,
        ProblemSpec,
        SweepConfig,
        Unweighted,
        validate_problem,
    )

    problem = validate_problem(
        ProblemSpec(
            kind=ProblemKind.HELMHOLTZ,
            domain=IntervalUnion([(-math.pi, math.pi)]),
            potential=Constant(0.75),
            weight=Unweighted(),
            discretization=DiscretizationConfig(64, 8, 12),
            sweep=SweepConfig(3.0, 5.0, 50, 1e-8, 1e-6),
        )
    )
    _, _, mats = curves.prepare_matrices(problem)

    def sweep50():
        return curves.sweep(problem, mats)

    timings["curve sweep 50 points dim 63"] = _bench(sweep50, max(1, repeat // 2))
    return timings


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.inner:
        print(json.dumps(run_benchmarks(args.repeat)))
        return

    from teig._accel import JIT_ENABLED

    here = run_benchmarks(args.repeat)
    width = max(len(k) for k in here)
    if not JIT_ENABLED:
        print("JIT unavailable (numba not installed or TEIG_NO_NUMBA set): "
              "timings are the interpreted numpy fallback")
        print(f"{'kernel':<{width}}  {'numpy fallback':>14}")
        for name, mine in here.items():
            print(f"{name:<{width}}  {mine * 1e3:>11.3f} ms")
        return

    env = dict(os.environ, TEIG_NO_NUMBA="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--inner", "--repeat", str(args.repeat)],
        capture_output=True,
        text=True,
        env=env,
    )
    other = json.loads(proc.stdout) if proc.returncode == 0 else {}
    print(f"{'kernel':<{width}}  {'numba':>14}  {'numpy fallback':>14}  {'ratio':>7}")
    for name, mine in here.items():
        theirs = other.get(name)
        if theirs:
            print(f"{name:<{width}}  {mine * 1e3:>11.3f} ms  {theirs * 1e3:>11.3f} ms  "
                  f"{theirs / mine:>6.1f}x")
        else:
            print(f"{name:<{width}}  {mine * 1e3:>11.3f} ms  {'n/a':>14}")


if __name__ == "__main__":
    main()
