"""Time the hot kernels: Bessel triplets, the radial determinant grid, the
LAPACK-backed generalized eigensolve, Galerkin assembly of the six-interval
shrinking chain, and a short curve sweep.

Run directly:  python benchmarks/bench_kernels.py
Prints the best of --repeat runs for each kernel.
"""

import argparse
import math
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

    orders = np.full(2000, 1.5)
    args = np.linspace(0.5, 60.0, 2000)

    def bessel_batch():
        return _j_triplet(orders, args)

    timings["bessel J triplet x2000 (one array call)"] = _bench(bessel_batch, repeat)

    lambdas = np.linspace(1e-6, 400.0, 2000)

    def det_grid():
        return radial._det_grid(ProblemKind.HELMHOLTZ, 3, math.pi, 0.75, 12, lambdas)

    timings["determinant grid x2000 (n=3, ell=12, one array call)"] = _bench(det_grid, repeat)

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
        PowerDecay,
        ProblemSpec,
        ShrinkingChain,
        SweepConfig,
        Unweighted,
        validate_problem,
    )

    chain = validate_problem(
        ProblemSpec(
            kind=ProblemKind.SCHRODINGER,
            domain=ShrinkingChain(6, 0.0, 1.0, math.pi, 0.5),
            potential=PowerDecay(60.0, 4.0),
            weight="agmon",
            discretization=DiscretizationConfig(32, 8, 16),
            sweep=SweepConfig(0.5, 50.0, 250),
        )
    )

    def assemble_chain():
        return curves.prepare_matrices(chain)

    timings["assembly, 6-interval chain (6 blocks of 31)"] = _bench(assemble_chain, repeat)

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
    args = parser.parse_args()

    timings = run_benchmarks(args.repeat)
    width = max(len(k) for k in timings)
    print(f"{'kernel':<{width}}  {'best':>14}")
    for name, best in timings.items():
        print(f"{name:<{width}}  {best * 1e3:>11.3f} ms")


if __name__ == "__main__":
    main()
