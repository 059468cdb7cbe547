"""Command-line interface.

Subcommands: sweep, find, radial, scaling, count, packing, truncation,
hypothesis.  Exit status 0 for Pass/Report-only, 1 for a failed
experimental check, 2 for configuration errors and 3 for an internal error
(a fault in teig itself), each of the last two with a machine-readable JSON
object on stderr; an internal error also writes its traceback there.
There is no --seed anywhere: every code path is deterministic, so
identical invocations produce byte-identical outputs.
"""

import argparse
import math
import sys
import traceback

from . import curves, experiments, serialize
from .errors import TeigError
from .model import (
    PowerDecay,
    ProblemKind,
    ShrinkingChain,
    load_problem,
    validate_problem,
)
from .radial import RadialProblem, te_list_up_to


def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="teig",
        description="Interior transmission eigenvalues: curve sweeps and the radial oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="sweep the eigenvalue curves and write them as CSV")
    p.add_argument("--config", required=True, help="JSON problem file")
    p.add_argument("--out-curves", required=True, help="CSV output path")
    p.add_argument("--out-report", help="optional TE report JSON path")

    p = sub.add_parser("find", help="detect transmission eigenvalues and write the report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="TE report JSON path")

    p = sub.add_parser("radial", help="ball eigenvalues from the Bessel determinant oracle")
    p.add_argument("--problem", choices=["schrodinger", "helmholtz"], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--lmax", type=int, required=True, help="largest angular order scanned")
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--out")

    p = sub.add_parser("scaling", help="dilation scaling law for the first eigenvalue")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--radius", type=float, default=math.pi)
    p.add_argument("--v0", type=float, default=0.75)
    p.add_argument("--epsilons", type=_float_list, default=[0.5, 0.25])
    p.add_argument("--galerkin", action="store_true", help="repeat through the Galerkin pipeline")
    p.add_argument("--out")

    p = sub.add_parser("count", help="eigenvalue counting growth against the n/2 power law")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--radius", type=float, default=math.pi)
    p.add_argument("--v0", type=float, default=0.75)
    p.add_argument("--x-values", type=_float_list, default=[50.0, 100.0, 200.0, 400.0])
    p.add_argument("--lmax", default="auto", help="angular cutoff, integer or 'auto'")
    p.add_argument("--out")

    p = sub.add_parser("packing", help="packing lower bound for the eigenvalue count")
    p.add_argument("--length", type=float, default=4 * math.pi)
    p.add_argument("--v0", type=float, default=0.75)
    p.add_argument("--x", type=float, default=16.0)
    p.add_argument("--cells", type=int, default=96)
    p.add_argument("--out")

    p = sub.add_parser("truncation", help="chain truncation stability (report only)")
    p.add_argument("--counts", type=_int_list, default=[2, 4, 6])
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--gap", type=float, default=1.0)
    p.add_argument("--first-length", type=float, default=math.pi)
    p.add_argument("--decay-ratio", type=float, default=0.5)
    p.add_argument("--c", type=float, default=60.0, help="potential amplitude")
    p.add_argument("--alpha", type=float, default=4.0, help="potential decay exponent")
    p.add_argument("--problem", choices=["schrodinger", "helmholtz"], default="schrodinger")
    p.add_argument("--window", type=float, nargs=2, default=[0.5, 50.0])
    p.add_argument("--cells", type=int, default=32)
    p.add_argument("--out")

    p = sub.add_parser("hypothesis", help="scan for Schrodinger ball eigenvalues (report only)")
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--v0", type=float, default=40.0)
    p.add_argument("--lambda-max", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=800)
    p.add_argument("--lmax", type=int, default=0)
    p.add_argument("--out")

    return parser


def _emit(obj, path):
    text = serialize.dumps(obj, indent=2)
    if path:
        serialize.write_text(path, text)
    else:
        sys.stdout.write(text)


def _finish_experiment(result, out):
    _emit(result.to_json_obj(), out)
    return 0 if result.passed else 1


def _cmd_sweep(args):
    problem = validate_problem(load_problem(args.config))
    matrices = curves.prepare_matrices(problem)
    if args.out_report:
        _emit(curves.run_pipeline(problem, matrices).to_json_obj(), args.out_report)
    serialize.write_text(args.out_curves, curves.sweep(problem, matrices).to_csv())
    return 0


def _cmd_find(args):
    problem = validate_problem(load_problem(args.config))
    _emit(curves.run_pipeline(problem).to_json_obj(), args.out)
    return 0


def _cmd_radial(args):
    ball = RadialProblem(ProblemKind(args.problem), args.dim, args.radius, args.v0)
    tl = te_list_up_to(ball, args.lambda_max, args.lmax, steps=args.steps)
    payload = {
        "problem": args.problem,
        "dim": args.dim,
        "radius": args.radius,
        "v0": args.v0,
        "lambda_max": args.lambda_max,
        "ell_max": args.lmax,
        "transmission_eigenvalues": [
            {"lambda": lam, "ell": ell, "degeneracy": deg} for lam, ell, deg in tl.entries
        ],
    }
    _emit(payload, args.out)
    return 0


def _cmd_scaling(args):
    result = experiments.scaling_check(
        args.dim, args.radius, args.v0, args.epsilons, galerkin=args.galerkin
    )
    return _finish_experiment(result, args.out)


def _cmd_count(args):
    if args.lmax == "auto":
        ell_max = None
    else:
        try:
            ell_max = int(args.lmax)
        except ValueError:
            raise TeigError(f"--lmax must be an integer or 'auto', got {args.lmax!r}")
    result = experiments.counting_experiment(
        args.dim, args.radius, args.v0, args.x_values, ell_max=ell_max
    )
    return _finish_experiment(result, args.out)


def _cmd_packing(args):
    result = experiments.packing_bound_check(args.length, args.v0, args.x, cells=args.cells)
    return _finish_experiment(result, args.out)


def _cmd_truncation(args):
    counts = experiments.check_counts(args.counts)
    chain = ShrinkingChain(
        count=counts[-1],
        start=args.start,
        gap=args.gap,
        first_length=args.first_length,
        decay_ratio=args.decay_ratio,
    )
    result = experiments.truncation_stability(
        chain,
        counts,
        tuple(args.window),
        PowerDecay(args.c, args.alpha),
        kind=ProblemKind(args.problem),
        cells=args.cells,
    )
    return _finish_experiment(result, args.out)


def _cmd_hypothesis(args):
    result = experiments.hypothesis_scan(
        args.dim, args.radius, args.v0, args.lambda_max, steps=args.steps, ell_max=args.lmax
    )
    return _finish_experiment(result, args.out)


_DISPATCH = {
    "sweep": _cmd_sweep,
    "find": _cmd_find,
    "radial": _cmd_radial,
    "scaling": _cmd_scaling,
    "count": _cmd_count,
    "packing": _cmd_packing,
    "truncation": _cmd_truncation,
    "hypothesis": _cmd_hypothesis,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except TeigError as exc:
        sys.stderr.write(
            serialize.dumps({"error": exc.code, "message": str(exc)})
        )
        return 2
    except OSError as exc:
        sys.stderr.write(serialize.dumps({"error": "OSError", "message": str(exc)}))
        return 2
    except Exception as exc:  # a fault in teig, never a failed check (exit 1)
        message = f"{type(exc).__name__}: {exc}"
        sys.stderr.write(serialize.dumps({"error": "InternalError", "message": message}))
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
