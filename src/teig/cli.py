"""Command-line interface.

Subcommands: sweep, find, radial, scaling, count, packing, truncation,
hypothesis.  Each writes what its library function returns: a result
dict as JSON or the curve table as CSV.  Exit status 0 for Pass and
Report-only, 1 for a failed experimental check (verdict Fail), 2 for
configuration errors and 3 for an internal error (a fault in teig
itself), each of the last two with a machine-readable JSON object on
stderr; an internal error also writes its traceback there.
There is no --seed anywhere: every code path is deterministic, so
identical invocations produce byte-identical outputs.
"""

import argparse
import math
import sys

from . import curves, experiments, serialize
from .errors import TeigError, ValidationError
from .model import (
    PowerDecay,
    ProblemKind,
    ShrinkingChain,
    load_problem,
    validate_problem,
)
from .radial import DEFAULT_SCAN_STEPS, RadialProblem, te_list_up_to


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


def _sweep_arguments(p):
    p.add_argument("--config", required=True, help="JSON problem file")
    p.add_argument("--out-curves", required=True, help="CSV output path")
    p.add_argument("--out-report", help="optional TE report JSON path")


def _find_arguments(p):
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="TE report JSON path")


def _radial_arguments(p):
    p.add_argument("--problem", choices=["schrodinger", "helmholtz"], required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--lmax", type=int, required=True, help="largest angular order scanned")
    p.add_argument("--lambda-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=DEFAULT_SCAN_STEPS)
    p.add_argument("--out")


def _scaling_arguments(p):
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--radius", type=float, default=math.pi)
    p.add_argument("--v0", type=float, default=0.75)
    p.add_argument("--epsilons", type=_float_list, default=[0.5, 0.25])
    p.add_argument("--galerkin", action="store_true", help="repeat through the Galerkin pipeline")
    p.add_argument("--out")


def _count_arguments(p):
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--radius", type=float, default=math.pi)
    p.add_argument("--v0", type=float, default=0.75)
    p.add_argument("--x-values", type=_float_list, default=[50.0, 100.0, 200.0, 400.0])
    p.add_argument("--lmax", default="auto", help="angular cutoff, integer or 'auto'")
    p.add_argument("--out")


def _packing_arguments(p):
    p.add_argument("--length", type=float, default=4 * math.pi)
    p.add_argument("--v0", type=float, default=0.75)
    p.add_argument("--x", type=float, default=16.0)
    p.add_argument("--cells", type=int, default=96)
    p.add_argument("--out")


def _truncation_arguments(p):
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


def _hypothesis_arguments(p):
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--v0", type=float, default=40.0)
    p.add_argument("--lambda-max", type=float, default=100.0)
    p.add_argument("--steps", type=int, default=800)
    p.add_argument("--lmax", type=int, default=0)
    p.add_argument("--out")


def _build_parser(command):
    """The parser of ``teig command ...``.  For a known subcommand it holds
    that subcommand alone, with its arguments; otherwise every subcommand
    with its help line and no arguments, for the ``teig -h`` list and the
    usage errors.  argparse makes a help formatter (which reads the
    terminal size) per argument and several per parser, so nothing else
    is built."""
    parser = argparse.ArgumentParser(
        prog="teig",
        description="Interior transmission eigenvalues: curve sweeps and the radial oracle.",
    )
    lean = command in _COMMANDS
    # a lean parser's usage line still names every subcommand
    every = "{%s}" % ",".join(_COMMANDS)
    sub = parser.add_subparsers(dest="command", required=True, metavar=every if lean else None)
    for name in [command] if lean else _COMMANDS:
        text, arguments, _ = _COMMANDS[name]
        p = sub.add_parser(name, help=text)
        if name == command:
            arguments(p)
    return parser


def _emit(obj, path):
    text = serialize.dumps(obj, indent=2)
    if path:
        serialize.write_text(path, text)
    else:
        sys.stdout.write(text)


def _finish_experiment(result, out):
    _emit(result, out)
    return 1 if result["verdict"] == experiments.FAIL else 0


def _cmd_sweep(args):
    problem = validate_problem(load_problem(args.config))
    matrices = curves.prepare_matrices(problem)
    if args.out_report:
        _emit(curves.run_pipeline(problem, matrices), args.out_report)
    lambdas, values = curves.sweep(problem, matrices)
    serialize.write_text(args.out_curves, serialize.curve_table_csv(lambdas, values))
    return 0


def _cmd_find(args):
    problem = validate_problem(load_problem(args.config))
    _emit(curves.run_pipeline(problem), args.out)
    return 0


def _cmd_radial(args):
    ball = RadialProblem(ProblemKind(args.problem), args.dim, args.radius, args.v0)
    entries = te_list_up_to(ball, args.lambda_max, args.lmax, steps=args.steps)
    payload = {
        "problem": args.problem,
        "dim": args.dim,
        "radius": args.radius,
        "v0": args.v0,
        "lambda_max": args.lambda_max,
        "ell_max": args.lmax,
        "transmission_eigenvalues": [
            {"lambda": lam, "ell": ell, "degeneracy": deg} for lam, ell, deg, *_ in entries
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
            raise ValidationError(f"--lmax must be an integer or 'auto', got {args.lmax!r}")
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


_COMMANDS = {  # name: (help line, its arguments, its run function)
    "sweep": ("sweep the eigenvalue curves and write them as CSV", _sweep_arguments, _cmd_sweep),
    "find": ("detect transmission eigenvalues and write the report", _find_arguments, _cmd_find),
    "radial": (
        "ball eigenvalues from the Bessel determinant oracle", _radial_arguments, _cmd_radial
    ),
    "scaling": ("dilation scaling law for the first eigenvalue", _scaling_arguments, _cmd_scaling),
    "count": ("eigenvalue counting growth against the n/2 power law", _count_arguments, _cmd_count),
    "packing": ("packing lower bound for the eigenvalue count", _packing_arguments, _cmd_packing),
    "truncation": (
        "chain truncation stability (report only)", _truncation_arguments, _cmd_truncation
    ),
    "hypothesis": (
        "scan for Schrodinger ball eigenvalues (report only)",
        _hypothesis_arguments,
        _cmd_hypothesis,
    ),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except TeigError as exc:
        sys.stderr.write(
            serialize.dumps({"error": exc.code, "message": str(exc)})
        )
        return 2
    except OSError as exc:
        sys.stderr.write(serialize.dumps({"error": "OSError", "message": str(exc)}))
        return 2
    except Exception as exc:  # a fault in teig, never a failed check (exit 1)
        import traceback  # only this path needs it, so start-up does not load it
        message = f"{type(exc).__name__}: {exc}"
        sys.stderr.write(serialize.dumps({"error": "InternalError", "message": message}))
        traceback.print_exc(file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
