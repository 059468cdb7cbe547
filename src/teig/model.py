"""Problem definition: scattering kind, domains, potentials, weights, and
the discretization/sweep configuration, plus validation and JSON ingestion.

All types are immutable values; validation either returns a normalized
problem (chains materialized, intervals sorted) or raises a typed
ValidationError whose ``code`` names the violated rule.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    AlphaTooSmall,
    HelmholtzContrastDegenerate,
    NonPositivePotential,
    OverlappingIntervals,
    ProblemTooLarge,
    ValidationError,
)

HELMHOLTZ_CONTRAST_TOL = 1e-12
# Largest dense storage a problem may need, in bytes: the six form matrices
# of every interval block plus the larger of one block's companion matrix
# and the curve sweep's working set, or the curve table with its CSV text.
MEMORY_BUDGET_BYTES = 1 << 30
# Most bytes of reduced matrices one stacked eigensolve of the curve sweep
# holds; a chunk holds at least one grid point whatever its size.
SWEEP_CHUNK_BYTES = 1 << 18
# Smallest refine_tol, in float spacings at the sweep window's larger |end|;
# bisection cannot resolve a finer one.
REFINE_TOL_ULPS = 4


class ProblemKind(Enum):
    SCHRODINGER = "schrodinger"
    HELMHOLTZ = "helmholtz"


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class IntervalUnion:
    intervals: tuple

    def __init__(self, intervals):
        object.__setattr__(self, "intervals", tuple((float(a), float(b)) for a, b in intervals))


@dataclass(frozen=True)
class ShrinkingChain:
    """Finitely truncated chain of intervals with geometrically shrinking
    lengths; stands in for the unbounded domains whose pieces tend to 0."""

    count: int
    start: float
    gap: float
    first_length: float
    decay_ratio: float


def materialize_domain(chain):
    """Turn a ShrinkingChain into its explicit list of intervals.

    Interval j starts at start + j*gap + sum of the previous lengths and
    has length first_length * decay_ratio**j.
    """
    _check_chain(chain)
    intervals = []
    acc = 0.0  # total length already laid down
    for j in range(chain.count):
        length = chain.first_length * chain.decay_ratio**j
        a = chain.start + j * chain.gap + acc
        intervals.append((a, a + length))
        acc += length
    return intervals


def _check_chain(chain):
    if chain.count < 1:
        raise ValidationError(f"chain count must be >= 1, got {chain.count}")
    if chain.gap <= 0:
        raise ValidationError(f"chain gap must be > 0, got {chain.gap}")
    if chain.first_length <= 0:
        raise ValidationError(f"chain first_length must be > 0, got {chain.first_length}")
    if not 0.0 < chain.decay_ratio < 1.0:
        raise ValidationError(f"chain decay_ratio must lie in (0,1), got {chain.decay_ratio}")


# ---------------------------------------------------------------------------
# potentials and weights


@dataclass(frozen=True)
class Constant:
    v0: float


@dataclass(frozen=True)
class PowerDecay:
    """V(x) = c * (1+x^2)^(-alpha/2)."""

    c: float
    alpha: float


@dataclass(frozen=True)
class Agmon:
    """Weight w(x) = (1+x^2)^(alpha/2), alpha > 0."""

    alpha: float


@dataclass(frozen=True)
class Unweighted:
    pass


DEFAULT_AGMON_ALPHA = 4.0


def potential_value(spec, x):
    """V(x) for a validated potential spec; strictly positive."""
    if isinstance(spec, Constant):
        return spec.v0
    return spec.c * (1.0 + x * x) ** (-0.5 * spec.alpha)


def weight_value(weight, x):
    if isinstance(weight, Unweighted):
        return 1.0
    return (1.0 + x * x) ** (0.5 * weight.alpha)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class DiscretizationConfig:
    cells_per_interval: int = 64
    quad_points: int = 8
    num_curves: int = 12


@dataclass(frozen=True)
class SweepConfig:
    lambda_min: float
    lambda_max: float
    steps: int
    refine_tol: float = 1e-8
    cluster_tol: float = 1e-6


@dataclass(frozen=True)
class ProblemSpec:
    kind: ProblemKind
    domain: object
    potential: object
    weight: object = field(default_factory=Unweighted)
    discretization: DiscretizationConfig = field(default_factory=DiscretizationConfig)
    sweep: SweepConfig = field(default_factory=lambda: SweepConfig(0.5, 10.0, 400))


@dataclass(frozen=True)
class ValidatedProblem:
    """Normalized problem ready for assembly: explicit sorted intervals,
    resolved weight, verified configuration."""

    kind: ProblemKind
    intervals: tuple
    potential: object
    weight: object
    discretization: DiscretizationConfig
    sweep: SweepConfig


def validate_problem(spec):
    """Check every declared invariant and return the normalized problem."""
    if isinstance(spec.domain, ShrinkingChain):
        _check_storage(spec.domain.count, spec.discretization, spec.sweep)
        intervals = materialize_domain(spec.domain)
        unbounded_model = True
    elif isinstance(spec.domain, IntervalUnion):
        _check_storage(len(spec.domain.intervals), spec.discretization, spec.sweep)
        intervals = sorted(spec.domain.intervals)
        unbounded_model = False
    else:
        raise ValidationError(f"unknown domain type {type(spec.domain).__name__}")

    if not intervals:
        raise ValidationError("domain has no intervals")
    for a, b in intervals:
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValidationError(f"interval ({a}, {b}) has a non-finite endpoint")
        if not a < b:
            raise OverlappingIntervals(f"interval ({a}, {b}) is empty or reversed")
    for (a0, b0), (a1, b1) in zip(intervals, intervals[1:]):
        if a1 < b0:
            raise OverlappingIntervals(f"intervals ({a0}, {b0}) and ({a1}, {b1}) intersect")

    pot = spec.potential
    if isinstance(pot, Constant):
        _check_finite(v0=pot.v0)
        if not pot.v0 > 0:
            raise NonPositivePotential(f"constant potential must be > 0, got {pot.v0}")
    elif isinstance(pot, PowerDecay):
        _check_finite(c=pot.c, alpha=pot.alpha)
        if not pot.c > 0:
            raise NonPositivePotential(f"power-decay coefficient must be > 0, got {pot.c}")
        if unbounded_model and not pot.alpha > 3.0:
            raise AlphaTooSmall(
                f"alpha must exceed 3 on an unbounded (chain) domain, got {pot.alpha}"
            )
    else:
        raise ValidationError(f"unknown potential type {type(pot).__name__}")

    if spec.kind is ProblemKind.HELMHOLTZ and isinstance(pot, Constant):
        if abs(pot.v0 - 1.0) < HELMHOLTZ_CONTRAST_TOL:
            raise HelmholtzContrastDegenerate(
                "Helmholtz contrast v0 = 1 degenerates the interior wavenumber"
            )

    weight = spec.weight
    if isinstance(weight, str):  # JSON-level spelling
        weight = _resolve_weight(weight, pot)
    if isinstance(weight, Agmon):
        _check_finite(weight_alpha=weight.alpha)
        if not weight.alpha > 0:
            raise ValidationError(f"Agmon weight exponent must be > 0, got {weight.alpha}")
    if not isinstance(weight, (Agmon, Unweighted)):
        raise ValidationError(f"unknown weight type {type(weight).__name__}")

    disc = spec.discretization
    if disc.cells_per_interval < 4:
        raise ValidationError(f"cells_per_interval must be >= 4, got {disc.cells_per_interval}")
    if disc.quad_points < 8:
        raise ValidationError(f"quad_points must be >= 8, got {disc.quad_points}")
    dim_total = (disc.cells_per_interval - 1) * len(intervals)
    if not 1 <= disc.num_curves <= dim_total:
        raise ValidationError(
            f"num_curves must lie in [1, {dim_total}], got {disc.num_curves}"
        )

    sw = spec.sweep
    _check_finite(
        lambda_min=sw.lambda_min,
        lambda_max=sw.lambda_max,
        refine_tol=sw.refine_tol,
        cluster_tol=sw.cluster_tol,
    )
    if not sw.lambda_max > sw.lambda_min:
        raise ValidationError("sweep requires lambda_max > lambda_min")
    if sw.steps < 2:
        raise ValidationError(f"sweep steps must be >= 2, got {sw.steps}")
    if not sw.refine_tol > 0:
        raise ValidationError("refine_tol must be > 0")
    floor = REFINE_TOL_ULPS * math.ulp(max(abs(sw.lambda_min), abs(sw.lambda_max)))
    if sw.refine_tol < floor:
        raise ValidationError(
            f"refine_tol {sw.refine_tol} is below {REFINE_TOL_ULPS} float spacings ({floor}) "
            "at the sweep window's largest |lambda|, finer than bisection can resolve"
        )
    if not sw.cluster_tol > 0:
        raise ValidationError("cluster_tol must be > 0")

    return ValidatedProblem(
        kind=spec.kind,
        intervals=tuple(intervals),
        potential=pot,
        weight=weight,
        discretization=disc,
        sweep=sw,
    )


def _check_storage(blocks, disc, sw):
    """Reject, before anything is allocated, a problem whose float64 arrays
    would exceed MEMORY_BUDGET_BYTES."""
    n = max(disc.cells_per_interval - 1, 0)
    # the sweep's working set: three reduced coefficient stacks, one block's
    # inverse Cholesky factor and three chunks of C(lambda): the chunk, the
    # copies of its solved and skipped blocks, and the shifted skipped ones
    sweep = 3 * blocks * n * n + n * n + 3 * max(SWEEP_CHUNK_BYTES // 8, blocks * n * n)
    dense = 8 * (6 * blocks * n * n + max((2 * n) ** 2, sweep))
    if dense > MEMORY_BUDGET_BYTES:
        raise ProblemTooLarge(
            f"{blocks} interval block(s) of dimension {n} need {dense} bytes of dense "
            f"matrices, over the budget of {MEMORY_BUDGET_BYTES}"
        )
    # each value is a float64 and up to 24 characters of CSV text
    table = 32 * max(sw.steps, 0) * (max(disc.num_curves, 0) + 1)
    if table > MEMORY_BUDGET_BYTES:
        raise ProblemTooLarge(
            f"a curve table of {sw.steps} x {disc.num_curves} needs {table} bytes, "
            f"over the budget of {MEMORY_BUDGET_BYTES}"
        )


def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value}")


def _resolve_weight(name, potential):
    if name == "unweighted":
        return Unweighted()
    if name == "agmon":
        alpha = potential.alpha if isinstance(potential, PowerDecay) else DEFAULT_AGMON_ALPHA
        return Agmon(alpha=alpha)
    raise ValidationError(f"unknown weight {name!r} (expected 'agmon' or 'unweighted')")


# ---------------------------------------------------------------------------
# JSON configuration files


def parse_problem(config):
    """Build a ProblemSpec from a configuration mapping (see README for the
    schema); raises ValidationError on malformed input."""
    if not isinstance(config, dict):
        raise ValidationError("problem config must be a JSON object")
    try:
        kind = ProblemKind(config["problem"])
    except KeyError:
        raise ValidationError("missing 'problem' field") from None
    except ValueError:
        raise ValidationError(
            f"problem must be 'schrodinger' or 'helmholtz', got {config.get('problem')!r}"
        ) from None

    domain = _parse_domain(_require(config, "domain"))
    potential = _parse_potential(_require(config, "potential"))
    weight = _parse_weight(config.get("weight", "unweighted"))

    disc_cfg = config.get("discretization", {})
    if not isinstance(disc_cfg, dict):
        raise ValidationError("discretization must be a JSON object")
    sweep_cfg = config.get("sweep")
    try:
        disc = DiscretizationConfig(
            cells_per_interval=_count(disc_cfg.get("cells_per_interval", 64), "cells_per_interval"),
            quad_points=_count(disc_cfg.get("quad_points", 8), "quad_points"),
            num_curves=_count(disc_cfg.get("num_curves", 12), "num_curves"),
        )
        if sweep_cfg is None:
            raise ValidationError("missing 'sweep' section")
        sweep = SweepConfig(
            lambda_min=float(sweep_cfg["lambda_min"]),
            lambda_max=float(sweep_cfg["lambda_max"]),
            steps=_count(sweep_cfg["steps"], "steps"),
            refine_tol=float(sweep_cfg.get("refine_tol", 1e-8)),
            cluster_tol=float(sweep_cfg.get("cluster_tol", 1e-6)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed configuration: {exc}") from None

    return ProblemSpec(
        kind=kind,
        domain=domain,
        potential=potential,
        weight=weight,
        discretization=disc,
        sweep=sweep,
    )


def _count(value, name):
    """A count from the configuration: integers and integral floats (64 or
    64.0) give an int; any other number (4.7, NaN, inf) is rejected."""
    if isinstance(value, int):
        return value
    number = float(value)
    if not number.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(number)


def _require(config, key):
    try:
        return config[key]
    except (KeyError, TypeError):
        raise ValidationError(f"missing '{key}' field") from None


def _parse_domain(cfg):
    kind = _require(cfg, "type")
    try:
        if kind == "interval_union":
            return IntervalUnion(intervals=[(float(a), float(b)) for a, b in cfg["intervals"]])
        if kind == "shrinking_chain":
            return ShrinkingChain(
                count=_count(cfg["count"], "count"),
                start=float(cfg["start"]),
                gap=float(cfg["gap"]),
                first_length=float(cfg["first_length"]),
                decay_ratio=float(cfg["decay_ratio"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed domain: {exc}") from None
    raise ValidationError(f"unknown domain type {kind!r}")


def _parse_potential(cfg):
    kind = _require(cfg, "type")
    try:
        if kind == "constant":
            return Constant(v0=float(cfg["v0"]))
        if kind == "power_decay":
            return PowerDecay(c=float(cfg["c"]), alpha=float(cfg["alpha"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed potential: {exc}") from None
    raise ValidationError(f"unknown potential type {kind!r}")


def _parse_weight(cfg):
    """The string spelling ('agmon', 'unweighted') passes through to
    validation; the object spelling of canonical_config is built here."""
    if isinstance(cfg, str):
        return cfg
    kind = _require(cfg, "type")
    try:
        if kind == "unweighted":
            return Unweighted()
        if kind == "agmon":
            return Agmon(alpha=float(cfg["alpha"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed weight: {exc}") from None
    raise ValidationError(f"unknown weight type {kind!r}")


def load_problem(path):
    """Read and parse a JSON problem file into its ProblemSpec."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    return parse_problem(config)


def canonical_config(problem):
    """Round-trip a validated problem into its canonical config mapping
    (used for hashing and for echoing inputs into reports)."""
    dom = {
        "type": "interval_union",
        "intervals": [[a, b] for a, b in problem.intervals],
    }
    if isinstance(problem.potential, Constant):
        pot = {"type": "constant", "v0": problem.potential.v0}
    else:
        pot = {"type": "power_decay", "c": problem.potential.c, "alpha": problem.potential.alpha}
    if isinstance(problem.weight, Unweighted):
        weight = {"type": "unweighted"}
    else:
        weight = {"type": "agmon", "alpha": problem.weight.alpha}
    return {
        "problem": problem.kind.value,
        "domain": dom,
        "potential": pot,
        "weight": weight,
        "discretization": {
            "cells_per_interval": problem.discretization.cells_per_interval,
            "quad_points": problem.discretization.quad_points,
            "num_curves": problem.discretization.num_curves,
        },
        "sweep": {
            "lambda_min": problem.sweep.lambda_min,
            "lambda_max": problem.sweep.lambda_max,
            "steps": problem.sweep.steps,
            "refine_tol": problem.sweep.refine_tol,
            "cluster_tol": problem.sweep.cluster_tol,
        },
    }
