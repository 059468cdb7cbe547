import json
import math
from pathlib import Path

import pytest

from teig import cli
from teig.errors import (
    AlphaTooSmall,
    HelmholtzContrastDegenerate,
    NonPositivePotential,
    OverlappingIntervals,
    ProblemTooLarge,
    ValidationError,
)
from teig.model import (
    Agmon,
    Constant,
    DiscretizationConfig,
    IntervalUnion,
    PowerDecay,
    ProblemKind,
    ProblemSpec,
    ShrinkingChain,
    SweepConfig,
    Unweighted,
    canonical_config,
    materialize_domain,
    parse_problem,
    potential_value,
    validate_problem,
    weight_value,
)


def make_spec(**kw):
    base = dict(
        kind=ProblemKind.SCHRODINGER,
        domain=IntervalUnion([(-math.pi, math.pi)]),
        potential=Constant(0.75),
        weight=Unweighted(),
        discretization=DiscretizationConfig(8, 8, 4),
        sweep=SweepConfig(0.5, 5.0, 10),
    )
    base.update(kw)
    return ProblemSpec(**base)


class TestMaterializeDomain:
    def test_two_links(self):
        chain = ShrinkingChain(count=2, start=0.0, gap=1.0, first_length=1.0, decay_ratio=0.5)
        assert materialize_domain(chain) == [(0.0, 1.0), (2.0, 2.5)]

    def test_single_link(self):
        chain = ShrinkingChain(count=1, start=-2.0, gap=3.0, first_length=1.5, decay_ratio=0.9)
        assert materialize_domain(chain) == [(-2.0, -0.5)]

    def test_third_length(self):
        chain = ShrinkingChain(count=3, start=0.0, gap=1.0, first_length=1.0, decay_ratio=0.5)
        (a, b) = materialize_domain(chain)[2]
        assert b - a == pytest.approx(0.25, abs=0)

    def test_lengths_strictly_decreasing_and_disjoint(self):
        chain = ShrinkingChain(count=6, start=0.3, gap=0.7, first_length=2.0, decay_ratio=0.8)
        ivs = materialize_domain(chain)
        lengths = [b - a for a, b in ivs]
        assert all(l2 < l1 for l1, l2 in zip(lengths, lengths[1:]))
        assert all(b0 < a1 for (_, b0), (a1, _) in zip(ivs, ivs[1:]))


class TestPotentialValue:
    def test_constant(self):
        assert potential_value(Constant(0.75), 42.0) == 0.75

    def test_power_decay_origin(self):
        assert potential_value(PowerDecay(1.0, 4.0), 0.0) == 1.0

    def test_power_decay_at_one(self):
        assert potential_value(PowerDecay(2.0, 4.0), 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_two_sided_bound_is_exact(self):
        # c * <x>^alpha * V(x) == c with equal constants on both sides
        pot = PowerDecay(3.0, 3.5)
        for x in (-7.0, -1.2, 0.0, 0.4, 11.0):
            w = (1 + x * x) ** (0.5 * pot.alpha)
            assert potential_value(pot, x) * w == pytest.approx(pot.c, rel=1e-14)


class TestWeights:
    def test_agmon_at_least_one(self):
        for x in (-5.0, 0.0, 0.1, 9.0):
            assert weight_value(Agmon(4.0), x) >= 1.0

    def test_unweighted(self):
        assert weight_value(Unweighted(), 3.0) == 1.0


class TestValidation:
    def test_accepts_basic(self):
        prob = validate_problem(make_spec())
        assert prob.domain.intervals == ((-math.pi, math.pi),)

    def test_alpha_too_small_on_chain(self):
        spec = make_spec(
            domain=ShrinkingChain(2, 0.0, 1.0, 1.0, 0.5),
            potential=PowerDecay(1.0, 2.5),
        )
        with pytest.raises(AlphaTooSmall):
            validate_problem(spec)

    def test_alpha_free_on_bounded(self):
        spec = make_spec(potential=PowerDecay(1.0, 2.5))
        validate_problem(spec)

    def test_overlapping(self):
        spec = make_spec(domain=IntervalUnion([(0.0, 2.0), (1.0, 3.0)]))
        with pytest.raises(OverlappingIntervals):
            validate_problem(spec)

    def test_touching_intervals_allowed(self):
        spec = make_spec(domain=IntervalUnion([(0.0, 1.0), (1.0, 2.0)]))
        assert len(validate_problem(spec).domain.intervals) == 2

    def test_nonpositive_potential(self):
        with pytest.raises(NonPositivePotential):
            validate_problem(make_spec(potential=Constant(0.0)))

    def test_helmholtz_degenerate_contrast(self):
        spec = make_spec(kind=ProblemKind.HELMHOLTZ, potential=Constant(1.0 + 1e-13))
        with pytest.raises(HelmholtzContrastDegenerate):
            validate_problem(spec)
        spec = make_spec(kind=ProblemKind.HELMHOLTZ, potential=Constant(1e-13))
        with pytest.raises(HelmholtzContrastDegenerate):
            validate_problem(spec)

    def test_num_curves_capped_by_dimension(self):
        spec = make_spec(discretization=DiscretizationConfig(8, 8, 8))
        with pytest.raises(ValidationError):
            validate_problem(spec)

    def test_sorted_normalization(self):
        spec = make_spec(domain=IntervalUnion([(2.0, 3.0), (0.0, 1.0)]))
        prob = validate_problem(spec)
        assert prob.domain.intervals == ((0.0, 1.0), (2.0, 3.0))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(potential=Constant(math.inf)),
            dict(potential=Constant(math.nan)),
            dict(potential=PowerDecay(1.0, math.inf)),
            dict(weight=Agmon(math.inf)),
            dict(domain=IntervalUnion([(0.0, math.inf)])),
            dict(domain=ShrinkingChain(2, 0.0, math.inf, 1.0, 0.5)),
            dict(sweep=SweepConfig(0.5, math.inf, 10)),
            dict(sweep=SweepConfig(0.5, 5.0, 10, refine_tol=math.nan)),
        ],
        ids=["v0-inf", "v0-nan", "alpha-inf", "agmon-inf", "interval-inf", "gap-inf",
             "lambda_max-inf", "refine_tol-nan"],
    )
    def test_non_finite_rejected(self, kw):
        with pytest.raises(ValidationError, match="finite"):
            validate_problem(make_spec(**kw))

    @pytest.mark.parametrize("lo, hi", [(0.5, 5.0), (-1e6, 2.0), (100.0, 1e3)])
    def test_refine_tol_below_float_spacing_rejected(self, lo, hi):
        # the refine bisection cannot narrow a bracket past adjacent floats
        spacing = math.ulp(max(abs(lo), abs(hi)))
        validate_problem(make_spec(sweep=SweepConfig(lo, hi, 10, refine_tol=4 * spacing)))
        with pytest.raises(ValidationError, match="refine_tol"):
            validate_problem(make_spec(sweep=SweepConfig(lo, hi, 10, refine_tol=3 * spacing)))

    @pytest.mark.parametrize(
        "kw",
        [
            dict(discretization=DiscretizationConfig(12_000, 8, 4)),
            dict(domain=IntervalUnion([(2.0 * i, 2.0 * i + 1.0) for i in range(10_000)]),
                 discretization=DiscretizationConfig(64, 8, 4)),
            dict(domain=ShrinkingChain(10**12, 0.0, 1.0, 1.0, 0.5),
                 potential=PowerDecay(1.0, 4.0)),
            dict(sweep=SweepConfig(0.5, 5.0, 10**8)),
            # forms plus a companion matrix fit; forms plus the sweep's
            # reduced stacks and chunk do not
            dict(discretization=DiscretizationConfig(3601, 8, 4)),
            dict(domain=IntervalUnion([(2.0 * i, 2.0 * i + 1.0) for i in range(6)]),
                 discretization=DiscretizationConfig(1601, 8, 4)),
        ],
        ids=["cells", "intervals", "chain-count", "steps", "sweep-one-block",
             "sweep-six-blocks"],
    )
    def test_past_memory_budget_rejected(self, kw):
        # rejected from the sizes alone: a 10^12-link chain is never laid out
        with pytest.raises(ProblemTooLarge, match="budget"):
            validate_problem(make_spec(**kw))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("cells_per_interval", 3, "cells_per_interval must be >= 4, got 3"),
            ("quad_points", 7, "quad_points must be >= 8, got 7"),
            ("quad_points", 65, "quad_points must be <= 64, got 65"),
        ],
    )
    def test_discretization_floors(self, key, value, message, tmp_path, capsys):
        # validation is the one owner of these bounds: the basis and the
        # quadrature rule are only built for a validated problem
        disc = {"cells_per_interval": 8, "quad_points": 8, "num_curves": 2, key: value}
        with pytest.raises(ValidationError, match=message):
            validate_problem(make_spec(discretization=DiscretizationConfig(**disc)))
        config = tmp_path / "problem.json"
        config.write_text(json.dumps({
            "problem": "schrodinger",
            "domain": {"type": "interval_union", "intervals": [[-math.pi, math.pi]]},
            "potential": {"type": "constant", "v0": 0.75},
            "discretization": disc,
            "sweep": {"lambda_min": 0.5, "lambda_max": 5.0, "steps": 10},
        }))
        out = tmp_path / "r.json"
        assert cli.main(["find", "--config", str(config), "--out", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ValidationError", "message": message}
        assert not out.exists()

    @pytest.mark.parametrize(
        "kw, error, message",
        [
            (dict(domain=ShrinkingChain(0, 0.0, 1.0, 1.0, 0.5)), ValidationError,
             "chain count must be >= 1, got 0"),
            (dict(domain=ShrinkingChain(2, 0.0, 0.0, 1.0, 0.5)), ValidationError,
             "chain gap must be > 0, got 0.0"),
            (dict(domain=ShrinkingChain(2, 0.0, 1.0, -1.0, 0.5)), ValidationError,
             "chain first_length must be > 0, got -1.0"),
            (dict(domain=ShrinkingChain(2, 0.0, 1.0, 1.0, 1.0)), ValidationError,
             "chain decay_ratio must lie in (0,1), got 1.0"),
            (dict(domain=ShrinkingChain(2, 0.0, 1.0, 1.0, 0.0)), ValidationError,
             "chain decay_ratio must lie in (0,1), got 0.0"),
            (dict(domain=IntervalUnion([])), ValidationError, "domain has no intervals"),
            (dict(domain=IntervalUnion([(1.0, 1.0)])), OverlappingIntervals,
             "interval (1.0, 1.0) is empty or reversed"),
            (dict(domain=IntervalUnion([(0.0, 1.0), (3.0, 2.0)])), OverlappingIntervals,
             "interval (3.0, 2.0) is empty or reversed"),
            (dict(potential=PowerDecay(0.0, 4.0)), NonPositivePotential,
             "power-decay coefficient must be > 0, got 0.0"),
            (dict(weight=Agmon(0.0)), ValidationError,
             "Agmon weight exponent must be > 0, got 0.0"),
            (dict(weight="gaussian"), ValidationError,
             "unknown weight 'gaussian' (expected 'agmon' or 'unweighted')"),
            (dict(weight=Constant(1.0)), ValidationError, "unknown weight type Constant"),
            (dict(potential=Agmon(4.0)), ValidationError, "unknown potential type Agmon"),
            (dict(sweep=SweepConfig(5.0, 5.0, 10)), ValidationError,
             "sweep requires lambda_max > lambda_min"),
            (dict(sweep=SweepConfig(0.5, 5.0, 10, refine_tol=0.0)), ValidationError,
             "refine_tol must be > 0"),
            (dict(sweep=SweepConfig(0.5, 5.0, 10, cluster_tol=0.0)), ValidationError,
             "cluster_tol must be > 0"),
        ],
        ids=["chain-count", "chain-gap", "chain-first-length", "chain-ratio-1",
             "chain-ratio-0", "no-intervals", "empty-interval", "reversed-interval",
             "power-decay-c", "agmon-alpha", "weight-string", "weight-object",
             "potential-object", "lambda-window", "refine-tol", "cluster-tol"],
    )
    def test_invariant_rejected(self, kw, error, message):
        with pytest.raises(error) as raised:
            validate_problem(make_spec(**kw))
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_potential_positive_everywhere(self):
        prob = validate_problem(make_spec(potential=PowerDecay(2.0, 5.0)))
        for a, b in prob.domain.intervals:
            for t in (a, 0.5 * (a + b), b):
                assert potential_value(prob.potential, t) > 0


class TestNormalForm:
    """validate_problem returns the ProblemSpec it normalized: explicit,
    sorted intervals and a weight object."""

    @pytest.mark.parametrize(
        "domain",
        [IntervalUnion([(2.0, 3.0), (-1.0, 1.0)]), ShrinkingChain(3, 0.0, 1.0, 1.0, 0.5)],
        ids=["union", "chain"],
    )
    @pytest.mark.parametrize(
        "weight", ["agmon", Agmon(2.5), "unweighted", Unweighted()],
        ids=["agmon-string", "agmon-object", "unweighted-string", "unweighted-object"],
    )
    def test_validation_is_idempotent(self, domain, weight):
        p = validate_problem(make_spec(domain=domain, potential=PowerDecay(1.0, 4.0),
                                       weight=weight))
        assert type(p) is ProblemSpec
        assert type(p.domain) is IntervalUnion
        assert list(p.domain.intervals) == sorted(p.domain.intervals)
        assert isinstance(p.weight, (Agmon, Unweighted))
        assert validate_problem(p) == p
        assert validate_problem(parse_problem(canonical_config(p))) == p


class TestParseProblem:
    def config(self):
        return {
            "problem": "helmholtz",
            "domain": {"type": "interval_union", "intervals": [[-3.14, 3.14]]},
            "potential": {"type": "constant", "v0": 0.75},
            "weight": "agmon",
            "discretization": {"cells_per_interval": 16, "quad_points": 8, "num_curves": 6},
            "sweep": {"lambda_min": 0.5, "lambda_max": 10.0, "steps": 50},
        }

    def test_round_trip(self):
        spec = parse_problem(self.config())
        prob = validate_problem(spec)
        assert prob.kind is ProblemKind.HELMHOLTZ
        assert isinstance(prob.weight, Agmon)
        assert prob.weight.alpha == 4.0  # constant potential: default exponent

    def test_agmon_alpha_follows_potential(self):
        cfg = self.config()
        cfg["potential"] = {"type": "power_decay", "c": 1.0, "alpha": 5.5}
        prob = validate_problem(parse_problem(cfg))
        assert prob.weight.alpha == 5.5

    def test_chain_domain(self):
        cfg = self.config()
        cfg["problem"] = "schrodinger"
        cfg["domain"] = {
            "type": "shrinking_chain",
            "count": 2,
            "start": 0.0,
            "gap": 1.0,
            "first_length": 1.0,
            "decay_ratio": 0.5,
        }
        prob = validate_problem(parse_problem(cfg))
        assert prob.domain.intervals == ((0.0, 1.0), (2.0, 2.5))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.pop("problem"),
            lambda c: c.update(problem="heat"),
            lambda c: c.pop("domain"),
            lambda c: c["domain"].update(type="cube"),
            lambda c: c.pop("sweep"),
            lambda c: c["sweep"].pop("steps"),
            lambda c: c.update(weight=17),
            lambda c: c.update(weight={"type": "agmon"}),
            lambda c: c.update(weight={"type": "agmon", "alpha": "steep"}),
            lambda c: c.update(weight={"type": "gaussian"}),
            lambda c: c["potential"].update(type="unknown"),
            lambda c: c.update(discretization="coarse"),
            lambda c: c.update(discretization=[]),
            lambda c: c.update(discretization=5),
        ],
    )
    def test_malformed_rejected(self, mutate):
        cfg = self.config()
        mutate(cfg)
        with pytest.raises(ValidationError):
            parse_problem(cfg)

    CHAIN = {"type": "shrinking_chain", "count": 2, "start": 0.0, "gap": 1.0,
             "first_length": 1.0, "decay_ratio": 0.5}

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("sweep", "steps", 4.7),
            ("discretization", "cells_per_interval", 8.9),
            ("discretization", "quad_points", 8.5),
            ("discretization", "num_curves", 6.000001),
            ("domain", "count", 2.5),
            ("sweep", "steps", math.nan),
            ("sweep", "steps", math.inf),
        ],
    )
    def test_non_integral_count_rejected(self, section, key, value):
        cfg = self.config()
        if key == "count":
            cfg["domain"] = dict(self.CHAIN)
        cfg[section][key] = value
        with pytest.raises(ValidationError, match=f"{key} must be an integer"):
            parse_problem(cfg)

    def test_integral_float_counts_accepted(self):
        # counts written as floats (64.0) are read as the integers they equal
        cfg = self.config()
        cfg["sweep"]["steps"] = 50.0
        cfg["discretization"] = {"cells_per_interval": 16.0, "quad_points": 8.0,
                                 "num_curves": 6.0}
        spec = parse_problem(cfg)
        assert spec == parse_problem(self.config())
        assert type(spec.sweep.steps) is int and type(spec.discretization.num_curves) is int
        cfg["domain"] = dict(self.CHAIN, count=2.0)
        assert parse_problem(cfg).domain.count == 2

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c["discretization"].update(num_curves=True),
            lambda c: c["sweep"].update(refine_tol=True),
            lambda c: c["potential"].update(v0=False),
            lambda c: c["domain"].update(intervals=[[-3.14, True]]),
        ],
        ids=["count", "sweep-float", "potential", "interval-endpoint"],
    )
    def test_boolean_is_not_a_number(self, mutate):
        cfg = self.config()
        mutate(cfg)
        with pytest.raises(ValidationError, match="must be a number, got (True|False)"):
            parse_problem(cfg)

    def test_readme_example_parses_and_validates(self):
        # the documented schema is the one the strict parser reads
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Problem files", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        prob = validate_problem(parse_problem(json.loads(example)))
        assert prob.kind is ProblemKind.HELMHOLTZ
        assert prob.discretization == DiscretizationConfig(64, 8, 12)

    def test_readme_library_example_runs(self):
        # the documented library call of validate_problem
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library", 1)[1]
        code = section.split("```python", 1)[1].split("```", 1)[0]
        namespace = {"print": lambda *args: None}
        exec(compile(code, "README.md", "exec"), namespace)
        (entry,) = namespace["report"]["transmission_eigenvalues"]
        assert entry["multiplicity_estimate"] == 2
        assert entry["lambda"] == pytest.approx(4.0, rel=1e-2)  # 4.0211... at 64 cells

    def test_ball_is_an_unknown_domain_type(self):
        # balls are served by the radial oracle, which reads no problem file
        cfg = self.config()
        cfg["domain"] = {"type": "ball", "dim": 3, "radius": 1.0}
        with pytest.raises(ValidationError, match="unknown domain type 'ball'"):
            parse_problem(cfg)
