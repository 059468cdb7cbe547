import math

import pytest

from teig import experiments as ex
from teig import radial
from teig.errors import InsufficientCounts, ValidationError
from teig.model import Constant, PowerDecay, ProblemKind, ShrinkingChain

S = ProblemKind.SCHRODINGER


@pytest.fixture
def det_calls(monkeypatch):
    """The argument tuples of every radial determinant call of the test."""
    calls = []
    det_grid = radial._det_grid

    def counted(*args):
        calls.append(args)
        return det_grid(*args)

    monkeypatch.setattr(radial, "_det_grid", counted)
    return calls


class TestScaling:
    def test_identity_epsilon(self):
        r = ex.scaling_check(1, math.pi, 0.75, [1.0])
        assert r["verdict"] == "Pass"
        assert r["margins"]["max_rel_err"] < 1e-10

    def test_half_radius_quadruples(self):
        r = ex.scaling_check(1, math.pi, 0.75, [0.5])
        row = r["tables"][0]["rows"][0]
        eps, base, scaled, expected, rel = row
        assert base == pytest.approx(4.0, abs=1e-8)
        assert scaled == pytest.approx(16.0, abs=1e-6)
        assert rel <= 1e-8

    def test_default_law_holds_to_rounding(self):
        # first TEs 4, 16 and 64 (lambda = 4 m^2), each read from the listing
        r = ex.scaling_check(1, math.pi, 0.75, [0.5, 0.25])
        assert r["margins"]["max_rel_err"] <= 1e-14

    def test_cites_tolerance(self):
        r = ex.scaling_check(3, math.pi, 0.75, [0.5])
        assert r["margins"]["tolerance"] == 1e-8

    @pytest.mark.parametrize("dim", [1, 3])
    def test_small_balls_keep_the_law(self, dim):
        # the ball of radius pi eps has its first TE near 4 / eps^2, far past
        # any fixed lambda cap, and its determinant is the radius-pi one
        r = ex.scaling_check(dim, math.pi, 0.75, [1e-3, 1e-5, 1e-7])
        assert r["verdict"] == "Pass"

    def test_rejects_bad_contrast(self):
        with pytest.raises(ValidationError):
            ex.scaling_check(1, math.pi, 1.5, [0.5])

    def test_galerkin_outside_dimension_1_is_rejected_before_any_scan(self, det_calls):
        with pytest.raises(ValidationError, match="dimension 1 only"):
            ex.scaling_check(3, math.pi, 0.75, [0.5, 0.25], galerkin=True)
        assert det_calls == []

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_epsilon_is_rejected_before_any_scan(self, det_calls, bad):
        with pytest.raises(ValidationError, match="epsilon must be finite and > 0"):
            ex.scaling_check(1, math.pi, 0.75, [0.5, bad])
        assert det_calls == []


    def test_the_unit_ball_is_searched_once(self, det_calls):
        # every radius has the unit ball of the base, so two epsilons cost
        # the 13 determinant calls of one first-TE search, not 39
        ex.scaling_check(1, math.pi, 0.75, [0.5, 0.25])
        together = len(det_calls)
        det_calls.clear()
        radial.first_te(radial.RadialProblem(ProblemKind.HELMHOLTZ, 1, math.pi, 0.75))
        assert together == len(det_calls) == 13


class TestCounting:
    def test_insufficient_counts(self):
        with pytest.raises(InsufficientCounts):
            ex.counting_experiment(1, math.pi, 0.75, [2.0, 3.0])

    def test_n1_slope(self):
        r = ex.counting_experiment(1, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
        assert r["verdict"] == "Pass"
        assert abs(r["margins"]["slope"] - 0.5) <= 0.2

    def test_dim3_counts_pinned(self):
        r = ex.counting_experiment(3, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
        assert [row[1] for row in r["tables"][0]["rows"]] == [481, 1437, 4472, 13371]
        assert r["verdict"] == "Pass"

    def test_tie_counts_pinned(self):
        # x = 100 and 400 are TEs of orders 0 and 1 (lambda = 4 m^2): the
        # listing's rule at such an end counts 1437 / 13371 in dimension 3
        # and 9 / 19 in dimension 1, where the counts just past x are
        # 1438 / 13372 and 10 / 20
        for dim, want in ((1, [6, 9, 14, 19]), (3, [481, 1437, 4472, 13371])):
            r = ex.counting_experiment(dim, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
            assert [row[1] for row in r["tables"][0]["rows"]] == want

    def test_rows_monotone(self):
        r = ex.counting_experiment(1, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
        counts = [row[1] for row in r["tables"][0]["rows"]]
        assert counts == sorted(counts)


class TestPacking:
    def test_prediction_scale_free(self):
        p1, lam1, _ = ex.packing_prediction(2 * math.pi, 0.75, 4.0)
        assert p1 >= 1
        p2, _, _ = ex.packing_prediction(4 * math.pi, 0.75, 4.0)
        assert p2 == 2 * p1

    def test_prediction_at_most_one_when_scaled_interval_too_long(self):
        prediction, lam1, eps = ex.packing_prediction(2 * math.pi, 0.75, 4.0)
        # eps for x = first TE of the base: scaled copy is the base itself
        assert prediction >= 1
        small, _, _ = ex.packing_prediction(2 * math.pi, 0.75, 3.9)
        assert small <= 1

    def test_acceptance_geometry(self):
        prediction, lam1, eps = ex.packing_prediction(4 * math.pi, 0.75, 16.0)
        assert lam1 == pytest.approx(4.0, abs=1e-8)  # base half-width is pi
        assert eps == pytest.approx(0.5, abs=1e-9)
        assert prediction == 4


class TestTruncation:
    def chain(self):
        return ShrinkingChain(2, 0.0, 1.0, math.pi, 0.5)

    def test_repeat_counts_zero_drift(self):
        r = ex.truncation_stability(
            self.chain(), [2, 2], (0.5, 20.0), PowerDecay(60.0, 4.0), kind=S, cells=16
        )
        assert r["verdict"] == "Report-only"
        assert r["tables"][2]["rows"][0][2] == 0.0

    def test_single_count_no_drift_rows(self):
        r = ex.truncation_stability(
            self.chain(), [2], (0.5, 20.0), PowerDecay(60.0, 4.0), kind=S, cells=16
        )
        assert r["tables"][2]["rows"] == []

    def test_requires_power_decay_alpha(self):
        with pytest.raises(ValidationError):
            ex.truncation_stability(
                self.chain(), [2], (0.5, 2.0), PowerDecay(1.0, 2.0), kind=S, cells=16
            )

    def test_requires_power_decay(self):
        with pytest.raises(ValidationError, match="PowerDecay"):
            ex.truncation_stability(
                self.chain(), [2], (0.5, 2.0), Constant(1.0), kind=S, cells=16
            )

    def test_drift_finite(self):
        r = ex.truncation_stability(
            self.chain(), [2, 4], (0.5, 30.0), PowerDecay(60.0, 4.0), kind=S, cells=16
        )
        drift = r["tables"][2]["rows"]
        assert len(drift) == 1
        assert math.isfinite(drift[0][2])


class TestHypothesis:
    def test_schema_and_verdict(self):
        r = ex.hypothesis_scan(1, 0.5, 2.0, 10.0, steps=200, ell_max=0)
        assert r["verdict"] == "Report-only"
        assert r["tables"][0]["columns"] == ["root", "bracket_left", "bracket_right", "ell"]

    def test_large_potential_finds_roots(self):
        r = ex.hypothesis_scan(1, 0.5, 40.0, 60.0, steps=1200, ell_max=0)
        roots = [row[0] for row in r["tables"][0]["rows"]]
        assert any(abs(r0 - 25.117) < 0.05 for r0 in roots)

    def test_branch_boundary_skipped(self):
        # grid straddles lambda = v0 without erroring
        r = ex.hypothesis_scan(1, 1.0, 1.0, 2.0, steps=101, ell_max=0)
        assert r["verdict"] == "Report-only"

    def test_nonpositive_potential_rejected(self):
        from teig.errors import NonPositivePotential

        with pytest.raises(NonPositivePotential):
            ex.hypothesis_scan(1, 1.0, 0.0, 2.0, steps=800, ell_max=0)
