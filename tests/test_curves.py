import json
import math

import numpy as np
import pytest

from teig import curves
from teig.assembly import FormMatrices, assemble_A
from teig.curves import Bracket, CurveTable, find_crossings, refine, report, run_pipeline, sweep
from teig.eigensolve import lowest_k
from teig.errors import BracketInvalid
from teig.model import (
    Constant,
    DiscretizationConfig,
    IntervalUnion,
    PowerDecay,
    ProblemKind,
    ProblemSpec,
    ShrinkingChain,
    SweepConfig,
    Unweighted,
    validate_problem,
)
from teig.serialize import dumps


def helmholtz_problem(cells=32, k=8, lo=0.5, hi=10.0, steps=120, refine_tol=1e-8, cluster=1e-6,
                      weight=Unweighted(), kind=ProblemKind.HELMHOLTZ):
    spec = ProblemSpec(
        kind=kind,
        domain=IntervalUnion([(-math.pi, math.pi)]),
        potential=Constant(0.75),
        weight=weight,
        discretization=DiscretizationConfig(cells, 8, k),
        sweep=SweepConfig(lo, hi, steps, refine_tol, cluster),
    )
    return validate_problem(spec)


def affine_matrices():
    """1x1 synthetic system whose Schrodinger curve is mu(lambda) = lambda - 1."""
    one = np.array([[1.0]])
    zero = np.array([[0.0]])
    return (FormMatrices(S=-one, C=one, K=zero, M=zero, Minv=zero, Mw=one),)


class TestSweep:
    def test_shape_contract(self):
        prob = helmholtz_problem(cells=8, k=1, lo=1.0, hi=2.0, steps=2)
        _, _, m = curves.prepare_matrices(prob)
        table = sweep(prob, m)
        assert table.values.shape == (2, 1)
        assert list(table.lambdas) == [1.0, 2.0]

    def test_rows_sorted(self):
        prob = helmholtz_problem(cells=16, k=6, steps=12)
        _, _, m = curves.prepare_matrices(prob)
        table = sweep(prob, m)
        assert np.all(np.diff(table.values, axis=1) >= 0)

    def test_schrodinger_nonpositive_lambda_all_positive(self):
        prob = helmholtz_problem(cells=16, k=6, lo=-2.0, hi=0.0, steps=25,
                                 kind=ProblemKind.SCHRODINGER)
        _, _, m = curves.prepare_matrices(prob)
        table = sweep(prob, m)
        assert table.values.min() > 0

    def test_helmholtz_zero_column_positive(self):
        prob = helmholtz_problem(cells=16, k=6, lo=0.0, hi=1.0, steps=5)
        _, _, m = curves.prepare_matrices(prob)
        table = sweep(prob, m)
        assert table.values[0].min() > 0


def chain_problem():
    """The six-interval shrinking chain of the truncation study (dim 186)."""
    spec = ProblemSpec(
        kind=ProblemKind.SCHRODINGER,
        domain=ShrinkingChain(6, 0.0, 1.0, math.pi, 0.5),
        potential=PowerDecay(60.0, 4.0),
        weight="agmon",
        discretization=DiscretizationConfig(32, 8, 16),
        sweep=SweepConfig(0.5, 50.0, 250, 1e-8, 1e-6),
    )
    return validate_problem(spec)


def block_diagonal(blocks):
    """The dense block-diagonal matrix with the given square blocks."""
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    i = 0
    for b in blocks:
        out[i : i + b.shape[0], i : i + b.shape[0]] = b
        i += b.shape[0]
    return out


class TestBlockSolves:
    """Per-interval block solves against whole-matrix routes on the chain."""

    @classmethod
    def setup_class(cls):
        cls.prob = chain_problem()
        _, _, cls.m = curves.prepare_matrices(cls.prob)
        # the chain's two crossings lie near 4.14 and 38.48
        cls.table = sweep(cls.prob, cls.m, SweepConfig(0.5, 50.0, 34))

    def test_blocks_come_from_the_basis(self):
        assert [b.dim for b in self.m] == [31] * 6

    def test_per_block_matches_whole_matrix(self):
        for lam, row in zip(self.table.lambdas, self.table.values):
            A = block_diagonal([assemble_A(b, self.prob.kind, lam) for b in self.m])
            Mw = block_diagonal([b.Mw for b in self.m])
            whole = np.array(lowest_k(A, Mw, 16).eigenvalues)
            scale = np.max(np.abs(whole))
            assert np.max(np.abs(row - whole)) <= 1e-10 * scale, lam

    def test_identity_indicator_has_the_curve_sign(self):
        # Sylvester's law of inertia: (A, Mw) and (A, I) have equally many
        # negative eigenvalues, so the nu-th values share their sign
        checked = 0
        negative = 0
        for lam, row in zip(self.table.lambdas, self.table.values):
            scale = np.max(np.abs(row))
            for nu in range(1, 17):
                if abs(row[nu - 1]) < 1e-8 * scale:
                    continue
                indicator = curves._crossing_indicator(self.prob, self.m, nu, lam)
                assert (indicator < 0.0) == (row[nu - 1] < 0.0), (lam, nu)
                checked += 1
                negative += row[nu - 1] < 0.0
        assert checked == 34 * 16
        assert negative > 0


class TestFindCrossings:
    def test_all_positive(self):
        table = CurveTable(np.array([0.0, 1.0]), np.array([[1.0], [2.0]]))
        assert find_crossings(table) == []

    def test_single_sign_change(self):
        table = CurveTable(np.array([3.0, 5.0]), np.array([[4.0], [-1.0]]))
        assert find_crossings(table) == [Bracket(1, 3.0, 5.0)]

    def test_two_indices_same_cell(self):
        table = CurveTable(
            np.array([0.0, 1.0]), np.array([[1.0, 2.0], [-1.0, -2.0]])
        )
        brackets = find_crossings(table)
        assert {b.index for b in brackets} == {1, 2}

    def test_exact_zero_width_zero_bracket(self):
        table = CurveTable(np.array([0.0, 1.0, 2.0]), np.array([[1.0], [0.0], [-1.0]]))
        brackets = find_crossings(table)
        assert brackets == [Bracket(1, 1.0, 1.0)]


class TestRefine:
    def test_synthetic_affine(self):
        prob = helmholtz_problem(kind=ProblemKind.SCHRODINGER)
        lam = refine(prob, affine_matrices(), Bracket(1, 0.0, 2.0), 1e-9)
        assert lam == pytest.approx(1.0, abs=1e-9)

    def test_bracket_invalid(self):
        prob = helmholtz_problem(kind=ProblemKind.SCHRODINGER)
        with pytest.raises(BracketInvalid):
            refine(prob, affine_matrices(), Bracket(1, 2.0, 3.0), 1e-9)

    def test_width_zero_passthrough(self):
        prob = helmholtz_problem(kind=ProblemKind.SCHRODINGER)
        assert refine(prob, affine_matrices(), Bracket(1, 1.0, 1.0), 1e-9) == 1.0

    def test_real_crossing_near_four(self):
        prob = helmholtz_problem(cells=32, k=6, lo=3.0, hi=5.0, steps=40)
        _, _, m = curves.prepare_matrices(prob)
        table = sweep(prob, m)
        brackets = find_crossings(table)
        assert brackets
        lam = refine(prob, m, brackets[0], 1e-8)
        assert lam == pytest.approx(4.0, abs=1e-2)


class TestReport:
    def test_cluster_merge(self):
        prob = helmholtz_problem(cells=16, k=6)
        _, _, m = curves.prepare_matrices(prob)
        rep = report(prob, [(3.0, 1), (3.0000004, 2)], 1e-5, matrices=m)
        assert len(rep.entries) == 1
        entry = rep.entries[0]
        assert entry["multiplicity_estimate"] == 2
        assert entry["curve_index"] == 1

    def test_singleton(self):
        prob = helmholtz_problem(cells=16, k=6)
        _, _, m = curves.prepare_matrices(prob)
        rep = report(prob, [(4.0, 1)], 1e-6, matrices=m)
        assert rep.entries[0]["multiplicity_estimate"] == 1

    def test_helmholtz_zero_dropped(self):
        prob = helmholtz_problem(cells=16, k=6)
        _, _, m = curves.prepare_matrices(prob)
        rep = report(prob, [(1e-9, 1)], 1e-6, matrices=m)
        assert rep.entries == ()

    def test_metadata_present(self):
        prob = helmholtz_problem(cells=16, k=6)
        _, _, m = curves.prepare_matrices(prob)
        rep = report(prob, [(4.0, 1)], 1e-6, matrices=m)
        meta = rep.metadata
        assert set(meta) >= {"problem_hash", "grid", "tolerances", "kind"}
        assert len(meta["problem_hash"]) == 64


class TestPipelineProperties:
    def test_weight_invariance_of_locations(self):
        from teig.model import Agmon

        lams = {}
        for name, weight in (("agmon", Agmon(4.0)), ("plain", Unweighted())):
            prob = helmholtz_problem(cells=32, k=8, lo=3.0, hi=5.0, steps=60,
                                     refine_tol=1e-8, weight=weight)
            _, rep = run_pipeline(prob)
            lams[name] = sorted(e["lambda"] for e in rep.entries)
        assert len(lams["agmon"]) == len(lams["plain"]) > 0
        for a, b in zip(lams["agmon"], lams["plain"]):
            assert abs(a - b) <= 1e-7

    def test_no_crossings_at_nonpositive_lambda(self):
        prob = helmholtz_problem(cells=16, k=6, lo=-2.0, hi=0.5, steps=40,
                                 kind=ProblemKind.SCHRODINGER)
        _, rep = run_pipeline(prob)
        assert all(e["lambda"] > 0 for e in rep.entries)

    def test_grid_doubling_stability(self):
        results = []
        for steps in (60, 120):
            prob = helmholtz_problem(cells=32, k=8, lo=3.0, hi=5.0, steps=steps,
                                     refine_tol=1e-8)
            _, rep = run_pipeline(prob)
            results.append(sorted(e["lambda"] for e in rep.entries))
        assert len(results[0]) == len(results[1])
        for a, b in zip(*results):
            assert abs(a - b) < 5 * 1e-8

    def test_refined_brackets_disjoint(self):
        prob = helmholtz_problem(cells=32, k=8, lo=0.5, hi=10.0, steps=200)
        _, _, m = curves.prepare_matrices(prob)
        table = sweep(prob, m)
        brackets = find_crossings(table)
        spans = sorted((b.lam_left, b.lam_right) for b in brackets)
        for (l0, r0), (l1, r1) in zip(spans, spans[1:]):
            assert r0 <= l1

    def test_mesh_refinement_contracts(self):
        # crossing near 4: successive mesh errors shrink by at least 2x
        reported = []
        for cells in (16, 32, 64):
            prob = helmholtz_problem(cells=cells, k=4, lo=3.5, hi=4.5, steps=40,
                                     refine_tol=1e-10)
            _, rep = run_pipeline(prob)
            lam = min((e["lambda"] for e in rep.entries), key=lambda v: abs(v - 4.0))
            reported.append(lam)
        d1 = abs(reported[0] - reported[1])
        d2 = abs(reported[1] - reported[2])
        assert d1 >= 2.0 * d2

    def test_residual_bounded_by_refine_tol_scale(self):
        prob = helmholtz_problem(cells=32, k=8, lo=3.0, hi=5.0, steps=60, refine_tol=1e-8)
        _, _, m = curves.prepare_matrices(prob)
        table = sweep(prob, m)
        brackets = find_crossings(table)
        refined = [(refine(prob, m, b, 1e-8), b.index) for b in brackets]
        rep = report(prob, refined, 1e-6, matrices=m)
        for entry, bracket in zip(rep.entries, brackets):
            col = table.values[:, bracket.index - 1]
            i = np.searchsorted(table.lambdas, bracket.lam_left)
            slope = abs(col[i + 1] - col[i]) / (table.lambdas[i + 1] - table.lambdas[i])
            assert entry["residual"] <= 10 * 1e-8 * max(slope, 1.0)


class TestSerialization:
    def test_csv_shape(self):
        table = CurveTable(np.array([1.0, 2.0]), np.array([[0.5, 1.5], [0.25, 2.5]]))
        text = table.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,mu_1,mu_2"
        assert len(lines) == 3

    def test_csv_seventeen_digits_round_trip(self):
        lam = 1.0 / 3.0
        table = CurveTable(np.array([lam]), np.array([[math.pi]]))
        lines = table.to_csv().strip().split("\n")
        lam_text, mu_text = lines[1].split(",")
        assert float(lam_text) == lam
        assert float(mu_text) == math.pi

    def test_report_json_round_trip(self):
        prob = helmholtz_problem(cells=16, k=6)
        _, _, m = curves.prepare_matrices(prob)
        rep = report(prob, [(4.0, 1)], 1e-6, matrices=m)
        parsed = json.loads(dumps(rep.to_json_obj(), indent=2))
        assert parsed["transmission_eigenvalues"][0]["curve_index"] == 1
