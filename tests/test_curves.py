import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from teig import cli, curves, model
from teig.assembly import FormMatrices, assemble_A, quadratic_coefficients
from teig.curves import refine, report, run_pipeline, sweep
from teig.eigensolve import eigvalsh, reduce
from teig.errors import InertiaMismatch, NoConvergence, ProblemTooLarge
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
from teig.serialize import curve_table_csv, dumps, format_float
from pencil import spectrum
from test_eigensolve import sturm_all_eigenvalues


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


def regrid(prob, lo, hi, steps):
    """``prob`` with the sweep grid linspace(lo, hi, steps)."""
    return replace(prob, sweep=replace(prob.sweep, lambda_min=lo, lambda_max=hi, steps=steps))


def scalar_matrices(s, c, minv):
    """1x1 synthetic Schrodinger system with A(lambda) = s + c lambda + minv lambda^2
    and Mw = 1."""
    one, zero = np.array([[1.0]]), np.array([[0.0]])
    return (FormMatrices(S=s * one, C=c * one, K=zero, M=zero, Minv=minv * one, Mw=one),)


class TestSweep:
    def test_shape_contract(self):
        prob = helmholtz_problem(cells=8, k=1, lo=1.0, hi=2.0, steps=2)
        m = curves.prepare_matrices(prob)
        lambdas, values = sweep(prob, m)
        assert values.shape == (2, 1)
        assert list(lambdas) == [1.0, 2.0]

    def test_rows_sorted(self):
        prob = helmholtz_problem(cells=16, k=6, steps=12)
        m = curves.prepare_matrices(prob)
        _, values = sweep(prob, m)
        assert np.all(np.diff(values, axis=1) >= 0)

    def test_schrodinger_nonpositive_lambda_all_positive(self):
        prob = helmholtz_problem(cells=16, k=6, lo=-2.0, hi=0.0, steps=25,
                                 kind=ProblemKind.SCHRODINGER)
        m = curves.prepare_matrices(prob)
        _, values = sweep(prob, m)
        assert values.min() > 0

    def test_helmholtz_zero_column_positive(self):
        prob = helmholtz_problem(cells=16, k=6, lo=0.0, hi=1.0, steps=5)
        m = curves.prepare_matrices(prob)
        _, values = sweep(prob, m)
        assert values[0].min() > 0


def chain_spec():
    """The six-interval shrinking chain of the truncation study (dim 186)."""
    return ProblemSpec(
        kind=ProblemKind.SCHRODINGER,
        domain=ShrinkingChain(6, 0.0, 1.0, math.pi, 0.5),
        potential=PowerDecay(60.0, 4.0),
        weight="agmon",
        discretization=DiscretizationConfig(32, 8, 16),
        sweep=SweepConfig(0.5, 50.0, 250, 1e-8, 1e-6),
    )


def chain_problem():
    return validate_problem(chain_spec())


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
        cls.m = curves.prepare_matrices(cls.prob)
        # the chain's two crossings lie near 4.14 and 38.48
        cls.lambdas, cls.values = sweep(regrid(cls.prob, 0.5, 50.0, 34), cls.m)

    def test_blocks_come_from_the_basis(self):
        assert [b.dim for b in self.m] == [31] * 6

    def test_per_block_matches_whole_matrix(self):
        for lam, row in zip(self.lambdas, self.values):
            A = block_diagonal([assemble_A(b, self.prob.kind, lam) for b in self.m])
            Mw = block_diagonal([b.Mw for b in self.m])
            whole = spectrum(A, Mw)[:16]
            scale = np.max(np.abs(whole))
            assert np.max(np.abs(row - whole)) <= 1e-10 * scale, lam

    def test_identity_indicator_has_the_curve_sign(self):
        # Sylvester's law of inertia: (A, Mw) and (A, I) have equally many
        # negative eigenvalues, so the nu-th values share their sign
        checked = 0
        negative = 0
        for lam, row in zip(self.lambdas, self.values):
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


    def test_identity_spectrum_bit_identical_to_the_generalized_solve(self):
        for prob in (self.prob, helmholtz_problem(cells=64, k=12)):
            m = curves.prepare_matrices(prob)
            k = prob.discretization.num_curves
            for lam in (0.5, 4.0000148, 17.25, 49.0):
                generalized = np.sort(np.concatenate([
                    spectrum(assemble_A(b, prob.kind, lam), np.eye(b.dim))[:k] for b in m
                ]))[:k]
                direct = curves._identity_spectrum(prob.kind, m, lam)[:k]
                assert np.array_equal(direct, generalized), lam


def packing_problem():
    """The packing check's problem: (0, 4 pi), 96 cells, x = 16."""
    spec = ProblemSpec(
        kind=ProblemKind.HELMHOLTZ,
        domain=IntervalUnion([(0.0, 4 * math.pi)]),
        potential=Constant(0.75),
        discretization=DiscretizationConfig(96, 8, 16),
        sweep=SweepConfig(0.016, 16.0, 400, 1e-8, 1e-6),
    )
    return validate_problem(spec)


class TestStackedEvaluator:
    """The sweep reduces each block once and solves the grid in stacked
    chunks; its table must match per-point generalized solves."""

    @pytest.mark.parametrize("points", [1, 3], ids=["one-point", "uneven"])
    def test_table_independent_of_chunking(self, monkeypatch, points):
        prob = chain_problem()
        m = curves.prepare_matrices(prob)
        prob = regrid(prob, 0.5, 50.0, 34)
        _, default = sweep(prob, m)
        point_bytes = 8 * sum(b.dim ** 2 for b in m)
        monkeypatch.setattr(curves, "SWEEP_CHUNK_BYTES", points * point_bytes)
        assert np.array_equal(sweep(prob, m)[1], default)

    @pytest.mark.parametrize(
        "make", [lambda: helmholtz_problem(cells=64, k=12), packing_problem],
        ids=["reference", "packing"],
    )
    def test_matches_per_point_generalized_solve(self, make):
        prob = make()
        m = curves.prepare_matrices(prob)
        k = prob.discretization.num_curves
        lambdas, values = sweep(regrid(prob, prob.sweep.lambda_min, prob.sweep.lambda_max, 34), m)
        for lam, row in zip(lambdas, values):
            A = block_diagonal([assemble_A(b, prob.kind, lam) for b in m])
            Mw = block_diagonal([b.Mw for b in m])
            whole = spectrum(A, Mw)[:k]
            scale = np.max(np.abs(whole))
            assert np.max(np.abs(row - whole)) <= 1e-10 * scale, lam

    @pytest.mark.parametrize(
        "make, lambdas",
        [(lambda: helmholtz_problem(cells=64, k=12), (0.5, 3.98, 9.0)),
         (chain_problem, (0.5, 4.14, 38.5))],
        ids=["reference", "chain"],
    )
    def test_matches_sturm_oracle(self, make, lambdas):
        prob = make()
        m = curves.prepare_matrices(prob)
        k = prob.discretization.num_curves
        values = curves._curves(prob.kind, m, lambdas, k)
        for lam, row in zip(lambdas, values):
            oracle = np.sort(np.concatenate([
                sturm_all_eigenvalues(assemble_A(b, prob.kind, lam), b.Mw) for b in m
            ]))[:k]
            bound = 1e-10 * max(1.0, np.max(np.abs(oracle)))
            assert np.max(np.abs(row - oracle)) <= bound, lam

    def test_non_finite_coefficient_names_a_lambda(self):
        prob = helmholtz_problem(cells=8, k=1, kind=ProblemKind.SCHRODINGER)
        with pytest.raises(NoConvergence, match=r"at lambda = 0\.0: .*non-finite"):
            sweep(regrid(prob, 0.0, 4.0, 5), scalar_matrices(np.nan, 0.0, 1.0))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_names_the_first_lambda_at_fault(self):
        # C(lambda) = 1 + 1e300 lambda^2 overflows from lambda = 2e4 on
        prob = helmholtz_problem(cells=8, k=1, kind=ProblemKind.SCHRODINGER)
        with pytest.raises(NoConvergence, match=r"at lambda = 20000\.0: .*non-finite"):
            sweep(regrid(prob, 0.0, 3e4, 4), scalar_matrices(1.0, 0.0, 1e300))

    def test_lapack_failure_names_the_lambda_at_fault(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def fail_past_four(a):
            if a.max() > 4.0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", fail_past_four)
        # C(lambda) = 1 + lambda^2 passes 4 first at lambda = 2
        prob = helmholtz_problem(cells=8, k=1, kind=ProblemKind.SCHRODINGER)
        with pytest.raises(NoConvergence, match=r"at lambda = 2\.0: LAPACK"):
            sweep(regrid(prob, 0.0, 4.0, 5), scalar_matrices(1.0, 0.0, 1.0))


def every_block_rows(kind, matrices, lambdas, k):
    """The rows of _curves from solving every block at every point: each
    block reduced by eigensolve.reduce, C(lambda) by the sweep's Horner
    steps, one eigvalsh over all blocks, merged and cut at k."""
    C0, C1, C2 = np.stack(
        [reduce(np.stack(quadratic_coefficients(m, kind)), m.Mw) for m in matrices], axis=1
    )
    rows = []
    for lam in lambdas:
        c = (lam * C2 + C1) * lam + C0
        rows.append(np.sort(eigvalsh(c[None], ["every block"]), axis=None)[:k])
    return np.array(rows)


def equal_intervals_problem():
    """Three equal intervals: every TE is a triple one, tied across blocks."""
    spec = ProblemSpec(
        kind=ProblemKind.SCHRODINGER,
        domain=IntervalUnion([(0.0, 2.0), (3.0, 5.0), (6.0, 8.0)]),
        potential=Constant(20.0),
        discretization=DiscretizationConfig(16, 8, 12),
        sweep=SweepConfig(0.5, 60.0, 120, 1e-8, 1e-6),
    )
    return validate_problem(spec)


def helmholtz_chain_problem():
    """The chain with a constant Helmholtz contrast; at k = 1 the skip
    certificate fails in some chunks."""
    spec = ProblemSpec(
        kind=ProblemKind.HELMHOLTZ,
        domain=ShrinkingChain(6, 0.0, 1.0, math.pi, 0.5),
        potential=Constant(0.75),
        weight="agmon",
        discretization=DiscretizationConfig(32, 8, 16),
        sweep=SweepConfig(0.5, 60.0, 120, 1e-8, 1e-6),
    )
    return validate_problem(spec)


class TestBlockSkipping:
    """After its first chunk the sweep solves only the blocks that reached
    the lowest k and skips the rest on a shifted-Cholesky certificate; its
    rows must be those of solving every block, bit for bit."""

    @pytest.mark.parametrize(
        "make, ks",
        [(chain_problem, (1, 16, 31, 186)),
         (equal_intervals_problem, (1, 12, 15, 45)),
         (helmholtz_chain_problem, (1, 16, 31, 186))],
        ids=["chain", "equal-intervals", "helmholtz-chain"],
    )
    def test_rows_equal_solving_every_block(self, make, ks):
        prob = make()
        m = curves.prepare_matrices(prob)
        lambdas = np.linspace(prob.sweep.lambda_min, prob.sweep.lambda_max, prob.sweep.steps)
        for k in ks:
            want = every_block_rows(prob.kind, m, lambdas, k)
            assert np.array_equal(curves._curves(prob.kind, m, lambdas, k), want), k

    def test_failed_group_certificate_solves_every_other_block(self, monkeypatch):
        prob = chain_problem()
        m = curves.prepare_matrices(prob)
        lambdas = np.linspace(0.5, 50.0, 40)
        calls = []

        def refuse(c, mu, labels):
            calls.append(c.shape[1])
            return False

        monkeypatch.setattr(curves, "above", refuse)
        values = curves._curves(prob.kind, m, lambdas, 16)
        assert np.array_equal(values, every_block_rows(prob.kind, m, lambdas, 16))
        assert calls == [3] * 7

    def test_chain_solves_only_the_three_longest_intervals(self, monkeypatch):
        # the chain's 16th curve stays below 228 on the grid, while the
        # spectra of blocks 3, 4 and 5 start above 258, 5.1e3 and 8.7e4
        prob = chain_problem()
        m = curves.prepare_matrices(prob)
        C0, C1, C2 = np.stack(
            [reduce(np.stack(quadratic_coefficients(b, prob.kind)), b.Mw) for b in m], axis=1
        )
        solved, certified = [], []
        eigvalsh_, above_ = curves.eigvalsh, curves.above

        def counted_eigvalsh(c, labels):
            lam = float(labels[0].removeprefix("at lambda = "))
            blocks = (lam * C2 + C1) * lam + C0
            stack = c[0] if c.ndim == 4 else c[:1]
            solved.append([
                next(b for b in range(len(m)) if np.array_equal(x, blocks[b])) for x in stack
            ])
            return eigvalsh_(c, labels)

        def counted_above(c, mu, labels):
            certified.append(above_(c, mu, labels))
            return certified[-1]

        monkeypatch.setattr(curves, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(curves, "above", counted_above)
        _, values = sweep(prob, m)
        chunks = -(-prob.sweep.steps // (curves.SWEEP_CHUNK_BYTES // C0.nbytes))
        assert solved[0] == [0, 1, 2, 3, 4, 5]
        assert solved[1:] == [[0, 1, 2]] * (chunks - 1)
        assert certified == [True] * (chunks - 1)
        assert values.max() < 228.0


class TestMemoryBudget:
    """model._check_storage rejects a problem before anything is allocated;
    its estimate must cover what the form matrices and the sweep take."""

    @pytest.mark.parametrize("certify", [True, False], ids=["certified", "solve-the-rest"])
    def test_sweep_peak_lies_inside_the_estimate(self, monkeypatch, certify):
        # the criterion-11 chain traced about 1.08 MB against an estimate
        # of 1.21 MB; a certificate refused after it has run sends every
        # chunk down the solve-the-rest path too
        above_ = curves.above

        def certify_or_refuse(c, mu, labels):
            return above_(c, mu, labels) and certify

        monkeypatch.setattr(curves, "above", certify_or_refuse)
        prob = chain_problem()
        tracemalloc.start()
        try:
            sweep(prob, curves.prepare_matrices(prob))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(model, "MEMORY_BUDGET_BYTES", peak - 1)
        with pytest.raises(ProblemTooLarge):
            validate_problem(chain_spec())


def sweep_sign_changes(v):
    """(curve index, cell) for every strict sign change of the curve values."""
    cells, curves_ = np.nonzero(v[:-1] * v[1:] < 0.0)
    return sorted(zip((curves_ + 1).tolist(), cells.tolist()))


class TestCrossCheck:
    """The quadratic-eigenproblem roots against the sign changes of the
    independent curve sweep, which solves (A(lambda), Mw) on a grid."""

    @pytest.mark.parametrize(
        "make",
        [lambda: helmholtz_problem(cells=64, k=12, steps=400), chain_problem, packing_problem],
        ids=["reference", "chain", "packing"],
    )
    def test_every_sweep_sign_change_has_a_root(self, make):
        prob = make()
        m = curves.prepare_matrices(prob)
        lambdas, values = sweep(prob, m)
        accepted = run_pipeline(prob, m)["diagnostics"]["accepted"]
        tol = prob.sweep.refine_tol
        changes = sweep_sign_changes(values)
        assert changes
        for nu, i in changes:
            lo, hi = lambdas[i] - tol, lambdas[i + 1] + tol
            assert any(
                a["curve_index"] == nu and lo <= a["lambda"] <= hi for a in accepted
            ), (nu, lambdas[i])
        assert len(accepted) == len(changes)

    def test_near_axis_pair_not_reported(self):
        # the reference spectrum has a genuine pair at 3.9789 +- 0.036i
        rep = run_pipeline(helmholtz_problem(cells=64, k=12, cluster=1e-6))
        nonreal = rep["diagnostics"]["nonreal_in_window"]
        assert nonreal["count"] >= 2
        assert nonreal["min_abs_imag"] == pytest.approx(0.0359, abs=1e-3)
        reported = [e["lambda"] for e in rep["transmission_eigenvalues"]]
        reported += [a["candidate"] for a in rep["diagnostics"]["accepted"]]
        reported += [d["candidate"] for d in rep["diagnostics"]["dropped"]]
        assert reported and all(abs(lam - 3.9789) > 0.02 for lam in reported)

    def test_forced_inertia_mismatch_raises(self, monkeypatch, tmp_path, capsys):
        eigvals = np.linalg.eigvals

        def drop_first_real_root(a):
            vals = eigvals(a)
            real = np.flatnonzero((vals.imag == 0.0) & (vals.real > 3.0) & (vals.real < 5.0))
            return np.delete(vals, real[:1])

        monkeypatch.setattr(np.linalg, "eigvals", drop_first_real_root)
        prob = helmholtz_problem(cells=32, k=6, lo=3.0, hi=5.0)
        with pytest.raises(InertiaMismatch):
            run_pipeline(prob)

        config = tmp_path / "problem.json"
        config.write_text(json.dumps({
            "problem": "helmholtz",
            "domain": {"type": "interval_union", "intervals": [[-math.pi, math.pi]]},
            "potential": {"type": "constant", "v0": 0.75},
            "discretization": {"cells_per_interval": 32, "quad_points": 8, "num_curves": 6},
            "sweep": {"lambda_min": 3.0, "lambda_max": 5.0, "steps": 120},
        }))
        assert cli.main(["find", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
        assert not (tmp_path / "r.json").exists()
        assert json.loads(capsys.readouterr().err)["error"] == "InertiaMismatch"


class TestDetection:
    """The quadratic-eigenproblem route on synthetic and small problems."""

    def test_all_positive(self):
        # no transmission eigenvalue lies in (0.5, 3) on the reference interval
        rep = run_pipeline(helmholtz_problem(cells=16, k=6, lo=0.5, hi=3.0))
        assert rep["transmission_eigenvalues"] == []
        inertia = rep["diagnostics"]["inertia"]
        assert inertia["at_lambda_min"] == inertia["at_lambda_max"] == 0

    def test_single_sign_change(self):
        # A(lambda) = lambda^2 - 1: curve 1 changes sign once in (0, 2)
        prob = helmholtz_problem(lo=0.0, hi=2.0, k=1, kind=ProblemKind.SCHRODINGER)
        rep = run_pipeline(prob, scalar_matrices(-1.0, 0.0, 1.0))
        entries = rep["transmission_eigenvalues"]
        assert [(e["curve_index"], e["multiplicity_estimate"]) for e in entries] == [(1, 1)]
        assert entries[0]["lambda"] == pytest.approx(1.0, abs=1e-8)

    def test_tangential_root_dropped(self):
        # A(lambda) = (lambda - 1)^2 touches zero without changing sign
        prob = helmholtz_problem(lo=0.0, hi=2.0, k=1, kind=ProblemKind.SCHRODINGER)
        rep = run_pipeline(prob, scalar_matrices(1.0, -2.0, 1.0))
        assert rep["transmission_eigenvalues"] == []
        assert [d["reason"] for d in rep["diagnostics"]["dropped"]] == ["tangential"] * 2

    def test_two_indices_same_cell(self):
        # two equal intervals: bit-identical blocks, so every root is double
        spec = ProblemSpec(
            kind=ProblemKind.HELMHOLTZ,
            domain=IntervalUnion([(0.0, 2 * math.pi), (8.0, 8.0 + 2 * math.pi)]),
            potential=Constant(0.75),
            discretization=DiscretizationConfig(24, 8, 6),
            sweep=SweepConfig(3.0, 5.0, 40, 1e-8, 1e-6),
        )
        prob = validate_problem(spec)
        rep = run_pipeline(prob)
        assert rep["transmission_eigenvalues"]
        for entry in rep["transmission_eigenvalues"]:
            assert entry["multiplicity_estimate"] == 2
        accepted = rep["diagnostics"]["accepted"]
        assert [a["curve_index"] for a in accepted] == list(range(1, len(accepted) + 1))
        _, values = sweep(prob, curves.prepare_matrices(prob))
        signs = np.sign(values)
        changed = {nu + 1 for nu in range(6) if np.any(signs[1:, nu] != signs[:-1, nu])}
        assert changed == {a["curve_index"] for a in accepted}

    def test_near_double_root_split_across_blocks(self):
        # the interval lengths differ by 2.8e-16 relative, which moves the
        # near-double root at 4.0422 by 3.1e-8 between the two blocks'
        # companion solves: past refine_tol, so its candidates form two
        # groups and the cut between them reads 0 and then 2 crossings
        spec = ProblemSpec(
            kind=ProblemKind.HELMHOLTZ,
            domain=IntervalUnion([(-3.14159, 3.14159), (10.0, 16.28318)]),
            potential=Constant(0.75),
            discretization=DiscretizationConfig(64, 8, 12),
            sweep=SweepConfig(0.5, 10.0, 400, 1e-8, 1e-6),
        )
        rep = run_pipeline(validate_problem(spec))
        entries = rep["transmission_eigenvalues"]
        got = [(round(e["lambda"], 7), e["multiplicity_estimate"]) for e in entries]
        assert got == [(4.0000216, 2), (4.0422284, 2)]
        assert [a["curve_index"] for a in rep["diagnostics"]["accepted"]] == [1, 2, 3, 4]
        assert rep["diagnostics"]["dropped"] == []

    def test_merge_groups(self):
        # a group with too many crossings takes in its neighbour with too few
        merged = curves._merge_groups([[1.0], [2.0], [5.0]], [0.0, 1.5, 3.0, 6.0], [0, 0, 2, 3])
        assert merged == ([[1.0, 2.0], [5.0]], [0.0, 3.0, 6.0], [0, 2, 3])
        # the nearer of two such neighbours first
        merged = curves._merge_groups([[1.0], [2.0], [2.5]], [0.0, 1.5, 2.25, 3.0], [0, 0, 2, 2])
        assert merged == ([[1.0], [2.0, 2.5]], [0.0, 1.5, 3.0], [0, 0, 2])
        # no neighbour has a spare candidate: a root was missed
        with pytest.raises(InertiaMismatch, match="goes from 1 to 3"):
            curves._merge_groups([[1.0], [2.0]], [0.0, 1.5, 3.0], [0, 1, 3])

    def test_curve_above_num_curves_dropped(self):
        prob = helmholtz_problem(cells=32, k=1, lo=3.0, hi=5.0)
        rep = run_pipeline(prob)
        assert [a["curve_index"] for a in rep["diagnostics"]["accepted"]] == [1]
        dropped = rep["diagnostics"]["dropped"]
        assert [(d["reason"], d["curve_index"]) for d in dropped] == [("above_num_curves", 2)]
        assert [e["curve_index"] for e in rep["transmission_eigenvalues"]] == [1]


def one_block_problem(cells, interval, potential, kind, window):
    spec = ProblemSpec(
        kind=kind,
        domain=IntervalUnion([interval]),
        potential=potential,
        discretization=DiscretizationConfig(cells, 8, 16),
        sweep=SweepConfig(*window, 400, 1e-8, 5e-2),
    )
    return validate_problem(spec)


def plain_companion(m, kind):
    """All eigenvalues of one block's quadratic pencil from its full
    companion matrix."""
    A0, A1, A2 = quadratic_coefficients(m, kind)
    n = m.dim
    B = np.linalg.solve(A2, np.hstack([A0, A1]))
    return np.linalg.eigvals(np.block([[np.zeros((n, n)), np.eye(n)], [-B[:, :n], -B[:, n:]]]))


def record_companion_orders(monkeypatch):
    """The order of every companion matrix numpy.linalg.eigvals solves from
    now on, in call order."""
    eigvals, orders = np.linalg.eigvals, []

    def recording(a):
        orders.append(a.shape[0])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    return orders


MIRRORED = {
    "constant-centred": ((-math.pi, math.pi), Constant(0.75), ProblemKind.HELMHOLTZ, (0.5, 10.0)),
    "constant-offset": ((0.0, 4 * math.pi), Constant(0.75), ProblemKind.HELMHOLTZ, (0.5, 10.0)),
    "power-decay-centred": ((-2.0, 2.0), PowerDecay(60.0, 4.0), ProblemKind.SCHRODINGER, (0.5, 50.0)),
}


class TestMirrorSplit:
    """A block whose pencil commutes with the index flip is solved as its
    even and odd halves; every other block as one companion."""

    @pytest.fixture(
        params=[(cells, name) for cells in (64, 65) for name in MIRRORED],
        ids=lambda param: f"{param[0]}-cells-{param[1]}",
    )
    def mirrored(self, request):
        cells, name = request.param
        prob = one_block_problem(cells, *MIRRORED[name])
        return prob, curves.prepare_matrices(prob)

    def test_pencil_is_flip_symmetric(self, mirrored):
        prob, (m,) = mirrored
        assert curves._mirrored(prob) == [True]
        for A in quadratic_coefficients(m, prob.kind):
            assert np.max(np.abs(A - A[::-1, ::-1])) <= 1e-13 * np.max(np.abs(A))

    def test_split_spectrum_matches_the_full_companion(self, mirrored):
        prob, (m,) = mirrored
        split = curves._qep_eigenvalues(m, prob.kind, True)
        full = plain_companion(m, prob.kind)
        assert split.size == full.size == 2 * m.dim

        def in_window(vals):
            vals = vals[(vals.real >= prob.sweep.lambda_min) & (vals.real <= prob.sweep.lambda_max)]
            return np.sort(vals.real[vals.imag == 0.0]), np.sort(vals.real[vals.imag != 0.0])

        for got, want in zip(in_window(split), in_window(full)):
            assert got.size == want.size
            assert np.all(np.abs(got - want) <= 1e-6 * np.abs(want))

    def test_reports_the_same_tes_as_the_full_companion(self, mirrored, monkeypatch):
        prob, m = mirrored
        split = run_pipeline(prob, m)
        monkeypatch.setattr(curves, "_mirrored", lambda problem: [False] * len(problem.intervals))
        full = run_pipeline(prob, m)
        got, want = split["transmission_eigenvalues"], full["transmission_eigenvalues"]
        assert got
        assert [(e["curve_index"], e["multiplicity_estimate"]) for e in got] == [
            (e["curve_index"], e["multiplicity_estimate"]) for e in want
        ]
        for e, f in zip(got, want):
            assert abs(e["lambda"] - f["lambda"]) <= 2 * prob.sweep.refine_tol
        assert [a["curve_index"] for a in split["diagnostics"]["accepted"]] == [
            a["curve_index"] for a in full["diagnostics"]["accepted"]
        ]

    @pytest.mark.parametrize(
        "make, orders",
        [
            (
                lambda: one_block_problem(
                    64, (-2.0, 2.5), PowerDecay(60.0, 4.0), ProblemKind.SCHRODINGER, (0.5, 50.0)
                ),
                [126],
            ),
            (chain_problem, [62] * 6),
        ],
        ids=["off-centre", "chain"],
    )
    def test_off_centre_blocks_keep_one_companion(self, make, orders, monkeypatch):
        prob = make()
        m = curves.prepare_matrices(prob)
        assert curves._mirrored(prob) == [False] * len(m)
        for b in m:
            assert np.array_equal(
                curves._qep_eigenvalues(b, prob.kind, False), plain_companion(b, prob.kind)
            )
        seen = record_companion_orders(monkeypatch)
        run_pipeline(prob, m)
        assert seen == orders

    def test_find_on_the_reference_problem_solves_two_halves(self, monkeypatch, tmp_path):
        config = tmp_path / "problem.json"
        config.write_text(json.dumps({
            "problem": "helmholtz",
            "domain": {"type": "interval_union", "intervals": [[-math.pi, math.pi]]},
            "potential": {"type": "constant", "v0": 0.75},
            "weight": "unweighted",
            "discretization": {"cells_per_interval": 64, "quad_points": 8, "num_curves": 12},
            "sweep": {"lambda_min": 0.5, "lambda_max": 10.0, "steps": 400,
                      "refine_tol": 1e-8, "cluster_tol": 5e-2},
        }))
        seen = record_companion_orders(monkeypatch)
        assert cli.main(["find", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 0
        assert seen == [64, 62]


class TestRefine:
    def test_synthetic_affine(self):
        prob = helmholtz_problem(refine_tol=1e-9, kind=ProblemKind.SCHRODINGER)
        m = scalar_matrices(-1.0, 0.0, 1.0)
        lam, steps, (a, b) = refine(prob, m, 1, 1.3, (0.0, 2.0), True)
        assert lam == pytest.approx(1.0, abs=1e-9)
        assert b - a <= 1e-9 and steps > 0

    def test_width_zero_passthrough(self):
        # an exact zero of the indicator at the guess is returned as is
        prob = helmholtz_problem(refine_tol=1e-9, kind=ProblemKind.SCHRODINGER)
        m = scalar_matrices(-1.0, 0.0, 1.0)
        assert refine(prob, m, 1, 1.0, (0.0, 2.0), True) == (1.0, 0, (1.0, 1.0))

    def test_real_crossing_near_four(self):
        prob = helmholtz_problem(cells=32, k=6, lo=3.0, hi=5.0, steps=40)
        m = curves.prepare_matrices(prob)
        accepted = run_pipeline(prob, m)["diagnostics"]["accepted"]
        assert accepted
        lam, _, _ = refine(prob, m, accepted[0]["curve_index"], 3.9, (3.0, 4.02), False)
        assert lam == pytest.approx(4.0, abs=1e-2)
        assert lam == pytest.approx(accepted[0]["lambda"], abs=1e-8)


class TestReport:
    def test_cluster_merge(self):
        prob = helmholtz_problem(cells=16, k=6, cluster=1e-5)
        m = curves.prepare_matrices(prob)
        rep = report(prob, [(3.0, 1), (3.0000004, 2)], m)
        assert len(rep["transmission_eigenvalues"]) == 1
        entry = rep["transmission_eigenvalues"][0]
        assert entry["multiplicity_estimate"] == 2
        assert entry["curve_index"] == 1

    def test_singleton(self):
        prob = helmholtz_problem(cells=16, k=6)
        m = curves.prepare_matrices(prob)
        rep = report(prob, [(4.0, 1)], m)
        assert rep["transmission_eigenvalues"][0]["multiplicity_estimate"] == 1

    def test_helmholtz_zero_dropped(self):
        prob = helmholtz_problem(cells=16, k=6)
        m = curves.prepare_matrices(prob)
        rep = report(prob, [(1e-9, 1)], m)
        assert rep["transmission_eigenvalues"] == []

    def test_metadata_present(self):
        prob = helmholtz_problem(cells=16, k=6)
        m = curves.prepare_matrices(prob)
        rep = report(prob, [(4.0, 1)], m)
        meta = rep["metadata"]
        assert set(meta) >= {"problem_hash", "grid", "tolerances", "kind"}
        assert len(meta["problem_hash"]) == 64


class TestPipelineProperties:
    def test_weight_invariance_of_locations(self):
        from teig.model import Agmon

        lams = {}
        for name, weight in (("agmon", Agmon(4.0)), ("plain", Unweighted())):
            prob = helmholtz_problem(cells=32, k=8, lo=3.0, hi=5.0, steps=60,
                                     refine_tol=1e-8, weight=weight)
            rep = run_pipeline(prob)
            lams[name] = sorted(e["lambda"] for e in rep["transmission_eigenvalues"])
        assert len(lams["agmon"]) == len(lams["plain"]) > 0
        for a, b in zip(lams["agmon"], lams["plain"]):
            assert abs(a - b) <= 1e-7

    def test_no_crossings_at_nonpositive_lambda(self):
        prob = helmholtz_problem(cells=16, k=6, lo=-2.0, hi=0.5, steps=40,
                                 kind=ProblemKind.SCHRODINGER)
        rep = run_pipeline(prob)
        assert all(e["lambda"] > 0 for e in rep["transmission_eigenvalues"])

    def test_grid_doubling_stability(self):
        results = []
        for steps in (60, 120):
            prob = helmholtz_problem(cells=32, k=8, lo=3.0, hi=5.0, steps=steps,
                                     refine_tol=1e-8)
            rep = run_pipeline(prob)
            results.append(sorted(e["lambda"] for e in rep["transmission_eigenvalues"]))
        assert len(results[0]) == len(results[1])
        for a, b in zip(*results):
            assert abs(a - b) < 5 * 1e-8

    def test_refined_brackets_disjoint(self):
        prob = helmholtz_problem(cells=32, k=8, lo=0.5, hi=10.0, steps=200)
        accepted = run_pipeline(prob)["diagnostics"]["accepted"]
        assert len(accepted) >= 2
        spans = sorted(tuple(a["bracket"]) for a in accepted)
        for (l0, r0), (l1, r1) in zip(spans, spans[1:]):
            assert r0 <= l1
        for a in accepted:
            assert a["bracket"][0] <= a["lambda"] <= a["bracket"][1]
            assert a["bracket_width"] <= 1e-8

    def test_mesh_refinement_contracts(self):
        # crossing near 4: successive mesh errors shrink by at least 2x
        reported = []
        for cells in (16, 32, 64):
            prob = helmholtz_problem(cells=cells, k=4, lo=3.5, hi=4.5, steps=40,
                                     refine_tol=1e-10)
            rep = run_pipeline(prob)
            lams = [e["lambda"] for e in rep["transmission_eigenvalues"]]
            lam = min(lams, key=lambda v: abs(v - 4.0))
            reported.append(lam)
        d1 = abs(reported[0] - reported[1])
        d2 = abs(reported[1] - reported[2])
        assert d1 >= 2.0 * d2

    def test_residual_bounded_by_refine_tol_scale(self):
        prob = helmholtz_problem(cells=32, k=8, lo=3.0, hi=5.0, steps=60, refine_tol=1e-8)
        m = curves.prepare_matrices(prob)
        lambdas, values = sweep(prob, m)
        rep = run_pipeline(prob, m)
        assert rep["transmission_eigenvalues"]
        for entry in rep["transmission_eigenvalues"]:
            col = values[:, entry["curve_index"] - 1]
            i = np.searchsorted(lambdas, entry["lambda"]) - 1
            slope = abs(col[i + 1] - col[i]) / (lambdas[i + 1] - lambdas[i])
            assert entry["residual"] <= 10 * 1e-8 * max(slope, 1.0)


class TestSerialization:
    def test_csv_shape(self):
        text = curve_table_csv(np.array([1.0, 2.0]), np.array([[0.5, 1.5], [0.25, 2.5]]))
        lines = text.strip().split("\n")
        assert lines[0] == "lambda,mu_1,mu_2"
        assert len(lines) == 3

    def test_csv_seventeen_digits_round_trip(self):
        lam = 1.0 / 3.0
        lines = curve_table_csv(np.array([lam]), np.array([[math.pi]])).strip().split("\n")
        lam_text, mu_text = lines[1].split(",")
        assert float(lam_text) == lam
        assert float(mu_text) == math.pi

    def test_csv_rows_are_the_per_value_format(self):
        edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                -1.7976931348623157e308, 1.0 / 3.0, 1e16, 123456789012345680.0, 1e-5]
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [np.reshape(edge + [math.nan], (4, 3)),
             rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300, (50, 3))]
        )
        values[5, 1], values[6, 2] = math.inf, -math.inf
        lambdas = np.concatenate([[math.nan, -0.0, math.inf, 5e-324], np.linspace(0.1, 7.0, 50)])
        lines = curve_table_csv(lambdas, values).split("\n")
        assert lines[-1] == ""
        for line, lam, row in zip(lines[1:], lambdas, values):
            assert line == ",".join(format_float(v) for v in (lam, *row))
        assert lines[1].split(",")[:3] == ["null", "0", "-0"]
        assert lines[6].split(",")[2] == lines[7].split(",")[3] == "null"

    def test_report_json_round_trip(self):
        prob = helmholtz_problem(cells=16, k=6)
        m = curves.prepare_matrices(prob)
        rep = report(prob, [(4.0, 1)], m)
        parsed = json.loads(dumps(rep, indent=2))
        assert parsed["transmission_eigenvalues"][0]["curve_index"] == 1
