import math

import numpy as np
import pytest

from teig.errors import (
    ArgumentOutOfRange,
    DegenerateInterior,
    HelmholtzContrastDegenerate,
    UnsupportedDimension,
    ValidationError,
)
from teig import experiments, radial
from teig.model import ProblemKind
from teig.radial import (
    RadialProblem,
    _bisect_brackets,
    _check_window,
    _det_grid,
    _scan_determinant,
    _sign_brackets,
    first_te,
    harmonic_multiplicity,
    te_list_up_to,
    te_lists_up_to,
)
import scalar_oracle
from one_point import Branch, characteristic_determinant, interior_wavenumber

H = ProblemKind.HELMHOLTZ
S = ProblemKind.SCHRODINGER


class TestInteriorWavenumber:
    def test_helmholtz_oscillatory(self):
        kappa, branch = interior_wavenumber(H, 0.75, 4.0)
        assert kappa == pytest.approx(1.0, rel=1e-15)
        assert branch is Branch.OSCILLATORY

    def test_schrodinger_oscillatory(self):
        kappa, branch = interior_wavenumber(S, 1.0, 5.0)
        assert kappa == pytest.approx(2.0, rel=1e-15)
        assert branch is Branch.OSCILLATORY

    def test_schrodinger_evanescent(self):
        kappa, branch = interior_wavenumber(S, 1.0, 0.75)
        assert kappa == pytest.approx(0.5, rel=1e-15)
        assert branch is Branch.EVANESCENT

    def test_helmholtz_evanescent_above_one(self):
        kappa, branch = interior_wavenumber(H, 4.0, 3.0)
        assert kappa == pytest.approx(3.0, rel=1e-15)
        assert branch is Branch.EVANESCENT

    def test_branch_boundary_degenerates(self):
        with pytest.raises(DegenerateInterior):
            interior_wavenumber(S, 1.0, 1.0 + 1e-16)


class TestCharacteristicDeterminant:
    def test_1d_closed_form_zero(self):
        p = RadialProblem(H, 1, math.pi, 0.75)
        assert abs(characteristic_determinant(p, 4.0)) < 1e-10

    def test_3d_closed_form_zero(self):
        p = RadialProblem(H, 3, math.pi, 0.75)
        assert abs(characteristic_determinant(p, 4.0)) < 1e-10

    def test_nonzero_off_eigenvalue(self):
        p = RadialProblem(H, 1, math.pi, 0.75)
        assert abs(characteristic_determinant(p, 3.0)) > 1e-3

    def test_continuity_across_schrodinger_branch(self):
        p = RadialProblem(S, 3, 1.0, 1.0)
        below = characteristic_determinant(p, 1.0 - 1e-6)
        above = characteristic_determinant(p, 1.0 + 1e-6)
        assert below == pytest.approx(above, abs=1e-4)

    def test_degenerate_contrast_rejected_upstream(self):
        with pytest.raises(HelmholtzContrastDegenerate):
            RadialProblem(H, 1, 1.0, 1.0)

    def test_nonpositive_v0_rejected(self):
        from teig.errors import NonPositivePotential

        with pytest.raises(NonPositivePotential):
            RadialProblem(H, 1, 1.0, 0.0)
        with pytest.raises(NonPositivePotential):
            RadialProblem(S, 3, 1.0, -0.5)

    def test_lambda_must_be_positive(self):
        p = RadialProblem(H, 1, math.pi, 0.75)
        with pytest.raises(ArgumentOutOfRange):
            characteristic_determinant(p, 0.0)

    @pytest.mark.parametrize("radius, v0", [(math.inf, 0.75), (math.nan, 0.75),
                                            (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_inputs_rejected(self, radius, v0):
        with pytest.raises(ValidationError):
            RadialProblem(H, 1, radius, v0)

    def test_outside_window_raises(self):
        p = RadialProblem(H, 3, 20.0, 0.75)
        assert math.isfinite(characteristic_determinant(p, 90.0))
        with pytest.raises(ArgumentOutOfRange):
            characteristic_determinant(p, 101.0)  # sqrt(lambda) R > 200


class TestBesselWindow:
    """A scan whose window ends leave the Bessel window fails before scanning
    (the exterior limit is covered by the CLI tests)."""

    def test_interior_oscillatory_past_window(self):
        # Schrodinger with v0 < 0 is not a ball problem, but kappa R > 200
        # at the top with sqrt(lambda) R < 200 needs kappa^2 > lambda, so
        # the window rule is called on the scan's ends directly
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            _check_window(S, 10.0, -200.0, [1e-6, 300.0])

    def test_interior_evanescent_past_window(self):
        # Schrodinger below v0: |kappa| R = sqrt(v0 - lambda) R > 60 at the bottom
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            _scan_determinant(RadialProblem(S, 1, 1.0, 4000.0), (0,), 1e-6, 10.0, 50, 1e-8)
        # Helmholtz with v0 > 1: |kappa| R = sqrt(lambda (v0 - 1)) R > 60 at the top
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            _scan_determinant(RadialProblem(H, 1, 1.0, 5.0), (0,), 1e-6, 1000.0, 50, 1e-8)


# (kind, v0, radius, largest lambda): Helmholtz with an oscillatory (v0 < 1)
# and an evanescent (v0 > 1) interior, Schrodinger on both sides of v0, and
# exterior arguments up to the window edge sqrt(lambda) R = 200
DET_CASES = [
    (H, 0.75, math.pi, 400.0),
    (H, 0.75, 10.0, 400.0),
    (H, 3.0, 2.0, 400.0),
    (S, 30.0, 1.0, 400.0),
]


class TestArrayDeterminant:
    """The array determinant against the scalar reference implementation."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("kind, v0, radius, top", DET_CASES)
    def test_matches_scalar_reference(self, dim, kind, v0, radius, top):
        ells = np.array([0, 1, 2, 3, 7, 16, 31, 47, 64])
        lambdas = np.concatenate([[1e-6, 0.37], np.linspace(0.5, top, 37)])
        if kind is S:
            lambdas = np.append(lambdas, [v0, v0 - 1e-3, v0 + 1e-3])  # NaN on the boundary
        ell_grid, lam_grid = (g.ravel() for g in np.meshgrid(ells, lambdas, indexing="ij"))
        got = _det_grid(kind, dim, radius, v0, ell_grid, lam_grid)
        want = np.array(
            [
                scalar_oracle.det_scalar(kind, dim, radius, v0, int(ell), float(lam))
                for ell, lam in zip(ell_grid, lam_grid)
            ]
        )
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isfinite(want).sum() > 0.9 * want.size
        finite = np.isfinite(want)
        assert np.max(np.abs(got[finite] - want[finite])) <= 1e-11

    def test_scalar_wrapper_is_the_array_value(self):
        p = RadialProblem(H, 3, math.pi, 0.75)
        lams = np.linspace(1.0, 60.0, 7)
        grid = _det_grid(H, 3, math.pi, 0.75, 5, lams)
        assert [characteristic_determinant(p, lam, 5) for lam in lams] == grid.tolist()

    def test_value_does_not_depend_on_the_batch(self):
        lams = np.linspace(0.5, 300.0, 50)
        alone = _det_grid(H, 3, math.pi, 0.75, 40, lams)
        mixed = _det_grid(
            H, 3, math.pi, 0.75, np.r_[np.zeros(50), np.full(50, 40.0)], np.r_[lams, lams]
        )
        assert np.array_equal(alone, mixed[50:])


class TestScanRoots:
    """The batched bracket finder on synthetic value rows, the batched
    bisection, and the multi-order determinant scan."""

    def test_affine(self):
        grid = np.linspace(0.0, 5.0, 10)
        hits, cells = _sign_brackets([grid - 2.0])
        assert not hits.any()
        (cell,) = np.flatnonzero(cells[0])
        root = _bisect_brackets(
            lambda ells, lam: lam - 2.0,
            np.zeros(1),
            grid[[cell]],
            grid[[cell + 1]],
            grid[[cell]] - 2.0,
            1e-9,
        )
        assert root[0] == pytest.approx(2.0, abs=1e-9)

    def test_determinant_contains_four(self):
        ball = RadialProblem(H, 1, math.pi, 0.75)
        _, roots, _, _ = _scan_determinant(ball, (0,), 0.5, 5.0, 400, 1e-10)
        assert any(abs(r - 4.0) < 1e-8 for r in roots.tolist())

    def test_no_roots(self):
        grid = np.linspace(-3.0, 3.0, 50)
        hits, cells = _sign_brackets([grid * grid + 1.0, -(grid * grid) - 1.0])
        assert not hits.any() and not cells.any()

    def test_exact_grid_hit(self):
        grid = np.linspace(-1.0, 1.0, 21)
        hits, cells = _sign_brackets([grid])
        assert np.flatnonzero(hits[0]).tolist() == [10]
        assert not cells.any()  # both cells next to the hit are excluded

    def test_nan_cells_skipped(self):
        row = np.array([1.0, np.nan, -1.0, 2.0, -2.0, np.nan])
        hits, cells = _sign_brackets([row, -row])
        assert not hits.any()
        assert np.flatnonzero(cells[0]).tolist() == [2, 3]
        assert np.array_equal(cells[0], cells[1])

    def test_rejects_bad_window(self):
        with pytest.raises(ValidationError):
            _scan_determinant(RadialProblem(H, 1, math.pi, 0.75), (0,), 1.0, 0.5, 10, 1e-9)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValidationError, match="steps"):
            _scan_determinant(RadialProblem(H, 1, math.pi, 0.75), (0,), 0.5, 1.0, 1, 1e-9)

    def test_bisection_replays_scalar_decisions(self):
        # NaN midpoints (nudged), exact zeros and ordinary halvings, several
        # bracket widths: every root equals the scalar bisection's bit for bit
        def f(lam):
            lam = np.asarray(lam, dtype=float)
            out = np.sin(lam)
            out[np.abs(lam - 9.375) < 0.1] = np.nan
            out[lam == 3.0] = 0.0
            return out

        def scalar(lam):
            return float(f(np.array([lam]))[0])

        a = np.array([3.0, 2.0, 6.0, 9.0, 0.5, 2.5])
        b = np.array([3.5, 4.0, 6.5, 9.75, 1.5, 4.0])
        fa = np.array([1.0, scalar(2.0), scalar(6.0), scalar(9.0), 1.0, scalar(2.5)])
        got = _bisect_brackets(lambda ells, lam: f(lam), np.zeros(a.size), a, b, fa, 1e-10)
        want = [scalar_oracle.bisect(scalar, *args, 1e-10) for args in zip(a, b, fa)]
        assert got.tolist() == want

    def test_multi_order_scan_matches_one_order_per_call(self):
        ells = range(13)
        ball = RadialProblem(H, 3, math.pi, 0.75)
        row, *together = _scan_determinant(ball, ells, 1e-6, 60.0, 400, 6e-9)
        for ell in ells:
            alone_row, *alone = _scan_determinant(ball, (ell,), 1e-6, 60.0, 400, 6e-9)
            assert not alone_row.any()
            assert [column[row == ell].tolist() for column in together] == [
                column.tolist() for column in alone
            ]
        assert row.size > 20
        assert np.array_equal(row, np.sort(row))

    def test_alias_rescan_replaces_exactly_the_close_rows(self, monkeypatch):
        # at 25 steps one order has two roots within 5 cells: that row, and
        # only that, takes its roots from the pass at twice the steps
        passes = []
        scan_pass = radial._scan_pass

        def recorded(det, ells, *args):
            table = scan_pass(det, ells, *args)
            passes.append((ells.tolist(), table))
            return table

        monkeypatch.setattr(radial, "_scan_pass", recorded)
        ball = RadialProblem(S, 3, 1.0, 30.0)
        row, _, left, right = _scan_determinant(ball, range(5), 1e-6, 100.0, 25, 1e-8)
        (_, first), (again, second) = passes
        f_row, f_root = first[0].tolist(), first[1].tolist()
        spacing = (100.0 - 1e-6) / 24
        close = sorted(
            {r for r, s, a, b in zip(f_row, f_row[1:], f_root, f_root[1:])
             if r == s and b - a < 5 * spacing}
        )
        assert again == close and 0 < len(close) < 5
        assert np.array_equal(row, np.sort(row))
        for r in range(5):
            src, at = (second, close.index(r)) if r in close else (first, r)
            assert left[row == r].tolist() == src[2][src[0] == at].tolist()
            assert right[row == r].tolist() == src[3][src[0] == at].tolist()


class TestSharedWindows:
    """Windows of one problem scanned together give the roots of scanning
    each alone, in fewer determinant calls."""

    @pytest.mark.parametrize("dim", [1, 3])
    def test_batched_windows_equal_separate_scans(self, dim):
        base = RadialProblem(H, dim, math.pi, 0.75)
        xs = [50.0, 100.0, 200.0, 400.0]
        ell_maxes = [radial.adaptive_ell_max(dim, math.pi, x) for x in xs]
        together = te_lists_up_to(base, xs, ell_maxes)
        alone = [te_list_up_to(base, x, lm) for x, lm in zip(xs, ell_maxes)]
        assert together == alone
        assert all(tl.entries for tl in together)

    def test_count_run_shares_determinant_calls(self, monkeypatch):
        # teig count --dim 3 --x-values 50,100,200,400 made 112 determinant
        # calls with one scan per window: 4 grids, 100 halvings, 8 polish rounds
        calls = []
        det_grid = radial._det_grid

        def counted(*args):
            calls.append(len(args[5]))
            return det_grid(*args)

        monkeypatch.setattr(radial, "_det_grid", counted)
        experiments.counting_experiment(3, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
        assert len(calls) <= 35
        assert calls[0] == 400 * sum(
            radial.adaptive_ell_max(3, math.pi, x) + 1 for x in (50, 100, 200, 400)
        )


class TestPolishPrescreen:
    """The four inner stencil samples decide simple roots alone; the
    decision must be the full 16-point stencil's at the same h."""

    @pytest.mark.parametrize("dim, not_simple", [(1, 25), (2, 0), (3, 25)])
    def test_matches_the_full_stencil_on_every_root(self, dim, not_simple):
        base = RadialProblem(H, dim, math.pi, 0.75)
        xs = [50.0, 100.0, 200.0, 400.0]
        ell_maxes = [radial.adaptive_ell_max(dim, math.pi, x) for x in xs]
        roots = sorted(
            {(lam, ell) for tl in te_lists_up_to(base, xs, ell_maxes) for lam, ell, _ in tl.entries}
        )
        lam = np.array([r for r, _ in roots])
        ells = np.array([ell for _, ell in roots], dtype=float)
        h = 2e-3 * np.maximum(1.0, np.abs(lam))
        stencil = np.array(radial._POLISH_STENCIL, dtype=float)
        samples = _det_grid(
            H, dim, math.pi, 0.75, np.repeat(ells, stencil.size),
            (lam[:, None] + stencil * h[:, None]).ravel(),
        ).reshape(lam.size, stencil.size)
        full = radial._multiplicity(samples, radial._POLISH_STENCIL) == 1
        inner = [radial._POLISH_STENCIL.index(j) for j in radial._PRESCREEN]
        prescreen = radial._multiplicity(samples[:, inner], radial._PRESCREEN) == 1
        assert prescreen.tolist() == full.tolist()
        assert full.tolist().count(False) == not_simple

    def test_unclean_or_non_finite_rows_are_not_simple(self):
        rows = np.array([[1.0, 0.5, -0.5, -1.0], [1.0, 1e-12, -0.5, -1.0], [1.0, np.nan, 2.0, 3.0]])
        assert radial._multiplicity(rows, radial._PRESCREEN).tolist() == [1, 0, 0]

    def test_odd_order_from_dyadic_ratios(self):
        # sign(t)|t|^p sampled around its root: odd p >= 3 is the order, an
        # even p or no sign change is simple, on the stencil and the prescreen
        t = 0.1 * np.array(radial._POLISH_STENCIL, dtype=float)
        rows = np.array([t, t**3, t**5, np.sign(t) * t**4, t**2, -(t**3)])
        inner = [radial._POLISH_STENCIL.index(j) for j in radial._PRESCREEN]
        want = [1, 3, 5, 1, 1, 3]
        assert radial._multiplicity(rows, radial._POLISH_STENCIL).tolist() == want
        assert radial._multiplicity(rows[:, inner], radial._PRESCREEN).tolist() == want


class TestHarmonicMultiplicity:
    def test_examples(self):
        assert harmonic_multiplicity(3, 0) == 1
        assert harmonic_multiplicity(3, 1) == 3
        assert harmonic_multiplicity(2, 5) == 2
        assert harmonic_multiplicity(2, 0) == 1
        assert harmonic_multiplicity(1, 0) == 1
        assert harmonic_multiplicity(1, 1) == 1
        assert harmonic_multiplicity(1, 2) == 0

    def test_3d_formula(self):
        for ell in range(12):
            assert harmonic_multiplicity(3, ell) == 2 * ell + 1

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimension):
            harmonic_multiplicity(4, 0)


class TestTEList:
    def test_1d_contains_four(self):
        base = RadialProblem(H, 1, math.pi, 0.75)
        tl = te_list_up_to(base, 4.5, 0)
        assert any(abs(lam - 4.0) < 1e-8 and ell == 0 and deg == 1 for lam, ell, deg in tl.entries)

    def test_3d_contains_four(self):
        base = RadialProblem(H, 3, math.pi, 0.75)
        tl = te_list_up_to(base, 4.5, 0)
        assert any(abs(lam - 4.0) < 1e-8 for lam, _, _ in tl.entries)

    def test_empty_below_first_root(self):
        base = RadialProblem(H, 1, math.pi, 0.75)
        assert te_list_up_to(base, 2.0, 1).entries == ()

    def test_sorted_and_positive(self):
        base = RadialProblem(H, 3, math.pi, 0.75)
        tl = te_list_up_to(base, 40.0, 4)
        lams = [lam for lam, _, _ in tl.entries]
        assert lams == sorted(lams)
        assert all(lam > 0 for lam in lams)

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    @pytest.mark.parametrize("dim,ell_max", [(1, 1), (3, 3)])
    def test_dilation_scaling(self, eps, dim, ell_max):
        base = te_list_up_to(RadialProblem(H, dim, math.pi, 0.75), 40.0, ell_max)
        scaled = te_list_up_to(
            RadialProblem(H, dim, math.pi * eps, 0.75), 40.0 / eps**2, ell_max
        )
        assert scaled.entries
        for lam, _, _ in scaled.entries:
            best = min(abs(lam - b / eps**2) / (b / eps**2) for b, _, _ in base.entries)
            assert best <= 1e-8

    def test_helmholtz_list_nonempty_when_window_large(self):
        # 100x the first-root estimate: existence of infinitely many
        for radius, v0 in ((1.0, 0.3), (2.0, 0.6), (math.pi, 0.75)):
            lam1 = first_te(RadialProblem(H, 1, radius, v0))
            tl = te_list_up_to(RadialProblem(H, 1, radius, v0), 100.0 * lam1, 1)
            assert len(tl.entries) > 3

    def test_weighted_count(self):
        base = RadialProblem(H, 3, math.pi, 0.75)
        tl = te_list_up_to(base, 30.0, 2)
        manual = sum(d for lam, _, d in tl.entries if lam <= 20.0)
        assert tl.weighted_count(20.0) == manual
