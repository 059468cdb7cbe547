import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from teig.errors import (
    ArgumentOutOfRange,
    HelmholtzContrastDegenerate,
    UnsupportedDimension,
    ValidationError,
)
from teig import determinant, experiments, radial
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
    te_lists_up_to,
)
import scalar_oracle
from one_point import (
    Branch,
    DegenerateInterior,
    bessel_j,
    characteristic_determinant,
    interior_wavenumber,
)

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
        # 1 - v0 rounds to within the scan's noise band of 1
        with pytest.raises(HelmholtzContrastDegenerate):
            RadialProblem(H, 3, 1.0, 1e-13)

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
            _check_window(S, 10.0, -200.0, 0, [1e-6, 300.0])

    def test_interior_evanescent_past_window(self):
        # Schrodinger below v0: |kappa| R = sqrt(v0 - lambda) R > 60 at the bottom
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            te_lists_up_to(RadialProblem(S, 1, 1.0, 4000.0), [10.0], [0], 50)
        # Helmholtz with v0 > 1: |kappa| R = sqrt(lambda (v0 - 1)) R > 60 at the top
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            te_lists_up_to(RadialProblem(H, 1, 1.0, 5.0), [1000.0], [0], 50)

    def test_below_the_j_ladder_floor(self):
        # R = 1e-14: the exterior argument sqrt(lambda) R passes
        # bessel_j_min_arg(0) = 6.9e-17 between the scan floor lambda = 1e-6
        # and 1e-3, so the floor point reads NaN and every scan fails
        ball = RadialProblem(H, 3, 1e-14, 0.75)
        low, high = _det_grid(H, 3, 1e-14, 0.75, 0, [radial.LAMBDA_FLOOR, 1e-3])
        assert math.isnan(low) and math.isfinite(high)
        with pytest.raises(ArgumentOutOfRange, match="exterior .* is below"):
            te_lists_up_to(ball, [1e-3], [0], 10)


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

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_finite_where_the_ladder_scale_overflows_the_products(self, dim):
        # at these small arguments the pairs carry factors 2^(500 shift)
        # whose cross products overflow before the column norms divide
        # them out; D is a sine there, tiny and finite
        ell_grid, x_grid = (
            g.ravel() for g in np.meshgrid([48, 64, 65, 66], np.linspace(1.5e-5, 5.8e-5, 44))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _det_grid(H, dim, 1.0, 0.75, ell_grid, x_grid**2)
        assert np.isfinite(got).all() and (np.abs(got) <= 1.0).all()
        want = [
            scalar_oracle.det_scalar(H, dim, 1.0, 0.75, int(ell), float(x * x))
            for ell, x in zip(ell_grid, x_grid)
        ]
        assert np.max(np.abs(got - want)) <= 1e-15


class TestLadderPass:
    """Each determinant call runs the J ladders of all its points in one
    pass and reads each point's rungs from it, slice by slice."""

    @staticmethod
    def count_calls(monkeypatch):
        """The count run's determinant calls, as (args, ladder passes)."""
        calls = []
        det_grid, ladders = radial._det_grid, determinant._ladders

        def counted_det(*args):
            calls.append([args, 0])
            return det_grid(*args)

        def counted_pass(*args):
            calls[-1][1] += 1
            return ladders(*args)

        monkeypatch.setattr(radial, "_det_grid", counted_det)
        monkeypatch.setattr(determinant, "_ladders", counted_pass)
        experiments.counting_experiment(3, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
        return calls

    def test_count_makes_one_pass_per_determinant_call(self, monkeypatch):
        # with one ladder loop per 2,048-point slice the 16 calls made 30
        calls = self.count_calls(monkeypatch)
        assert [passes for _, passes in calls] == [1] * len(calls)
        assert len(calls) <= 16

    def test_count_grid_call_stays_within_its_memory_budget(self, monkeypatch):
        # the grid's 29,351 points peaked at 1.04 MB traced with one ladder
        # loop per slice; one pass keeps only the rungs its points read
        calls = self.count_calls(monkeypatch)
        grid = max((args for args, _ in calls), key=lambda args: np.size(args[5]))
        assert np.size(grid[5]) > 29_000
        tracemalloc.start()
        try:
            _det_grid(*grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    @pytest.mark.parametrize(
        "kind, dim, v0", [(H, 3, 0.75), (S, 1, 200.0)], ids=["J-interior", "I-interior"]
    )
    def test_one_pass_over_many_slices_equals_calls_per_lambda(self, monkeypatch, kind, dim, v0):
        # 70 lambdas x 96 orders, lambda-major: more than three slices,
        # whose ends split a lambda's orders; at the small arguments the
        # high orders' ladders rescale
        passes = []
        ladders = determinant._ladders

        def recorded(*args):
            passes.append(ladders(*args))
            return passes[-1]

        monkeypatch.setattr(determinant, "_ladders", recorded)
        ells, lams = np.arange(96.0), np.geomspace(1e-8, 50.0, 70)
        ell, lam = np.tile(ells, lams.size), np.repeat(lams, ells.size)
        assert lam.size >= 3 * determinant._DET_CHUNK
        together = _det_grid(kind, dim, 1.0, v0, ell, lam)
        (_, _, rescaled, _), = passes
        assert rescaled
        alone = [_det_grid(kind, dim, 1.0, v0, ells, np.full(ells.size, v)) for v in lams]
        assert together.tobytes() == np.concatenate(alone).tobytes()
        assert np.isfinite(together).all()

    def test_no_points(self):
        assert _det_grid(H, 3, math.pi, 0.75, [], []).shape == (0,)


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
            grid[[cell + 1]] - 2.0,
            1e-9,
        )
        assert root[0] == pytest.approx(2.0, abs=1e-9)

    def test_determinant_contains_four(self):
        ball = RadialProblem(H, 1, math.pi, 0.75)
        _, roots, _, _ = _scan_determinant(ball, (0,), np.array([[5.0]]), 400, np.array([[1e-10]]))
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
        # every scan starts at the floor, so a window must end above it
        with pytest.raises(ArgumentOutOfRange, match="scan floor"):
            te_lists_up_to(RadialProblem(H, 1, math.pi, 0.75), [radial.LAMBDA_FLOOR], [0], 10)

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValidationError, match="steps"):
            te_lists_up_to(RadialProblem(H, 1, math.pi, 0.75), [1.0], [0], 1)

    def test_bisection_replays_scalar_decisions(self):
        # NaN probes (nudged), exact zeros and ordinary steps, several bracket
        # widths: every root lies in its bracket, within tol of the scalar
        # bisection's root
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
        fb = np.array([scalar(v) for v in b])
        got = _bisect_brackets(lambda ells, lam: f(lam), np.zeros(a.size), a, b, fa, fb, 1e-10)
        want = [scalar_oracle.bisect(scalar, *args, 1e-10) for args in zip(a, b, fa)]
        assert ((a <= got) & (got <= b)).all()
        assert np.abs(got - want).max() <= 1e-10

    @staticmethod
    def bracket_problems():
        """Brackets of order i around roots of simple, steep, flat and
        odd-order shapes, with mixed widths and tolerances; D of order i is
        shapes[i]."""
        roots = np.array([2.0, 4.0, 16.3, 37.0, 100.7, 255.9, 1.1, 64.0])
        shapes = [
            lambda t: t, lambda t: t**3, lambda t: np.sign(t) * np.abs(t) ** 5,
            lambda t: np.arctan(1e4 * t), lambda t: np.expm1(3.0 * t), lambda t: -t**3,
            lambda t: np.tanh(t) + 1e-3 * t, lambda t: t * (1.0 + t * t),
        ]

        def det(ells, lam):
            ells, lam = np.broadcast_arrays(ells, lam)
            return np.array([shapes[int(e)](v - roots[int(e)]) for e, v in zip(ells, lam)])

        a = roots - np.array([0.3, 0.01, 0.2, 0.9, 0.05, 0.7, 0.4, 0.11])
        b = roots + np.array([0.7, 0.3, 0.002, 0.1, 0.6, 0.3, 0.35, 0.5])
        tol = np.array([1e-10, 1e-8, 1e-12, 1e-9, 1e-8, 4e-8, 1e-13, 1e-9])
        ells = np.arange(roots.size, dtype=float)
        return det, ells, a, b, det(ells, a), det(ells, b), tol, roots

    @pytest.mark.parametrize("fit", [True, False], ids=["hand-off", "no-fit"])
    def test_no_bracket_takes_more_than_the_itp_bound(self, monkeypatch, fit):
        # ITP with n0 = 1 ends every bracket in ceil(log2(w / tol)) + 1
        # evaluations, odd-order roots whose fit finds no root included
        if not fit:
            monkeypatch.setattr(radial, "_fit_roots", lambda s, h, m: np.full(len(s), np.nan))
        det, ells, a, b, fa, fb, tol, roots = self.bracket_problems()
        probes = np.zeros(ells.size, dtype=int)

        def counted(e, lam):
            np.add.at(probes, np.unique(e).astype(int), 1)  # one probe per bracket and call
            return det(e, lam)

        got = _bisect_brackets(counted, ells, a, b, fa, fb, tol)
        assert ((a < got) & (got < b)).all()
        assert (probes <= np.ceil(np.log2((b - a) / tol)) + 1).all()
        simple = np.array([0, 3, 4, 6, 7])
        assert (np.abs(got - roots)[simple] <= 0.5 * tol[simple]).all()

    def test_hand_off_without_a_fitted_root_finishes_the_bracket(self, monkeypatch):
        # a fit that finds no real root hands nothing off: every root is the
        # midpoint of a bracket no wider than tol across a sign change
        det, ells, a, b, fa, fb, tol, roots = self.bracket_problems()
        handed = _bisect_brackets(det, ells, a, b, fa, fb, tol)
        odd = np.array([1, 2, 5])  # t^3, t^5 and -t^3: read odd order and handed off
        assert (np.abs(handed - roots)[odd] > tol[odd]).all()
        monkeypatch.setattr(radial, "_fit_roots", lambda s, h, m: np.full(len(s), np.nan))
        got = _bisect_brackets(det, ells, a, b, fa, fb, tol)
        lower, upper = det(ells, got - 0.5 * tol), det(ells, got + 0.5 * tol)
        assert (lower * upper <= 0.0).all()
        assert ((a < got) & (got < b)).all()

    def test_multi_order_scan_matches_one_order_per_call(self):
        ells = range(13)
        ball = RadialProblem(H, 3, math.pi, 0.75)
        row, *together = _scan_determinant(
            ball, ells, np.full((13, 1), 60.0), 400, np.full((13, 1), 6e-9)
        )
        for ell in ells:
            alone_row, *alone = _scan_determinant(
                ball, (ell,), np.array([[60.0]]), 400, np.array([[6e-9]])
            )
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
        row, _, left, right = _scan_determinant(
            ball, range(5), np.full((5, 1), 100.0), 25, np.full((5, 1), 1e-8)
        )
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

    def test_alias_rescan_replaces_exactly_the_close_windows(self, monkeypatch):
        # at 25 steps, order 1 of this ball has roots near 24 and 43: within
        # 5 cells of the window that ends at 100 but not of the one that ends
        # at 30, so its root near 24 is listed from the first pass
        passes = []
        scan_pass = radial._scan_pass

        def recorded(det, ells, *args):
            table = scan_pass(det, ells, *args)
            passes.append((ells.tolist(), table))
            return table

        monkeypatch.setattr(radial, "_scan_pass", recorded)
        ball = RadialProblem(S, 2, 1.0, 30.0)
        ends = np.array([30.0, 100.0])
        table = _scan_determinant(ball, range(5), np.tile(ends, (5, 1)), 25, np.full((5, 2), 1e-8))
        (_, first), (again, second) = passes

        def window(table):  # the first end at or above each bracket's right end
            return np.searchsorted(ends, table[3])

        row, root, right = first[0], first[1], first[3]
        close = {
            (r, j)
            for r, s, a, b, right_b in zip(row, row[1:], root, root[1:], right[1:])
            for j, end in enumerate(ends)
            if r == s and right_b <= end and b - a < 5 * (end - 1e-6) / 24
        }
        assert close == {(1, 1)} and again == [1]
        for r in range(5):
            for j in range(ends.size):
                src, at = (second, 0) if (r, j) in close else (first, r)
                pick = (src[0] == at) & (window(src) == j)
                mine = (table[0] == r) & (window(table) == j)
                for column in (2, 3):
                    assert table[column][mine].tolist() == src[column][pick].tolist()
        assert window(first)[row == 1].tolist() == [0, 1]


class TestSharedWindows:
    """The nested windows of one problem scan each order once: every root
    is the one that scanning alone the smallest window listing it gives,
    but for a root in the cell at a window joint, in fewer determinant
    calls and points."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize(
        "xs",
        [[50.0, 100.0, 200.0, 400.0], [16.0, 36.0, 64.0, 100.0], [99.0, 100.0, 101.0],
         [100.0, 50.0, 50.0, 200.0]],
        ids=["default", "ends-on-tes", "around-100", "unsorted-duplicate"],
    )
    def test_each_root_is_its_smallest_window_scanned_alone(self, dim, xs):
        # 16, 36, 64 and 100 are TEs of this ball (lambda = 4 m^2), so a
        # window end sits on a root, found as a grid hit or a polished root
        base = RadialProblem(H, dim, math.pi, 0.75)
        ell_maxes = [radial.adaptive_ell_max(dim, math.pi, x) for x in xs]
        together = te_lists_up_to(base, xs, ell_maxes)
        alone = {x: one_window(base, x, lm) for x, lm in zip(xs, ell_maxes)}
        for x, listed in zip(xs, together):
            assert len(listed) == len(alone[x])
            assert weighted_count(listed, x) == weighted_count(alone[x], x)
        for entry in {e for listed in together for e in listed}:
            lam, ell, *_ = entry
            smallest = min(x for x, listed in zip(xs, together) if entry in listed)
            if entry in alone[smallest]:
                continue
            # the one cell a window's grid does not share with the window
            # alone: from the joint with the window before, which holds the
            # same order, to the window's first own grid point past it; its
            # root is bisected from another bracket, to the same tolerance
            joint = max(x for x, lm in zip(xs, ell_maxes) if x < smallest and ell <= lm)
            grid = np.linspace(radial.LAMBDA_FLOOR, smallest, radial.DEFAULT_SCAN_STEPS)
            assert joint < lam < grid[grid > joint][0]
            tol = 1e-10 * max(1.0, smallest)
            assert any(e[1] == ell and abs(e[0] - lam) <= tol for e in alone[smallest])
        assert all(together)

    def test_count_run_shares_determinant_calls(self, monkeypatch):
        # teig count --dim 3 --x-values 50,100,200,400 made 112 determinant
        # calls with one scan per window, and 87,219 points with the windows
        # batched but each scanned from lambda = 1e-6 on its own grid
        calls = []
        det_grid = radial._det_grid

        def counted(*args):
            calls.append(len(args[5]))
            return det_grid(*args)

        monkeypatch.setattr(radial, "_det_grid", counted)
        experiments.counting_experiment(3, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
        assert len(calls) <= 16
        assert sum(calls) <= 45_000

    def test_counts_do_not_hang_on_the_solved_digits(self, monkeypatch):
        # each solved root moved by up to 1e-6 of itself, within its bracket,
        # leaves N(x) as it is; grid hits never pass through the solver
        rng = np.random.default_rng(7)
        solve = radial._bisect_brackets

        def moved(det, ells, a, b, fa, fb, tol):
            root = solve(det, ells, a, b, fa, fb, tol)
            return np.clip(root * (1.0 + rng.uniform(-1e-6, 1e-6, root.size)), a, b)

        monkeypatch.setattr(radial, "_bisect_brackets", moved)
        result = experiments.counting_experiment(3, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
        assert [row[1] for row in result["tables"][0]["rows"]] == [481, 1437, 4472, 13371]


class TestRootFreeZone:
    """Below (b(nu)/R)^2, b(nu) = max(nu, 2 (nu+1)^(1/2) (nu+2)^(1/4)), the
    exterior argument is below the first Bessel zero and no scan looks."""

    @pytest.mark.parametrize("nu0, dim", [(-0.5, 1), (0.0, 2), (0.5, 3)])
    def test_bound_lies_below_the_first_bessel_zero(self, nu0, dim):
        bounds = np.sqrt(radial._root_free_below(dim, 1.0, np.arange(101)))
        for ell, b in enumerate(bounds.tolist()):
            assert b >= nu0 + ell
            assert (bessel_j(nu0 + ell, b * np.arange(1, 1001) / 1000) > 0.0).all()

    @pytest.mark.parametrize(
        "kind, dim, radius, v0, windows, steps",
        [(H, dim, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0], 400) for dim in (1, 2, 3)]
        + [(S, dim, 0.5, 40.0, [100.0], 800) for dim in (1, 3)],
        ids=["count-dim1", "count-dim2", "count-dim3", "hypothesis-dim1", "hypothesis-dim3"],
    )
    def test_skipped_points_keep_one_sign(self, kind, dim, radius, v0, windows, steps):
        # every grid point of the scans before the zone (each window alone
        # from lambda = 1e-6) that lies at or below its order's bound
        ell_max = [radial.adaptive_ell_max(dim, radius, x) if kind is H else 0 for x in windows]
        ells, lams = [], []
        for x, top in zip(windows, ell_max):
            grid = np.linspace(radial.LAMBDA_FLOOR, x, steps)
            orders = np.arange((top if dim > 1 else min(top, 1)) + 1)
            for ell, bound in zip(orders, radial._root_free_below(dim, radius, orders)):
                below = grid[(grid > radial.LAMBDA_FLOOR) & (grid <= bound)]
                ells.append(np.full(below.size, ell))
                lams.append(below)
        ells, lams = np.concatenate(ells), np.concatenate(lams)
        values = _det_grid(kind, dim, radius, v0, ells, lams)
        assert (np.abs(values) >= radial.EXACT_HIT_TOL).all()
        for ell in np.unique(ells):
            signs = np.sign(values[ells == ell])
            assert (signs == signs[0]).all()
        assert lams.size


class TestPolishPrescreen:
    """The four inner stencil samples decide simple roots alone; the
    decision must be the full 16-point stencil's at the same h."""

    @pytest.mark.parametrize("dim, not_simple", [(1, 10), (2, 0), (3, 10)])
    def test_matches_the_full_stencil_on_every_root(self, dim, not_simple):
        base = RadialProblem(H, dim, math.pi, 0.75)
        xs = [50.0, 100.0, 200.0, 400.0]
        ell_maxes = [radial.adaptive_ell_max(dim, math.pi, x) for x in xs]
        roots = sorted(
            {(lam, ell) for tl in te_lists_up_to(base, xs, ell_maxes) for lam, ell, *_ in tl}
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

    def test_no_roots_make_no_determinant_call(self, monkeypatch):
        def det(ells, lam):
            raise AssertionError("a determinant call without a root")

        assert radial._polish_roots(det, np.zeros(0), np.zeros(0)).size == 0
        # so first_te's windows without a root (up to 1.5 and 3 here) cost
        # their grid call alone
        sizes = []
        det_grid = radial._det_grid

        def counted(*args):
            sizes.append(np.size(args[-1]))
            return det_grid(*args)

        monkeypatch.setattr(radial, "_det_grid", counted)
        assert radial.first_te(RadialProblem(H, 1, math.pi, 0.75)) == pytest.approx(4.0)
        assert min(sizes) > 0

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


def fit_reference(row, h, m):
    """The per-root fit the batched one replaced: np.polynomial's weighted
    quartic fit of sign(D)|D|^(1/m) in the offsets, solved by np.roots for
    the real root nearest the centre inside the stencil, NaN if none."""
    offsets = np.array(radial._POLISH_STENCIL, dtype=float) * h
    t = np.sign(row) * np.abs(row) ** (1.0 / m)
    coef = np.polynomial.polynomial.polyfit(offsets, t, 4, w=np.abs(row) ** ((m - 1.0) / m))
    candidates = np.roots(coef[::-1])
    candidates = candidates[np.abs(candidates.imag) < 1e-11].real
    inside = candidates[np.abs(candidates) <= offsets.max()]
    return inside[np.argmin(np.abs(inside))] if inside.size else np.nan


class TestBatchedFit:
    """All odd-order roots of a polish round are fitted in one stacked
    least-squares solve with a shared Vandermonde matrix."""

    def test_matches_the_per_root_fit_on_the_count_stencils(self, monkeypatch):
        # every stencil the count run fits (hand-offs and both polish rounds)
        seen = []
        fit_roots = radial._fit_roots

        def recorded(samples, h, m):
            shift = fit_roots(samples, h, m)
            seen.extend(zip(samples, h, m, shift))
            return shift

        monkeypatch.setattr(radial, "_fit_roots", recorded)
        experiments.counting_experiment(3, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0])
        assert len(seen) >= 20
        for row, h, m, shift in seen:
            want = fit_reference(row, h, m)
            # h <= 2e-3 lambda here (no stencil widened), so 5e-10 h is at
            # most 1e-12 of the root
            assert abs(shift - want) <= 5e-10 * h

    def test_shapes_with_and_without_a_root(self):
        u = np.array(radial._POLISH_STENCIL, dtype=float)
        rows = np.array(
            [(u - 0.3) ** 3, u**2 + 1.0, -((u + 2.5) ** 5), np.sign(u - 0.3) * np.abs(u - 0.3) ** 3]
        )
        m = np.array([3, 1, 5, 3])
        got = radial._fit_roots(rows, np.full(4, 0.5), m)
        assert got[[0, 2, 3]] == pytest.approx([0.15, -1.25, 0.15], abs=1e-12)
        assert np.isnan(got[1])
        assert np.allclose([fit_reference(r, 0.5, k) for r, k in zip(rows, m)], got, equal_nan=True)

    def test_count_does_not_import_numpy_polynomial(self, tmp_path):
        code = (
            "import sys\n"
            "from teig import cli\n"
            f"cli.main(['count', '--dim', '3', '--out', {str(tmp_path / 'c.json')!r}])\n"
            "print('numpy.polynomial' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.stdout.split() == ["False"]


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


def one_window(base, x, ell_max):
    """The entries of te_lists_up_to on the one window (x, ell_max)."""
    return te_lists_up_to(base, [x], [ell_max])[0]


def weighted_count(entries, x):
    """N(x): the degeneracy sum of the entries up to x."""
    return sum(d for lam, _, d, *_ in entries if lam <= x)


class TestTEList:
    def test_1d_contains_four(self):
        base = RadialProblem(H, 1, math.pi, 0.75)
        tl = one_window(base, 4.5, 0)
        assert any(abs(lam - 4.0) < 1e-8 and ell == 0 and deg == 1 for lam, ell, deg, *_ in tl)

    def test_3d_contains_four(self):
        base = RadialProblem(H, 3, math.pi, 0.75)
        tl = one_window(base, 4.5, 0)
        assert any(abs(lam - 4.0) < 1e-8 for lam, *_ in tl)

    def test_empty_below_first_root(self):
        base = RadialProblem(H, 1, math.pi, 0.75)
        assert one_window(base, 2.0, 1) == ()

    def test_sorted_and_positive(self):
        base = RadialProblem(H, 3, math.pi, 0.75)
        tl = one_window(base, 40.0, 4)
        lams = [lam for lam, *_ in tl]
        assert lams == sorted(lams)
        assert all(lam > 0 for lam in lams)

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    @pytest.mark.parametrize("dim,ell_max", [(1, 1), (3, 3)])
    def test_dilation_scaling(self, eps, dim, ell_max):
        base = one_window(RadialProblem(H, dim, math.pi, 0.75), 40.0, ell_max)
        scaled = one_window(
            RadialProblem(H, dim, math.pi * eps, 0.75), 40.0 / eps**2, ell_max
        )
        assert scaled
        for lam, *_ in scaled:
            best = min(abs(lam - b / eps**2) / (b / eps**2) for b, *_ in base)
            assert best <= 1e-8

    @pytest.mark.parametrize(
        "kind, dim, v0r2", [(H, 1, 0.75), (H, 3, 0.75), (S, 3, 30.0)], ids=["H1", "H3", "S3"]
    )
    def test_lists_depend_on_lambda_r2_alone(self, kind, dim, v0r2):
        # a ball of radius R has the TEs of the unit ball over R^2 (with v0 R^2
        # fixed for Schrodinger): each radius lists the unit ball's (order,
        # lambda R^2) pairs, to the scan tolerance 1e-10 of the window end
        top = 100.0

        def scaled(radius):
            v0 = v0r2 if kind is H else v0r2 / radius**2
            ball = RadialProblem(kind, dim, radius, v0)
            (listed,) = te_lists_up_to(ball, [top / radius**2], [3])
            return sorted((ell, lam * radius**2) for lam, ell, *_ in listed)

        unit = scaled(1.0)  # orders 0 and 1 share the root 4 pi^2 in dims 1 and 3
        assert len(unit) >= 2
        for radius in (1e-2, 1e-4, 1e-5, 1e-6, 1e-7, 1e-9):
            got = scaled(radius)
            assert [ell for ell, _ in got] == [ell for ell, _ in unit], radius
            assert np.abs(np.subtract(got, unit)[:, 1]).max() <= 1e-10 * top, radius

    def test_helmholtz_list_nonempty_when_window_large(self):
        # 100x the first-root estimate: existence of infinitely many
        for radius, v0 in ((1.0, 0.3), (2.0, 0.6), (math.pi, 0.75)):
            lam1 = first_te(RadialProblem(H, 1, radius, v0))
            tl = one_window(RadialProblem(H, 1, radius, v0), 100.0 * lam1, 1)
            assert len(tl) > 3

    def test_first_te_is_the_first_listed_root(self):
        # the default dim-1 ball's first TE is exactly 4 (lambda = 4 m^2, m = 1);
        # first_te's windows end at 1.5 and 3 without a root, then at 6
        ball = RadialProblem(H, 1, math.pi, 0.75)
        assert abs(first_te(ball) - 4.0) <= 1e-14
        assert first_te(ball) == one_window(ball, 6.0, 0)[0][0]

    def test_weighted_count(self):
        # the counting experiment's N(x) is the degeneracy sum of the list up to x
        base = RadialProblem(H, 3, math.pi, 0.75)
        xs = [20.0, 30.0]
        lists = te_lists_up_to(base, xs, [2, 2])
        manual = [sum(d for lam, _, d, *_ in tl if lam <= x) for x, tl in zip(xs, lists)]
        result = experiments.counting_experiment(3, math.pi, 0.75, xs, ell_max=2)
        assert [row[1] for row in result["tables"][0]["rows"]] == manual
