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
    te_counts_up_to,
    te_list_up_to,
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
COUNT_XS = [50.0, 100.0, 200.0, 400.0]  # teig count's default windows


def list_count_window():
    """te_list_up_to on the ball, largest window and adaptive_ell_max orders
    of teig count --dim 3, the work the count did before it read its counts
    off te_counts_up_to."""
    base = RadialProblem(H, 3, math.pi, 0.75)
    return te_list_up_to(base, 400.0, radial.adaptive_ell_max(3, 400.0 * math.pi**2))


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
        # Schrodinger with v0 < 0 is not a ball problem, but kappa > 200 at
        # the top with sqrt(lambda) < 200 needs kappa^2 > lambda, so the
        # window rule is called on the unit ball's scan ends directly
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            _check_window(S, -20000.0, np.zeros(2), np.array([1e-4, 30000.0]))

    def test_interior_evanescent_past_window(self):
        # Schrodinger below v0: |kappa| R = sqrt(v0 - lambda) R > 60 at the bottom
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            te_list_up_to(RadialProblem(S, 1, 1.0, 4000.0), 10.0, 0, 50)
        # Helmholtz with v0 > 1: |kappa| R = sqrt(lambda (v0 - 1)) R > 60 at the top
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            te_list_up_to(RadialProblem(H, 1, 1.0, 5.0), 1000.0, 0, 50)

    def test_below_the_j_ladder_floor(self):
        # the exterior argument sqrt(lambda R^2) passes bessel_j_min_arg(0) =
        # 6.9e-17 between lambda R^2 = 1e-34 and 1e-31, so the lower point
        # reads NaN (a Schrodinger interior, as a Helmholtz one degenerates
        # there); a scan of R = 1e-14 up to 1e-3 ends in the root-free zone,
        # so it lists no root and evaluates no point
        low, high = _det_grid(S, 3, 1.0, 0, [1e-34, 1e-31])
        assert math.isnan(low) and math.isfinite(high)
        assert te_list_up_to(RadialProblem(H, 3, 1e-14, 0.75), 1e-3, 0, 10) == ()


# (kind, v0, radius, largest lambda): Helmholtz with an oscillatory (v0 < 1)
# and an evanescent (v0 > 1) interior, Schrodinger on both sides of v0, and
# exterior arguments up to the window edge sqrt(lambda) R = 200
DET_CASES = [
    (H, 0.75, math.pi, 400.0),
    (H, 0.75, 10.0, 400.0),
    (H, 3.0, 2.0, 400.0),
    (S, 30.0, 1.0, 400.0),
]


def on_unit_ball(kind, dim, radius, v0, ells, lams):
    """D of the ball of the given radius at the points (ells[i], lams[i]),
    evaluated as the package does, on the unit ball at lambda R^2 with a
    Schrodinger v0 R^2."""
    r2 = radius * radius
    v0 = v0 * r2 if kind is S else v0
    return _det_grid(kind, dim, v0, ells, np.asarray(lams, dtype=float) * r2)


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
        got = on_unit_ball(kind, dim, radius, v0, ell_grid, lam_grid)
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
        grid = on_unit_ball(H, 3, math.pi, 0.75, 5, lams)
        assert [characteristic_determinant(p, lam, 5) for lam in lams] == grid.tolist()

    def test_value_does_not_depend_on_the_batch(self):
        lams = np.linspace(5.0, 3000.0, 50)
        alone = _det_grid(H, 3, 0.75, 40, lams)
        mixed = _det_grid(H, 3, 0.75, np.r_[np.zeros(50), np.full(50, 40.0)], np.r_[lams, lams])
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
            got = _det_grid(H, dim, 0.75, ell_grid, x_grid**2)
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
        """The determinant calls of the listing of the count's largest
        window, as (args, ladder passes)."""
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
        list_count_window()
        return calls

    def test_count_makes_one_pass_per_determinant_call(self, monkeypatch):
        # with one ladder loop per 2,048-point slice the 16 calls of the
        # count's four windows made 30
        calls = self.count_calls(monkeypatch)
        assert [passes for _, passes in calls] == [1] * len(calls)
        assert len(calls) <= 16

    def test_count_grid_call_stays_within_its_memory_budget(self):
        # a grid of 29,351 points peaked at 1.04 MB traced with one ladder
        # loop per slice; one pass keeps only the rungs its points read.
        # The grid: the count's largest window at twice the default steps
        # (the alias re-scan's), each order above its root-free zone,
        # lambda-major as a scan evaluates it
        mu = 400.0 * math.pi**2
        ells = np.arange(radial.adaptive_ell_max(3, mu) + 1, dtype=float)
        lams = np.linspace(radial.LAMBDA_FLOOR, mu, 2 * radial.DEFAULT_SCAN_STEPS)
        ell, lam = np.broadcast_arrays(ells, lams[:, None])
        above = lam > radial._root_free_below(3, ell)
        grid = (H, 3, 0.75, ell[above], lam[above])
        assert np.size(grid[-1]) > 29_000
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
        together = _det_grid(kind, dim, v0, ell, lam)
        (_, _, rescaled, *_), = passes
        assert rescaled
        alone = [_det_grid(kind, dim, v0, ells, np.full(ells.size, v)) for v in lams]
        assert together.tobytes() == np.concatenate(alone).tobytes()
        assert np.isfinite(together).all()

    def test_no_points(self):
        assert _det_grid(H, 3, 0.75, [], []).shape == (0,)


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
        # lambda = 4 on the radius-pi ball is lambda R^2 = 4 pi^2 on the unit ball
        _, roots, _, _ = _scan_determinant(H, 1, 0.75, (0,), 50.0, 400)
        assert any(abs(r - 4.0 * math.pi**2) < 1e-7 for r in roots.tolist())

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

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_window(self, x):
        # a window end x R^2 must be a positive finite float
        with pytest.raises(ArgumentOutOfRange, match="is not a positive finite float"):
            te_list_up_to(RadialProblem(H, 1, math.pi, 0.75), x, 0, 10)

    def test_window_below_every_bound_makes_no_determinant_call(self, monkeypatch):
        # lambda R^2 = 1e-6 pi^2 and 2 lie below every order's root-free bound
        # (2.449 for order 0 in dim 1), so no order is scanned at all
        def det(*args):
            raise AssertionError("a determinant call below every bound")

        monkeypatch.setattr(radial, "_det_grid", det)
        ball = RadialProblem(H, 1, math.pi, 0.75)
        for x in (radial.LAMBDA_FLOOR, 2.0 / math.pi**2):
            assert te_list_up_to(ball, x, 1, 10) == ()
        # and a scan of no order needs no memory, at any steps
        assert te_list_up_to(ball, 2.0 / math.pi**2, 10**8, 10**9) == ()

    def test_rejects_too_few_steps(self):
        with pytest.raises(ValidationError, match="steps"):
            te_list_up_to(RadialProblem(H, 1, math.pi, 0.75), 1.0, 0, 1)

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
        row, *together = _scan_determinant(H, 3, 0.75, ells, 600.0, 400)
        for ell in ells:
            alone_row, *alone = _scan_determinant(H, 3, 0.75, (ell,), 600.0, 400)
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
        row, _, left, right = _scan_determinant(S, 3, 30.0, range(5), 100.0, 25)
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
    """The windows of one count share its determinant calls: every
    (order, window end) is sampled in one call."""

    def test_counts_do_not_depend_on_the_radius(self):
        # the ball of radius pi 1e-6 with x scaled by 1e12 scans the unit ball
        # of the default count, whose window ends 100 and 400 are TEs; its
        # count at 400e12 used to read 13368, through a grid in lambda
        result = experiments.counting_experiment(
            3, math.pi * 1e-6, 0.75, [50e12, 100e12, 200e12, 400e12]
        )
        rows = result["tables"][0]["rows"]
        assert [row[1] for row in rows] == [481, 1437, 4472, 13371]
        assert [row[2] for row in rows] == [24, 33, 46, 65]

    def test_count_reads_no_scan(self, monkeypatch):
        # the listing made 16 determinant calls over 34,226 points; the count
        # samples each (order, window end) once, and a window end that is a
        # root of orders 0 and 1 (x = 100, 400) costs its row's previous grid
        # point and the polish of that root: one call of the four ties'
        # stencils, then one of the two odd-order ones
        def refuse(*args):
            raise AssertionError("a count scanned or solved a bracket")

        monkeypatch.setattr(radial, "_scan_determinant", refuse)
        monkeypatch.setattr(radial, "_bisect_brackets", refuse)
        calls = []
        det_grid = radial._det_grid

        def counted(*args):
            calls.append(np.size(args[4]))
            return det_grid(*args)

        monkeypatch.setattr(radial, "_det_grid", counted)
        result = experiments.counting_experiment(3, math.pi, 0.75, COUNT_XS)
        assert [row[1] for row in result["tables"][0]["rows"]] == [481, 1437, 4472, 13371]
        assert len(calls) <= 4
        assert sum(calls) < 342


def listed_counts(base, xs, ell_maxes, lengths):
    """Each order's count up to x in te_list_up_to's listing of each
    window, over at least the orders 0 .. length - 1 of the window's
    ``lengths`` (an entry of a higher order makes the list longer)."""
    return [
        np.bincount(
            [ell for lam, ell, *_ in te_list_up_to(base, x, lm) if lam <= x], minlength=length
        ).tolist()
        for x, lm, length in zip(xs, ell_maxes, lengths)
    ]


class TestCountFormula:
    """Each order's count N = Z(t) - Z(c t) - [(-1)^(Z(t) + Z(c t)) D < 0]
    (te_counts_up_to) is the count of te_list_up_to's listing."""

    @staticmethod
    def both_routes(dim, radius, v0, xs, ell_maxes=None):
        base = RadialProblem(H, dim, radius, v0)
        _, mus, _ = base.unit_ball(xs)
        ell_maxes = ell_maxes or [radial.adaptive_ell_max(dim, mu) for mu in mus]
        counts = [c.tolist() for c in te_counts_up_to(base, xs, ell_maxes)]
        return counts, listed_counts(base, xs, ell_maxes, [len(c) for c in counts])

    @pytest.mark.parametrize(
        "dim, radius, v0, xs",
        [
            (1, 1.7, 0.5, [1000.0, 3000.0]),
            (2, 3.0, 0.3, [50.0, 100.0, 200.0]),
            (2, math.pi, 0.75, COUNT_XS),
            (3, 2.0, 0.9, [40.0, 80.0, 160.0]),
            (3, 1.3, 0.5, [91.1, 300.7]),
            (3, math.pi, 0.75, [50.0, 101.0, 200.0, 399.0]),
        ],
        ids=["dim1", "dim2", "dim2-default", "dim3", "dim3-two-windows", "dim3-off-ties"],
    )
    def test_each_order_matches_the_listing_off_ties(self, dim, radius, v0, xs):
        counts, listed = self.both_routes(dim, radius, v0, xs)
        assert counts == listed
        assert sum(map(sum, counts)) > 10

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("xs", [[16.0, 36.0, 64.0, 100.0], [144.0, 400.0]])
    def test_each_order_matches_the_listing_at_ties(self, dim, xs):
        # every window end is a TE of orders 0 and 1 (lambda = 4 m^2), whose
        # D stays below EXACT_HIT_TOL there: the tie rule gives the listing's
        # count, the root counted where its polish leaves it at or below x
        counts, listed = self.both_routes(dim, math.pi, 0.75, xs)
        assert counts == listed

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("below", [1e-3, 1e-4])
    def test_a_count_does_not_depend_on_the_other_windows(self, dim, below):
        # each tie (lambda = 4 m^2) with an end just below it, where D is
        # inside the tie band and its sign reads a root too many: a window's
        # count is its count asked alone, and its listing's
        xs = [x for m in (2, 6, 8, 10) for x in (4.0 * m * m - below, 4.0 * m * m)]
        counts, listed = self.both_routes(dim, math.pi, 0.75, xs)
        base = RadialProblem(H, dim, math.pi, 0.75)
        ell_maxes = [radial.adaptive_ell_max(dim, x * math.pi**2) for x in xs]
        alone = [te_counts_up_to(base, [x], [lm])[0].tolist() for x, lm in zip(xs, ell_maxes)]
        assert counts == alone
        assert counts == listed

    def test_an_explicit_lmax_counts_only_its_orders(self):
        # two windows share the end 100, a tie of orders 0 and 1, with
        # different top orders
        xs, ell_maxes = [100.0, 100.0, 400.0], [0, 3, 3]
        counts, listed = self.both_routes(3, math.pi, 0.75, xs, ell_maxes)
        assert counts == listed
        assert [len(c) for c in counts] == [1, 4, 4]

    def test_the_sign_term_reads_g_through_the_zero_parity(self):
        # D = -J_nu(c t) J_nu(t) g over positive norms and sign J_nu(t) =
        # (-1)^Z(t), so g > 0 is D < 0 for Z(t) + Z(c t) even and D > 0 for
        # it odd; the rule flipped reads [1, 2, 3, 2]
        def det(ells, mus, zeros):
            return np.array([0.5, -0.5, 0.5, -0.5]), np.array([[3, 3, 4, 4], [1, 1, 1, 1]])

        counts, _ = radial._root_counts(det, None, None)
        assert counts.tolist() == [2, 1, 2, 3]

    def test_a_window_in_every_root_free_zone_counts_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a determinant call for no sampled point")

        monkeypatch.setattr(radial, "_det_grid", refuse)
        # lambda R^2 = 6e-7 at most, below order 0's root-free bound: a
        # window's array holds the orders it samples, none here
        ball = RadialProblem(H, 3, 1e-4, 0.75)
        counts = te_counts_up_to(ball, [50.0, 60.0], [4, 4])
        assert [c.tolist() for c in counts] == [[], []]

    @staticmethod
    def count_calls(monkeypatch, dim):
        """The determinant calls of teig count --dim ``dim``, as (points,
        ladders of its _ladders pass)."""
        calls = []
        det_grid, ladders = radial._det_grid, determinant._ladders

        def counted_det(*args):
            calls.append([np.size(args[4]), 0])
            return det_grid(*args)

        def counted_pass(nu0, x, *args):
            calls[-1][1] += x.size
            return ladders(nu0, x, *args)

        monkeypatch.setattr(radial, "_det_grid", counted_det)
        monkeypatch.setattr(determinant, "_ladders", counted_pass)
        experiments.counting_experiment(dim, math.pi, 0.75, COUNT_XS)
        return calls

    def test_a_count_without_a_tie_makes_one_determinant_call(self, monkeypatch):
        # no window end of the default dim-2 count is a root to within
        # EXACT_HIT_TOL, so there is no tie to count again and no polish
        # (the tie count was a second call over 0 points)
        assert [points for points, _ in self.count_calls(monkeypatch, 2)] == [163]

    def test_the_orders_of_a_window_share_their_ladders(self, monkeypatch):
        # the sample call lists its points window after window, so the
        # orders of one window end share a ladder per block of 16 orders
        # and wave: 22 ladders (284, one per point and wave, order by order)
        (points, ladders), *_ = self.count_calls(monkeypatch, 3)
        assert points == 160
        assert ladders <= 24

    def test_other_balls_are_rejected(self):
        with pytest.raises(ValidationError, match="Helmholtz ball with 0 < v0 < 1"):
            te_counts_up_to(RadialProblem(S, 3, 1.0, 4.0), [50.0], [2])


class TestRootFreeZone:
    """Below (b(nu)/R)^2, b(nu) = max(nu, 2 (nu+1)^(1/2) (nu+2)^(1/4)), the
    exterior argument is below the first Bessel zero and no scan looks."""

    @pytest.mark.parametrize("nu0, dim", [(-0.5, 1), (0.0, 2), (0.5, 3)])
    def test_bound_lies_below_the_first_bessel_zero(self, nu0, dim):
        bounds = np.sqrt(radial._root_free_below(dim, np.arange(101)))
        for ell, b in enumerate(bounds.tolist()):
            assert b >= nu0 + ell
            assert (bessel_j(nu0 + ell, b * np.arange(1, 1001) / 1000) > 0.0).all()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_orders_above_the_adaptive_cutoff_are_root_free(self, dim):
        # an order above the cutoff has nu >= sqrt(mu) + 2, and its bound
        # is at least nu^2; D keeps one sign on the order's grid up to mu
        for mu in np.geomspace(1e-3, 4e4, 60):
            ell = radial.adaptive_ell_max(dim, mu) + 1
            assert radial._root_free_below(dim, [ell])[0] >= mu
        for mu in (10.0, 1000.0, 39000.0):
            ell = radial.adaptive_ell_max(dim, mu) + 1
            grid = np.linspace(radial.LAMBDA_FLOOR, mu, 400)
            values = _det_grid(H, dim, 0.75, np.full(grid.size, float(ell)), grid)
            assert values[0] != 0.0
            assert (np.sign(values) == np.sign(values[0])).all()

    @pytest.mark.parametrize(
        "kind, dim, radius, v0, windows, steps",
        [(H, dim, math.pi, 0.75, [50.0, 100.0, 200.0, 400.0], 400) for dim in (1, 2, 3)]
        + [(S, dim, 0.5, 40.0, [100.0], 800) for dim in (1, 3)],
        ids=["count-dim1", "count-dim2", "count-dim3", "hypothesis-dim1", "hypothesis-dim3"],
    )
    def test_skipped_points_keep_one_sign(self, kind, dim, radius, v0, windows, steps):
        # every grid point of the scans before the zone (each window alone
        # from lambda R^2 = 1e-6, on the unit ball) at or below its order's bound
        unit, mus, _ = RadialProblem(kind, dim, radius, v0).unit_ball(windows)
        ell_max = [radial.adaptive_ell_max(dim, mu) if kind is H else 0 for mu in mus]
        ells, lams = [], []
        for mu, top in zip(mus, ell_max):
            grid = np.linspace(radial.LAMBDA_FLOOR, mu, steps)
            orders = np.arange((top if dim > 1 else min(top, 1)) + 1)
            for ell, bound in zip(orders, radial._root_free_below(dim, orders)):
                below = grid[(grid > radial.LAMBDA_FLOOR) & (grid <= bound)]
                ells.append(np.full(below.size, ell))
                lams.append(below)
        ells, lams = np.concatenate(ells), np.concatenate(lams)
        values = _det_grid(kind, dim, unit.v0, ells, lams)
        assert (np.abs(values) >= radial.EXACT_HIT_TOL).all()
        for ell in np.unique(ells):
            signs = np.sign(values[ells == ell])
            assert (signs == signs[0]).all()
        assert lams.size


def listed_unit_roots(dim):
    """The unit-ball roots (lambda R^2) and orders of the listing of the
    count's largest window on the dim-``dim`` ball, in ascending order."""
    base = RadialProblem(H, dim, math.pi, 0.75)
    r2 = math.pi * math.pi
    listed = te_list_up_to(base, 400.0, radial.adaptive_ell_max(dim, 400.0 * r2))
    roots = sorted((lam, ell) for lam, ell, *_ in listed)
    return np.array([r for r, _ in roots]) * r2, np.array([ell for _, ell in roots], dtype=float)


class TestPolishStencil:
    """Every root is polished on the one 16-point stencil from its first
    round: the stencil alone decides which roots are simple."""

    @pytest.mark.parametrize("dim, not_simple", [(1, 10), (2, 0), (3, 10)])
    def test_non_simple_roots_of_each_listing(self, dim, not_simple):
        # the polish runs on the unit ball: each root at lambda R^2
        mu, ells = listed_unit_roots(dim)
        h = 2e-3 * np.maximum(1.0, np.abs(mu))
        stencil = np.array(radial._POLISH_STENCIL, dtype=float)
        points = (mu[:, None] + stencil * h[:, None]).ravel()
        samples = _det_grid(H, dim, 0.75, np.repeat(ells, stencil.size), points)
        samples = samples.reshape(mu.size, stencil.size)
        assert (radial._multiplicity(samples) != 1).sum() == not_simple

    def test_simple_roots_cost_one_call_and_stay(self):
        # the dim-2 listing's roots are all simple: one call samples their
        # 16-point stencils, and no root moves
        mu, ells = listed_unit_roots(2)
        sizes = []

        def det(ell, lam):
            sizes.append(lam.size)
            return _det_grid(H, 2, 0.75, ell, lam)

        polished = radial._polish_roots(det, ells, mu)
        assert sizes == [16 * mu.size]
        assert polished.tolist() == mu.tolist()

    def test_no_roots_make_no_determinant_call(self, monkeypatch):
        def det(ells, lam):
            raise AssertionError("a determinant call without a root")

        assert radial._polish_roots(det, np.zeros(0), np.zeros(0)).size == 0
        # so first_te's windows without a root (lambda R^2 up to 4.9, 9.8,
        # 19.6 and 39.2 here) cost their grid call alone
        sizes = []
        det_grid = radial._det_grid

        def counted(*args):
            sizes.append(np.size(args[-1]))
            return det_grid(*args)

        monkeypatch.setattr(radial, "_det_grid", counted)
        assert radial.first_te(RadialProblem(H, 1, math.pi, 0.75)) == pytest.approx(4.0)
        assert min(sizes) > 0

    def test_unclean_or_non_finite_rows_are_not_simple(self):
        t = 0.1 * np.array(radial._POLISH_STENCIL, dtype=float)
        noisy, holed = t.copy(), t.copy()
        noisy[0], holed[9] = 1e-12, np.nan
        rows = np.array([t, noisy, holed])
        assert radial._multiplicity(rows).tolist() == [1, 0, 0]

    def test_odd_order_from_dyadic_ratios(self):
        # sign(t)|t|^p sampled around its root: odd p >= 3 is the order, an
        # even p or no sign change is simple
        t = 0.1 * np.array(radial._POLISH_STENCIL, dtype=float)
        rows = np.array([t, t**3, t**5, np.sign(t) * t**4, t**2, -(t**3)])
        assert radial._multiplicity(rows).tolist() == [1, 3, 5, 1, 1, 3]


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
        # every stencil the listing of the count's largest window fits
        # (hand-offs and both polish rounds)
        seen = []
        fit_roots = radial._fit_roots

        def recorded(samples, h, m):
            shift = fit_roots(samples, h, m)
            seen.extend(zip(samples, h, m, shift))
            return shift

        monkeypatch.setattr(radial, "_fit_roots", recorded)
        list_count_window()
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


class TestTEList:
    def test_1d_contains_four(self):
        base = RadialProblem(H, 1, math.pi, 0.75)
        tl = te_list_up_to(base, 4.5, 0)
        assert any(abs(lam - 4.0) < 1e-8 and ell == 0 and deg == 1 for lam, ell, deg, *_ in tl)

    def test_3d_contains_four(self):
        base = RadialProblem(H, 3, math.pi, 0.75)
        tl = te_list_up_to(base, 4.5, 0)
        assert any(abs(lam - 4.0) < 1e-8 for lam, *_ in tl)

    def test_empty_below_first_root(self):
        base = RadialProblem(H, 1, math.pi, 0.75)
        assert te_list_up_to(base, 2.0, 1) == ()

    def test_sorted_and_positive(self):
        base = RadialProblem(H, 3, math.pi, 0.75)
        tl = te_list_up_to(base, 40.0, 4)
        lams = [lam for lam, *_ in tl]
        assert lams == sorted(lams)
        assert all(lam > 0 for lam in lams)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "kind, radius, v0, ell_max, steps",
        [(H, math.pi, 0.75, 6, 400), (S, 1.0, 30.0, 4, 25)],
        ids=["helmholtz", "schrodinger-alias-rescan"],
    )
    def test_entries_stay_in_their_window(self, dim, kind, radius, v0, ell_max, steps):
        # every root and the end of its bracket lie above its order's
        # root-free zone and the bracket ends at or below x; only the
        # orders up to top_order are listed, each with its degeneracy
        x = 100.0
        listed = te_list_up_to(RadialProblem(kind, dim, radius, v0), x, ell_max, steps)
        assert len(listed) >= 3
        for lam, ell, deg, left, right in listed:
            assert ell <= radial.top_order(dim, ell_max)
            assert deg == harmonic_multiplicity(dim, ell)
            assert radial._root_free_below(dim, [ell])[0] < min(lam, right) * radius**2
            assert left <= right <= x * (1.0 + 1e-15)

    @pytest.mark.parametrize("eps", [0.5, 0.25])
    @pytest.mark.parametrize("dim,ell_max", [(1, 1), (3, 3)])
    def test_dilation_scaling(self, eps, dim, ell_max):
        base = te_list_up_to(RadialProblem(H, dim, math.pi, 0.75), 40.0, ell_max)
        scaled = te_list_up_to(
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
            listed = te_list_up_to(ball, top / radius**2, 3)
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
            tl = te_list_up_to(RadialProblem(H, 1, radius, v0), 100.0 * lam1, 1)
            assert len(tl) > 3

    def test_first_te_is_the_first_listed_root(self):
        # the default dim-1 ball's first TE is exactly 4 (lambda = 4 m^2, m = 1);
        # first_te's unit-ball windows double from twice the order-0 bound
        # 2.449 and list no root up to 39.19, then the root 4 pi^2 up to 78.38
        ball = RadialProblem(H, 1, math.pi, 0.75)
        unit, _, r2 = ball.unit_ball([])
        assert abs(first_te(ball) - 4.0) <= 1e-14
        end = 32.0 * radial._root_free_below(1, [0])[0]
        assert te_list_up_to(unit, end / 2.0, 0) == ()
        assert first_te(ball) == te_list_up_to(unit, end, 0)[0][0] / r2

    def test_weighted_count(self):
        # the counting experiment's N(x) is the degeneracy sum of the list up to x
        base = RadialProblem(H, 3, math.pi, 0.75)
        xs = [20.0, 30.0]
        lists = [te_list_up_to(base, x, 2) for x in xs]
        manual = [sum(d for lam, _, d, *_ in tl if lam <= x) for x, tl in zip(xs, lists)]
        result = experiments.counting_experiment(3, math.pi, 0.75, xs, ell_max=2)
        assert [row[1] for row in result["tables"][0]["rows"]] == manual
