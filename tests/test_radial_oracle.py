import math

import pytest

from teig.errors import (
    ArgumentOutOfRange,
    DegenerateInterior,
    HelmholtzContrastDegenerate,
    UnsupportedDimension,
    ValidationError,
)
from teig.model import ProblemKind
from teig.radial import (
    RadialProblem,
    _scan_determinant,
    characteristic_determinant,
    first_te,
    harmonic_multiplicity,
    interior_wavenumber,
    scan_roots,
    te_list_up_to,
)
from teig.specfun import Branch

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
        p = RadialProblem(H, 1, math.pi, 0.75, 0)
        assert abs(characteristic_determinant(p, 4.0)) < 1e-10

    def test_3d_closed_form_zero(self):
        p = RadialProblem(H, 3, math.pi, 0.75, 0)
        assert abs(characteristic_determinant(p, 4.0)) < 1e-10

    def test_nonzero_off_eigenvalue(self):
        p = RadialProblem(H, 1, math.pi, 0.75, 0)
        assert abs(characteristic_determinant(p, 3.0)) > 1e-3

    def test_continuity_across_schrodinger_branch(self):
        p = RadialProblem(S, 3, 1.0, 1.0, 0)
        below = characteristic_determinant(p, 1.0 - 1e-6)
        above = characteristic_determinant(p, 1.0 + 1e-6)
        assert below == pytest.approx(above, abs=1e-4)

    def test_degenerate_contrast_rejected_upstream(self):
        with pytest.raises(HelmholtzContrastDegenerate):
            RadialProblem(H, 1, 1.0, 1.0, 0)

    def test_nonpositive_v0_rejected(self):
        from teig.errors import NonPositivePotential

        with pytest.raises(NonPositivePotential):
            RadialProblem(H, 1, 1.0, 0.0, 0)
        with pytest.raises(NonPositivePotential):
            RadialProblem(S, 3, 1.0, -0.5, 0)

    def test_lambda_must_be_positive(self):
        p = RadialProblem(H, 1, math.pi, 0.75, 0)
        with pytest.raises(ArgumentOutOfRange):
            characteristic_determinant(p, 0.0)

    @pytest.mark.parametrize("radius, v0", [(math.inf, 0.75), (math.nan, 0.75),
                                            (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_inputs_rejected(self, radius, v0):
        with pytest.raises(ValidationError):
            RadialProblem(H, 1, radius, v0, 0)

    def test_outside_window_raises(self):
        p = RadialProblem(H, 3, 20.0, 0.75, 0)
        assert math.isfinite(characteristic_determinant(p, 90.0))
        with pytest.raises(ArgumentOutOfRange):
            characteristic_determinant(p, 101.0)  # sqrt(lambda) R > 200


class TestBesselWindow:
    """A scan whose window ends leave the Bessel window fails before scanning
    (the exterior limit is covered by the CLI tests)."""

    def test_interior_oscillatory_past_window(self):
        # Schrodinger with v0 < 0 is not a ball problem, but kappa R > 200
        # at the top with sqrt(lambda) R < 200 needs kappa^2 > lambda
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            _scan_determinant(S, 1, 10.0, -200.0, 0, 1e-6, 300.0, 50, 1e-8)

    def test_interior_evanescent_past_window(self):
        # Schrodinger below v0: |kappa| R = sqrt(v0 - lambda) R > 60 at the bottom
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            _scan_determinant(S, 1, 1.0, 4000.0, 0, 1e-6, 10.0, 50, 1e-8)
        # Helmholtz with v0 > 1: |kappa| R = sqrt(lambda (v0 - 1)) R > 60 at the top
        with pytest.raises(ArgumentOutOfRange, match="interior"):
            _scan_determinant(H, 1, 1.0, 5.0, 0, 1e-6, 1000.0, 50, 1e-8)


class TestScanRoots:
    def test_affine(self):
        roots = scan_roots(lambda x: x - 2.0, 0.0, 5.0, 10, 1e-9)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(2.0, abs=1e-9)

    def test_determinant_contains_four(self):
        p = RadialProblem(H, 1, math.pi, 0.75, 0)
        roots = scan_roots(
            lambda lam: characteristic_determinant(p, lam), 0.5, 5.0, 400, 1e-10
        )
        assert any(abs(r - 4.0) < 1e-8 for r, _ in roots)

    def test_no_roots(self):
        assert scan_roots(lambda x: x * x + 1.0, -3.0, 3.0, 50, 1e-9) == []

    def test_exact_grid_hit(self):
        roots = scan_roots(lambda x: x, -1.0, 1.0, 21, 1e-9)
        assert len(roots) == 1
        root, (left, right) = roots[0]
        assert root == 0.0 and left == right == 0.0

    def test_rejects_bad_window(self):
        from teig.errors import ValidationError

        with pytest.raises(ValidationError):
            scan_roots(lambda x: x, 1.0, 0.0, 10, 1e-9)


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
            lam1 = first_te(H, 1, radius, v0, ell_values=(0,))
            tl = te_list_up_to(RadialProblem(H, 1, radius, v0), 100.0 * lam1, 1)
            assert len(tl.entries) > 3

    def test_weighted_count(self):
        base = RadialProblem(H, 3, math.pi, 0.75)
        tl = te_list_up_to(base, 30.0, 2)
        manual = sum(d for lam, _, d in tl.entries if lam <= 20.0)
        assert tl.weighted_count(20.0) == manual
