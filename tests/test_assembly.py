import math

import numpy as np
import pytest

from teig.assembly import (
    ClampedBasis,
    assemble,
    assemble_A,
    bspline_ders,
    gauss_legendre,
)
from teig.errors import OrderOutOfRange
from teig.model import Agmon, Constant, PowerDecay, ProblemKind, Unweighted

from form_oracle import direct_form_value
from pencil import spectrum

QUAD = gauss_legendre(8)


class TestGaussLegendre:
    def test_order_one(self):
        nodes, weights = gauss_legendre(1)
        assert nodes.tolist() == [0.0]
        assert weights.tolist() == [2.0]

    def test_order_two(self):
        nodes, weights = gauss_legendre(2)
        assert nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-14)
        assert weights == pytest.approx([1.0, 1.0], abs=1e-14)

    def test_monomial_exactness(self):
        xs, ws = gauss_legendre(4)
        assert np.sum(ws * xs**6) == pytest.approx(2.0 / 7.0, abs=1e-14)

    @pytest.mark.parametrize("q", [3, 5, 8, 16])
    def test_exact_through_degree_2q_minus_1(self, q):
        xs, ws = gauss_legendre(q)
        for deg in range(0, 2 * q):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert np.sum(ws * xs**deg) == pytest.approx(exact, abs=1e-12)

    def test_symmetric(self):
        nodes, weights = gauss_legendre(9)
        assert np.allclose(nodes, -nodes[::-1], atol=0)
        assert np.allclose(weights, weights[::-1], atol=0)

    def test_is_numpy_leggauss_bit_for_bit(self):
        for q in range(1, 65):
            nodes, weights = gauss_legendre(q)
            want_nodes, want_weights = np.polynomial.legendre.leggauss(q)
            assert nodes.tobytes() == want_nodes.tobytes(), q
            assert weights.tobytes() == want_weights.tobytes(), q

    def test_order_bounds(self):
        with pytest.raises(OrderOutOfRange):
            gauss_legendre(0)
        with pytest.raises(OrderOutOfRange):
            gauss_legendre(65)


class TestClampedBasis:
    def test_dimensions(self):
        assert ClampedBasis([(0.0, 1.0)], 4).dim == 3
        assert ClampedBasis([(0.0, 1.0), (2.0, 3.0)], 8).dim == 14

    def test_partition_of_unity_at_quad_nodes(self):
        basis = ClampedBasis([(0.0, 2.0), (3.0, 3.5)], 8)
        for entry in basis.tables(QUAD):
            total = np.sum(entry["val"], axis=2)
            assert np.max(np.abs(total - 1.0)) < 1e-13

    def test_bspline_integrals_match_closed_form(self):
        # every cubic B-spline integrates to (t_{i+4} - t_i) / 4
        basis = ClampedBasis([(0.0, 1.0)], 8)
        entry = basis.tables(QUAD)[0]
        knots = basis.knots / basis.cells  # the interval (0, 1)
        n_splines = len(knots) - 4
        integrals = np.zeros(n_splines)
        for c in range(basis.cells):
            for k in range(4):
                integrals[c + k] += np.sum(entry["w"][c] * entry["val"][c][:, k])
        analytic = np.array([(knots[i + 4] - knots[i]) / 4.0 for i in range(n_splines)])
        assert np.max(np.abs(integrals - analytic)) < 1e-13

    def test_clamped_end_conditions(self):
        basis = ClampedBasis([(0.0, 2.0)], 12)
        knots = basis.knots * (2.0 / 12)
        local = basis.tables(QUAD)[0]["local"]
        for x, cell in ((0.0, 0), (2.0, 11)):
            ders = bspline_ders(knots, cell + 3, np.array([x]))[:, 0]
            for k in range(4):
                if local[cell, k] >= 0:
                    assert abs(ders[0][k]) < 1e-13
                    assert abs(ders[1][k]) < 1e-13

    def test_c2_continuity_at_knots(self):
        basis = ClampedBasis([(0.0, 1.0)], 8)
        h = 1.0 / 8
        knots = basis.knots * h  # physical units on (0, 1)
        for cell_boundary in range(1, 8):
            x = cell_boundary * h
            # splines cell_boundary - 1 .. cell_boundary + 3 around the knot
            left = np.zeros((3, 5))
            right = np.zeros((3, 5))
            left[:, :4] = bspline_ders(knots, cell_boundary + 2, np.array([x - 1e-12]))[:, 0]
            right[:, 1:] = bspline_ders(knots, cell_boundary + 3, np.array([x + 1e-12]))[:, 0]
            assert np.max(np.abs(left - right)) < 1e-7  # value, d1, d2 all continuous

    def test_disjoint_interval_supports(self):
        basis = ClampedBasis([(0.0, 1.0), (2.0, 3.0)], 6)
        for entry in basis.tables(QUAD):
            local = entry["local"]
            assert local.min() >= -1 and local.max() < basis.per_interval
            assert set(local[local >= 0].tolist()) == set(range(basis.per_interval))


class TestAssemble:
    def test_constant_potential_minv_scaling(self):
        basis = ClampedBasis([(0.0, 1.0)], 8)
        (m,) = assemble(basis, Constant(0.75), Unweighted(), QUAD)
        assert np.max(np.abs(m.Minv - m.M / 0.75)) < 1e-12

    def test_unweighted_mw_equals_m(self):
        basis = ClampedBasis([(0.0, 1.0)], 8)
        (m,) = assemble(basis, Constant(0.75), Unweighted(), QUAD)
        assert np.array_equal(m.Mw, m.M)

    def test_all_symmetric(self):
        # the construction itself is exactly symmetric; nothing re-symmetrizes it
        inputs = [(PowerDecay(1.0, 4.0), Agmon(4.0)), (Constant(0.75), Unweighted())]
        for potential, weight in inputs:
            for intervals in ([(-math.pi, math.pi)], [(0.0, 1.0), (2.0, 2.5)]):
                basis = ClampedBasis(intervals, 32)
                for m in assemble(basis, potential, weight, QUAD):
                    for mat in (m.S, m.C, m.K, m.M, m.Minv, m.Mw):
                        assert np.max(np.abs(mat - mat.T)) == 0.0

    def test_blocks_match_single_interval_assembly(self):
        # block-local indexing: each block equals its interval assembled alone
        intervals = [(0.0, 1.0), (2.0, 2.5), (3.0, 3.25)]
        pot, weight = PowerDecay(1.0, 4.0), Agmon(4.0)
        blocks = assemble(ClampedBasis(intervals, 12), pot, weight, QUAD)
        assert len(blocks) == 3
        for interval, block in zip(intervals, blocks):
            (alone,) = assemble(ClampedBasis([interval], 12), pot, weight, QUAD)
            assert block.dim == 11
            for name in ("S", "C", "K", "M", "Minv", "Mw"):
                assert np.array_equal(getattr(block, name), getattr(alone, name)), name

    def test_positive_definite_blocks(self):
        basis = ClampedBasis([(-1.0, 2.0)], 16)
        (m,) = assemble(basis, PowerDecay(2.0, 3.0), Agmon(3.0), QUAD)
        for mat in (m.S, m.K, m.M, m.Minv, m.Mw):
            low = spectrum(mat, np.eye(m.dim))[0]
            assert low > 0

    def test_agmon_weight_increases_mass(self):
        basis = ClampedBasis([(1.0, 3.0)], 8)
        (plain,) = assemble(basis, Constant(1.0), Unweighted(), QUAD)
        (weighted,) = assemble(basis, Constant(1.0), Agmon(4.0), QUAD)
        diff = weighted.Mw - plain.M
        low = spectrum(diff, np.eye(plain.dim))[0]
        assert low > 0  # w > 1 away from the origin


class TestAssembleA:
    def setup_method(self):
        self.basis = ClampedBasis([(-math.pi, math.pi)], 16)
        (self.m,) = assemble(self.basis, Constant(0.75), Unweighted(), QUAD)

    def test_schrodinger_at_zero(self):
        A = assemble_A(self.m, ProblemKind.SCHRODINGER, 0.0)
        assert np.array_equal(A, self.m.S + self.m.K)

    def test_helmholtz_at_zero(self):
        A = assemble_A(self.m, ProblemKind.HELMHOLTZ, 0.0)
        assert np.array_equal(A, self.m.S)

    def test_expanded_form_identity(self):
        rng = np.random.default_rng(1234)
        for pot, weight, intervals in (
            (Constant(0.75), Unweighted(), [(-math.pi, math.pi)]),
            (PowerDecay(1.0, 4.0), Agmon(4.0), [(0.0, 1.0), (2.0, 2.5)]),
        ):
            basis = ClampedBasis(intervals, 12)
            blocks = assemble(basis, pot, weight, QUAD)
            for kind in (ProblemKind.SCHRODINGER, ProblemKind.HELMHOLTZ):
                for lam in (-1.0, 0.0, 0.7, 3.2):
                    A = [assemble_A(m, kind, lam) for m in blocks]
                    for _ in range(13):
                        u = rng.standard_normal(basis.dim)
                        ub = u.reshape(len(blocks), -1)
                        lhs = sum(float(v @ Ab @ v) for v, Ab in zip(ub, A))
                        rhs = direct_form_value(basis, pot, kind, u, lam, QUAD)
                        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))

    def test_schrodinger_positive_for_nonpositive_lambda(self):
        for lam in (-2.0, -0.5, 0.0):
            A = assemble_A(self.m, ProblemKind.SCHRODINGER, lam)
            low = spectrum(A, np.eye(self.m.dim))[0]
            assert low > 0

    def test_helmholtz_positive_at_zero(self):
        A = assemble_A(self.m, ProblemKind.HELMHOLTZ, 0.0)
        low = spectrum(A, np.eye(self.m.dim))[0]
        assert low > 0


class TestDirectFormValue:
    def test_zero_vector(self):
        basis = ClampedBasis([(0.0, 1.0)], 8)
        val = direct_form_value(
            basis, Constant(1.0), ProblemKind.SCHRODINGER, np.zeros(basis.dim), 1.0, QUAD
        )
        assert val == 0.0

    def test_quadratic_homogeneity(self):
        basis = ClampedBasis([(0.0, 1.0)], 8)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(basis.dim)
        v1 = direct_form_value(basis, Constant(0.5), ProblemKind.HELMHOLTZ, u, 2.0, QUAD)
        v2 = direct_form_value(basis, Constant(0.5), ProblemKind.HELMHOLTZ, 2.0 * u, 2.0, QUAD)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


class TestRefinementConvergence:
    def test_energy_error_decreases_monotonically(self):
        # project a fixed smooth clamped function and watch u^T A u converge
        pot = Constant(0.75)
        kind = ProblemKind.SCHRODINGER
        lam = 0.7

        def smooth(x):
            return (math.sin(x) ** 2) * (math.pi**2 - x**2) ** 2 / 40.0

        def energy(cells):
            basis = ClampedBasis([(-math.pi, math.pi)], cells)
            (m,) = assemble(basis, pot, Unweighted(), QUAD)
            # L2 projection of the smooth target onto the clamped space
            rhs = np.zeros(basis.dim)
            for entry in basis.tables(QUAD):
                for c in range(entry["x"].shape[0]):
                    for k in range(4):
                        g = entry["local"][c][k]
                        if g >= 0:
                            fx = np.array([smooth(x) for x in entry["x"][c]])
                            rhs[g] += np.sum(entry["w"][c] * fx * entry["val"][c][:, k])
            coeff = np.linalg.solve(m.M, rhs)
            A = assemble_A(m, kind, lam)
            return float(coeff @ A @ coeff)

        reference = energy(128)
        errors = [abs(energy(c) - reference) for c in (16, 32, 64)]
        assert errors[0] > errors[1] > errors[2]
