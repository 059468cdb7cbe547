import math

import numpy as np
import pytest

from teig.errors import ArgumentOutOfRange, NonPositiveArgument
from teig.specfun import (
    Branch,
    RadialWave,
    _i_triplet,
    _j_triplet,
    _miller_triplet,
    _series_triplet,
    bessel_i,
    bessel_j,
    gamma_real,
)

import scalar_oracle


def j_half_closed(x):
    return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)


def j_minus_half_closed(x):
    return math.sqrt(2.0 / (math.pi * x)) * math.cos(x)


class TestGamma:
    def test_half(self):
        assert gamma_real(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_one(self):
        assert gamma_real(1.0) == pytest.approx(1.0, rel=1e-12)

    def test_factorial(self):
        assert gamma_real(4.0) == pytest.approx(6.0, rel=1e-12)

    def test_recurrence(self):
        for x in (0.3, 1.7, 9.25, 41.0):
            assert gamma_real(x + 1.0) == pytest.approx(x * gamma_real(x), rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveArgument):
            gamma_real(0.0)
        with pytest.raises(NonPositiveArgument):
            gamma_real(-1.5)

    def test_overflow_is_typed(self):
        assert math.isfinite(gamma_real(171.0))
        with pytest.raises(ArgumentOutOfRange):
            gamma_real(172.0)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.5, 0.0) == 0.0

    def test_half_order_closed_form(self):
        x = math.pi / 2
        assert bessel_j(0.5, x) == pytest.approx(2.0 / math.pi, rel=1e-12)

    def test_first_zero_of_j0(self):
        # bisection on the implementation itself
        lo, hi = 2.0, 3.0
        flo = bessel_j(0.0, lo)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            fm = bessel_j(0.0, mid)
            if flo * fm > 0:
                lo, flo = mid, fm
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.4048255577, abs=1e-8)
        # independent cross-check: trapezoidal integral representation
        # (1/pi) * int_0^pi cos(x sin t) dt changes sign across the root
        theta = np.linspace(0.0, math.pi, 5000)

        def j0_quad(x):
            return np.trapezoid(np.cos(x * np.sin(theta)), theta) / math.pi

        assert j0_quad(root - 1e-4) > 0 > j0_quad(root + 1e-4)

    def test_closed_form_consistency_sweep(self):
        xs = np.linspace(0.1, 50.0, 500)
        for x in xs:
            for nu, closed in ((0.5, j_half_closed(x)), (-0.5, j_minus_half_closed(x))):
                assert bessel_j(nu, float(x)) == pytest.approx(closed, rel=1e-9)

    def test_three_term_recurrence(self):
        for nu in (0.5, 1.0, 1.5, 2.0):
            for x in np.linspace(0.5, 40.0, 120):
                lhs = bessel_j(nu - 1.0, float(x)) + bessel_j(nu + 1.0, float(x))
                rhs = 2.0 * nu / x * bessel_j(nu, float(x))
                scale = max(abs(lhs), abs(rhs), 1e-12)
                assert abs(lhs - rhs) <= 1e-8 * scale

    def test_derivative_identity_vs_finite_differences(self):
        # d/dx [x^nu J_nu(x)] = x^nu J_{nu-1}(x)
        h = 1e-5
        for nu in (0.5, 1.0, 2.5):
            for x in (0.8, 3.3, 17.0, 33.5):
                fd = ((x + h) ** nu * bessel_j(nu, x + h) - (x - h) ** nu * bessel_j(nu, x - h)) / (
                    2 * h
                )
                exact = x**nu * bessel_j(nu - 1.0, x)
                assert fd == pytest.approx(exact, rel=1e-8, abs=1e-8)

    def test_miller_retry_matches_series(self):
        # at (nu=300, x=50) the trial ladder from a 1e-30 seed grows past the
        # largest double, so it only finishes because it is rescaled as it
        # runs; the series converges there (x^2 < 2(nu+1)) and serves as
        # reference
        nu, x = np.array([300.0]), np.array([50.0])
        miller = _miller_triplet(nu, x)
        series = _series_triplet(nu, x, -1.0)
        for m, s in zip(miller[:, 0], series[:, 0]):
            assert m == pytest.approx(s, rel=1e-13)

    def test_miller_rescales_where_the_retry_loop_gave_up(self):
        # the scalar ladder's four seeds all overflow at (nu=300, x=24.7) and
        # it returns zeros; the rescaled ladder agrees with the series
        nu, x = 300.0, 24.7
        assert scalar_oracle.miller_triplet(nu, x, 14.0 + 6.0 * x ** (1.0 / 3.0)) == (0, 0, 0)
        miller = _miller_triplet(np.array([nu]), np.array([x]))[:, 0]
        series = scalar_oracle.series_triplet(nu, x, -1.0)
        assert miller.tolist() == pytest.approx(series, rel=1e-13)

    def test_window_enforced(self):
        with pytest.raises(ArgumentOutOfRange):
            bessel_j(0.0, 200.5)
        with pytest.raises(ArgumentOutOfRange):
            bessel_j(-0.75, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            bessel_j(0.0, -1.0)


class TestArrayKernels:
    """The array triplets against the scalar reference implementation."""

    NUS = (-0.5, 0.0, 0.5, 1.0, 2.5, 12.5, 31.5, 64.5, 100.0)

    def test_series_is_the_scalar_series(self):
        # the same operations in the same order at the integer and
        # half-integer orders the oracle uses, so bit-equal
        x = np.linspace(0.05, 12.0, 60)
        for nu in self.NUS:
            for sign in (-1.0, 1.0):
                got = _series_triplet(np.full(x.shape, nu), x, sign)
                want = [scalar_oracle.series_triplet(nu, float(v), sign) for v in x]
                assert got.T.tolist() == [list(t) for t in want]

    def test_j_triplet_matches_scalar_reference(self):
        x = np.linspace(0.05, 200.0, 400)
        nu = np.repeat(self.NUS, x.size)
        xs = np.tile(x, len(self.NUS))
        got = _j_triplet(nu, xs)
        for i in range(xs.size):
            want = scalar_oracle.j_triplet(float(nu[i]), float(xs[i]))
            scale = max(abs(v) for v in want)
            assert max(abs(g - w) for g, w in zip(got[:, i], want)) <= 1e-13 * scale

    def test_i_triplet_is_the_i_series(self):
        x = np.linspace(0.05, 60.0, 50)
        got = _i_triplet(np.full(x.shape, 3.5), x)
        assert np.array_equal(got, _series_triplet(np.full(x.shape, 3.5), x, 1.0))


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0.0, 0.0) == 1.0

    def test_half_order_closed_form(self):
        assert bessel_i(0.5, 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) * math.sinh(1.0), rel=1e-10
        )

    def test_direct_series_value(self):
        # 30-term reference summation, written out independently
        total = 0.0
        for m in range(30):
            total += (0.25) ** m / (math.factorial(m) ** 2)
        assert bessel_i(0.0, 1.0) == pytest.approx(total, abs=1e-9)

    def test_cosh_closed_form_sweep(self):
        for x in np.linspace(0.1, 50.0, 200):
            closed = math.sqrt(2.0 / (math.pi * x)) * math.cosh(x)
            assert bessel_i(-0.5, float(x)) == pytest.approx(closed, rel=1e-10)

    def test_window_enforced(self):
        with pytest.raises(ArgumentOutOfRange):
            bessel_i(0.0, 60.5)


class TestRadialWave:
    def test_3d_node_at_pi(self):
        from teig.specfun import radial_wave

        w = RadialWave(3, 0)
        val, _ = radial_wave(w, 1.0, math.pi)
        assert abs(val) < 1e-14  # proportional to sin(pi)/pi

    def test_1d_cosine_mode(self):
        from teig.specfun import radial_wave

        w = RadialWave(1, 0)
        val, der = radial_wave(w, 2.0, math.pi)
        c = math.sqrt(2.0 / (math.pi * 2.0))
        assert val == pytest.approx(c * math.cos(2 * math.pi), rel=1e-12)
        assert der == pytest.approx(0.0, abs=1e-12)
        assert val > 0

    def test_2d_origin_limit(self):
        from teig.specfun import radial_wave

        w = RadialWave(2, 0)
        val, _ = radial_wave(w, 1.0, 1e-8)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_evanescent_branch(self):
        from teig.specfun import radial_wave

        w = RadialWave(1, 0, Branch.EVANESCENT)
        k, r = 0.8, 2.0
        val, der = radial_wave(w, k, r)
        c = math.sqrt(2.0 / (math.pi * k))
        assert val == pytest.approx(c * math.cosh(k * r), rel=1e-12)
        assert der == pytest.approx(c * k * math.sinh(k * r), rel=1e-12)

    def test_derivative_matches_finite_differences(self):
        from teig.specfun import radial_wave

        h = 1e-6
        for dim, ell in ((1, 0), (1, 1), (2, 0), (2, 3), (3, 0), (3, 2)):
            w = RadialWave(dim, ell)
            for k, r in ((1.3, 2.0), (4.0, 1.1)):
                _, der = radial_wave(w, k, r)
                vp, _ = radial_wave(w, k, r + h)
                vm, _ = radial_wave(w, k, r - h)
                assert der == pytest.approx((vp - vm) / (2 * h), rel=2e-7, abs=1e-9)
