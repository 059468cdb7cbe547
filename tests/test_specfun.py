import math

import numpy as np
import pytest

from teig.errors import ArgumentOutOfRange
from teig.specfun import _i_pair, bessel_j_min_arg

import scalar_oracle
from one_point import (
    Branch,
    NonPositiveArgument,
    RadialWave,
    _j_pair,
    bessel_i,
    bessel_j,
    gamma_real,
    ladder_zeros,
    radial_wave,
)


def j_half_closed(x):
    return np.sqrt(2.0 / (np.pi * x)) * np.sin(x)


def j_minus_half_closed(x):
    return np.sqrt(2.0 / (np.pi * x)) * np.cos(x)


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
        for nu, closed in ((0.5, j_half_closed(xs)), (-0.5, j_minus_half_closed(xs))):
            assert bessel_j(nu, xs) == pytest.approx(closed, rel=1e-9)

    def test_three_term_recurrence(self):
        x = np.linspace(0.5, 40.0, 120)
        for nu in (0.5, 1.0, 1.5, 2.0):
            lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
            rhs = 2.0 * nu / x * bessel_j(nu, x)
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-12)
            assert np.all(np.abs(lhs - rhs) <= 1e-8 * scale)

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

    def test_ladder_rescales_past_the_largest_double(self):
        # at (nu=300, x=50) the trial ladder from a 1e-30 seed grows past the
        # largest double, so it only finishes because it is rescaled as it
        # runs; the series converges there (x^2 < 2(nu+1)) and serves as
        # reference.  The two carry different positive scales, so their
        # ratios to J_nu are compared.
        ladder, _ = _j_pair(0.0, np.array([300.0]), np.array([50.0]))
        series = scalar_oracle.series_triplet(300.0, 50.0, -1.0)[1:]
        for m, s in zip(ladder[:, 0] / ladder[0, 0], [v / series[0] for v in series]):
            assert m == pytest.approx(s, rel=1e-13)

    def test_ladder_rescales_where_the_retry_loop_gave_up(self):
        # the scalar ladder's four seeds all overflow at (nu=300, x=24.7) and
        # it returns zeros; the rescaled ladder agrees with the series
        nu, x = 300.0, 24.7
        assert scalar_oracle.miller_triplet(nu, x, 14.0 + 6.0 * x ** (1.0 / 3.0)) == (0, 0, 0)
        ladder, _ = _j_pair(0.0, np.array([nu]), np.array([x]))
        series = scalar_oracle.series_triplet(nu, x, -1.0)[1:]
        got = (ladder[:, 0] / ladder[0, 0]).tolist()
        assert got == pytest.approx([v / series[0] for v in series], rel=1e-13)

    def test_window_enforced(self):
        with pytest.raises(ArgumentOutOfRange):
            bessel_j(0.0, 200.5)
        with pytest.raises(ArgumentOutOfRange):
            bessel_j(-0.75, 1.0)
        with pytest.raises(ArgumentOutOfRange):
            bessel_j(0.0, -1.0)


class TestArrayKernels:
    """The array pairs against rows F_nu, F_{nu+1} of the scalar reference
    implementation's triplets."""

    NUS = (-0.5, 0.0, 0.5, 1.0, 2.5, 12.5, 31.5, 64.5, 100.0)

    def test_series_is_the_scalar_series(self):
        # the same operations in the same order at the integer and
        # half-integer orders the oracle uses, so bit-equal
        x = np.linspace(0.05, 12.0, 60)
        for nu in self.NUS:
            got = _i_pair(np.full(x.shape, nu), x)
            want = [scalar_oracle.series_triplet(nu, float(v), 1.0)[1:] for v in x]
            assert got.T.tolist() == [list(t) for t in want]

    @staticmethod
    def unit_sup(pairs):
        """Pairs (2, points) scaled to unit sup per point."""
        t = np.asarray(pairs, dtype=float)
        return t / np.abs(t).max(axis=0)

    def test_j_triplet_matches_scalar_reference(self):
        # the ladder carries a positive scale of its own, so pairs are
        # compared at unit sup, to 1e-13 of it as before
        x = np.linspace(0.05, 200.0, 400)
        for nu in self.NUS:
            ell = math.floor(nu + 0.5)
            got, _ = _j_pair(nu - ell, np.full(x.size, float(ell)), x)
            want = [scalar_oracle.j_triplet(nu, float(v))[1:] for v in x]
            assert np.abs(self.unit_sup(got) - self.unit_sup(np.transpose(want))).max() <= 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_ladder_matches_series_across_the_old_switch(self, dim):
        # the retired series/Miller switch sat at x <= 8 or x^2 <= 2(nu + 1):
        # on the series side the ladder matches the series, on the other the
        # scalar Miller ladder, to 1e-13 of the pair's sup
        nu0 = 0.5 * (dim - 2)
        ells = np.arange(0.0, 81.0)
        xs = np.concatenate([np.geomspace(1e-4, 7.9, 25), np.linspace(8.0, 8.2, 5)])
        xs = np.concatenate([xs, np.sqrt(2.0 * (nu0 + ells[::8] + 1.0)) + 0.05])
        ell, x = (g.ravel() for g in np.meshgrid(ells, np.unique(xs), indexing="ij"))
        got, _ = _j_pair(nu0, ell, x)
        want = [scalar_oracle.j_triplet(nu0 + e, v)[1:] for e, v in zip(ell.tolist(), x.tolist())]
        series = (x <= 8.0) | (x * x <= 2.0 * (nu0 + ell + 1.0))
        assert series.sum() > 0.5 * x.size and (~series).sum() > 0.05 * x.size
        assert np.abs(self.unit_sup(got) - self.unit_sup(np.transpose(want))).max() <= 1e-13

    @pytest.mark.parametrize("nu0", [-0.5, 0.0, 0.5])
    def test_j_triplet_at_the_lower_bound(self, nu0):
        # at bessel_j_min_arg each ladder step stays within what the 2^-500
        # rescale absorbs (at orders 0-40 the ladders overflow from about
        # x = 1e-18 down); the pairs are finite and match the scalar
        # reference, which retries on overflow
        ell = np.arange(0.0, 41.0)
        x = bessel_j_min_arg(ell)
        got, _ = _j_pair(nu0, ell, x)
        assert np.isfinite(got).all()
        want = [scalar_oracle.j_triplet(nu0 + e, v)[1:] for e, v in zip(ell.tolist(), x.tolist())]
        assert np.abs(self.unit_sup(got) - self.unit_sup(np.transpose(want))).max() <= 1e-13

    def test_j_triplet_does_not_depend_on_the_batch(self):
        # grid rows (one ladder per argument and order block) and lone points
        # give the same bits, and the batch's other points change nothing
        x = np.linspace(0.5, 120.0, 31)
        ells = np.arange(0.0, 40.0)
        grid, grid_shift = _j_pair(0.5, np.tile(ells, x.size), np.repeat(x, ells.size))
        for i in (0, 7, 23):
            for ell in (0, 15, 16, 39):
                alone, shift = _j_pair(0.5, np.array([ell]), x[[i]])
                k = i * ells.size + int(ell)
                assert alone[:, 0].tolist() == grid[:, k].tolist()
                assert shift[0] == grid_shift[k]
        # high orders at small x rescale their ladders: a point whose rung
        # ell or ell + 1 is a rescale step reads the same bits alone.  Steps
        # are multiples of 8, and a rescale at step 8i shows as the shift of
        # order 8i exceeding the one of order 8i - 1 (0 below order 0)
        x = np.geomspace(1e-12, 0.5, 9)
        ells = np.arange(0.0, 96.0)
        for nu0 in (-0.5, 0.0, 0.5):
            grid, grid_shift = _j_pair(nu0, np.tile(ells, x.size), np.repeat(x, ells.size))
            steps = grid_shift.reshape(x.size, ells.size)
            rescaled = np.diff(steps, axis=1, prepend=0)[:, 0::8] > 0  # (x, step 8i)
            assert rescaled.sum() >= 10
            for i, step in zip(*np.nonzero(rescaled)):
                for ell in (8 * step - 1, 8 * step):  # rung ell + 1 or ell is the step
                    if ell < 0:
                        continue
                    alone, shift = _j_pair(nu0, np.array([float(ell)]), x[[i]])
                    k = i * ells.size + ell
                    assert alone[:, 0].tolist() == grid[:, k].tolist()
                    assert shift[0] == grid_shift[k]
                    assert np.isfinite(alone).all()

class TestLadderZeros:
    """The sign changes of a Miller ladder from rung ell up count the zeros
    of J_{nu0 + ell} below its argument (Ikebe 1975)."""

    @pytest.mark.parametrize("nu0", [-0.5, 0.0, 0.5])
    def test_equal_a_fine_sign_scan_of_j(self, nu0):
        # the zeros of J_nu lie more than 2 apart, so a scan in steps of
        # 0.02 sees each as one sign change; the points join the scan, so a
        # zero between the last scan point and a point is seen too
        rng = np.random.default_rng(11)
        scan = np.linspace(1e-3, 120.0, 6001)
        for ell in range(61):
            t = rng.uniform(0.1, 120.0, 20)
            grid = np.union1d(scan, t)
            sign = np.signbit(bessel_j(nu0 + ell, grid))
            below = np.concatenate(([0], np.cumsum(sign[1:] != sign[:-1])))
            want = below[np.searchsorted(grid, t)]
            assert ladder_zeros(nu0, np.full(t.size, float(ell)), t).tolist() == want.tolist()

    def test_counts_cover_every_order_and_survive_the_rescale(self):
        # J_{1/2}(x) = sqrt(2 / (pi x)) sin x has floor(x / pi) zeros below x;
        # orders 0-95 at tiny arguments rescale, and have none
        x = np.array([0.5, 3.0, 3.2, 50.0, 119.0])
        got = ladder_zeros(0.5, np.zeros(x.size), x)
        assert got.tolist() == np.floor(x / np.pi).astype(int).tolist()
        ells = np.arange(96.0)
        assert not ladder_zeros(0.5, ells, np.full(ells.size, 1e-5)).any()


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
        x = np.linspace(0.1, 50.0, 200)
        closed = np.sqrt(2.0 / (np.pi * x)) * np.cosh(x)
        assert bessel_i(-0.5, x) == pytest.approx(closed, rel=1e-10)

    def test_window_enforced(self):
        with pytest.raises(ArgumentOutOfRange):
            bessel_i(0.0, 60.5)


class TestRadialWave:
    def test_3d_node_at_pi(self):
        w = RadialWave(3, 0)
        val, _ = radial_wave(w, 1.0, math.pi)
        assert abs(val) < 1e-14  # proportional to sin(pi)/pi

    def test_1d_cosine_mode(self):
        w = RadialWave(1, 0)
        val, der = radial_wave(w, 2.0, math.pi)
        c = math.sqrt(2.0 / (math.pi * 2.0))
        assert val == pytest.approx(c * math.cos(2 * math.pi), rel=1e-12)
        assert der == pytest.approx(0.0, abs=1e-12)
        assert val > 0

    def test_2d_origin_limit(self):
        w = RadialWave(2, 0)
        val, _ = radial_wave(w, 1.0, 1e-8)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_evanescent_branch(self):
        w = RadialWave(1, 0, Branch.EVANESCENT)
        k, r = 0.8, 2.0
        val, der = radial_wave(w, k, r)
        c = math.sqrt(2.0 / (math.pi * k))
        assert val == pytest.approx(c * math.cosh(k * r), rel=1e-12)
        assert der == pytest.approx(c * k * math.sinh(k * r), rel=1e-12)

    def test_derivative_matches_finite_differences(self):
        h = 1e-6
        for dim, ell in ((1, 0), (1, 1), (2, 0), (2, 3), (3, 0), (3, 2)):
            w = RadialWave(dim, ell)
            for k, r in ((1.3, 2.0), (4.0, 1.1)):
                _, der = radial_wave(w, k, r)
                vp, _ = radial_wave(w, k, r + h)
                vm, _ = radial_wave(w, k, r - h)
                assert der == pytest.approx((vp - vm) / (2 * h), rel=2e-7, abs=1e-9)
