import numpy as np
import pytest

from teig.eigensolve import above, cholesky, quadratic_eigvals
from teig.errors import NoConvergence, NotPositiveDefinite

from pencil import spectrum


# ---------------------------------------------------------------------------
# independent oracle: full-matrix Householder + Sturm-count bisection
# (deliberately different elimination structure from the production path)


def sturm_all_eigenvalues(A, B, tol=1e-12):
    L = np.linalg.cholesky(B)
    C = np.linalg.solve(L, np.linalg.solve(L, A).T)
    C = 0.5 * (C + C.T)
    n = C.shape[0]
    T = C.copy()
    for k in range(n - 2):
        x = T[k + 1 :, k].copy()
        norm = np.linalg.norm(x)
        if norm == 0.0:
            continue
        if x[0] < 0:
            norm = -norm
        v = x
        v[0] += norm
        H = np.eye(n)
        H[k + 1 :, k + 1 :] -= 2.0 * np.outer(v, v) / np.dot(v, v)
        T = H @ T @ H
    d = np.diag(T).copy()
    e = np.concatenate([np.diag(T, 1), [0.0]])

    def count_below(sigma):
        count = 0
        q = 1.0
        for i in range(n):
            off = e[i - 1] ** 2 if i > 0 else 0.0
            denom = q if q != 0.0 else 1e-300
            q = d[i] - sigma - off / denom
            if q < 0.0:
                count += 1
        return count

    radius = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)) + 1.0
    out = []
    for idx in range(1, n + 1):
        lo, hi = -radius, radius
        while hi - lo > tol * max(1.0, abs(hi)):
            mid = 0.5 * (lo + hi)
            if count_below(mid) >= idx:
                hi = mid
            else:
                lo = mid
        out.append(0.5 * (lo + hi))
    return np.array(out)


def random_problem(rng, n):
    A = rng.standard_normal((n, n))
    A = 0.5 * (A + A.T)
    G = rng.standard_normal((n, n))
    B = G @ G.T + n * np.eye(n)
    return A, B


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_two_by_two(self):
        L = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]], atol=1e-15)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 9, 17):
            _, B = random_problem(rng, n)
            L = cholesky(B)
            assert np.allclose(L @ L.T, B, atol=1e-12 * n)
            assert np.allclose(L, np.tril(L), atol=0)


class TestSpectrum:
    def test_classic_2x2(self):
        s = spectrum(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2))
        assert s == pytest.approx((1.0, 3.0), rel=1e-14)

    def test_diagonal_generalized(self):
        s = spectrum(np.array([[2.0, 0.0], [0.0, 6.0]]), np.diag([1.0, 2.0]))
        assert s == pytest.approx((2.0, 3.0), rel=1e-14)

    def test_matches_sturm_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            A, B = random_problem(rng, n)
            mine = spectrum(A, B)
            oracle = sturm_all_eigenvalues(A, B)
            assert np.max(np.abs(mine - oracle)) < 1e-10

    def test_sorted(self):
        rng = np.random.default_rng(3)
        A, B = random_problem(rng, 7)
        full = spectrum(A, B)
        assert full.shape == (7,)
        assert list(full) == sorted(full)


class TestAbove:
    """The shifted-Cholesky certificate that every eigenvalue lies above a
    bound, with margin delta = 4 n^2 eps (||C||_F + |mu|)."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(31)
        c = np.stack([random_problem(rng, 6)[0] for _ in range(4)])
        return c, np.linalg.eigvalsh(c)

    def test_true_below_the_spectrum(self):
        c, vals = self.stack()
        assert above(c, vals[:, 0] - 1e-6, list("abcd"))
        assert above(c[None], vals[:, 0] - 1e-6, ["one point"])

    def test_false_when_one_matrix_reaches_the_bound(self):
        c, vals = self.stack()
        mu = vals[:, 0] - 1e-6
        mu[2] = vals[2, 1]
        assert not above(c, mu, list("abcd"))

    def test_false_within_the_margin_of_an_eigenvalue(self):
        c = np.diag([1.0, 2.0, 3.0])
        delta = 4 * 9 * np.finfo(float).eps * (np.sqrt(14.0) + 1.0)
        assert not above(c[None], 1.0, ["tie"])
        assert not above(c[None], 1.0 - 0.5 * delta, ["within delta"])
        assert above(c[None], 1.0 - 2.0 * delta, ["past delta"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_raises(self, bad):
        c, vals = self.stack()
        c[1, 2, 3] = c[1, 3, 2] = bad
        with pytest.raises(NoConvergence, match="b: matrix has non-finite entries"):
            above(c, vals[:, 0] - 1.0, list("abcd"))


class TestQuadraticEigvals:
    def test_roots_of_a_diagonal_pencil(self):
        # (lambda - 1)(lambda - 2) and lambda^2 + 1
        vals = quadratic_eigvals(np.diag([2.0, 1.0]), np.diag([-3.0, 0.0]), np.eye(2))
        assert vals.size == 4
        assert np.allclose(np.sort_complex(vals), [-1j, 1j, 1.0, 2.0], atol=1e-14)

    def test_singular_leading_coefficient_raises(self):
        with pytest.raises(NoConvergence, match="quadratic eigenproblem failed: Singular"):
            quadratic_eigvals(np.eye(2), np.eye(2), np.zeros((2, 2)))

    def test_non_finite_eigenvalues_raise(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(a.shape[0], np.nan))
        with pytest.raises(NoConvergence, match="returned non-finite eigenvalues"):
            quadratic_eigvals(np.eye(2), np.eye(2), np.eye(2))


class TestLapackBoundary:
    """LAPACK returns NaN for NaN input without an error; every failure at
    that boundary must come back as a typed error instead."""

    # an infinite entry meets a zero of L^-1 in reduce's product, which numpy
    # warns about before eigvalsh rejects the non-finite result
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_a_rejected(self, bad):
        A, B = random_problem(np.random.default_rng(5), 4)
        A[1, 2] = A[2, 1] = bad
        with pytest.raises(NoConvergence):
            spectrum(A, B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_b_rejected(self, bad):
        # the Cholesky pivot check fails every pivot against a non-finite
        # diagonal of B
        A, B = random_problem(np.random.default_rng(6), 4)
        B[3, 3] = bad
        with pytest.raises(NotPositiveDefinite):
            spectrum(A, B)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_reduction_rejected(self):
        # finite input whose standard form overflows to inf
        A = np.full((2, 2), 1e300)
        with pytest.raises(NoConvergence):
            spectrum(A, np.diag([1e-20, 1e-20]))

    def test_cholesky_linalg_error_is_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            spectrum(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_relative_pivot_tolerance(self):
        # positive definite for LAPACK, but the last pivot is below
        # 1e-13 times the largest diagonal entry
        B = np.diag([1.0, 1e-14])
        assert np.all(np.linalg.eigvalsh(B) > 0)
        with pytest.raises(NotPositiveDefinite, match="row 1"):
            cholesky(B)
        with pytest.raises(NotPositiveDefinite):
            spectrum(np.eye(2), B)

    def test_eigensolver_linalg_error_is_no_convergence(self, monkeypatch):
        def fail(C):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            spectrum(np.eye(3), np.eye(3))

    def test_cli_exits_two_on_solver_failure(self, monkeypatch, tmp_path, capsys):
        from teig import cli

        eigvalsh = np.linalg.eigvalsh

        def poisoned(a):
            vals = eigvalsh(a)
            if a.ndim == 4:  # the curve evaluator's stacked call
                vals[..., 0] = np.nan
            return vals

        monkeypatch.setattr(np.linalg, "eigvalsh", poisoned)
        config = tmp_path / "problem.json"
        config.write_text(
            '{"problem": "helmholtz",'
            ' "domain": {"type": "interval_union", "intervals": [[-3.0, 3.0]]},'
            ' "potential": {"type": "constant", "v0": 0.75},'
            ' "discretization": {"cells_per_interval": 8, "num_curves": 2},'
            ' "sweep": {"lambda_min": 3.0, "lambda_max": 5.0, "steps": 4}}'
        )
        code = cli.main(
            ["sweep", "--config", str(config), "--out-curves", str(tmp_path / "c.csv")]
        )
        assert code == 2
        assert '"NoConvergence"' in capsys.readouterr().err


class TestInvariances:
    def test_shift(self):
        rng = np.random.default_rng(11)
        A, B = random_problem(rng, 6)
        base = spectrum(A, B)
        for c in (-3.0, 7.0):
            shifted = spectrum(A + c * B, B)
            assert np.max(np.abs(shifted - base - c)) < 1e-10

    def test_orthogonal_similarity(self):
        rng = np.random.default_rng(12)
        for n in (3, 5, 8):
            A, B = random_problem(rng, n)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            base = spectrum(A, B)
            rotated = spectrum(Q.T @ A @ Q, Q.T @ B @ Q)
            assert np.max(np.abs(rotated - base)) < 1e-9

    def test_degenerate_pairs_adjacent(self):
        # double eigenvalue: returned in adjacent sorted positions
        A = np.diag([2.0, 2.0, 5.0])
        s = spectrum(A, np.eye(3))
        assert s[0] == pytest.approx(s[1], abs=1e-12)


class TestVectorPath:
    def test_residuals(self):
        # A - mu B is singular at every eigenvalue mu
        rng = np.random.default_rng(21)
        for n in (4, 9, 20, 40):
            A, B = random_problem(rng, n)
            vals = spectrum(A, B)
            normA = np.linalg.norm(A)
            for mu in vals:
                res = np.linalg.svd(A - mu * B, compute_uv=False)[-1]
                assert res <= 1e-8 * normA

    def test_sturm_count_agreement_on_thresholds(self):
        rng = np.random.default_rng(23)
        A, B = random_problem(rng, 8)
        vals = spectrum(A, B)
        oracle = sturm_all_eigenvalues(A, B)
        for _ in range(20):
            thr = rng.uniform(vals[0] - 1.0, vals[-1] + 1.0)
            assert np.sum(vals < thr) == np.sum(oracle < thr)
