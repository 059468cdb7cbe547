import numpy as np
import pytest

from teig.eigensolve import SpectrumSlice, _solve_with_vectors, cholesky, lowest_k
from teig.errors import NoConvergence, NotPositiveDefinite, ValidationError


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


class TestLowestK:
    def test_classic_2x2(self):
        s = lowest_k(np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2), 2)
        assert s.eigenvalues == pytest.approx((1.0, 3.0), rel=1e-14)

    def test_diagonal_generalized(self):
        s = lowest_k(np.array([[2.0, 0.0], [0.0, 6.0]]), np.diag([1.0, 2.0]), 2)
        assert s.eigenvalues == pytest.approx((2.0, 3.0), rel=1e-14)

    def test_matches_sturm_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            A, B = random_problem(rng, n)
            mine = np.array(lowest_k(A, B, n).eigenvalues)
            oracle = sturm_all_eigenvalues(A, B)
            assert np.max(np.abs(mine - oracle)) < 1e-10

    def test_sorted_and_truncated(self):
        rng = np.random.default_rng(3)
        A, B = random_problem(rng, 7)
        full = lowest_k(A, B, 7).eigenvalues
        assert list(full) == sorted(full)
        assert lowest_k(A, B, 3).eigenvalues == full[:3]
        assert lowest_k(A, B, 30).eigenvalues == full  # K capped by dimension

    def test_validates_inputs(self):
        with pytest.raises(ValidationError):
            lowest_k(np.eye(3), np.eye(2), 1)
        with pytest.raises(ValidationError):
            lowest_k(np.eye(2), np.eye(2), 0)

    def test_returns_spectrum_slice(self):
        s = lowest_k(np.eye(4), np.eye(4), 2)
        assert isinstance(s, SpectrumSlice)
        assert s.dimension == 4


class TestLapackBoundary:
    """LAPACK returns NaN for NaN input without an error; every failure at
    that boundary must come back as a typed error instead."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_a_rejected(self, bad):
        A, B = random_problem(np.random.default_rng(5), 4)
        A[1, 2] = A[2, 1] = bad
        with pytest.raises(NoConvergence):
            lowest_k(A, B, 2)
        with pytest.raises(NoConvergence):
            _solve_with_vectors(A, B)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_b_rejected(self, bad):
        A, B = random_problem(np.random.default_rng(6), 4)
        B[3, 3] = bad
        with pytest.raises(NoConvergence):
            lowest_k(A, B, 2)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_reduction_rejected(self):
        # finite input whose standard form overflows to inf
        A = np.full((2, 2), 1e300)
        with pytest.raises(NoConvergence):
            lowest_k(A, np.diag([1e-20, 1e-20]), 1)

    def test_cholesky_linalg_error_is_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            lowest_k(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1)

    def test_relative_pivot_tolerance(self):
        # positive definite for LAPACK, but the last pivot is below
        # 1e-13 times the largest diagonal entry
        B = np.diag([1.0, 1e-14])
        assert np.all(np.linalg.eigvalsh(B) > 0)
        with pytest.raises(NotPositiveDefinite, match="row 1"):
            cholesky(B)
        with pytest.raises(NotPositiveDefinite):
            lowest_k(np.eye(2), B, 1)

    def test_eigensolver_linalg_error_is_no_convergence(self, monkeypatch):
        def fail(C):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NoConvergence):
            lowest_k(np.eye(3), np.eye(3), 1)

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
        base = np.array(lowest_k(A, B, 6).eigenvalues)
        for c in (-3.0, 7.0):
            shifted = np.array(lowest_k(A + c * B, B, 6).eigenvalues)
            assert np.max(np.abs(shifted - base - c)) < 1e-10

    def test_orthogonal_similarity(self):
        rng = np.random.default_rng(12)
        for n in (3, 5, 8):
            A, B = random_problem(rng, n)
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            base = np.array(lowest_k(A, B, n).eigenvalues)
            rotated = np.array(lowest_k(Q.T @ A @ Q, Q.T @ B @ Q, n).eigenvalues)
            assert np.max(np.abs(rotated - base)) < 1e-9

    def test_degenerate_pairs_adjacent(self):
        # double eigenvalue: returned in adjacent sorted positions
        A = np.diag([2.0, 2.0, 5.0])
        s = lowest_k(A, np.eye(3), 3)
        assert s.eigenvalues[0] == pytest.approx(s.eigenvalues[1], abs=1e-12)


class TestVectorPath:
    def test_residuals(self):
        rng = np.random.default_rng(21)
        for n in (4, 9, 20, 40):
            A, B = random_problem(rng, n)
            vals, V = _solve_with_vectors(A, B)
            normA = np.linalg.norm(A)
            for i in range(n):
                v = V[:, i]
                res = np.linalg.norm(A @ v - vals[i] * (B @ v))
                assert res <= 1e-8 * normA * np.linalg.norm(v)

    def test_b_orthonormality(self):
        rng = np.random.default_rng(22)
        A, B = random_problem(rng, 8)
        _, V = _solve_with_vectors(A, B)
        gram = V.T @ B @ V
        assert np.max(np.abs(gram - np.eye(8))) < 1e-9

    def test_sturm_count_agreement_on_thresholds(self):
        rng = np.random.default_rng(23)
        A, B = random_problem(rng, 8)
        vals = np.array(lowest_k(A, B, 8).eigenvalues)
        oracle = sturm_all_eigenvalues(A, B)
        for _ in range(20):
            thr = rng.uniform(vals[0] - 1.0, vals[-1] + 1.0)
            assert np.sum(vals < thr) == np.sum(oracle < thr)
