"""Tests for the analyze/factorize/solve sparse direct layer."""

import numpy as np
import pytest
import scipy.sparse as sp

from kronheat import sparse_direct as sd
from kronheat.errors import DimensionMismatch, SingularMatrix
from kronheat.fem import assemble_p1
from kronheat.lshape import build_lshape_mesh


def laplacian_1d(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")


def grid_5pt(k):
    I = sp.identity(k, format="csr")
    T = laplacian_1d(k)
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


class TestAnalyze:
    def test_identity_no_fill(self):
        sym = sd.analyze(sp.identity(10, format="csr"))
        assert sym.factor_nnz == 20  # diagonal L and U only

    def test_tridiagonal_natural_order_no_fill(self):
        # with the identity permutation elimination stays bandwidth 1
        n = 50
        A = laplacian_1d(n)
        sym = sd.SymbolicFactorization(
            n=n, perm=np.arange(n), factor_nnz=4 * n - 2)
        num = sd.factorize(sym, A)
        assert num._lu.L.nnz + num._lu.U.nnz <= 4 * n - 2

    def test_tridiagonal_mmd_low_fill(self):
        n = 50
        sym = sd.analyze(laplacian_1d(n))
        num = sd.factorize(sym, laplacian_1d(n))
        assert num._lu.L.nnz + num._lu.U.nnz <= 6 * n

    def test_grid_fill_growth_subquadratic(self):
        nnz32 = sd.analyze(grid_5pt(32)).factor_nnz
        nnz64 = sd.analyze(grid_5pt(64)).factor_nnz
        # n quadruples; n log n fill growth stays well under the dense ratio 16
        assert nnz64 / nnz32 < 6.5

    def test_counter_increments(self):
        before = sd.analyze_call_count()
        sd.analyze(sp.identity(3, format="csr"))
        assert sd.analyze_call_count() == before + 1

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            sd.analyze(sp.csr_matrix(np.ones((2, 3))))

    def test_shifted_lshape_factor_keeps_predicted_fill(self):
        # a complex shift of the level-3 L-shape operators factorizes
        # against analyze(M + A) with exactly the probe's fill
        ops = assemble_p1(build_lshape_mesh(3))
        M, A = ops.M_II, ops.A_II
        sym = sd.analyze((M + A).tocsr())
        num = sd.factorize(sym, (M + (0.3 + 0.2j) * A).tocsr())
        assert sym.factor_nnz == 18_108
        assert num.factor_nnz == sym.factor_nnz


class TestFactorizeSolve:
    def test_identity(self):
        sym = sd.analyze(sp.identity(4, format="csr"))
        num = sd.factorize(sym, sp.identity(4, format="csr"))
        b = np.arange(4.0)
        assert np.allclose(num.solve(b), b)

    def test_laplacian_eigenfunction(self):
        # h^-2 tridiag(-1,2,-1) x = sin(pi x) rhs: discrete solution tracks
        # (1/pi^2) sin(pi x) with O(h^2) error
        n = 1023
        h = 1.0 / (n + 1)
        x = np.linspace(h, 1.0 - h, n)
        K = laplacian_1d(n) / h**2
        rhs = np.sin(np.pi * x)
        sol = sd.factorize(sd.analyze(K), K).solve(rhs)
        exact = np.sin(np.pi * x) / np.pi**2
        assert np.max(np.abs(sol - exact)) < 5 * h**2

    def test_multi_rhs_matches_columns(self):
        rng = np.random.default_rng(4)
        A = grid_5pt(8) + sp.identity(64)
        B = rng.standard_normal((64, 5))
        sym = sd.analyze(A)
        num = sd.factorize(sym, A)
        X = num.solve(B)
        for j in range(5):
            assert np.allclose(X[:, j], num.solve(B[:, j]), atol=1e-14)

    def test_pattern_reuse_across_shifts(self):
        rng = np.random.default_rng(9)
        M = grid_5pt(6)
        A = sp.identity(36, format="csr")
        union = (M + A).tocsr()
        sym = sd.analyze(union)
        for alpha in (0.5, 2.0, 17.0):
            K = (M + alpha * A).tocsr()
            num = sd.factorize(sym, K)
            b = rng.standard_normal(36)
            x = num.solve(b)
            assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-12

    def test_matrix_outside_analyzed_pattern(self):
        # the analysis fixes only the ordering: a dense matrix factorized
        # against an identity analysis still solves to rounding
        rng = np.random.default_rng(14)
        n = 40
        sym = sd.analyze(sp.identity(n, format="csr"))
        K = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        x = sd.factorize(sym, sp.csr_matrix(K)).solve(b)
        assert np.linalg.norm(K @ x - b) / np.linalg.norm(b) < 1e-12

    def test_complex_symmetric_matches_real_block_oracle(self):
        # (M + (a+ib) A)(x+iy) = f  <=>  symmetric indefinite real 2n system
        rng = np.random.default_rng(12)
        n = 30
        M = (laplacian_1d(n) + sp.identity(n)).tocsr()
        A = laplacian_1d(n)
        lam = 0.7 + 1.9j
        K = (M + lam * A).astype(complex).tocsr()
        f = rng.standard_normal(n)
        z = sd.factorize(sd.analyze(K), K).solve(f.astype(complex))

        Mr = (M + lam.real * A).toarray()
        Ai = (lam.imag * A).toarray()
        block = np.block([[Mr, -Ai], [-Ai, -Mr]])
        xy = np.linalg.solve(block, np.concatenate([f, np.zeros(n)]))
        oracle = xy[:n] + 1j * xy[n:]
        assert np.linalg.norm(z - oracle) / np.linalg.norm(oracle) < 1e-10

    def test_singular_matrix_detected(self):
        bad = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        sym = sd.analyze(bad)
        with pytest.raises(SingularMatrix):
            sd.factorize(sym, bad)

    def test_deterministic_factorization(self):
        A = grid_5pt(10) + sp.identity(100)
        sym = sd.analyze(A)
        n1 = sd.factorize(sym, A)
        n2 = sd.factorize(sym, A)
        assert np.array_equal(n1._lu.L.data, n2._lu.L.data)
        assert np.array_equal(n1._lu.U.data, n2._lu.U.data)

    def test_numeric_factor_nnz_counts_l_and_u(self):
        num = sd.factorize(sd.analyze(sp.identity(10, format="csr")),
                           sp.identity(10, format="csr"))
        assert num.factor_nnz == 20
        A = grid_5pt(10) + sp.identity(100)
        num = sd.factorize(sd.analyze(A), A)
        assert num.factor_nnz == num._lu.L.nnz + num._lu.U.nnz

    def test_rhs_dimension_check(self):
        sym = sd.analyze(sp.identity(4, format="csr"))
        num = sd.factorize(sym, sp.identity(4, format="csr"))
        with pytest.raises(DimensionMismatch):
            num.solve(np.ones(5))

