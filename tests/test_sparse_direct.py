"""Tests for the analyze/factorize/solve layer of the pencil M + shift A."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kronheat import sparse_direct as sd
from kronheat.dense import block_starts
from kronheat.errors import DimensionMismatch, SingularMatrix
from kronheat.experiments import time_mesh_at_level
from kronheat.fem import assemble_p1
from kronheat.lshape import build_lshape_mesh
from kronheat.solvers import build_pencil
from kronheat.temporal import assemble_temporal_operators

from conftest import counting


def laplacian_1d(n):
    return sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr")


def grid_5pt(k):
    I = sp.identity(k, format="csr")
    T = laplacian_1d(k)
    return (sp.kron(I, T) + sp.kron(T, I)).tocsr()


def identity(n):
    return sp.identity(n, format="csr")


def relative_residual(K, x, b):
    return np.linalg.norm(K @ x - b) / np.linalg.norm(b)


class TestAnalyze:
    def test_identity_no_fill(self):
        sym = sd.analyze(identity(10), identity(10))
        assert sym.factor_nnz == 20  # diagonal L and U only

    def test_tridiagonal_natural_order_no_fill(self):
        # with the identity permutation elimination stays bandwidth 1
        n = 50
        sym = sd.SymbolicFactorization(
            n=n, perm=np.arange(n), factor_nnz=4 * n - 2,
            M=sp.csc_matrix(identity(n)), A=sp.csc_matrix(laplacian_1d(n)))
        num = sd.factorize(sym, 1.0)
        assert num._lu.L.nnz + num._lu.U.nnz <= 4 * n - 2

    def test_tridiagonal_mmd_low_fill(self):
        n = 50
        sym = sd.analyze(identity(n), laplacian_1d(n))
        num = sd.factorize(sym, 1.0)
        assert num._lu.L.nnz + num._lu.U.nnz <= 6 * n

    def test_grid_fill_growth_subquadratic(self):
        nnz32 = sd.analyze(identity(32**2), grid_5pt(32)).factor_nnz
        nnz64 = sd.analyze(identity(64**2), grid_5pt(64)).factor_nnz
        # n quadruples; n log n fill growth stays well under the dense ratio 16
        assert nnz64 / nnz32 < 6.5

    def test_counter_increments(self, monkeypatch):
        # counted through a wrapper, as the solvers' one analysis per
        # solve is: factorizing and solving under an analysis adds none
        calls = counting(monkeypatch, sd, "analyze")
        sym = sd.analyze(identity(3), laplacian_1d(3))
        assert len(calls) == 1
        sd.factorize(sym, 1.0).solve(np.ones(3))
        sd.factorize(sym, 2.0 + 1.0j)
        assert len(calls) == 1

    def test_rejects_rectangular(self):
        rect = sp.csr_matrix(np.ones((2, 3)))
        with pytest.raises(DimensionMismatch):
            sd.analyze(rect, rect)

    def test_rejects_mismatched_pencil(self):
        with pytest.raises(DimensionMismatch):
            sd.analyze(identity(3), identity(4))
        with pytest.raises(DimensionMismatch):
            sd.analyze(identity(3), sp.csr_matrix(np.ones((3, 4))))

    def test_differing_patterns_are_stored_on_their_union(self):
        # M diagonal, A tridiagonal with one explicit zero: both are kept
        # on one sorted pattern, values and explicit zero unchanged
        n = 8
        M = 2.0 * identity(n)
        A = laplacian_1d(n)
        A.data[1] = 0.0
        sym = sd.analyze(M, A)
        assert np.array_equal(sym.M.indptr, sym.A.indptr)
        assert np.array_equal(sym.M.indices, sym.A.indices)
        assert sym.A.nnz == A.nnz == 3 * n - 2
        p = sym.perm
        assert np.array_equal(sym.M.toarray(), M.toarray()[p][:, p])
        assert np.array_equal(sym.A.toarray(), A.toarray()[p][:, p])
        b = np.arange(1.0, n + 1.0)
        shift = 0.5 - 0.25j
        x = sd.factorize(sym, shift).solve(b)
        assert relative_residual((M + shift * A).toarray(), x, b) < 1e-14

    def test_shifted_lshape_factor_keeps_predicted_fill(self):
        # a complex shift of the level-3 L-shape pencil factorizes with
        # exactly the probe's fill
        ops = assemble_p1(build_lshape_mesh(3))
        sym = sd.analyze(ops.M_II, ops.A_II)
        num = sd.factorize(sym, 0.3 + 0.2j)
        assert sym.factor_nnz == 18_108
        assert num.factor_nnz == sym.factor_nnz


class TestFactorizeSolve:
    def test_identity(self):
        sym = sd.analyze(identity(4), identity(4))
        num = sd.factorize(sym, 0.0)
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
        sym = sd.analyze(sp.csr_matrix((n, n)), K)
        sol = sd.factorize(sym, 1.0).solve(rhs)
        exact = np.sin(np.pi * x) / np.pi**2
        assert np.max(np.abs(sol - exact)) < 5 * h**2

    def test_multi_rhs_matches_columns(self):
        rng = np.random.default_rng(4)
        B = rng.standard_normal((64, 5))
        num = sd.factorize(sd.analyze(identity(64), grid_5pt(8)), 1.0)
        X = num.solve(B)
        for j in range(5):
            assert np.allclose(X[:, j], num.solve(B[:, j]), atol=1e-14)

    def test_pattern_reuse_across_shifts(self):
        rng = np.random.default_rng(9)
        M = grid_5pt(6)
        A = identity(36)
        sym = sd.analyze(M, A)
        for alpha in (0.5, 2.0, 17.0, 0.5 + 3.0j):
            num = sd.factorize(sym, alpha)
            b = rng.standard_normal(36)
            x = num.solve(b)
            assert relative_residual(M + alpha * A, x, b) < 1e-12

    def test_complex_symmetric_matches_real_block_oracle(self):
        # (M + (a+ib) A)(x+iy) = f  <=>  symmetric indefinite real 2n system
        rng = np.random.default_rng(12)
        n = 30
        M = (laplacian_1d(n) + identity(n)).tocsr()
        A = laplacian_1d(n)
        lam = 0.7 + 1.9j
        f = rng.standard_normal(n)
        z = sd.factorize(sd.analyze(M, A), lam).solve(f.astype(complex))

        Mr = (M + lam.real * A).toarray()
        Ai = (lam.imag * A).toarray()
        block = np.block([[Mr, -Ai], [-Ai, -Mr]])
        xy = np.linalg.solve(block, np.concatenate([f, np.zeros(n)]))
        oracle = xy[:n] + 1j * xy[n:]
        assert np.linalg.norm(z - oracle) / np.linalg.norm(oracle) < 1e-10

    def test_singular_matrix_detected(self):
        # M + s A = [[1 + s, 1 - s], [1 - s, 1 + s]] has determinant 4 s
        M = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        A = sp.csr_matrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        sym = sd.analyze(M, A)
        with pytest.raises(SingularMatrix):
            sd.factorize(sym, 0.0)
        b = np.array([1.0, 3.0])
        x = sd.factorize(sym, 1.0).solve(b)
        assert np.allclose(x, b / 2.0)

    def test_deterministic_factorization(self):
        sym = sd.analyze(identity(100), grid_5pt(10))
        n1 = sd.factorize(sym, 1.0)
        n2 = sd.factorize(sym, 1.0)
        assert np.array_equal(n1._lu.L.data, n2._lu.L.data)
        assert np.array_equal(n1._lu.U.data, n2._lu.U.data)

    def test_numeric_factor_nnz_counts_l_and_u(self):
        num = sd.factorize(sd.analyze(identity(10), identity(10)), 1.0)
        assert num.factor_nnz == 20
        num = sd.factorize(sd.analyze(identity(100), grid_5pt(10)), 1.0)
        assert num.factor_nnz == num._lu.L.nnz + num._lu.U.nnz

    def test_rhs_dimension_check(self):
        num = sd.factorize(sd.analyze(identity(4), identity(4)), 1.0)
        with pytest.raises(DimensionMismatch):
            num.solve(np.ones(5))


class TestLshapePencilOracle:
    """The permuted pencil solves the unpermuted M + shift A."""

    @staticmethod
    def pair_shift(level):
        # a + i omega of the first 2x2 block of bs-real's R
        R = build_pencil(
            assemble_temporal_operators(time_mesh_at_level(level)),
            "bs-real").T
        s = next(k for k in block_starts(R) if k + 1 < len(R)
                 and R[k + 1, k] != 0.0)
        return complex(R[s, s], np.sqrt(-R[s, s + 1] * R[s + 1, s]))

    def test_matches_spsolve(self):
        ops = assemble_p1(build_lshape_mesh(3))
        M, A = ops.M_II, ops.A_II
        sym = sd.analyze(M, A)
        pair = self.pair_shift(3)
        assert pair.imag > 0.0
        rng = np.random.default_rng(33)
        b = rng.standard_normal(M.shape[0])
        for shift in (0.37, 0.4 + 1.3j, pair):
            x = sd.factorize(sym, shift).solve(b)
            expect = spla.spsolve(sp.csc_matrix(M + shift * A), b)
            err = np.linalg.norm(x - expect) / np.linalg.norm(expect)
            assert err < 1e-12, (shift, err)
