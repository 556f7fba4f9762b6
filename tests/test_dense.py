"""Tests for the dense decomposition kernels."""

import numpy as np
import pytest

from kronheat import solvers
from kronheat.dense import (
    block_starts,
    cholesky_lower,
    complex_schur,
    eig_pencil,
    real_schur,
    spd_solve,
    svd_of_eigenvectors,
)
from kronheat.errors import (
    DefectivePencil,
    NotPositiveDefinite,
)


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n))


def eigenvector_svd(P):
    """(X, (U, sigma, Vh)) of a standard eigenproblem, as fd builds them."""
    _, vecs = eig_pencil(P, np.eye(len(P)))
    return vecs, svd_of_eigenvectors(vecs)


def sort_spectrum(vals):
    # stable under conjugate-pair ties where sort_complex flips on noise
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((np.round(vals.imag, 8), np.round(vals.real, 8)))
    return vals[order]


class TestRealSchur:
    def test_symmetric_gives_diagonal_r(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((5, 5))
        P = A + A.T
        _, R = real_schur(P)
        off = R - np.diag(np.diag(R))
        assert np.max(np.abs(off)) < 1e-10
        assert np.allclose(np.sort(np.diag(R)),
                           np.sort(np.linalg.eigvalsh(P)), atol=1e-10)

    def test_rotation_block(self):
        # [[0,1],[-1,0]] has eigenvalues +-i: one 2x2 block, alpha = 0
        _, R = real_schur(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert R[1, 0] != 0.0
        assert abs(R[0, 0]) < 1e-14
        assert R[0, 1] * R[1, 0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_and_structure(self, seed):
        P = random_matrix(7, seed)
        Q, R = real_schur(P)
        assert np.linalg.norm(Q @ Q.T - np.eye(7)) < 1e-12
        assert np.linalg.norm(Q @ R @ Q.T - P) < 1e-11
        # zero below the first subdiagonal
        for i in range(7):
            for j in range(7):
                if i > j + 1:
                    assert R[i, j] == 0.0
        # each 2x2 block is standardized: off-diagonal entries of opposite
        # signs and equal diagonal entries, so diag(R) holds every real part
        pairs = [k for k in block_starts(R)
                 if k + 1 < 7 and R[k + 1, k] != 0.0]
        assert pairs, "expected a conjugate pair"
        for k in pairs:
            assert R[k, k + 1] * R[k + 1, k] < 0.0
            assert R[k, k] == R[k + 1, k + 1]

    def test_eigenvalues_match_numpy(self):
        P = random_matrix(6, 11)
        # diag(R) holds the real parts of the eigenvalues, each pair twice
        _, R = real_schur(P)
        expected = np.linalg.eigvals(P)
        assert np.allclose(np.sort(np.diag(R)), np.sort(expected.real),
                           atol=1e-10)


class TestComplexSchur:
    def test_diagonal_passthrough(self):
        _, S = complex_schur(np.diag([1.0, 2.0]))
        assert np.allclose(np.diag(S), [1.0, 2.0])

    def test_rotation_eigenvalues(self):
        _, S = complex_schur(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        assert np.allclose(sort_spectrum(np.diag(S)),
                           [-1j, 1j], atol=1e-14)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_real_schur_spectrum(self, seed):
        P = random_matrix(6, seed)
        # diag(S) is the spectrum; diag(R) its real parts
        _, S = complex_schur(P)
        _, R = real_schur(P)
        expected = np.linalg.eigvals(P)
        assert np.allclose(sort_spectrum(np.diag(S)), sort_spectrum(expected),
                           atol=1e-10)
        assert np.allclose(np.sort(np.diag(S).real), np.sort(np.diag(R)),
                           atol=1e-10)

    def test_unitary_and_triangular(self):
        P = random_matrix(5, 9)
        W, S = complex_schur(P)
        assert np.linalg.norm(W @ W.conj().T - np.eye(5)) < 1e-12
        assert np.max(np.abs(np.tril(S, -1))) == 0.0
        assert np.linalg.norm(W @ S @ W.conj().T - P) < 1e-11


class TestEigSvd:
    def test_symmetric_has_unit_condition(self):
        # eig_pencil keeps LAPACK's column scaling; with unit columns the
        # eigenvectors of a symmetric matrix are orthonormal
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 6))
        _, vecs = eig_pencil(A + A.T, np.eye(6))
        _, sigma, _ = svd_of_eigenvectors(
            vecs / np.linalg.norm(vecs, axis=0))
        assert sigma[0] / sigma[-1] == pytest.approx(1.0, abs=1e-8)

    def test_near_defective_condition_blows_up(self):
        _, (_, sigma, _) = eigenvector_svd(
            np.array([[1.0, 1.0], [0.0, 1.0 + 1e-8]]))
        assert sigma[0] / sigma[-1] > 1e6

    def test_defective_raises(self, base_ops, monkeypatch):
        # build_pencil rejects eigenpairs whose residual exceeds 1e-8
        vals, vecs = eig_pencil(base_ops.M, base_ops.A)
        monkeypatch.setattr(solvers, "eig_pencil",
                            lambda M, A: (vals * 1.001, vecs))
        with pytest.raises(DefectivePencil):
            solvers.build_pencil(base_ops, "fd")

    def test_svd_reconstructs_eigenvectors(self):
        P = random_matrix(6, 13)
        X, (U, sigma, Vh) = eigenvector_svd(P)
        assert np.linalg.norm(U @ np.diag(sigma) @ Vh - X) < (
            1e-12 * np.linalg.norm(X))
        assert np.all(np.diff(sigma) <= 1e-15)

    def test_spectrum_agrees_with_schur(self):
        P = random_matrix(6, 17)
        evals = sort_spectrum(eig_pencil(P, np.eye(6))[0])
        svals = sort_spectrum(np.diag(complex_schur(P)[1]))
        assert np.allclose(evals, svals, atol=1e-10)


class TestEigPencil:
    def test_identity_pencil_reduces_to_standard(self):
        M = random_matrix(6, 21)
        vals, _ = eig_pencil(M, np.eye(6))
        assert np.allclose(sort_spectrum(vals),
                           sort_spectrum(np.linalg.eigvals(M)), atol=1e-10)

    @pytest.mark.parametrize("seed", [4, 9])
    def test_eigenpairs_satisfy_pencil(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((7, 7))
        A = B @ B.T + 7 * np.eye(7)
        M = rng.standard_normal((7, 7))
        vals, vecs = eig_pencil(M, A)
        resid = M @ vecs - A @ vecs * vals[None, :]
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(M)

    def test_conjugate_pairs_share_columns(self):
        vals, vecs = eig_pencil(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                np.eye(2))
        assert sorted(np.round(vals.imag, 12)) == [-1.0, 1.0]
        assert np.allclose(vecs[:, 0], np.conj(vecs[:, 1]))

    def test_raw_scaling_is_kept(self):
        # LAPACK scales so the largest |Re| + |Im| over each column is 1;
        # overall condition numbers depend on exactly this convention
        rng = np.random.default_rng(31)
        B = rng.standard_normal((6, 6))
        A = B @ B.T + 6 * np.eye(6)
        M = rng.standard_normal((6, 6))
        _, vecs = eig_pencil(M, A)
        peaks = np.max(np.abs(vecs.real) + np.abs(vecs.imag), axis=0)
        assert np.allclose(peaks, 1.0, atol=1e-12)

    def test_infinite_eigenvalue_raises(self):
        with pytest.raises(DefectivePencil):
            eig_pencil(np.eye(2), np.zeros((2, 2)))


class TestSvdOfEigenvectors:
    def test_wraps_pencil_output(self):
        rng = np.random.default_rng(40)
        B = rng.standard_normal((5, 5))
        A = B @ B.T + 5 * np.eye(5)
        M = rng.standard_normal((5, 5))
        _, vecs = eig_pencil(M, A)
        U, sigma, Vh = svd_of_eigenvectors(vecs)
        assert np.allclose(U @ np.diag(sigma) @ Vh, vecs)
        assert sigma[0] / sigma[-1] == pytest.approx(
            np.linalg.cond(vecs, 2), rel=1e-10)

    def test_singular_matrix_raises(self):
        with pytest.raises(DefectivePencil):
            svd_of_eigenvectors(np.zeros((3, 3)))


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky_lower(np.eye(4)), np.eye(4))

    def test_hand_factorization(self):
        L = cholesky_lower(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_nonsymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_solve_roundtrip(self):
        rng = np.random.default_rng(21)
        B = rng.standard_normal((5, 5))
        A = B @ B.T + 5 * np.eye(5)
        L = cholesky_lower(A)
        x = rng.standard_normal(5)
        assert np.allclose(spd_solve(L, A @ x), x, atol=1e-12)

