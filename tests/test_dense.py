"""Tests for the Schur forms of the temporal pencil in ``solvers``.

``build_pencil`` factors A_t, forms P = A_t^{-1} M_t and takes its real
or complex Schur form (fd's pencil and ``eig_pencil`` are tested in
``test_solvers.py``); the pencils here are built as ``TemporalOperators``
with A_t = I wherever P = M_t is the matrix under test.
"""

import numpy as np
import pytest

from kronheat import solvers
from kronheat.errors import ConvergenceFailure
from kronheat.solvers import block_starts, build_pencil

from conftest import (
    pencil_ops,
    random_positive,
    sort_spectrum,
)


def schur_of(M, output):
    """(Z, T) with M = Z T Z^H, as build_pencil forms them for A_t = I."""
    pencil = build_pencil(pencil_ops(M), f"bs-{output}")
    return pencil.right.T, pencil.T


class TestRealSchur:
    def test_symmetric_gives_diagonal_r(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((5, 5))
        P = B @ B.T + np.eye(5)
        _, R = schur_of(P, "real")
        off = R - np.diag(np.diag(R))
        assert np.max(np.abs(off)) < 1e-10
        assert np.allclose(np.sort(np.diag(R)),
                           np.sort(np.linalg.eigvalsh(P)), atol=1e-10)

    def test_rotation_block(self):
        # [[1,1],[-1,1]] has eigenvalues 1 +- i: one 2x2 block, alpha = 1
        _, R = schur_of(np.array([[1.0, 1.0], [-1.0, 1.0]]), "real")
        assert R[1, 0] != 0.0
        assert R[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert R[0, 1] * R[1, 0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reconstruction_and_structure(self, seed):
        P = random_positive(7, seed)
        Q, R = schur_of(P, "real")
        assert np.linalg.norm(Q @ Q.T - np.eye(7)) < 1e-12
        assert np.linalg.norm(Q @ R @ Q.T - P) < 1e-11
        # zero below the first subdiagonal
        assert not np.tril(R, -2).any()
        # each 2x2 block is standardized: off-diagonal entries of opposite
        # signs and equal diagonal entries, so diag(R) holds every real part
        pairs = [k for k in block_starts(R)
                 if k + 1 < 7 and R[k + 1, k] != 0.0]
        assert pairs, "expected a conjugate pair"
        for k in pairs:
            assert R[k, k + 1] * R[k + 1, k] < 0.0
            assert R[k, k] == R[k + 1, k + 1]

    def test_eigenvalues_match_numpy(self):
        P = random_positive(6, 11)
        # diag(R) holds the real parts of the eigenvalues, each pair twice
        _, R = schur_of(P, "real")
        expected = np.linalg.eigvals(P)
        assert np.allclose(np.sort(np.diag(R)), np.sort(expected.real),
                           atol=1e-10)


class TestComplexSchur:
    def test_diagonal_passthrough(self):
        _, S = schur_of(np.diag([1.0, 2.0]), "complex")
        assert np.allclose(np.diag(S), [1.0, 2.0])

    def test_rotation_eigenvalues(self):
        _, S = schur_of(np.array([[1.0, 1.0], [-1.0, 1.0]]), "complex")
        assert np.allclose(sort_spectrum(np.diag(S)),
                           [1 - 1j, 1 + 1j], atol=1e-14)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_real_schur_spectrum(self, seed):
        P = random_positive(6, seed)
        # diag(S) is the spectrum; diag(R) its real parts
        _, S = schur_of(P, "complex")
        _, R = schur_of(P, "real")
        expected = np.linalg.eigvals(P)
        assert np.allclose(sort_spectrum(np.diag(S)), sort_spectrum(expected),
                           atol=1e-10)
        assert np.allclose(np.sort(np.diag(S).real), np.sort(np.diag(R)),
                           atol=1e-10)

    def test_unitary_and_triangular(self):
        P = random_positive(5, 9)
        W, S = schur_of(P, "complex")
        assert np.linalg.norm(W @ W.conj().T - np.eye(5)) < 1e-12
        assert np.max(np.abs(np.tril(S, -1))) == 0.0
        assert np.linalg.norm(W @ S @ W.conj().T - P) < 1e-11


@pytest.mark.parametrize("output", ["real", "complex"])
def test_schur_residual_check(monkeypatch, output):
    # one check serves both forms: a factor off by 1e-8 fails it
    schur_lapack = solvers.sla.schur

    def perturbed(P, output):
        T, Z = schur_lapack(P, output=output)
        return T * (1 + 1e-8), Z

    monkeypatch.setattr(solvers.sla, "schur", perturbed)
    with pytest.raises(ConvergenceFailure, match=f"{output} Schur residual"):
        build_pencil(pencil_ops(random_positive(5, 4)), f"bs-{output}")


@pytest.mark.parametrize("output", ["real", "complex"])
def test_schur_residual_check_fails_nan(monkeypatch, output):
    # a NaN residual is not below the bound: it fails, it does not pass
    schur_lapack = solvers.sla.schur

    def nan_form(P, output):
        T, Z = schur_lapack(P, output=output)
        return np.full_like(T, np.nan), Z

    monkeypatch.setattr(solvers.sla, "schur", nan_form)
    with pytest.raises(ConvergenceFailure, match=f"{output} Schur residual"):
        build_pencil(pencil_ops(random_positive(5, 4)), f"bs-{output}")
