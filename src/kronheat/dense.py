"""Dense linear-algebra kernels for the temporal pencil.

Wraps LAPACK-backed routines (Schur, eigen, SVD, Cholesky) behind the
small set of forms the space-time solvers need, with residual checks
baked into the constructors.  All tolerances are relative Frobenius
residuals around 1e-12.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    DefectivePencil,
    DimensionMismatch,
    NotPositiveDefinite,
    ConvergenceFailure,
)

RESIDUAL_TOL = 1e-12


def _frob(a):
    return np.linalg.norm(a, "fro")


@dataclass(frozen=True)
class RealSchurForm:
    """Real Schur decomposition P = Q R Q^T.

    R is upper quasi-triangular: 1x1 blocks hold real eigenvalues, 2x2
    blocks hold conjugate pairs alpha +- i*sqrt(b1*b2) with the two
    off-diagonal entries b1, b2 of opposite signs.
    """

    Q: np.ndarray
    R: np.ndarray

    def eigenvalues(self):
        """Eigenvalues recovered from the diagonal blocks."""
        R = self.R
        starts = block_starts(R)
        vals = []
        for k, end in zip(starts, starts[1:] + [len(R)]):
            if end - k == 1:
                vals.append(R[k, k] + 0j)
            else:
                beta = np.sqrt(-R[k, k + 1] * R[k + 1, k])
                vals += [R[k, k] + 1j * beta, R[k, k] - 1j * beta]
        return np.array(vals)

    def transforms(self):
        """(left, T, right) with P^T = left T^T right: (Q, R, Q^T)."""
        return self.Q, self.R, self.Q.T


@dataclass(frozen=True)
class ComplexSchurForm:
    """Complex Schur decomposition P = W S W* with S upper triangular."""

    W: np.ndarray
    S: np.ndarray

    def eigenvalues(self):
        return np.diag(self.S).copy()

    def transforms(self):
        """(left, T, right) with P^T = left T^T right: (conj(W), S, W^T)."""
        return np.conj(self.W), self.S, self.W.T


@dataclass(frozen=True)
class EigenSvdForm:
    """Eigendecomposition P X = X D plus an SVD of the eigenvector matrix.

    The SVD X = U diag(sigma) V* is kept alongside because the solver
    applies X^{-1} = V diag(1/sigma) U* for numerical damping, and the
    spectral study reports sigma_min, sigma_max, kappa_2.
    """

    X: np.ndarray
    D: np.ndarray
    U: np.ndarray
    sigma: np.ndarray
    Vh: np.ndarray

    @property
    def sigma_min(self):
        return float(self.sigma[-1])

    @property
    def sigma_max(self):
        return float(self.sigma[0])

    @property
    def kappa2(self):
        return float(self.sigma[0] / self.sigma[-1])

    def eigenvalues(self):
        return self.D

    def transforms(self):
        """(left, D, right) with P^T = left diag(D) right: (X^{-T}, D, X^T).

        Both transforms are formed from the SVD of X.
        """
        left = (np.conj(self.U) / self.sigma[None, :]) @ np.conj(self.Vh)
        right = (self.Vh.T * self.sigma[None, :]) @ self.U.T
        return left, self.D, right


def block_starts(T):
    """Start indices of the diagonal blocks of an upper quasi-triangular T.

    A nonzero subdiagonal entry T[k+1, k] opens a 2x2 block at k; a
    triangular T, whose subdiagonal is exactly zero, has only 1x1 blocks.
    """
    n = T.shape[0]
    starts, k = [], 0
    while k < n:
        starts.append(k)
        k += 2 if k + 1 < n and T[k + 1, k] != 0.0 else 1
    return starts


def _check_square(P):
    P = np.asarray(P)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ConvergenceFailure("matrix contains non-finite entries")
    return P


def real_schur(P):
    """Real Schur form of a square real matrix.

    Returns
    -------
    RealSchurForm
        With ``P = Q R Q^T`` to a relative Frobenius residual of 1e-12.
    """
    P = _check_square(P).astype(float)
    try:
        R, Q = sla.schur(P, output="real")
    except sla.LinAlgError as exc:  # pragma: no cover - QR failure is rare
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(_frob(P), 1.0)
    if _frob(Q @ R @ Q.T - P) > 100 * RESIDUAL_TOL * scale:
        raise ConvergenceFailure("real Schur residual above tolerance")
    return RealSchurForm(Q=Q, R=R)


def complex_schur(P):
    """Complex Schur form of a square matrix (real input allowed)."""
    P = _check_square(P).astype(complex)
    try:
        S, W = sla.schur(P, output="complex")
    except sla.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(_frob(P), 1.0)
    if _frob(W @ S @ W.conj().T - P) > 100 * RESIDUAL_TOL * scale:
        raise ConvergenceFailure("complex Schur residual above tolerance")
    return ComplexSchurForm(W=W, S=S)


def eig_pencil(M, A):
    """Generalized eigenpairs of M z = lambda A z via the QZ iteration.

    Returns
    -------
    vals : (N,) complex array
    vecs : (N, N) complex array
        Columns keep LAPACK's raw scaling (largest component has
        |Re| + |Im| = 1); they are deliberately not renormalized, so
        condition numbers of the eigenvector matrix are comparable with
        tables produced by environments using the same convention.

    Raises
    ------
    DefectivePencil
        On QZ failure or an infinite eigenvalue (beta = 0).
    """
    from scipy.linalg.lapack import dggev

    M = _check_square(M).astype(float)
    A = _check_square(A).astype(float)
    if M.shape != A.shape:
        raise DimensionMismatch("pencil matrices differ in shape")
    alphar, alphai, beta, _, vr, _, info = dggev(
        M, A, compute_vl=0, compute_vr=1
    )
    if info != 0:
        raise DefectivePencil(f"QZ iteration failed with info={info}")
    if np.any(beta == 0.0):
        raise DefectivePencil("pencil has an infinite eigenvalue")
    vals = (alphar + 1j * alphai) / beta
    n = M.shape[0]
    vecs = np.zeros((n, n), dtype=complex)
    j = 0
    while j < n:
        if alphai[j] != 0.0:
            # conjugate pair stored as (real part, imaginary part)
            vecs[:, j] = vr[:, j] + 1j * vr[:, j + 1]
            vecs[:, j + 1] = vr[:, j] - 1j * vr[:, j + 1]
            j += 2
        else:
            vecs[:, j] = vr[:, j]
            j += 1
    return vals, vecs


def svd_of_eigenvectors(vecs, vals):
    """Package eigenpairs with the SVD of the eigenvector matrix.

    For eigenpairs obtained from :func:`eig_pencil`, whose column scaling
    is part of the reported condition number.
    """
    vecs = _check_square(vecs)
    U, sigma, Vh = sla.svd(vecs)
    if sigma[-1] <= 0.0:
        raise DefectivePencil("eigenvector matrix is numerically singular")
    return EigenSvdForm(X=vecs, D=np.asarray(vals), U=U, sigma=sigma, Vh=Vh)


def cholesky_lower(A):
    """Lower Cholesky factor of a symmetric positive definite matrix."""
    A = _check_square(A)
    if not np.allclose(A, A.T, rtol=1e-10, atol=1e-14):
        raise NotPositiveDefinite("matrix is not symmetric")
    try:
        return sla.cholesky(A, lower=True)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def spd_solve(L, rhs):
    """Solve A x = rhs given the lower Cholesky factor L of A."""
    return sla.cho_solve((L, True), rhs)

