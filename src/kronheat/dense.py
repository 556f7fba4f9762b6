"""Dense linear-algebra kernels for the temporal pencil.

Wraps LAPACK-backed routines (real and complex Schur in one
:func:`schur`, eigen, SVD, Cholesky) with the residual and singularity
checks the space-time solvers rely on.  A Schur form passes if its
Frobenius residual is at most 100 * RESIDUAL_TOL = 1e-10 times
max(||P||_F, 1); an eigenvector matrix counts as singular if
sigma_min <= N eps sigma_max.
"""

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


def schur(P, output):
    """Schur form (Z, T), P = Z T Z^H, of a square real matrix.

    ``output`` is "real" or "complex", as for ``scipy.linalg.schur``.
    The real form's T = R is quasi-triangular; LAPACK standardizes each
    2x2 block, a pair alpha +- i sqrt(-b1 b2), to diagonal entries
    alpha, alpha.  The complex form's T = S is triangular.  Raises
    ConvergenceFailure unless ||Z T Z^H - P||_F <= 1e-10 max(||P||_F, 1).
    """
    P = _check_square(P)
    try:
        T, Z = sla.schur(P, output=output)
    except sla.LinAlgError as exc:  # pragma: no cover - QR failure is rare
        raise ConvergenceFailure(str(exc)) from exc
    scale = max(_frob(P), 1.0)
    if _frob(Z @ T @ Z.conj().T - P) > 100 * RESIDUAL_TOL * scale:
        raise ConvergenceFailure(f"{output} Schur residual above tolerance")
    return Z, T


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


def svd_of_eigenvectors(vecs, compute_uv=True):
    """SVD X = U diag(sigma) Vh of an eigenvector matrix, sigma decreasing.

    For eigenvectors from :func:`eig_pencil`, whose column scaling is part
    of the reported condition number sigma[0] / sigma[-1].  Returns
    (U, sigma, Vh), or sigma alone if ``compute_uv`` is false.  Raises
    DefectivePencil if X is numerically singular, sigma[-1] <= N eps
    sigma[0] (a repeated column leaves sigma[-1] near 1e-16 sigma[0]).
    """
    vecs = _check_square(vecs)
    out = sla.svd(vecs, compute_uv=compute_uv)
    sigma = out[1] if compute_uv else out
    if sigma[-1] <= len(sigma) * np.finfo(float).eps * sigma[0]:
        raise DefectivePencil("eigenvector matrix is numerically singular")
    return out


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

