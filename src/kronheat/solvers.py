"""Direct space-time solvers for the Kronecker-sum global system.

The global matrix K = A_t (x) M_x + M_t (x) A_x is never formed: the
coefficients U solve M_x U A_t + A_x U M_t^T = F.  :func:`solve` runs one
driver for every variant.  It decomposes P = A_t^{-1} M_t as
P^T = left T^T right, right = left^{-1} (:func:`build_pencil`):

* ``bs-real``: real Schur (Q, R, Q^T), R quasi-triangular;
* ``bs-complex``: complex Schur (conj(W), S, W^T), S triangular;
* ``fd``: eigenvectors (X^{-T}, diag(D), X^T), both formed from the SVD
  of X, whose condition number kappa2 the report carries.

It then transforms in, G = F A_t^{-1} left, and sweeps the spatial
systems of M_x Z + A_x Z T^T = G, each one shift lambda of the pencil
M_x + lambda A_x under the one ``sparse_direct.analyze`` of every solve.
Every variant back-substitutes over the diagonal blocks of T
(:func:`_back_substitution`): a 2x2 block of R, a conjugate pair, is one
complex solve at one eigenvalue of the pair; S and diag(D) have 1x1
blocks only, and those of diag(D) are uncoupled (the fast
diagonalization of Lynch, Rice and Thomas).  With ``threads > 1`` fd's
N_t systems run on a thread pool; SuperLU holds the GIL, so the pool
does not make them faster.  Last, U = Z right drops an imaginary part
below the variant's tolerance and the relative residual is checked
against the variant's bound.  A failed fd solve is rerun with
bs-complex and the report says so; a failed Schur solve raises.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import sparse_direct
from .dense import (
    block_starts,
    cholesky_lower,
    eig_pencil,
    schur,
    spd_solve,
    svd_of_eigenvectors,
)
from .errors import (
    DefectivePencil,
    DimensionMismatch,
    ImaginaryResidueTooLarge,
    ResidualTooLarge,
    UsageError,
)
from .fem import SpatialOperators
from .temporal import TemporalOperators

# variant -> (bound on the relative imaginary part discarded by the
# transform out, bound on the relative residual); also the variant registry
TOLERANCES = {
    "bs-real": (1e-9, 1e-9),
    "bs-complex": (1e-9, 1e-9),
    "fd": (1e-6, 1e-6),
}


@dataclass(frozen=True)
class SpaceTimeSystem:
    """Assembled operators plus the transformed global right-hand side.

    ``rhs`` is ordered with the spatial index fastest: it is the
    column-major vectorization of the M_x-by-N_t right-hand-side matrix.
    """

    temporal: TemporalOperators
    spatial: SpatialOperators
    rhs: np.ndarray

    def __post_init__(self):
        if self.rhs.shape != (self.n_t * self.m_x,):
            raise DimensionMismatch(
                f"rhs length {self.rhs.shape} does not match "
                f"N_t*M_x = {self.n_t}*{self.m_x}"
            )
        if not np.all(np.isfinite(self.rhs)):
            raise UsageError("rhs contains non-finite entries")

    @property
    def n_t(self):
        return self.temporal.A.shape[0]

    @property
    def m_x(self):
        return self.spatial.n_interior

    @property
    def dof(self):
        return self.n_t * self.m_x

    def rhs_matrix(self):
        return self.rhs.reshape(self.m_x, self.n_t, order="F")


@dataclass(frozen=True)
class Pencil:
    """P^T = left T^T right for P = A_t^{-1} M_t, plus chol(A_t).

    T is R (bs-real), S (bs-complex) or diag(D) of the eigenvalues D
    (fd), N_t x N_t for every variant.  ``kappa2`` is the condition
    number sigma_max/sigma_min of fd's eigenvector matrix (None for the
    Schur variants).
    """

    chol_A: np.ndarray
    left: np.ndarray
    T: np.ndarray
    right: np.ndarray
    min_re_lambda: float
    kappa2: Optional[float] = None


@dataclass(frozen=True)
class SpaceTimeSolution:
    """Interior coefficients, spatial index fastest; the boundary rows are
    the Dirichlet lift (``experiments.solution_errors`` merges them)."""

    coefficients: np.ndarray


@dataclass
class SolveReport:
    """Wall times per step and pencil statistics of one solve.

    ``kappa2`` is the pencil's (None for the Schur variants), and
    ``fallback`` names the fd failure a bs-complex solve stood in for.
    """

    variant: str
    dof: int
    n_t: int
    t_decompose: float = 0.0
    t_transform_in: float = 0.0
    t_spatial: float = 0.0
    t_transform_out: float = 0.0
    residual: float = 0.0
    min_re_lambda: float = 0.0
    kappa2: Optional[float] = None
    fallback: Optional[str] = None

    @property
    def t_total(self):
        return (self.t_decompose + self.t_transform_in + self.t_spatial
                + self.t_transform_out)


def build_pencil(temporal, variant):
    """Decompose the temporal pencil for one solver variant.

    Parameters
    ----------
    temporal : TemporalOperators
    variant : {"bs-real", "bs-complex", "fd"}

    Returns
    -------
    Pencil

    Raises
    ------
    DefectivePencil
        If an eigenvalue has nonpositive real part, or (fd only) the
        eigenvector matrix is numerically defective; the caller should
        fall back to "bs-complex".
    """
    if variant == "fd":
        L, vals, min_re, (U, sigma, Vh) = _fd_spectrum(temporal, True)
        # X^{-T} and X^T, both formed from the SVD X = U diag(sigma) Vh
        left = (np.conj(U) / sigma[None, :]) @ np.conj(Vh)
        right = (Vh.T * sigma[None, :]) @ U.T
        return Pencil(chol_A=L, left=left, T=np.diag(vals), right=right,
                      min_re_lambda=min_re,
                      kappa2=float(sigma[0] / sigma[-1]))
    if variant not in ("bs-real", "bs-complex"):
        raise ValueError(f"unknown pencil variant: {variant!r}")
    L = cholesky_lower(temporal.A)
    # (Q, R, Q^T) or (conj(W), S, W^T); conj leaves the real Q as it is
    Z, T = schur(spd_solve(L, temporal.M),
                 "real" if variant == "bs-real" else "complex")
    # LAPACK gives the two diagonal entries of a 2x2 block of R the real
    # part of its conjugate pair, so diag(T) holds every real part
    return Pencil(chol_A=L, left=np.conj(Z), T=T, right=Z.T,
                  min_re_lambda=_min_re_lambda(np.diag(T)))


def _fd_spectrum(temporal, compute_uv):
    """(chol(A_t), eigenvalues, min Re lambda, SVD of the eigenvectors).

    fd's spectrum of P = A_t^{-1} M_t, for :func:`build_pencil` and
    :func:`eig_study`; the SVD is :func:`svd_of_eigenvectors`' for
    ``compute_uv``.  The eigenpairs are those of the pencil (M_t, A_t),
    which keeps the reference eigenvector scaling for the spectral
    statistics; eigenvectors of (M, A) and of A^{-1} M coincide.  Raises
    DefectivePencil on an eigenvector residual above 1e-8 ||P||_F, a
    numerically singular eigenvector matrix or an eigenvalue with
    nonpositive real part.
    """
    L = cholesky_lower(temporal.A)
    P = spd_solve(L, temporal.M)
    vals, vecs = eig_pencil(temporal.M, temporal.A)
    scale = max(np.linalg.norm(P, "fro"), 1.0)
    resid = np.linalg.norm(P @ vecs - vecs * vals[None, :], "fro")
    if resid > 1e-8 * scale:
        raise DefectivePencil("eigenvector residual above tolerance")
    svd = svd_of_eigenvectors(vecs, compute_uv=compute_uv)
    return L, vals, _min_re_lambda(vals), svd


def _min_re_lambda(eigenvalues):
    min_re = float(np.min(eigenvalues.real))
    if min_re <= 0.0:
        raise DefectivePencil("pencil eigenvalue with nonpositive real part")
    return min_re


def _back_substitution(G, T, A, symbolic, threads):
    """Solve M Z + A Z T^T = G for Z, with T upper quasi-triangular.

    Walks the diagonal blocks of T from the last one; each block is one
    shift lambda of the pencil analyzed in ``symbolic``, and ``A`` serves
    only the coupling update.  A 1x1
    block has lambda = T[k, k].  A 2x2 block [[a, b1], [b2, a]] of R, a
    conjugate pair a +- i omega with omega = sqrt(-b1 b2), is one complex
    solve (M + (a + i omega) A) w = b2 h_s + i omega h_{s+1} for
    w = b2 z_s + i omega z_{s+1}, where h is G less the coupling
    A Z[:, end:] T[s:end, end:]^T to the columns already solved, formed
    when the block is reached and only if T[s:end, end:] is nonzero.
    Where no block couples to another (fd's diagonal T) and ``threads``
    exceeds 1, the blocks run on a pool of that many workers; none then
    reads Z, and each writes only its own columns.
    """
    n_t = G.shape[1]
    Z = np.zeros_like(G)
    starts = block_starts(T)
    blocks = list(zip(starts, starts[1:] + [n_t]))

    def solve_block(block):
        s, end = block
        h = G[:, s:end]
        if T[s:end, end:].any():
            h = h - A @ (Z[:, end:] @ T[s:end, end:].T)
        if end - s == 1:
            Z[:, s] = sparse_direct.factorize(symbolic, T[s, s]).solve(h[:, 0])
        else:
            b1, b2 = T[s, s + 1], T[s + 1, s]
            omega = np.sqrt(-b1 * b2)
            lam = complex(T[s, s], omega)
            numeric = sparse_direct.factorize(symbolic, lam)
            w = numeric.solve(b2 * h[:, 0] + 1j * omega * h[:, 1])
            Z[:, s], Z[:, s + 1] = w.real / b2, w.imag / omega

    if threads > 1 and not any(T[s:end, end:].any() for s, end in blocks):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(solve_block, blocks))
    else:
        for block in reversed(blocks):
            solve_block(block)
    return Z


def _solve(system, variant, threads):
    """One solve by one variant; see the module docstring."""
    imag_tol, residual_bound = TOLERANCES[variant]
    report = SolveReport(variant=variant, dof=system.dof, n_t=system.n_t)
    t0 = time.perf_counter()
    pencil = build_pencil(system.temporal, variant)
    report.t_decompose = time.perf_counter() - t0
    report.min_re_lambda = pencil.min_re_lambda
    report.kappa2 = pencil.kappa2

    t0 = time.perf_counter()
    F = system.rhs_matrix()
    G = spd_solve(pencil.chol_A, F.T).T @ pencil.left
    report.t_transform_in = time.perf_counter() - t0

    t0 = time.perf_counter()
    A = system.spatial.A_II
    symbolic = sparse_direct.analyze(system.spatial.M_II, A)
    Z = _back_substitution(G, pencil.T, A, symbolic, threads)
    report.t_spatial = time.perf_counter() - t0

    t0 = time.perf_counter()
    coeffs = _discard_imaginary(Z @ pencil.right, imag_tol).ravel(order="F")
    report.t_transform_out = time.perf_counter() - t0
    report.residual = residual(system, coeffs)
    if not report.residual <= residual_bound:
        raise ResidualTooLarge(
            f"{variant} relative residual {report.residual:.3e} above "
            f"{residual_bound:.0e}"
        )
    return SpaceTimeSolution(coefficients=coeffs), report


def _discard_imaginary(U, tol):
    norm = np.linalg.norm(U)
    imag = np.linalg.norm(U.imag)
    if norm > 0 and imag > tol * norm:
        raise ImaginaryResidueTooLarge(
            f"imaginary residue {imag / norm:.3e} above {tol:.1e}"
        )
    return np.ascontiguousarray(U.real)


def residual(system, coefficients):
    """Relative residual of K u = f, applying K matrix-free.

    K u is M_x U A_t^T + A_x U M_t^T on the (M_x, N_t) coefficient
    matrix U.
    """
    coefficients = np.asarray(coefficients)
    if coefficients.shape != system.rhs.shape:
        raise DimensionMismatch("coefficient vector has wrong length")
    U = coefficients.reshape(system.m_x, system.n_t, order="F")
    Ku = (system.spatial.M_II @ U @ system.temporal.A.T
          + system.spatial.A_II @ U @ system.temporal.M.T).ravel(order="F")
    denom = np.linalg.norm(system.rhs)
    if denom == 0.0:
        return float(np.linalg.norm(Ku))
    return float(np.linalg.norm(Ku - system.rhs) / denom)


def solve(system, variant, threads=1):
    """Solve the space-time system with one variant.

    ``variant`` is "bs-real", "bs-complex" or "fd"; ``threads`` sizes the
    fd sweep's worker pool.  Returns (SpaceTimeSolution, SolveReport).
    A Schur variant whose residual exceeds its bound raises
    ResidualTooLarge.  If fd fails (defective pencil, imaginary residue
    or residual above its bound), the solve is rerun with bs-complex and
    the report carries ``fallback``.  A thread count below 1 raises
    UsageError.
    """
    if variant not in TOLERANCES:
        raise ValueError(f"unknown solver variant: {variant!r}")
    if threads < 1:
        raise UsageError(f"threads must be >= 1, got {threads}")
    if variant != "fd":
        return _solve(system, variant, threads)
    try:
        return _solve(system, "fd", threads)
    except (DefectivePencil, ImaginaryResidueTooLarge,
            ResidualTooLarge) as exc:
        sol, report = _solve(system, "bs-complex", threads)
        report.fallback = f"fd failed: {type(exc).__name__}"
        return sol, report


def eig_study(temporal):
    """Spectral statistics row for the temporal pencil.

    Those of ``build_pencil(temporal, "fd")``, with its DefectivePencil
    checks, from the singular values of the eigenvectors alone.

    Returns
    -------
    dict with keys n_t, min_re_lambda, sigma_min, sigma_max, kappa2;
    the mesh sizes are the caller's (``experiments.run_eigstudy`` adds
    them from the temporal mesh).
    """
    _, _, min_re, sigma = _fd_spectrum(temporal, False)
    return {"n_t": temporal.A.shape[0], "min_re_lambda": min_re,
            "sigma_min": float(sigma[-1]), "sigma_max": float(sigma[0]),
            "kappa2": float(sigma[0] / sigma[-1])}
