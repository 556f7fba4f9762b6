"""Direct space-time solvers for the Kronecker-sum global system.

The global matrix K = A_t (x) M_x + M_t (x) A_x is never formed: the
coefficients U solve M_x U A_t + A_x U M_t^T = F.  :func:`solve` runs one
driver for every variant.  It decomposes P = A_t^{-1} M_t as
P^T = A_t left T^T right, left = A_t^{-1} X^{-T} and right = X^T
(:func:`build_pencil`), calling SciPy's LAPACK routines here and nowhere
else:

* ``bs-real``: real Schur (Q, R, Q^T), R quasi-triangular;
* ``bs-complex``: complex Schur (conj(W), S, W^T), S triangular, by
  ``rsf2csf`` from the real form, so each conjugate pair is adjacent;
* ``fd``: eigenvectors (X^{-T}, diag(D), X^T) of the pencil's QZ
  iteration (:func:`eig_pencil`), X^{-T} from one LU solve of X against
  I; the singular values of X give the condition number kappa2 the
  report carries.

Each decomposition's residual against P is checked, and a NaN residual
fails; the temporal matrices were checked once, when ``TemporalOperators``
was built.

The driver then transforms in, G = F left, and sweeps the spatial systems
of M_x Z + A_x Z T^T = G, each one shift lambda of the pencil
M_x + lambda A_x under the one ``sparse_direct.analyze`` of every solve.
Every variant back-substitutes over the diagonal blocks the pencil
records (:func:`_back_substitution`), one factorization each: a 2x2
block of R or S is a conjugate pair, solved at one eigenvalue of the
pair; diag(D) has 1x1 blocks only, and they are uncoupled (the fast
diagonalization of Lynch, Rice and Thomas).  The sweep writes Z over G,
so beside the sparse factors a solve holds one M_x x N_t work array.
With ``threads > 1`` fd's N_t systems run concurrently, dealt round-robin
to the calling thread and at most ``threads - 1`` pool workers, which
pays with BLAS pinned to one thread (``OPENBLAS_NUM_THREADS=1``), not
while BLAS's own threads fill the cores.  Last, U = Z right drops an
imaginary part below the variant's tolerance, leaving one real copy of
the coefficients, and the relative residual is checked against the
variant's bound.  A failed fd solve is rerun with
bs-complex and the report says so; a failed Schur solve raises.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dggev

from . import sparse_direct
from .errors import (
    ConvergenceFailure,
    DefectivePencil,
    DimensionMismatch,
    ImaginaryResidueTooLarge,
    NotPositiveDefinite,
    ResidualTooLarge,
    UsageError,
    check_array,
    check_integer,
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


@dataclass(frozen=True, eq=False)
class SpaceTimeSystem:
    """Assembled operators plus the transformed global right-hand side.

    ``rhs`` is ordered with the spatial index fastest: it is the
    column-major vectorization of the M_x-by-N_t right-hand-side matrix.
    A sequence is taken as an array and checked like one.
    """

    temporal: TemporalOperators
    spatial: SpatialOperators
    rhs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rhs", check_array(
            self.rhs, "rhs", (self.n_t * self.m_x,)))

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


@dataclass(frozen=True, eq=False)
class Pencil:
    """P^T = A_t left T^T right for P = A_t^{-1} M_t, right (A_t left) = I.

    left = A_t^{-1} X^{-T} and right = X^T for the variant's basis X: Q, W
    or fd's eigenvectors.  T is R (bs-real), S (bs-complex) or diag(D) of
    the eigenvalues D (fd), N_t x N_t for every variant.  ``starts``
    opens each diagonal block of T: R's blocks for both Schur variants
    (S keeps R's pairs as triangular 2x2 blocks), every index for fd.
    ``kappa2`` is the
    condition number sigma_max/sigma_min of fd's eigenvector matrix
    (None for the Schur variants).
    """

    left: np.ndarray
    T: np.ndarray
    right: np.ndarray
    starts: list
    min_re_lambda: float
    kappa2: Optional[float] = None


@dataclass(frozen=True, eq=False)
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

    A_t is factored once; X^{-T} is conj(X) for the Schur variants, and
    for fd one LU solve of X against I after the singularity check.

    Parameters
    ----------
    temporal : TemporalOperators
    variant : {"bs-real", "bs-complex", "fd"}

    Returns
    -------
    Pencil

    Raises
    ------
    UsageError
        For an unknown variant, before any factorization.
    DefectivePencil
        If an eigenvalue has nonpositive real part, or (fd only) the
        eigenvector matrix is numerically defective; the caller should
        fall back to "bs-complex".
    ConvergenceFailure
        If the Schur form fails, or its residual ||X T X^H - P||_F
        exceeds 1e-10 max(||P||_F, 1) (a NaN residual fails too).
    NotPositiveDefinite
        If Cholesky finds A_t indefinite.
    """
    if variant not in TOLERANCES:
        raise UsageError(f"unknown pencil variant: {variant!r}")
    L, P = _factor(temporal)
    kappa2 = None
    if variant == "fd":
        vals, X, sigma = _fd_spectrum(temporal, P)
        T, kappa2 = np.diag(vals), float(sigma[0] / sigma[-1])
        starts = list(range(len(vals)))
        # LU, not sla.inv, whose getri quadruples the level-5 residual
        inv_T = sla.solve(X, np.eye(len(X))).T
    else:
        # R quasi-triangular, LAPACK standardizing each 2x2 block (a pair
        # alpha +- i sqrt(-b1 b2)) to diagonal entries alpha, alpha; S
        # triangular, each pair of R a block [[lam, c], [0, mu]] with
        # mu = conj(lam) to rounding.  Either way diag(T) holds every
        # real part
        output = "real" if variant == "bs-real" else "complex"
        try:
            T, X = sla.schur(P, output="real")
        except sla.LinAlgError as exc:  # pragma: no cover - QR failure is rare
            raise ConvergenceFailure(str(exc)) from exc
        starts = block_starts(T)
        if output == "complex":
            T, X = sla.rsf2csf(T, X, check_finite=False)
        scale = max(np.linalg.norm(P, "fro"), 1.0)
        if not np.linalg.norm(X @ T @ X.conj().T - P, "fro") <= 1e-10 * scale:
            raise ConvergenceFailure(f"{output} Schur residual above tolerance")
        inv_T = np.conj(X)
    return Pencil(left=sla.cho_solve((L, True), inv_T), T=T, right=X.T,
                  starts=starts, min_re_lambda=_min_re_lambda(np.diag(T)),
                  kappa2=kappa2)


def _factor(temporal):
    """(L, P): the lower Cholesky factor of A_t and P = A_t^{-1} M_t."""
    try:
        L = sla.cholesky(temporal.A, lower=True)
    except sla.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    return L, sla.cho_solve((L, True), temporal.M)


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
    alphar, alphai, beta, _, vr, _, info = dggev(
        M, A, compute_vl=0, compute_vr=1
    )
    if info != 0:
        raise DefectivePencil(f"QZ iteration failed with info={info}")
    if np.any(beta == 0.0):
        raise DefectivePencil("pencil has an infinite eigenvalue")
    # a conjugate pair j, j + 1 (alphai[j] > 0) is stored as the real
    # and imaginary parts of its first eigenvector
    vecs = vr.astype(complex)
    j = np.flatnonzero(alphai > 0.0)
    re, im = vr[:, j], 1j * vr[:, j + 1]
    vecs[:, j], vecs[:, j + 1] = re + im, re - im
    return (alphar + 1j * alphai) / beta, vecs


def _fd_spectrum(temporal, P):
    """(eigenvalues, eigenvectors X, sigma) of P = A_t^{-1} M_t.

    For :func:`build_pencil` and :func:`eig_study`, which check the real
    parts; sigma holds the singular values of X, decreasing.  The
    eigenpairs are those of the pencil (M_t, A_t), which keeps the
    reference eigenvector scaling for the spectral statistics;
    eigenvectors of (M, A) and of A^{-1} M coincide.  Raises
    DefectivePencil on an eigenvector residual above 1e-8 ||P||_F (or
    NaN) or a numerically singular X (sigma_min <= N eps sigma_max; a
    repeated column leaves sigma_min near 1e-16 sigma_max).
    """
    vals, vecs = eig_pencil(temporal.M, temporal.A)
    scale = max(np.linalg.norm(P, "fro"), 1.0)
    resid = np.linalg.norm(P @ vecs - vecs * vals[None, :], "fro")
    if not resid <= 1e-8 * scale:
        raise DefectivePencil("eigenvector residual above tolerance")
    sigma = sla.svd(vecs, compute_uv=False)
    if sigma[-1] <= len(sigma) * np.finfo(float).eps * sigma[0]:
        raise DefectivePencil("eigenvector matrix is numerically singular")
    return vals, vecs, sigma


def _min_re_lambda(eigenvalues):
    min_re = float(np.min(eigenvalues.real))
    if min_re <= 0.0:
        raise DefectivePencil("pencil eigenvalue with nonpositive real part")
    return min_re


def block_starts(T):
    """Start indices of the diagonal blocks of an upper quasi-triangular T.

    A nonzero subdiagonal entry T[k+1, k] opens a 2x2 block at k, so every
    index starts a block but the one just after such an entry; a
    triangular T, whose subdiagonal is exactly zero, has only 1x1 blocks.
    """
    second = np.flatnonzero(np.diag(T, -1) != 0.0) + 1
    return np.setdiff1d(np.arange(T.shape[0]), second).tolist()


def _back_substitution(G, T, starts, A, symbolic, threads):
    """Solve M Z + A Z T^T = G for Z, with T upper quasi-triangular, in
    place: Z overwrites G, which is returned.

    Walks the diagonal blocks of T opened by ``starts`` from the last
    one; each block is one factorization at a shift lambda of the pencil
    analyzed in ``symbolic``, and ``A`` serves only the coupling update:
    h is G less A Z[:, end:] T[s:end, end:]^T, formed when the block is
    reached and only if T[s:end, end:] is nonzero.  A 1x1 block has
    lambda = T[k, k].  A 2x2 block [[a, b1], [b2, a]] of R, a conjugate
    pair a +- i omega with omega = sqrt(-b1 b2), is one complex solve
    (M + (a + i omega) A) w = b2 h_s + i omega h_{s+1} for
    w = b2 z_s + i omega z_{s+1}.  A 2x2 block [[lam, c], [0, mu]] of S,
    mu = conj(lam), is one two-column solve with F = M + lam A,
    F [y, w] = [h_s - v h_{s+1}, conj(h_{s+1})], v = c / (conj(lam) - lam):
    M and A are real, so z_{s+1} = conj(w), and z_s = y + v z_{s+1}.
    A block reads its columns of G before it writes them, and the
    coupling reads only columns already solved, so one array serves.
    Where no block couples to another (fd's diagonal T) and ``threads``
    exceeds 1, the blocks are dealt round-robin into min(threads, number
    of blocks) shares: the calling thread runs one and a pool of workers
    the rest, each share writing only its own columns.
    """
    n_t = G.shape[1]
    blocks = list(zip(starts, starts[1:] + [n_t]))

    def solve_block(block):
        s, end = block
        h = G[:, s:end]
        if T[s:end, end:].any():
            h = h - A @ (G[:, end:] @ T[s:end, end:].T)
        if end - s == 1:
            numeric = sparse_direct.factorize(symbolic, T[s, s])
            G[:, s] = sparse_direct.solve(numeric, h[:, 0])
        elif T[s + 1, s] == 0.0:
            lam = T[s, s]
            v = T[s, s + 1] / (np.conj(lam) - lam)
            numeric = sparse_direct.factorize(symbolic, lam)
            y, w = sparse_direct.solve(numeric, np.column_stack(
                [h[:, 0] - v * h[:, 1], np.conj(h[:, 1])])).T
            G[:, s + 1] = np.conj(w)
            G[:, s] = y + v * G[:, s + 1]
        else:
            b1, b2 = T[s, s + 1], T[s + 1, s]
            omega = np.sqrt(-b1 * b2)
            lam = complex(T[s, s], omega)
            numeric = sparse_direct.factorize(symbolic, lam)
            w = sparse_direct.solve(numeric,
                                    b2 * h[:, 0] + 1j * omega * h[:, 1])
            G[:, s], G[:, s + 1] = w.real / b2, w.imag / omega

    def solve_share(share):
        # one block per call, so a factorization is freed before the next
        for block in share:
            solve_block(block)

    workers = min(threads, len(blocks))
    if workers > 1 and not any(T[s:end, end:].any() for s, end in blocks):
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            rest = [pool.submit(solve_share, blocks[k::workers])
                    for k in range(1, workers)]
            solve_share(blocks[::workers])
            for future in rest:
                future.result()
    else:
        solve_share(reversed(blocks))
    return G


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
    G = system.rhs_matrix() @ pencil.left
    report.t_transform_in = time.perf_counter() - t0

    t0 = time.perf_counter()
    A = system.spatial.A_II
    symbolic = sparse_direct.analyze(system.spatial.M_II, A)
    Z = _back_substitution(G, pencil.T, pencil.starts, A, symbolic, threads)
    del G, symbolic  # Z is G, overwritten in place
    report.t_spatial = time.perf_counter() - t0

    t0 = time.perf_counter()
    U = Z @ pencil.right
    del Z
    coeffs = _discard_imaginary(U, imag_tol).ravel(order="F")
    del U
    report.t_transform_out = time.perf_counter() - t0
    report.residual = residual(system, coeffs)
    if not report.residual <= residual_bound:
        raise ResidualTooLarge(
            f"{variant} relative residual {report.residual:.3e} above "
            f"{residual_bound:.0e}"
        )
    return SpaceTimeSolution(coefficients=coeffs), report


def _discard_imaginary(U, tol):
    """The real part of U in Fortran order, so that the coefficient
    vector is a view of it; raises if the imaginary part exceeds tol."""
    norm = np.linalg.norm(U)
    imag = np.linalg.norm(U.imag)
    if norm > 0 and imag > tol * norm:
        raise ImaginaryResidueTooLarge(
            f"imaginary residue {imag / norm:.3e} above {tol:.1e}"
        )
    return np.asfortranarray(U.real)


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

    ``variant`` is "bs-real", "bs-complex" or "fd"; ``threads`` is the
    number of threads of the fd sweep, the calling thread and up to
    ``threads - 1`` pool workers.  The sweep runs in place on the
    transformed load, one M_x x N_t work array per solve.  Returns
    (SpaceTimeSolution, SolveReport).  A Schur variant whose residual
    exceeds its bound raises ResidualTooLarge.  If fd fails (defective
    pencil, imaginary residue or residual above its bound), the solve is
    rerun with bs-complex and the report carries ``fallback``.  An
    unknown variant, or a thread count that is not an integer or is
    below 1, raises UsageError.
    """
    if variant not in TOLERANCES:
        raise UsageError(f"unknown solver variant: {variant!r}")
    threads = check_integer(threads, "threads", 1)
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
    checks, without inverting the eigenvectors.

    Returns
    -------
    dict with keys n_t, min_re_lambda, sigma_min, sigma_max, kappa2;
    the mesh sizes are the caller's (``experiments.run_eigstudy`` adds
    them from the temporal mesh).
    """
    vals, _, sigma = _fd_spectrum(temporal, _factor(temporal)[1])
    return {"n_t": len(vals), "min_re_lambda": _min_re_lambda(vals),
            "sigma_min": float(sigma[-1]), "sigma_max": float(sigma[0]),
            "kappa2": float(sigma[0] / sigma[-1])}
