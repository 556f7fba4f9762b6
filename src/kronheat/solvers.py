"""Direct space-time solvers for the Kronecker-sum global system.

The global matrix K = A_t (x) M_x + M_t (x) A_x is never formed: the
coefficients U solve M_x U A_t + A_x U M_t^T = F.  :func:`solve` runs one
driver for every variant.  It decomposes P = A_t^{-1} M_t as
P^T = left T^T right, right = left^{-1} (:func:`build_pencil`):

* ``bs-real``: real Schur (Q, R, Q^T), R quasi-triangular;
* ``bs-complex``: complex Schur (conj(W), S, W^T), S triangular;
* ``fd``: eigenvectors (X^{-T}, D, X^T), both formed from the SVD of X.

It then transforms in, G = F A_t^{-1} left, and sweeps the N_t spatial
systems of M_x Z + A_x Z T^T = G.  The Schur variants back-substitute
over the diagonal blocks of T (:func:`_back_substitution`): a 2x2 block
of R, a conjugate pair, couples two spatial solves into one symmetric
indefinite system of dimension 2 M_x, factorized under the M + A
ordering lifted to node pairs, while S has only 1x1 blocks.  fd
solves the N_t diagonal systems independently, optionally on a thread
pool (:func:`_independent_sweep`).  Last, U = Z right drops an imaginary
part below the variant's tolerance and the relative residual is checked
against the variant's bound.  A failed fd solve is rerun with bs-complex
and the report says so; a failed Schur solve raises.
"""

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import sparse_direct
from .dense import (
    block_starts,
    cholesky_lower,
    complex_schur,
    eig_pencil,
    real_schur,
    spd_solve,
    svd_of_eigenvectors,
)
from .errors import (
    DefectivePencil,
    DimensionMismatch,
    ImaginaryResidueTooLarge,
    ResidualTooLarge,
    SizeGuardExceeded,
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
DENSE_ORACLE_GUARD = 5000


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
class PencilFactorization:
    """Decomposition of the temporal pencil plus the Cholesky of A_t."""

    variant: str
    chol_A: np.ndarray
    form: object

    @property
    def eigenvalues(self):
        return self.form.eigenvalues()

    @property
    def min_re_lambda(self):
        return float(np.min(self.eigenvalues.real))


@dataclass(frozen=True)
class SpaceTimeSolution:
    """Interior coefficients (spatial index fastest) plus boundary data."""

    coefficients: np.ndarray
    boundary_values: Optional[np.ndarray] = None

    def interior_matrix(self, m_x):
        return self.coefficients.reshape(m_x, -1, order="F")

    def full_coefficients(self, spatial):
        """(n_vertices, N_t) array including Dirichlet boundary rows."""
        Z = self.interior_matrix(spatial.n_interior)
        full = np.zeros((spatial.interior.size + spatial.boundary.size,
                         Z.shape[1]))
        full[spatial.interior] = Z
        if self.boundary_values is not None:
            full[spatial.boundary] = self.boundary_values
        return full


@dataclass
class SolveReport:
    """Wall times per step and spectral statistics of one solve."""

    variant: str
    dof: int
    n_t: int
    m_x: int
    t_decompose: float = 0.0
    t_transform_in: float = 0.0
    t_spatial: float = 0.0
    t_transform_out: float = 0.0
    residual: float = 0.0
    min_re_lambda: float = 0.0
    sigma_min: float = 0.0
    sigma_max: float = 0.0
    kappa2: float = 0.0
    threads: int = 1
    analyze_calls: int = 0
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
    PencilFactorization

    Raises
    ------
    DefectivePencil
        If an eigenvalue has nonpositive real part, or (fd only) the
        eigenvector matrix is numerically defective; the caller should
        fall back to "bs-complex".
    """
    L = cholesky_lower(temporal.A)
    P = spd_solve(L, temporal.M)
    if variant == "bs-real":
        form = real_schur(P)
    elif variant == "bs-complex":
        form = complex_schur(P)
    elif variant == "fd":
        # pencil route keeps the reference eigenvector scaling for the
        # spectral statistics; eigenvectors of (M, A) and of A^{-1} M
        # coincide
        vals, vecs = eig_pencil(temporal.M, temporal.A)
        scale = max(np.linalg.norm(P, "fro"), 1.0)
        resid = np.linalg.norm(P @ vecs - vecs * vals[None, :], "fro")
        if resid > 1e-8 * scale:
            raise DefectivePencil("eigenvector residual above tolerance")
        form = svd_of_eigenvectors(vecs, vals)
    else:
        raise ValueError(f"unknown pencil variant: {variant!r}")
    pencil = PencilFactorization(variant=variant, chol_A=L, form=form)
    if pencil.min_re_lambda <= 0.0:
        raise DefectivePencil("pencil eigenvalue with nonpositive real part")
    return pencil


def _back_substitution(G, T, M, A):
    """Solve M Z + A Z T^T = G for Z, with T upper quasi-triangular.

    Walks the diagonal blocks of T from the last one.  A 1x1 block is one
    spatial system M + T[k, k] A; a 2x2 block (a real conjugate pair)
    couples two columns into one scaled symmetric indefinite system of
    dimension 2 M_x.  Symbolic analysis runs once per block size, each
    time on the union pattern of M and A: a pair system is factorized
    under that ordering lifted to node pairs, which keeps z_s and z_{s+1}
    of each spatial node adjacent.
    """
    m_x, n_t = G.shape
    Z = np.zeros_like(G)
    acc = np.zeros_like(G)
    symbolic = {}
    starts = block_starts(T)
    for s, end in reversed(list(zip(starts, starts[1:] + [n_t]))):
        size = end - s
        D = (M + T[s, s] * A).tocsr()
        if size == 1:
            K, scale, sign = D, [1.0], [1.0]
        else:
            # unknown (z_s, -z_{s+1}); the pair is alpha +- i sqrt(-b1 b2)
            b1, b2 = T[s, s + 1], T[s + 1, s]
            K = sp.bmat([[abs(b2) * D, -b1 * abs(b2) * A],
                         [abs(b1) * b2 * A, -abs(b1) * D]], format="csr")
            scale, sign = [abs(b2), abs(b1)], [1.0, -1.0]
        if size not in symbolic:
            symbolic[size] = sparse_direct.analyze((M + A).tocsr(),
                                                   block=size)
        rhs = ((G[:, s:end] - acc[:, s:end]) * scale).ravel(order="F")
        z = sparse_direct.factorize(symbolic[size], K).solve(rhs)
        Z[:, s:end] = z.reshape(m_x, size, order="F") * sign
        acc[:, :s] += (A @ Z[:, s:end]) @ T[:s, s:end].T
    return Z


def _independent_sweep(G, D, M, A, threads):
    """Solve (M + D[k] A) z_k = g_k for every column k independently.

    ``threads`` sizes the worker pool; the symbolic factorization is
    shared read-only.
    """
    symbolic = sparse_direct.analyze((M + A).tocsr())

    def spatial_solve(k):
        K = (M + D[k] * A).tocsr()
        return sparse_direct.factorize(symbolic, K).solve(G[:, k])

    columns = range(G.shape[1])
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.column_stack(list(pool.map(spatial_solve, columns)))
    return np.column_stack([spatial_solve(k) for k in columns])


def _solve(system, variant, threads):
    """One solve by one variant; see the module docstring."""
    imag_tol, residual_bound = TOLERANCES[variant]
    report = SolveReport(variant=variant, dof=system.dof, n_t=system.n_t,
                         m_x=system.m_x)
    t0 = time.perf_counter()
    pencil = build_pencil(system.temporal, variant)
    left, T, right = pencil.form.transforms()
    report.t_decompose = time.perf_counter() - t0
    report.min_re_lambda = pencil.min_re_lambda
    if variant == "fd":
        form = pencil.form
        report.threads = threads
        report.sigma_min, report.sigma_max = form.sigma_min, form.sigma_max
        report.kappa2 = form.kappa2

    t0 = time.perf_counter()
    F = system.rhs_matrix()
    G = spd_solve(pencil.chol_A, F.T).T @ left
    report.t_transform_in = time.perf_counter() - t0

    t0 = time.perf_counter()
    analyze_before = sparse_direct.analyze_call_count()
    M, A = system.spatial.M_II.tocsr(), system.spatial.A_II.tocsr()
    if variant == "fd":
        Z = _independent_sweep(G, T, M, A, threads)
    else:
        Z = _back_substitution(G, T, M, A)
    report.analyze_calls = sparse_direct.analyze_call_count() - analyze_before
    report.t_spatial = time.perf_counter() - t0

    t0 = time.perf_counter()
    coeffs = _discard_imaginary(Z @ right, imag_tol).ravel(order="F")
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


def solve_dense_oracle(system):
    """Reference solve forming the Kronecker-sum matrix explicitly."""
    if system.dof > DENSE_ORACLE_GUARD:
        raise SizeGuardExceeded(
            f"dof {system.dof} exceeds oracle guard {DENSE_ORACLE_GUARD}"
        )
    K = (np.kron(system.temporal.A, system.spatial.M_II.toarray())
         + np.kron(system.temporal.M, system.spatial.A_II.toarray()))
    coeffs = np.linalg.solve(K, system.rhs)
    return SpaceTimeSolution(coefficients=coeffs)


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
    the report carries ``fallback``.
    """
    if variant not in TOLERANCES:
        raise ValueError(f"unknown solver variant: {variant!r}")
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

    Returns
    -------
    dict with keys n_t, min_re_lambda, sigma_min, sigma_max, kappa2;
    the mesh sizes are the caller's (``experiments.run_eigstudy`` adds
    them from the temporal mesh).
    """
    pencil = build_pencil(temporal, "fd")
    form = pencil.form
    return {
        "n_t": temporal.A.shape[0],
        "min_re_lambda": pencil.min_re_lambda,
        "sigma_min": form.sigma_min,
        "sigma_max": form.sigma_max,
        "kappa2": form.kappa2,
    }
