"""Sparse direct factorization with separated symbolic and numeric phases.

Wraps SuperLU (via scipy) behind an analyze/factorize/solve split so the
fill-reducing ordering is computed once per sparsity pattern and reused
across the many shifted matrices M + lambda*A the space-time solvers
produce.  A block system built from copies of one pattern, such as the
coupled 2 M_x system of a conjugate pair, reuses that pattern's ordering
lifted to node blocks (``analyze(pattern, block=2)``).  Real and complex
matrices share the machinery; complex symmetric systems are factorized
in complex arithmetic without conjugation tricks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, SingularMatrix

PIVOT_THRESHOLD = 1e-13

_analyze_calls = 0


def analyze_call_count():
    """Total number of symbolic analyses performed in this process."""
    return _analyze_calls


@dataclass(frozen=True)
class SymbolicFactorization:
    """Fill-reducing permutation and predicted factor structure.

    Immutable; shareable across threads.  ``perm`` is the symmetric
    fill-reducing permutation applied as P A P^T before the numeric
    phase, computed by minimum-degree analysis of the pattern.
    """

    n: int
    perm: np.ndarray
    factor_nnz: int

    def __post_init__(self):
        p = np.sort(np.asarray(self.perm))
        if not np.array_equal(p, np.arange(self.n)):
            raise DimensionMismatch("permutation is not a bijection on 0..n-1")


class NumericFactorization:
    """LU factors of one matrix, bound to a SymbolicFactorization."""

    def __init__(self, symbolic, lu):
        self.symbolic = symbolic
        self._lu = lu

    @property
    def factor_nnz(self):
        """Actual L+U nonzeros, unit diagonal of L included."""
        return int(self._lu.L.nnz + self._lu.U.nnz)

    def solve(self, rhs):
        return solve(self, rhs)


def analyze(pattern, block=1):
    """Symbolic analysis of a (structurally symmetric) sparsity pattern.

    Parameters
    ----------
    pattern : sparse matrix
        Only the pattern is used.  Non-symmetric patterns are
        symmetrized by union first.
    block : int
        Lift the analysis to a ``block`` x ``block`` block matrix whose
        blocks lie inside ``pattern`` (unknowns in block order: copy j of
        node i at i + j n).  The copies of each node are eliminated
        together, in the node order of ``pattern``:
        [p0, p0 + n, ..., p1, p1 + n, ...].  This keeps bs-real's
        indefinite pair systems at about the predicted fill, which an
        analysis of the block pattern itself does not: SuperLU's
        pivoting breaks that ordering.

    Returns
    -------
    SymbolicFactorization
        Fixes the ordering, and so the fill, of every matrix factorized
        against it.  Containment in this pattern is not a correctness
        condition: SuperLU works out each matrix's own structure.
    """
    global _analyze_calls
    A = sp.csr_matrix(pattern)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("pattern must be square")
    n = A.shape[0]
    # union-symmetrize, then build a diagonally dominant stand-in whose
    # elimination drives the minimum-degree ordering
    S = (A != 0).astype(float)
    S = ((S + S.T) != 0).astype(float)
    S = S + sp.identity(n, format="csr")
    stand_in = sp.csc_matrix(S + n * sp.identity(n))
    probe = spla.splu(
        stand_in,
        permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True},
    )
    # perm_c maps original index -> elimination position; invert it to
    # the elimination sequence.  SuperLU postorders the elimination tree
    # of each matrix it factorizes, so no postorder is needed here.
    perm = np.argsort(np.asarray(probe.perm_c))
    factor_nnz = int(probe.L.nnz + probe.U.nnz)
    if block > 1:
        perm = (perm[:, None] + n * np.arange(block)).ravel()
        # every off-diagonal entry of the node factors becomes a dense
        # block**2 block, every diagonal entry a dense block whose lower
        # triangle goes to L and upper triangle to U
        factor_nnz = block**2 * (factor_nnz - 2 * n) + block * (block + 1) * n
        n *= block
    _analyze_calls += 1
    return SymbolicFactorization(n=n, perm=perm, factor_nnz=factor_nnz)


def factorize(symbolic, matrix):
    """Numeric factorization reusing a symbolic analysis.

    The symmetric permutation from ``symbolic`` is applied up front and
    SuperLU runs with the natural column order, so distinct shifted
    matrices with one shared pattern factorize without re-analysis.
    Partial pivoting on rows is retained for stability.

    Raises
    ------
    SingularMatrix
        If a pivot magnitude falls below 1e-13 times the largest entry.
    """
    A = sp.csr_matrix(matrix)
    if A.shape != (symbolic.n, symbolic.n):
        raise DimensionMismatch(
            f"matrix shape {A.shape} does not match analysis ({symbolic.n})"
        )
    perm = symbolic.perm
    Ap = sp.csc_matrix(A[perm, :][:, perm])
    try:
        lu = spla.splu(Ap, permc_spec="NATURAL", options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularMatrix(str(exc)) from exc
        raise
    dmax = np.abs(A.data).max() if A.nnz else 0.0
    pivots = np.abs(lu.U.diagonal())
    if dmax == 0.0 or pivots.min() < PIVOT_THRESHOLD * dmax:
        raise SingularMatrix(
            f"pivot {pivots.min():.3e} below threshold {PIVOT_THRESHOLD * dmax:.3e}"
        )
    return NumericFactorization(symbolic, lu)


def solve(numeric, rhs):
    """Solve with a numeric factorization; accepts multi-column rhs."""
    rhs = np.asarray(rhs)
    n = numeric.symbolic.n
    if rhs.shape[0] != n:
        raise DimensionMismatch(f"rhs has {rhs.shape[0]} rows, expected {n}")
    perm = numeric.symbolic.perm
    x = numeric._lu.solve(rhs[perm])
    out = np.empty_like(x)
    out[perm] = x
    return out
