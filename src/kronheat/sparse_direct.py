"""Sparse direct factorization of the spatial pencil M + shift * A.

Every spatial system of the space-time solvers is M + lambda A on one
pair of matrices, lambda real or complex.  :func:`analyze` orders the
union pattern of M and A once and keeps both permuted by that ordering,
stored on that one pattern; :func:`factorize` takes only the shift, adds
the two arrays of stored values and runs SuperLU in the natural order.
A solve of ``solvers`` calls :func:`analyze` once and :func:`factorize`
once per diagonal block of its temporal form.  Complex symmetric
systems are factorized in complex arithmetic without conjugation tricks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, SingularMatrix

PIVOT_THRESHOLD = 1e-13


@dataclass(frozen=True)
class SymbolicFactorization:
    """The pencil M + shift * A under its fill-reducing ordering.

    Immutable; shareable across threads.  ``perm`` is the minimum-degree
    ordering of the union pattern, ``M`` and ``A`` are P M P^T and
    P A P^T in CSC, and ``factor_nnz`` is the predicted L+U fill of
    every shift.  ``M`` and ``A`` are stored on one sorted pattern, the
    union of the patterns given, explicit zeros included.
    """

    n: int
    perm: np.ndarray
    factor_nnz: int
    M: sp.csc_matrix
    A: sp.csc_matrix

    def __post_init__(self):
        p = np.sort(np.asarray(self.perm))
        if not np.array_equal(p, np.arange(self.n)):
            raise DimensionMismatch("permutation is not a bijection on 0..n-1")
        M, A = _shared_pattern(self.M, self.A)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "A", A)


def _shared_pattern(M, A):
    # M and A in CSC on the union of their patterns, sorted; coo -> csc
    # sums duplicates and keeps explicit zeros
    M, A = sp.coo_matrix(M), sp.coo_matrix(A)
    ij = (np.concatenate([M.row, A.row]), np.concatenate([M.col, A.col]))
    return tuple(
        sp.csc_matrix((np.concatenate(data), ij), shape=M.shape)
        for data in ((M.data, np.zeros(A.nnz)), (np.zeros(M.nnz), A.data)))


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


def analyze(M, A):
    """Symbolic analysis of the pencil M + shift * A.

    The symmetrized union pattern of M and A is ordered once; the
    returned analysis fixes the fill of every shift and holds M and A
    permuted by that ordering.

    Raises
    ------
    DimensionMismatch
        If M is not square or A's shape differs from M's.
    """
    M, A = sp.csr_matrix(M), sp.csr_matrix(A)
    if M.shape[0] != M.shape[1] or A.shape != M.shape:
        raise DimensionMismatch(
            f"M {M.shape} and A {A.shape} do not form a square pencil")
    n = M.shape[0]
    # union-symmetrize, then build a diagonally dominant stand-in whose
    # elimination drives the minimum-degree ordering
    S = abs(M) + abs(A)
    S = ((S + S.T) != 0).astype(float)
    stand_in = sp.csc_matrix(S + (n + 1) * sp.identity(n))
    probe = spla.splu(
        stand_in,
        permc_spec="MMD_AT_PLUS_A",
        options={"SymmetricMode": True},
    )
    # perm_c maps original index -> elimination position; invert it to
    # the elimination sequence.  SuperLU postorders the elimination tree
    # of each matrix it factorizes, so no postorder is needed here.
    perm = np.argsort(np.asarray(probe.perm_c))
    return SymbolicFactorization(
        n=n, perm=perm, factor_nnz=int(probe.L.nnz + probe.U.nnz),
        M=sp.csc_matrix(M[perm, :][:, perm]),
        A=sp.csc_matrix(A[perm, :][:, perm]))


def factorize(symbolic, shift):
    """Numeric factorization of M + shift * A under its analysis.

    The pencil is already permuted and shares one pattern, so the
    matrix is formed from the stored values alone, and SuperLU runs with
    the natural column order and no re-analysis.  Partial pivoting on
    rows is retained for stability.

    Raises
    ------
    SingularMatrix
        If a pivot magnitude falls below 1e-13 times the largest entry.
    """
    M, A = symbolic.M, symbolic.A
    K = sp.csc_matrix((M.data + shift * A.data, M.indices, M.indptr),
                      shape=M.shape)
    try:
        lu = spla.splu(K, permc_spec="NATURAL", options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularMatrix(str(exc)) from exc
        raise
    dmax = np.abs(K.data).max() if K.nnz else 0.0
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
