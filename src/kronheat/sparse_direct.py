"""Sparse direct factorization of the spatial pencil M + shift * A.

Every spatial system of the space-time solvers is M + lambda A on one
pair of matrices, lambda real or complex.  :func:`analyze` orders the
union pattern of M and A once and keeps both permuted by that ordering,
stored on that one pattern; :func:`factorize` takes only the shift, adds
the two arrays of stored values and runs SuperLU in the natural order,
with a panel of one column (:data:`PANEL_SIZE`).
A solve of ``solvers`` calls :func:`analyze` once and :func:`factorize`
once per diagonal block of its temporal form.  Complex symmetric
systems are factorized in complex arithmetic without conjugation tricks.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DimensionMismatch, SingularMatrix, UsageError

PIVOT_THRESHOLD = 1e-13

# SuperLU's panel width.  The default panel spends dense panel work on the
# small supernodes of the 2D pencil; one column keeps the same fill and
# row pivots and cuts a level-4 splu from 5.7 to 4.4 ms (level 6: 285 to
# 232 ms); widths of 8 or more lose most of that
PANEL_SIZE = 1


@dataclass(frozen=True, eq=False)
class SymbolicFactorization:
    """The pencil M + shift * A under its fill-reducing ordering.

    Built by :func:`analyze`; immutable and shareable across threads.
    ``perm`` is the minimum-degree ordering of the union pattern, ``M``
    and ``A`` are P M P^T and P A P^T in CSC on one sorted pattern, the
    union of theirs, explicit zeros included, and ``factor_nnz`` is the
    L+U fill predicted from the ordering.  It is exact at levels 0-5 of
    the L-shape pencil; SuperLU's row pivoting can add to it (at level 6
    a shift's factors hold 3,496,060 entries against 3,377,487, +3.5%).
    """

    n: int
    perm: np.ndarray
    factor_nnz: int
    M: sp.csc_matrix
    A: sp.csc_matrix


class NumericFactorization:
    """LU factors of one matrix, bound to a SymbolicFactorization."""

    def __init__(self, symbolic, lu):
        self.symbolic = symbolic
        self._lu = lu

    @property
    def factor_nnz(self):
        """Actual L+U nonzeros, unit diagonal of L included."""
        return int(self._lu.L.nnz + self._lu.U.nnz)


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
    M, A = sp.coo_matrix(M), sp.coo_matrix(A)
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
        panel_size=PANEL_SIZE,
        options={"SymmetricMode": True},
    )
    # perm_c maps original index -> elimination position; invert it to
    # the elimination sequence.  SuperLU postorders the elimination tree
    # of each matrix it factorizes, so no postorder is needed here.
    position = np.asarray(probe.perm_c)
    perm = np.argsort(position)
    # P M P^T and P A P^T on the union of their patterns in one coo ->
    # csc step, which sorts, sums duplicates and keeps explicit zeros
    ij = (position[np.concatenate([M.row, A.row])],
          position[np.concatenate([M.col, A.col])])
    M, A = (sp.csc_matrix((np.concatenate(data), ij), shape=(n, n))
            for data in ((M.data, np.zeros(A.nnz)), (np.zeros(M.nnz), A.data)))
    return SymbolicFactorization(
        n=n, perm=perm, factor_nnz=int(probe.L.nnz + probe.U.nnz), M=M, A=A)


def factorize(symbolic, shift):
    """Numeric factorization of M + shift * A under its analysis.

    The pencil is already permuted and shares one pattern, so the
    matrix is formed from the stored values alone, and SuperLU runs with
    the natural column order and no re-analysis.  Partial pivoting on
    rows is retained for stability.

    Raises
    ------
    UsageError
        If the shift is not finite.
    SingularMatrix
        If a pivot magnitude falls below 1e-13 times the largest entry.
    """
    if not np.isfinite(shift):
        raise UsageError(f"shift must be finite, got {shift!r}")
    M, A = symbolic.M, symbolic.A
    K = sp.csc_matrix((M.data + shift * A.data, M.indices, M.indptr),
                      shape=M.shape)
    try:
        lu = spla.splu(K, permc_spec="NATURAL", panel_size=PANEL_SIZE,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:
        if "singular" in str(exc).lower():
            raise SingularMatrix(str(exc)) from exc
        raise
    dmax = np.abs(K.data).max() if K.nnz else 0.0
    # SciPy offers the pivots only through U: the first lu.U converts both
    # factors to CSC and caches them for the life of the factorization (a
    # later lu.L costs nothing).  At level 4 that is about 1 ms and 2.3 MB
    # per factorization, short-lived arrays whose pages glibc may trim and
    # the next factorization fault back in
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
