"""The three temporal matrices, from a single cell to a refined mesh.

The time discretization replaces the first-order derivative coupling of
a marching scheme with a transformation that pairs trial and test
functions globally in time.  The price is that the temporal matrices
A (derivative-derivative), M (mass-like), and C (auxiliary projection
weight) are dense and assembled from a sine series; the payoff is that
A is symmetric positive definite and the pencil (M, A) has all its
eigenvalues in the right half-plane, which is what lets the solvers
decompose time and space independently.

Run from the repository root:

    python demos/temporal_matrices.py
"""

import numpy as np

from kronheat import (
    DEFAULT_J_MAX,
    TemporalMesh,
    assemble_temporal_operators,
    refine_bisect,
    tail_bounds,
)
from kronheat.solvers import eig_pencil

# --- a single cell has closed-form entries --------------------------------
# A[0,0] = 14 zeta(3) / pi^3 independent of the cell length, and
# C[0,0] = T * A[0,0].  Handy as a first sanity check of the series.
T = 0.5
single = assemble_temporal_operators(TemporalMesh([0.0, T]))
print(f"single cell (0, {T})")
print(f"  A[0,0] = {single.A[0, 0]:.12f}   (14 zeta(3)/pi^3 = 0.542754514441)")
print(f"  M[0,0] = {single.M[0, 0]:.12f}")
print(f"  C[0,0] = {single.C[0, 0]:.12f}   (= T * A[0,0])")

# --- the nonuniform study mesh --------------------------------------------
# Start from the four-cell graded partition of (0, 1/2) used by the
# refinement experiments and bisect twice.
base = TemporalMesh([0.0, 1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 2.0])
coarse = assemble_temporal_operators(base)
mesh = refine_bisect(refine_bisect(base))
temp = assemble_temporal_operators(mesh)
print(f"\nrefined mesh: N_t = {temp.n}, h_max/h_min = "
      f"{mesh.h_max / mesh.h_min:g}")

# A is symmetric positive definite: Cholesky succeeds and the
# antisymmetric remainder is at rounding level.
np.linalg.cholesky(temp.A)
asym = np.abs(temp.A - temp.A.T).max() / np.abs(temp.A).max()
print(f"  A: Cholesky ok, relative asymmetry {asym:.1e}")

# M is genuinely nonsymmetric, but its symmetric part is still positive
# definite.  The smallest eigenvalue of the symmetric part shrinks by
# about four orders of magnitude per mesh doubling, so it is cleanly
# positive on the four-cell mesh and already lost in rounding noise
# after two bisections.
skew = np.abs(temp.M - temp.M.T).max() / np.abs(temp.M).max()


def min_sym_eig(M):
    return np.linalg.eigvalsh(0.5 * (M + M.T)).min()


print(f"  M: relative asymmetry {skew:.1e}, sym part min eig "
      f"{min_sym_eig(coarse.M):.2e} (N_t = {coarse.n}) -> "
      f"{min_sym_eig(temp.M):.2e} (N_t = {temp.n})")

# The solvers rest on the pencil (M, A): every eigenvalue has positive
# real part, and the nonreal ones come in conjugate pairs.  Real
# eigenvalues do occur (two on this mesh); the real-Schur solver handles
# them with dedicated 1x1 diagonal blocks.
vals, _ = eig_pencil(temp.M, temp.A)
n_real = int(np.sum(vals.imag == 0.0))
print(f"  pencil: min Re lambda = {vals.real.min():.3e}, "
      f"{n_real} real eigenvalue(s) out of {temp.n}")

# --- series truncation ----------------------------------------------------
# Entries are sums over j of terms decaying like j^-3, so the truncation
# tail falls off like j_max^-2: doubling j_max shrinks the error by 4x.
# The a priori bounds overestimate the actual change but show the rate.
print(f"\ntruncation against a j_max = {8 * DEFAULT_J_MAX} reference")
reference = assemble_temporal_operators(mesh, j_max=8 * DEFAULT_J_MAX)
for j_max in (DEFAULT_J_MAX // 4, DEFAULT_J_MAX // 2, DEFAULT_J_MAX):
    truncated = assemble_temporal_operators(mesh, j_max=j_max)
    bounds = tail_bounds(mesh, j_max)
    parts = []
    for name, X, Y, bound in (("A", truncated.A, reference.A, bounds[0]),
                              ("M", truncated.M, reference.M, bounds[1]),
                              ("C", truncated.C, reference.C, bounds[2])):
        parts.append(f"{name} {np.abs(X - Y).max():.1e} <= {bound:.1e}")
    print(f"  j_max = {j_max:7d}: entry change vs bound  " + ", ".join(parts))
