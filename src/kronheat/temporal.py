"""Temporal matrices induced by the modified Hilbert transformation.

The transformation H_T maps the sine basis sin(theta_j t/T) onto the cosine
basis cos(theta_j t/T), with frequencies theta_j = pi/2 + j*pi.  Expanding a
piecewise linear hat function phi_l in the sine basis,

    phi_l = sum_j a[l][j] sin(theta_j t/T),
    a[l][j] = (2/T) int_0^T phi_l(t) sin(theta_j t/T) dt,

turns the H_T-weighted temporal forms into rapidly converging series:

    A[l,k] = <d/dt phi_k, H_T phi_l> = 1/2 sum_j theta_j a[k][j] a[l][j]
    M[l,k] = <phi_k, H_T phi_l>      = sum_j a[l][j] b[k][j]
    C[k,l] = <chi_l, H_T phi_k>      = sum_j a[k][j] d[l][j]

where b[k][j] integrates the hat against cos(theta_j t/T), d[l][j] integrates
the indicator chi_l of cell (t_{l-1}, t_l) against the same cosine, and all
three coefficient families have closed forms in the mesh nodes.  The node-0
hat is dropped from the basis (the trial space vanishes at t = 0); the hat at
t = N_t is truncated at T.  The only approximation anywhere is truncation of
the series at j_max; products decay like theta_j^-3 (A, C) and theta_j^-4 (M),
so entry tails shrink like j_max^-2 and j_max^-3.

No table of a[l][j] is formed here: by parts, a[l][j] is 2T/theta_j^2 times
the ``_hat_bracket`` of s_i = sin(theta_j t_i/T), and the kernel sums only
brackets.  The tables a, b, d live in the math above and in the term-by-term
series oracle of the test suite.

Each coefficient is a power of theta_j times sines or cosines of theta_j x_i,
x_i = t_i/T.  When every 2^p x_i is an integer (a dyadic mesh), these repeat
in j with period P = 2^(p+1), since theta_{j+P} x_i = theta_j x_i + 2 pi 2^p x_i,
and so does (-1)^j.  The truncated series then regroups exactly by residue
r = j mod P, e.g. A = 2T^2 sum_{r<P} W_3(r) beta_r beta_r^T with beta_r the
``_hat_bracket`` of the sines and W_k(r) the sum of theta_j^-k over j <= j_max,
j = r mod P.  Those are Q = (j_max - r)//P + 1 terms theta_j = pi P (q + a),
q < Q, a = (r + 1/2)/P, so W_k(r) = (pi P)^-k (zeta(k, a) - zeta(k, a + Q))
with zeta the Hurwitz zeta function.  Since P x_i is even, residue
P - 1 - r has the sines -sin(theta_r x_i), the cosines cos(theta_r x_i)
and the sign -(-1)^r, so the sum folds each such mirror into its residue
r < P/2: P/2 folded residues, with weights W_3(r) + W_3(P - 1 - r) and
W_4(r) - W_4(P - 1 - r).
Assembly costs O(N_t^2 P), not the O(N_t^2 P + j_max) of summing terms,
with P = 512 (256 folded residues) on the level-4 mesh of (0, 1/2).  On any
other mesh P = j_max + 1, every residue holds one term, none is folded, and
the same code sums the series term by term in O(N_t^2 j_max).

A is symmetric positive definite and M has positive definite symmetric part
for every partition, which is what makes the first-order time derivative
tractable by Galerkin methods in the first place.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsyrk
from scipy.special import zeta

from .errors import DimensionMismatch, NotPositiveDefinite, UsageError

# Default series truncation.  The acceptance bar is that doubling j_max moves
# no entry by more than 1e-8 relative on meshes up to N_t = 64; the entrywise
# tail decays like j_max^-2 and sits near 5e-9 at this budget (measured).
DEFAULT_J_MAX = 2_000_000

# Residues per accumulation block; keeps the sin/cos workspaces at a few
# megabytes while the products stay BLAS-bound.
_CHUNK = 1 << 15


@dataclass(frozen=True, eq=False)
class TemporalMesh:
    """Partition 0 = t_0 < t_1 < ... < t_{N_t} = T of the time interval.

    Parameters
    ----------
    nodes : array_like
        Strictly increasing finite node coordinates starting at 0.
    """

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("need at least two nodes")
        if nodes[0] != 0.0:
            raise ValueError("mesh must start at t = 0")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("nodes must be finite")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        nodes = nodes.copy()
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_cells(self) -> int:
        return len(self.nodes) - 1

    @property
    def h(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def h_max(self) -> float:
        return float(self.h.max())

    @property
    def h_min(self) -> float:
        return float(self.h.min())


def refine_bisect(mesh: TemporalMesh) -> TemporalMesh:
    """Bisect every cell, keeping the h_max/h_min ratio of the partition."""
    mids = 0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])
    return TemporalMesh(np.sort(np.concatenate([mesh.nodes, mids])))


def _hat_bracket(vals: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Per hat, its left slope minus its right one (the last hat: left only).

    Of the sines this is a[l][j] theta_j^2/(2T) (module docstring).
    """
    n = len(nodes) - 1
    h = np.diff(nodes)
    d = (vals[1:, :] - vals[:-1, :]) / h[:, None]
    out = np.empty_like(d)
    out[: n - 1, :] = d[: n - 1, :] - d[1:, :]
    out[n - 1, :] = d[n - 1, :]
    return out


@dataclass(frozen=True, eq=False)
class TemporalOperators:
    """The assembled dense temporal matrices A, M, C and the budget used.

    The record checks itself once, at construction, and keeps read-only
    float copies of its matrices, so the solvers need not check them
    again: A, M and C must be N x N of one size (``DimensionMismatch``),
    finite (``UsageError``), and A symmetric to rtol 1e-10, atol 1e-14
    (``NotPositiveDefinite``; Cholesky finds an indefinite A when the
    pencil is decomposed).
    """

    A: np.ndarray
    M: np.ndarray
    C: np.ndarray
    j_max: int

    def __post_init__(self):
        A, M, C = (np.array(x, dtype=float) for x in (self.A, self.M, self.C))
        if A.ndim != 2 or A.shape[0] != A.shape[1] or not (
                A.shape == M.shape == C.shape):
            raise DimensionMismatch(
                f"A, M, C must be N x N, got {A.shape}, {M.shape}, {C.shape}")
        if not all(np.all(np.isfinite(x)) for x in (A, M, C)):
            raise UsageError("temporal matrices contain non-finite entries")
        if not np.allclose(A, A.T, rtol=1e-10, atol=1e-14):
            raise NotPositiveDefinite("A is not symmetric")
        for name, x in zip("AMC", (A, M, C)):
            x.flags.writeable = False
            object.__setattr__(self, name, x)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def tail_bounds(mesh: TemporalMesh, j_max: int) -> tuple[float, float, float]:
    """Conservative absolute bounds on the truncated entry tails of A, M, C.

    Derived from the envelopes |a| <= 8T/(h_min theta^2),
    |b| <= T/theta + 4T^2/(h_min theta^2), |d| <= 2T/theta and the integral
    bounds sum_{j>J} theta_j^-3 <= 1/(2 pi^3 (J+1)^2),
    sum_{j>J} theta_j^-4 <= 1/(3 pi^4 (J+1)^3).
    """
    T, hmin = mesh.T, mesh.h_min
    J1 = j_max + 1.0
    s3 = 1.0 / (2.0 * np.pi**3 * J1**2)
    s4 = 1.0 / (3.0 * np.pi**4 * J1**3)
    tail_a = 32.0 * T**2 / hmin**2 * s3
    tail_m = 8.0 * T**2 / hmin * s3 + 32.0 * T**3 / hmin**2 * s4
    tail_c = 16.0 * T**2 / hmin * s3
    return tail_a, tail_m, tail_c


def _blocks(n: int, size: int):
    """[start, stop) blocks of at most `size` covering range(n), last block first."""
    for start in range(((n - 1) // size) * size, -1, -size):
        yield start, min(start + size, n)


def _dyadic_period(mesh: TemporalMesh, j_max: int) -> int | None:
    """P = 2^(p+1) for the smallest p with every 2^p t_i/T integral, if P <= j_max + 1.

    Each float ratio is a dyadic fraction, and the largest denominator is 2^p.
    """
    P = 2 * max(float(x).as_integer_ratio()[1] for x in mesh.nodes / mesh.T)
    return None if P > j_max + 1 else P


def _residue_weights(r: np.ndarray, P: int, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """W_k(r) = sum of theta_j^-k over j = r + qP <= j_max, for k = 3 and 4.

    The zeta closed form (module docstring) where residue r holds Q > 1
    terms.  A residue with one term keeps it, theta_r^-k, so a non-dyadic
    mesh sums its series exactly as term by term.
    """
    inv = 1.0 / (np.pi * (r + 0.5))
    w3 = inv**3
    w4 = w3 * inv
    Q = (j_max - r) // P + 1
    many = Q > 1
    a = (r[many] + 0.5) / P
    for k, w in ((3, w3), (4, w4)):
        w[many] = (zeta(k, a) - zeta(k, a + Q[many])) / (np.pi * P) ** k
    return w3, w4


def _folded_weights(r: np.ndarray, P: int, j_max: int) -> tuple[np.ndarray, np.ndarray]:
    """W_3(r) + W_3(P - 1 - r) and W_4(r) - W_4(P - 1 - r) for residues r < P/2.

    The weights of a dyadic mesh's residues with their mirrors folded in
    (module docstring); ``_residue_weights`` sees both in ascending order.
    """
    w3, w4 = _residue_weights(np.concatenate([r, P - 1 - r[::-1]]), P, j_max)
    n = r.size
    return w3[:n] + w3[n:][::-1], w4[:n] - w4[n:][::-1]


def assemble_temporal_operators(mesh: TemporalMesh, j_max: int = DEFAULT_J_MAX) -> TemporalOperators:
    """Assemble A, M, C from the series truncated at j_max, summed per phase residue.

    With beta, gamma the hat brackets of sin/cos(theta_r t/T), delta the cell
    differences of the sine values and W_k the residue weights (module
    docstring), for residues r < P:

        A = 2T^2 beta diag(W_3) beta^T
        M = 2T^3 beta diag(W_4) gamma^T + 2T^2 beta diag(W_3) (-1)^r e_{N_t}^T
        C = 2T^2 beta diag(W_3) delta^T

    On a dyadic mesh the sum runs over r < P/2, each residue with its
    mirror P - 1 - r folded into its weights (``_folded_weights``).  A
    j_max that is not an integer raises TypeError, a negative one ValueError.
    """
    try:
        j_max = operator.index(j_max)
    except TypeError:
        raise TypeError(f"j_max must be an integer, got {j_max!r}") from None
    if j_max < 0:
        raise ValueError("j_max must be >= 0")
    nodes, T, n = mesh.nodes, mesh.T, mesh.n_cells
    x = nodes / T
    dyadic = _dyadic_period(mesh, j_max)
    P = dyadic or j_max + 1
    weights = _folded_weights if dyadic else _residue_weights
    triA = np.zeros((n, n), order="F")
    M = np.zeros((n, n))
    C = np.zeros((n, n))
    for r0, r1 in _blocks(P // 2 if dyadic else P, _CHUNK):
        r = np.arange(r0, r1)
        w3, w4 = weights(r, P, j_max)
        phase = np.outer(x, np.pi * (r + 0.5))
        s, c = np.sin(phase), np.cos(phase)
        beta = _hat_bracket(s, nodes)
        bw3 = beta * w3
        triA = dsyrk(1.0, beta * np.sqrt(w3), beta=1.0, c=triA, trans=0, lower=1, overwrite_c=1)
        M += (T * beta * w4) @ _hat_bracket(c, nodes).T
        M[:, n - 1] += bw3 @ np.where(r % 2 == 0, 1.0, -1.0)
        C += bw3 @ (s[1:, :] - s[:-1, :]).T
    A = 2.0 * T**2 * (triA + np.tril(triA, -1).T)
    return TemporalOperators(A=A, M=2.0 * T**2 * M, C=2.0 * T**2 * C, j_max=j_max)
