import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from kronheat import TemporalMesh, assemble_temporal_operators, fem, solvers
from kronheat.errors import DefectivePencil, KronheatError
from kronheat.fem import _geometry, _space_points, _time_panels
from kronheat.lshape import TriangleMesh
from kronheat.manufactured import CENTER
from kronheat.temporal import TemporalOperators

# Nonuniform base partition of (0, 1/2) used throughout the experiments.
BASE_NODES = (0.0, 1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 2.0)
DENSE_ORACLE_GUARD = 5000


class SizeGuardExceeded(KronheatError):
    """A brute-force oracle was asked to handle a system beyond its guard."""


def solve_dense_oracle(system):
    """Reference solve forming the Kronecker-sum matrix explicitly."""
    if system.dof > DENSE_ORACLE_GUARD:
        raise SizeGuardExceeded(
            f"dof {system.dof} exceeds oracle guard {DENSE_ORACLE_GUARD}"
        )
    K = (np.kron(system.temporal.A, system.spatial.M_II.toarray())
         + np.kron(system.temporal.M, system.spatial.A_II.toarray()))
    coeffs = np.linalg.solve(K, system.rhs)
    return solvers.SpaceTimeSolution(coefficients=coeffs)


def _gaussian(x1, x2, t):
    # returns (G, r2) with G = 5/(2 pi t) exp(-r2 / (4 t)); the limit
    # t -> 0+ is zero away from the center, which is all of the domain.
    # The guards here and below test t <= 0, so a NaN time stays NaN
    r2 = (x1 - CENTER[0]) ** 2 + (x2 - CENTER[1]) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = 5.0 / (2.0 * np.pi * t) * np.exp(-r2 / (4.0 * t))
        g = np.where(t <= 0.0, 0.0, g)
    return g, r2


def exact_u(x1, x2, t):
    """The manufactured solution; broadcasts over all inputs.

    With ``exact_grad`` and ``exact_dt``, the oracle of ``ExactFields``.
    """
    x1, x2, t = np.broadcast_arrays(*map(np.asarray, (x1, x2, t)))
    g, _ = _gaussian(x1, x2, t)
    return g * np.sin(np.pi * x1 * x2)


def exact_dt(x1, x2, t):
    """Time derivative of the manufactured solution."""
    x1, x2, t = np.broadcast_arrays(*map(np.asarray, (x1, x2, t)))
    g, r2 = _gaussian(x1, x2, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = r2 / (4.0 * t**2) - 1.0 / t
        factor = np.where(t <= 0.0, 0.0, factor)
    return g * factor * np.sin(np.pi * x1 * x2)


def exact_grad(x1, x2, t):
    """Spatial gradient; returns the pair (du/dx1, du/dx2)."""
    x1, x2, t = np.broadcast_arrays(*map(np.asarray, (x1, x2, t)))
    g, _ = _gaussian(x1, x2, t)
    s = np.sin(np.pi * x1 * x2)
    c = np.pi * np.cos(np.pi * x1 * x2)
    with np.errstate(divide="ignore", invalid="ignore"):
        half_t = np.where(t <= 0.0, 0.0, 0.5 / t)
    dg1 = -g * (x1 - CENTER[0]) * half_t
    dg2 = -g * (x2 - CENTER[1]) * half_t
    return dg1 * s + g * x2 * c, dg2 * s + g * x1 * c


def source_f(x1, x2, t):
    """Heat source dt u - laplace u of the manufactured solution.

    The Gaussian factor is annihilated by the heat operator, leaving

        f = G * (pi ((x1 - 1/4) x2 + (x2 + 1/4) x1) cos(pi x1 x2) / t
                 + pi^2 (x1^2 + x2^2) sin(pi x1 x2)).

    Broadcasts over all inputs; the oracle of ``ExactFields.source``.
    """
    x1, x2, t = np.broadcast_arrays(*map(np.asarray, (x1, x2, t)))
    r2 = (x1 - CENTER[0]) ** 2 + (x2 - CENTER[1]) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = 5.0 / (2.0 * np.pi * t) * np.exp(-r2 / (4.0 * t))
        g = np.where(t > 0.0, g, 0.0)
        inv_t = np.where(t > 0.0, 1.0 / t, 0.0)
    s = np.sin(np.pi * x1 * x2)
    c = np.cos(np.pi * x1 * x2)
    cross = (x1 - CENTER[0]) * x2 + (x2 - CENTER[1]) * x1
    return g * (np.pi * cross * c * inv_t + np.pi**2 * (x1**2 + x2**2) * s)


def error_norms_reference(stack, mesh_x, mesh_t, u, grad, dt):
    """Error norms of ``fem.error_norms`` without the local projection.

    Measures every coefficient set of the stack ``(k, n_vertices, N_t)``
    by its error u - u_h at every space-time quadrature point, on the
    rules ``fem._error_quadrature(mesh_x)`` returns when called, the
    rules ``error_norms`` reads on the same mesh, so one monkeypatch
    moves both sides; the oracle of the split that ``error_norms``
    computes.
    """
    (pts, wts), (tq, tw) = fem._error_quadrature(mesh_x)
    area, grads = _geometry(mesh_x)
    tris = mesh_x.triangles
    x1, x2, lam = _space_points(mesh_x, pts)
    w_sp = 2.0 * area[:, None] * wts[None, :]

    def at_node(j):
        if j == 0:
            c = np.zeros((len(stack),) + tris.shape)
        else:
            c = stack[:, :, j - 1][:, tris]
        return c @ lam.T, np.einsum("kti,tid->ktd", c, grads)

    def weighted_square(err):
        return np.einsum("tq,tq,tq->", err, err, w_sp)

    nodes = mesh_t.nodes
    acc_l2 = np.zeros(len(stack))
    acc_h1 = np.zeros(len(stack))
    e = np.empty_like(x1)
    v_lo, g_lo = at_node(0)
    for ell in range(mesh_t.n_cells):
        h = nodes[ell + 1] - nodes[ell]
        v_hi, g_hi = at_node(ell + 1)
        v_dt = (v_hi - v_lo) / h
        for q, wq in zip(*_time_panels(ell, tq, tw)):
            t = nodes[ell] + h * q
            ue = u(x1, x2, t)
            g1, g2 = grad(x1, x2, t)
            dte = dt(x1, x2, t)
            wt = wq * h
            for k in range(len(stack)):
                np.multiply(v_dt[k], q * h, out=e)
                e += v_lo[k]
                np.subtract(ue, e, out=e)
                acc_l2[k] += wt * weighted_square(e)
                np.subtract(dte, v_dt[k], out=e)
                h1 = weighted_square(e)
                gh = (1.0 - q) * g_lo[k] + q * g_hi[k]
                np.subtract(g1, gh[:, 0, None], out=e)
                h1 += weighted_square(e)
                np.subtract(g2, gh[:, 1, None], out=e)
                h1 += weighted_square(e)
                acc_h1[k] += wt * h1
        v_lo, g_lo = v_hi, g_hi
    return [(math.sqrt(a), math.sqrt(b)) for a, b in zip(acc_l2, acc_h1)]


def random_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n))


def pencil_ops(M, A=None):
    """TemporalOperators of the pencil (M, A), A = I by default."""
    M = np.asarray(M, dtype=float)
    A = np.eye(len(M)) if A is None else A
    return TemporalOperators(A=A, M=M, C=np.zeros_like(M), j_max=0)


def random_positive(n, seed):
    """Random M whose symmetric part is positive definite, so every
    eigenvalue has positive real part; its skew part makes conjugate
    pairs."""
    S = random_matrix(n, seed)
    return S @ S.T / n + np.eye(n) + 2.0 * (S - S.T)


def sort_spectrum(vals):
    # stable under conjugate-pair ties where sort_complex flips on noise
    vals = np.asarray(vals, dtype=complex)
    order = np.lexsort((np.round(vals.imag, 8), np.round(vals.real, 8)))
    return vals[order]


def counting(monkeypatch, module, name):
    """Wrap ``module.name`` to record the arguments of every call.

    Returns the list the calls are appended to.  The solvers call
    ``sparse_direct.analyze`` through its module, so a wrapper counts
    every analysis, as the benchmark's tracer does.
    """
    fn, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def forced_fd_fallback(monkeypatch):
    """Make every fd pencil defective, so ``solve`` falls back to bs-complex."""
    build = solvers.build_pencil

    def broken(temporal, variant):
        if variant == "fd":
            raise DefectivePencil("forced")
        return build(temporal, variant)

    monkeypatch.setattr(solvers, "build_pencil", broken)


@pytest.fixture(scope="session")
def base_mesh():
    return TemporalMesh(np.array(BASE_NODES))


@pytest.fixture(scope="session")
def base_ops(base_mesh):
    # Budget large enough that truncation is far below every test tolerance.
    return assemble_temporal_operators(base_mesh, j_max=400_000)


def full_p1(mesh):
    """Mass and stiffness matrices of ``mesh`` over all its vertices.

    ``assemble_p1`` keeps only the blocks the system reads; on the same
    mesh with every vertex flagged interior, its interior blocks are the
    full matrices, in vertex order.
    """
    everywhere = TriangleMesh(mesh.vertices, mesh.triangles,
                              np.zeros(mesh.n_vertices, dtype=bool))
    ops = fem.assemble_p1(everywhere)
    return ops.M_II, ops.A_II


def collapsed_rule(order):
    """Reference-triangle rule exact to total degree ``order``, any order.

    The Duffy map x = u (1 - v), y = v with the Jacobian (1 - v) folded
    into a Gauss-Jacobi rule in v; ``(order + 2) // 2`` points per axis.
    The reference rule the fixed rules of ``fem.triangle_rule`` are
    checked against.  Weights sum to the reference area 1/2.
    """
    n = (order + 2) // 2
    u, wu = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (u + 1.0)
    wu = 0.5 * wu
    xj, wj = roots_jacobi(n, 1.0, 0.0)
    v = 0.5 * (xj + 1.0)
    wv = 0.25 * wj
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([(uu * (1.0 - vv)).ravel(), vv.ravel()])
    wts = np.outer(wu, wv).ravel()
    return pts, wts


def on_lshape_boundary(points):
    """Flag points lying on the boundary of the L-shaped domain.

    The geometric oracle, from float coordinates within an absolute
    tolerance, for the exact lattice flags of ``build_lshape_mesh``.
    """
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    tol = 1e-12
    outer = (
        (np.abs(x + 1.0) <= tol)
        | (np.abs(x - 1.0) <= tol)
        | (np.abs(y + 1.0) <= tol)
        | (np.abs(y - 1.0) <= tol)
    )
    # reentrant edges {0} x [-1, 0] and [0, 1] x {0}
    reentrant = ((np.abs(x) <= tol) & (y <= tol)) | (
        (np.abs(y) <= tol) & (x >= -tol)
    )
    return outer | reentrant


def refine_uniform(mesh):
    """Split every triangle into four congruent children via edge midpoints.

    An independent route to the next level, used as an oracle for
    ``build_lshape_mesh``.
    """
    nv = mesh.n_vertices
    tris = mesh.triangles

    edges = {}
    new_points = []

    def midpoint(a, b):
        key = (a, b) if a < b else (b, a)
        idx = edges.get(key)
        if idx is None:
            idx = nv + len(new_points)
            edges[key] = idx
            new_points.append(0.5 * (mesh.vertices[a] + mesh.vertices[b]))
        return idx

    children = np.empty((4 * len(tris), 3), dtype=np.int64)
    for t, (v0, v1, v2) in enumerate(tris):
        m01 = midpoint(v0, v1)
        m12 = midpoint(v1, v2)
        m20 = midpoint(v2, v0)
        children[4 * t + 0] = (v0, m01, m20)
        children[4 * t + 1] = (m01, v1, m12)
        children[4 * t + 2] = (m20, m12, v2)
        children[4 * t + 3] = (m01, m12, m20)

    vertices = np.vstack([mesh.vertices, np.array(new_points)])
    flags = np.concatenate(
        [mesh.boundary_flags, on_lshape_boundary(vertices[nv:])]
    )
    return TriangleMesh(vertices, children, flags)
