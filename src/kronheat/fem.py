"""P1 finite elements on triangle meshes and space-time error norms.

Assembles the spatial mass and stiffness matrices, the mixed mass matrix
coupling nodal hats with piecewise constants, the projected right-hand
side, the boundary lift, and the combined load vector of the Kronecker
system.  Error norms are evaluated with tensor Gauss quadrature per
space-time element, split per triangle and time point into the exact
field less its local L2 projection onto P1, shared by every discrete
function measured, and the projection less the discrete function, a P1
function measured from its vertex values.  The split is exact because
the spatial rule integrates products of P1 functions exactly.
The triangles are measured in cache-sized blocks, one after another.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import roots_jacobi

from .errors import DimensionMismatch, UsageError

__all__ = [
    "SpatialOperators",
    "triangle_rule",
    "gauss_rule_01",
    "assemble_p1",
    "project_rhs",
    "dirichlet_lift",
    "assemble_global_rhs",
    "error_norms",
]


def _perm3(a):
    b = 1.0 - 2.0 * a
    return [(a, a), (a, b), (b, a)]


def _perm6(a, b):
    c = 1.0 - a - b
    return [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]


# The 12-point degree-6 rule on the reference triangle (0,0)-(1,0)-(0,1):
# points and normalized weights summing to one.
_DEGREE6_RULE = (
    _perm3(0.063089014491502)
    + _perm3(0.249286745170910)
    + _perm6(0.310352451033785, 0.053145049844816),
    [0.050844906370207] * 3
    + [0.116786275726379] * 3
    + [0.082851075618374] * 6,
)


def _collapsed_rule(order):
    # Duffy map x = u (1 - v), y = v with the Jacobian (1 - v) folded
    # into a Gauss-Jacobi rule in v; exact to the requested total degree
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


def triangle_rule(order):
    """Quadrature points and weights on the reference triangle.

    Up to degree 6 this is the 12-point degree-6 rule; beyond it a
    collapsed tensor rule is constructed.  Weights sum to the reference
    area 1/2.

    Parameters
    ----------
    order : int
        Polynomial degree to integrate exactly, >= 1.

    Returns
    -------
    points : ndarray (n, 2), weights : ndarray (n,)
    """
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    if order <= 6:
        pts, wts = _DEGREE6_RULE
        return np.array(pts, dtype=float), 0.5 * np.array(wts, dtype=float)
    return _collapsed_rule(order)


def gauss_rule_01(n):
    """n-point Gauss-Legendre rule on the unit interval."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _load_quadrature():
    # the spatial and temporal rule of project_rhs
    return triangle_rule(6), gauss_rule_01(5)


def _error_quadrature():
    # the spatial and temporal rule of error_norms, chosen so level-0
    # norms are stable to ~1e-5 relative; the spatial rule is the
    # limiting factor on the coarse 0.5-sized triangles
    return triangle_rule(12), gauss_rule_01(8)


# the most spatial quadrature points error_norms evaluates at once (its
# triangle block); a point array of 2**14 doubles is 128 KiB, about one
# L2 cache, and 2**13-2**14 measured fastest at level 5
ERROR_BLOCK_POINTS = 2**14


GRADED_SPLITS = 12


def _graded_unit_edges():
    """Partition of [0, 1] into GRADED_SPLITS cells halving toward 0.

    The first temporal cell touches t = 0 where the manufactured fields
    behave like exp(-c/t) / t^k: smooth, but with an interior spike a
    single Gauss rule cannot resolve.  On dyadic subcells each piece has
    bounded variation, and below the spike the integrand vanishes to all
    orders, so a fixed rule per subcell converges and the truncated tail
    costs nothing.
    """
    edges = 2.0 ** -np.arange(GRADED_SPLITS - 1, -1, -1.0)
    return np.concatenate([[0.0], edges])


def _time_panels(ell, tq, tw):
    """Scaled quadrature points/weights on cell ``ell`` in unit coords."""
    edges = _graded_unit_edges() if ell == 0 else np.array([0.0, 1.0])
    width = np.diff(edges)
    q = (edges[:-1, None] + width[:, None] * tq[None, :]).ravel()
    w = (width[:, None] * tw[None, :]).ravel()
    return q, w


@dataclass(frozen=True, eq=False)
class SpatialOperators:
    """Sparse P1 blocks of a triangulation, split by its boundary flags.

    Rows run over the mesh's interior vertices and the coupling blocks'
    columns over its boundary vertices, both in vertex order
    (``TriangleMesh.interior`` and ``.boundary``).

    Attributes
    ----------
    M_II, A_II : csr_matrix
        Interior-interior blocks of mass and stiffness, symmetric
        positive definite.
    M_IB, A_IB : csr_matrix
        Interior-boundary coupling blocks.
    M10 : csr_matrix
        Mixed mass matrix, interior hats against element indicators;
        entry (i, j) is area(triangle j)/3 when vertex i spans it.
    """

    M_II: sp.csr_matrix
    A_II: sp.csr_matrix
    M_IB: sp.csr_matrix
    A_IB: sp.csr_matrix
    M10: sp.csr_matrix

    @property
    def n_interior(self):
        return self.M_II.shape[0]


def _geometry(mesh):
    # areas and P1 basis gradients (m, 3, 2) of the triangles; the mesh
    # checked the areas positive and finite.  Vertex i's gradient is its
    # opposite edge, from vertex i + 1 to i + 2, turned a quarter
    # counterclockwise, over twice the area
    p = mesh.vertices[mesh.triangles]
    edge = p.take([2, 0, 1], axis=1) - p.take([1, 2, 0], axis=1)
    area = mesh.areas()
    grads = np.stack([-edge[..., 1], edge[..., 0]], axis=2)
    return area, grads / (2.0 * area)[:, None, None]


def assemble_p1(mesh):
    """Assemble the P1 blocks of a triangulation.

    Returns
    -------
    SpatialOperators
    """
    area, grads = _geometry(mesh)
    tris = mesh.triangles
    m = len(tris)
    n = mesh.n_vertices

    ke = np.einsum("tid,tjd,t->tij", grads, grads, area)
    me = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))

    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    A_full = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M_full = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    M10_full = sp.coo_matrix(
        (np.repeat(area / 3.0, 3), (tris.ravel(), np.repeat(np.arange(m), 3))),
        shape=(n, m),
    ).tocsr()

    interior = mesh.interior
    boundary = mesh.boundary
    return SpatialOperators(
        M_II=M_full[interior][:, interior].tocsr(),
        A_II=A_full[interior][:, interior].tocsr(),
        M_IB=M_full[interior][:, boundary].tocsr(),
        A_IB=A_full[interior][:, boundary].tocsr(),
        M10=M10_full[interior].tocsr(),
    )


def _space_points(mesh, pts, block=slice(None)):
    # physical coordinates of reference points in the triangles block
    p = mesh.vertices[mesh.triangles[block]]  # (m, 3, 2)
    lam = np.column_stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    phys = np.einsum("qi,tid->tqd", lam, p)
    return phys[..., 0], phys[..., 1], lam


def project_rhs(mesh_x, mesh_t, f):
    """Cell averages of a space-time field over triangle x interval cells.

    The rule is the degree-6 triangle rule in space and 5 Gauss points in
    time, on 12 graded panels in the first cell.

    Parameters
    ----------
    mesh_x : TriangleMesh
    mesh_t : TemporalMesh
    f : callable
        Field f(x1, x2, t), called once per temporal quadrature point
        with a scalar ``t`` and always the same ``x1`` and ``x2`` arrays
        (the physical spatial quadrature points, one row per triangle),
        so a memoizing callable such as ``manufactured.ExactFields().source``
        can keep its t-independent factors.

    Returns
    -------
    ndarray of shape (n_triangles, n_cells)
    """
    (pts, wts), (tq, tw) = _load_quadrature()
    x1, x2, _ = _space_points(mesh_x, pts)

    nodes = mesh_t.nodes
    out = np.empty((mesh_x.n_triangles, mesh_t.n_cells))
    # weights sum to the reference area 1/2, so the spatial average is
    # 2 * sum(w f); the temporal panel weights average over the cell
    for ell in range(mesh_t.n_cells):
        h = nodes[ell + 1] - nodes[ell]
        acc = 0.0
        for q, wq in zip(*_time_panels(ell, tq, tw)):
            acc = acc + wq * (f(x1, x2, nodes[ell] + h * q) @ wts)
        out[:, ell] = 2.0 * acc
    return out


def dirichlet_lift(mesh_x, mesh_t, g):
    """Nodal boundary values at temporal nodes t_1..t_N.

    ``g(x1, x2, t)`` is called once per node with a scalar ``t`` and the
    same 1-D boundary coordinates; each result is copied, so ``g`` may
    reuse its buffer (``manufactured.ExactFields().u``).

    Returns
    -------
    ndarray of shape (n_boundary_vertices, N_t)
    """
    bverts = mesh_x.vertices[mesh_x.boundary]
    x1, x2 = bverts[:, 0], bverts[:, 1]
    t = mesh_t.nodes[1:]
    lift = np.empty((len(bverts), len(t)))
    for k, t_k in enumerate(t):
        lift[:, k] = g(x1, x2, t_k)
    return lift


def assemble_global_rhs(F, ops, temp, lift):
    """Load vector of the Kronecker system, interior unknowns only.

    Combines the projected source with the boundary-lift coupling,

        vec(M10 F C^T - M_IB G_B A^T - A_IB G_B M^T),

    where vec stacks the spatial index fastest.

    Parameters
    ----------
    F : ndarray (n_triangles, N_t)
        Cell averages from project_rhs.
    ops : SpatialOperators
    temp : TemporalOperators
    lift : ndarray (n_boundary, N_t)
        Boundary nodal values from dirichlet_lift.

    Returns
    -------
    ndarray of length n_interior * N_t
    """
    n_t = temp.n
    if F.shape != (ops.M10.shape[1], n_t):
        raise DimensionMismatch(
            f"F has shape {F.shape}, expected {(ops.M10.shape[1], n_t)}"
        )
    if lift.shape != (ops.M_IB.shape[1], n_t):
        raise DimensionMismatch(
            f"lift has shape {lift.shape}, expected {(ops.M_IB.shape[1], n_t)}"
        )
    rhs = ops.M10 @ F @ temp.C.T
    rhs = rhs - ops.M_IB @ lift @ temp.A.T - ops.A_IB @ lift @ temp.M.T
    return rhs.ravel(order="F")


def _p1_split(f, proj, lam, wts, r):
    """Local P1 projection of a field at the quadrature points.

    ``f`` (nq, m) holds the field at every triangle's quadrature points
    and ``proj`` (3, nq) maps those values to the vertex values of the
    projection.  Returns the vertex values (3, m) and, per triangle,
    sum_q wts_q (f - Pi f)^2, the squared residual over twice the
    triangle's area; ``r`` (nq, m) is scratch.
    """
    coef = proj @ f
    np.matmul(lam, coef, out=r)
    r -= f
    r *= r
    return coef, wts @ r


def error_norms(coeffs, mesh_x, mesh_t, u, grad, dt):
    """Space-time L2 and H1-seminorm errors of discrete functions.

    Each discrete function is piecewise linear in space and time with
    nodal coefficients at temporal nodes t_1..t_N; it vanishes at t = 0.
    The seminorm contains the full space-time gradient,
    sqrt(|dt e|^2 + |grad_x e|^2) integrated over the cylinder.

    At every temporal quadrature point each triangle's error splits as
    e = (u - Pi u) + (Pi u - u_h), where Pi is the local L2 projection
    onto P1, for the value, each gradient component and the time
    derivative alike: within a cell u_h's time derivative is P1 in space
    and its gradient constant per triangle.  The spatial rule (degree 12)
    integrates products of P1 functions exactly, so the two parts are
    orthogonal under it and their squares add.  The first part does not
    depend on u_h and is measured once per time point at the quadrature
    points; the second is a P1 function per triangle, measured from its
    vertex values with the exact local mass matrix area (1 + I)/12.
    Both are summed directly, without cancellation.

    The triangles are taken in contiguous blocks of at most
    ``ERROR_BLOCK_POINTS`` spatial quadrature points, and each block runs
    the whole time sweep before the next starts, so the arrays of a time
    point stay block-sized; the blocks' squared errors are added at the
    end.  The functions of one stack (for instance one per solver
    variant) are measured in one call; they share the first part and
    every evaluation of the exact fields.  ``u``, ``grad`` and ``dt`` are
    each called once per temporal quadrature point per block (8 Gauss
    points per panel, on 12 graded panels in the first cell), in that
    order and at the same time, with that block's own ``x1`` and ``x2``
    arrays (its physical spatial quadrature points), whatever the stack
    size.  The calls of one block are contiguous, so a memoizing callable
    such as ``manufactured.ExactFields``, which keeps the t-independent
    factors of one point set, sees one point set at a time.  The first
    part is split off at each time point; the projections of one panel
    of time points (one temporal Gauss rule) are kept, and the second
    part of every stack entry is measured for the whole panel at once.

    Parameters
    ----------
    coeffs : ndarray (k, n_vertices, N_t)
        A stack of k arrays of total nodal coefficients, boundary values
        included; all finite.
    mesh_x : TriangleMesh
    mesh_t : TemporalMesh
    u, grad, dt : callables
        Exact value, spatial gradient pair, and time derivative, each
        called as f(x1, x2, t) with a scalar t and returning arrays
        shaped like ``x1`` (``grad`` a pair of them).

    Returns
    -------
    list of k pairs (l2_error, h1_error) of floats
    """
    stack = np.asarray(coeffs)
    shape = (mesh_x.n_vertices, mesh_t.n_cells)
    if stack.ndim != 3 or stack.shape[1:] != shape:
        raise DimensionMismatch(
            f"coeffs shape {stack.shape} does not match (k, *{shape})")
    if not np.isfinite(stack).all():
        raise UsageError("coeffs hold a non-finite value")
    rules = _error_quadrature()
    (pts, _), _ = rules
    area, grads = _geometry(mesh_x)
    step = max(1, ERROR_BLOCK_POINTS // len(pts))
    squares = np.zeros((2, len(stack)))
    for start in range(0, mesh_x.n_triangles, step):
        block = slice(start, start + step)
        squares += _block_squares(stack, mesh_x, mesh_t, block, rules,
                                  area[block], grads[block], u, grad, dt)
    return [(math.sqrt(a), math.sqrt(b)) for a, b in squares.T]


def _block_squares(stack, mesh_x, mesh_t, block, rules, area, grads,
                   u, grad, dt):
    """Squared L2 and H1 errors (2, k) on the triangles ``block``.

    Runs the time sweep of ``error_norms`` on one block of triangles,
    whose areas and P1 gradients are ``area`` and ``grads``.
    """
    (pts, wts), (tq, tw) = rules
    tris = mesh_x.triangles[block]
    m = len(tris)
    # points in (nq, m) order, so a projection is one matrix product
    x1, x2, lam = _space_points(mesh_x, pts, block)
    x1, x2 = np.ascontiguousarray(x1.T), np.ascontiguousarray(x2.T)
    # onto P1 through the inverse local mass 3 (4 I - J) / area (J all
    # ones); the reference weights sum to 1/2
    p1 = 6.0 * (4.0 * np.eye(3) - 1.0) @ (lam.T * wts)
    r = np.empty_like(x1)
    two_area, area_12 = 2.0 * area, area / 12.0

    def at_node(j):
        # vertex values (k, 3, m) and gradients (k, 2, 1, m) at node j
        if j == 0:
            c = np.zeros((len(stack), 3, m))
        else:
            c = stack[:, tris.T, j - 1]
        return c, np.einsum("kit,tid->kdt", c, grads)[:, :, None]

    def p1_square(d):
        # d^T (area (1 + I)/12) d summed over triangles, for d (..., 3, m)
        s = d.sum(axis=-2)
        return (np.einsum("...it,...it->...t", d, d) + s * s) @ area_12

    # one panel: vertex values of the projections of u, du/dx1, du/dx2
    # and du/dt, and their first parts per triangle
    n_q = len(tq)
    proj = np.empty((4, n_q, 3, m))
    first = np.empty((4, n_q, m))
    nodes = mesh_t.nodes
    squares = np.zeros((2, len(stack)))
    c_lo, g_lo = at_node(0)
    for ell in range(mesh_t.n_cells):
        h = nodes[ell + 1] - nodes[ell]
        c_hi, g_hi = at_node(ell + 1)
        c_dt = (c_hi - c_lo) / h
        q_cell, w_cell = _time_panels(ell, tq, tw)
        for qs, ws in zip(q_cell.reshape(-1, n_q), w_cell.reshape(-1, n_q)):
            for i, q in enumerate(qs):
                t = nodes[ell] + h * q
                fields = (u(x1, x2, t), *grad(x1, x2, t), dt(x1, x2, t))
                for j, f in enumerate(fields):
                    proj[j, i], first[j, i] = _p1_split(f, p1, lam, wts, r)
            # the second part of every stack entry (k, n_q, 3, m) at once;
            # u_h = c_lo + (t - t_ell) c_dt within the cell, and its
            # gradient, constant per triangle, interpolates g_lo and g_hi
            d = (h * qs)[:, None, None] * c_dt[:, None]
            d += c_lo[:, None]
            np.subtract(proj[0], d, out=d)
            l2 = p1_square(d) + first[0] @ two_area
            np.subtract(proj[3], c_dt[:, None], out=d)
            h1 = p1_square(d) + first[1:].sum(axis=0) @ two_area
            for j in range(2):
                g = (1.0 - qs)[:, None, None] * g_lo[:, None, j]
                g += qs[:, None, None] * g_hi[:, None, j]
                np.subtract(proj[j + 1], g, out=d)
                h1 += p1_square(d)
            squares[0] += l2 @ (h * ws)
            squares[1] += h1 @ (h * ws)
        c_lo, g_lo = c_hi, g_hi
    return squares
