import numpy as np
import pytest

from kronheat import TemporalMesh, assemble_temporal_operators, solvers
from kronheat.errors import DefectivePencil, KronheatError
from kronheat.lshape import TriangleMesh, on_lshape_boundary

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
    return TriangleMesh(vertices, children, flags, level=mesh.level + 1)
