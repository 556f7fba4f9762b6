"""Structured triangulations of the L-shaped domain.

The domain is (-1, 1)^2 with the closed quadrant [0, 1] x [-1, 0]
removed.  Meshes are generated on a uniform lattice of spacing
0.5 * 2**(-level); every lattice square inside the domain is split into
two triangles along its bottom-left to top-right diagonal.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElement

__all__ = [
    "TriangleMesh",
    "build_lshape_mesh",
    "on_lshape_boundary",
]


def on_lshape_boundary(points, tol=1e-12):
    """Flag points lying on the boundary of the L-shaped domain.

    Parameters
    ----------
    points : ndarray of shape (n, 2)
    tol : float
        Absolute tolerance for the geometric comparisons.

    Returns
    -------
    ndarray of bool, shape (n,)
    """
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
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


@dataclass(frozen=True)
class TriangleMesh:
    """Conforming triangulation with per-vertex boundary flags.

    Attributes
    ----------
    vertices : ndarray of shape (n_vertices, 2)
    triangles : ndarray of shape (n_triangles, 3)
        Vertex index triples, counterclockwise.
    boundary_flags : ndarray of bool, shape (n_vertices,)
    level : int
        Refinement level the mesh was generated at.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_flags: np.ndarray
    level: int = 0

    def __post_init__(self):
        object.__setattr__(self, "vertices", np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "triangles", np.asarray(self.triangles, dtype=np.int64))
        object.__setattr__(self, "boundary_flags", np.asarray(self.boundary_flags, dtype=bool))
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertices must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (m, 3)")
        if self.boundary_flags.shape != (len(self.vertices),):
            raise ValueError("one boundary flag per vertex required")

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @property
    def interior(self):
        """Indices of interior vertices, in vertex order."""
        return np.flatnonzero(~self.boundary_flags)

    @property
    def boundary(self):
        """Indices of boundary vertices, in vertex order."""
        return np.flatnonzero(self.boundary_flags)

    @property
    def n_interior(self):
        return int(np.count_nonzero(~self.boundary_flags))

    def signed_areas(self):
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def areas(self):
        a = self.signed_areas()
        if not np.all((a > 0.0) & (a < np.inf)):  # NaN fails too
            raise DegenerateElement("triangle area not positive and finite")
        return a

    @property
    def h_x(self):
        """Mesh size reported as sqrt of the largest element area."""
        return float(np.sqrt(self.areas().max()))


def build_lshape_mesh(level):
    """Build the structured L-shape triangulation at a refinement level.

    Lattice spacing is 0.5 * 2**(-level); level 0 has 24 triangles and
    5 interior vertices.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    m = 2 ** (level + 1)  # lattice intervals per unit length

    # integer lattice coordinates i, j in [-m, m]; point kept unless it
    # falls strictly inside the removed quadrant
    index = -np.ones((2 * m + 1, 2 * m + 1), dtype=np.int64)
    verts = []
    for j in range(-m, m + 1):
        for i in range(-m, m + 1):
            if i > 0 and j < 0:
                continue
            index[i + m, j + m] = len(verts)
            verts.append((i / m, j / m))
    vertices = np.array(verts, dtype=float)

    tris = []
    for j in range(-m, m):
        for i in range(-m, m):
            if i >= 0 and j <= -1:
                continue  # square inside the removed quadrant
            bl = index[i + m, j + m]
            br = index[i + 1 + m, j + m]
            tr = index[i + 1 + m, j + 1 + m]
            tl = index[i + m, j + 1 + m]
            tris.append((bl, br, tr))
            tris.append((bl, tr, tl))
    triangles = np.array(tris, dtype=np.int64)

    flags = on_lshape_boundary(vertices)
    return TriangleMesh(vertices, triangles, flags, level=level)
