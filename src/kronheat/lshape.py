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


# absolute tolerance of the boundary predicate's geometric comparisons
BOUNDARY_TOL = 1e-12


def on_lshape_boundary(points):
    """Flag points lying on the boundary of the L-shaped domain.

    Parameters
    ----------
    points : ndarray of shape (n, 2)

    Returns
    -------
    ndarray of bool, shape (n,)
    """
    points = np.asarray(points, dtype=float)
    x, y = points[:, 0], points[:, 1]
    tol = BOUNDARY_TOL
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


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Conforming triangulation with per-vertex boundary flags.

    The mesh checks itself once, at construction, and keeps read-only
    copies of its arrays, so it stays valid: finite vertices, vertex
    indices in range, and every triangle counterclockwise with a
    positive, finite area (``DegenerateElement`` otherwise).

    Attributes
    ----------
    vertices : ndarray of shape (n_vertices, 2)
    triangles : ndarray of shape (n_triangles, 3)
        Vertex index triples, counterclockwise.
    boundary_flags : ndarray of bool, shape (n_vertices,)
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_flags: np.ndarray

    def __post_init__(self):
        for name, dtype in (("vertices", float), ("triangles", np.int64),
                            ("boundary_flags", bool)):
            array = np.array(getattr(self, name), dtype=dtype)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertices must be finite")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (m, 3)")
        if not np.all((self.triangles >= 0)
                      & (self.triangles < self.n_vertices)):
            raise ValueError("triangle vertex index out of range")
        if self.boundary_flags.shape != (self.n_vertices,):
            raise ValueError("one boundary flag per vertex required")
        p = self.vertices[self.triangles]
        # far-apart finite vertices can overflow to an inf or NaN area
        with np.errstate(over="ignore", invalid="ignore"):
            d1 = p[:, 1] - p[:, 0]
            d2 = p[:, 2] - p[:, 0]
            area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        if not np.all((area > 0.0) & (area < np.inf)):  # NaN fails too
            raise DegenerateElement("triangle area not positive and finite")
        area.flags.writeable = False
        object.__setattr__(self, "_areas", area)

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

    def areas(self):
        """Triangle areas, formed and checked once at construction."""
        return self._areas

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
    return TriangleMesh(vertices, triangles, flags)
