"""Structured triangulations of the L-shaped domain.

The domain is (-1, 1)^2 with the closed quadrant [0, 1] x [-1, 0]
removed.  Meshes are generated on a uniform lattice of spacing
0.5 * 2**(-level); every lattice square inside the domain is split into
two triangles along its bottom-left to top-right diagonal.  Boundary
flags are read off the integer lattice coordinates, exactly.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateElement, check_integer

__all__ = ["TriangleMesh", "build_lshape_mesh"]


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
    5 interior vertices.  A level that is not an integer (a bool
    included), or is negative, raises UsageError.
    """
    level = check_integer(level, "level", 0)
    m = 2 ** (level + 1)  # lattice intervals per unit length

    # integer lattice i, j in [-m, m], j slowest; drop i > 0 and j < 0
    j, i = np.mgrid[-m:m + 1, -m:m + 1]
    kept = ~((i > 0) & (j < 0))
    index = np.cumsum(kept).reshape(kept.shape) - 1

    # squares by their bottom-left corner, skipping the removed quadrant
    inside = ((i < 0) | (j >= 0))[:-1, :-1]
    bl, br = index[:-1, :-1][inside], index[:-1, 1:][inside]
    tl, tr = index[1:, :-1][inside], index[1:, 1:][inside]
    triangles = np.column_stack([bl, br, tr, bl, tr, tl]).reshape(-1, 3)

    i, j = i[kept], j[kept]
    # outer square, then the reentrant edges {0} x [-1, 0], [0, 1] x {0}
    flags = ((np.abs(i) == m) | (np.abs(j) == m)
             | ((i == 0) & (j <= 0)) | ((j == 0) & (i >= 0)))
    return TriangleMesh(np.column_stack([i / m, j / m]), triangles, flags)
