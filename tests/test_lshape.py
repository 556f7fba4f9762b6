"""Tests for the L-shape triangulations."""

import numpy as np
import pytest

from kronheat.errors import DegenerateElement, UsageError
from kronheat.lshape import TriangleMesh, build_lshape_mesh

from conftest import on_lshape_boundary, refine_uniform

# interior vertex counts of the refinement hierarchy
INTERIOR_COUNTS = {0: 5, 1: 33, 2: 161, 3: 705}


class TestBoundaryPredicate:
    def test_outer_square_edges(self):
        pts = [(-1.0, 0.3), (1.0, 0.7), (0.3, 1.0), (-0.4, -1.0)]
        assert on_lshape_boundary(pts).all()

    def test_reentrant_edges_and_corner(self):
        pts = [(0.0, -0.5), (0.5, 0.0), (0.0, 0.0), (1.0, 0.0), (0.0, -1.0)]
        assert on_lshape_boundary(pts).all()

    def test_interior_points(self):
        pts = [(0.5, 0.5), (-0.5, -0.5), (-0.25, 0.75), (0.0, 0.5)]
        flags = on_lshape_boundary(pts)
        assert list(flags) == [False, False, False, False]

    def test_positive_axis_above_zero_is_interior(self):
        # the reentrant edge along x2 = 0 stops mattering above it
        assert not on_lshape_boundary([(0.5, 0.25)])[0]


class TestBuildMesh:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_interior_counts(self, level):
        mesh = build_lshape_mesh(level)
        assert mesh.interior.size == INTERIOR_COUNTS[level]

    def test_level0_shape(self):
        mesh = build_lshape_mesh(0)
        assert mesh.n_triangles == 24
        assert mesh.n_vertices == 21
        assert mesh.boundary.size == 16

    def test_triangle_count_scales_by_four(self):
        for level in (0, 1, 2):
            mesh = build_lshape_mesh(level)
            assert mesh.n_triangles == 24 * 4**level

    def test_positive_areas_and_total(self):
        for level in (0, 1):
            mesh = build_lshape_mesh(level)
            areas = mesh.areas()
            assert np.all(areas > 0.0)
            assert areas.sum() == pytest.approx(3.0, abs=1e-13)

    def test_flags_match_geometry(self):
        # the exact lattice flags against the geometric oracle
        for level in range(6):
            mesh = build_lshape_mesh(level)
            assert np.array_equal(mesh.boundary_flags,
                                  on_lshape_boundary(mesh.vertices))

    def test_euler_characteristic(self):
        # V - E + F = 1 for the simply connected L-shape
        for level in (0, 1):
            mesh = build_lshape_mesh(level)
            edges = set()
            for tri in mesh.triangles:
                for a, b in ((tri[0], tri[1]), (tri[1], tri[2]),
                             (tri[2], tri[0])):
                    edges.add((min(a, b), max(a, b)))
            assert mesh.n_vertices - len(edges) + mesh.n_triangles == 1

    def test_h_x(self):
        for level in (0, 1, 2):
            mesh = build_lshape_mesh(level)
            expect = np.sqrt(0.125) * 0.5**level
            assert mesh.h_x == pytest.approx(expect, rel=1e-12)

    def test_negative_level_rejected(self):
        with pytest.raises(UsageError, match="level"):
            build_lshape_mesh(-1)

    def test_non_integer_level_rejected(self):
        with pytest.raises(UsageError, match="level"):
            build_lshape_mesh(1.0)
        # operator.index(True) is 1: unchecked, True would build level 1
        with pytest.raises(UsageError, match="level"):
            build_lshape_mesh(True)

    def test_vertices_stay_out_of_removed_quadrant(self):
        mesh = build_lshape_mesh(2)
        x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
        assert not np.any((x > 1e-12) & (y < -1e-12))


class TestRefineUniform:
    def test_counts(self):
        fine = refine_uniform(build_lshape_mesh(0))
        assert fine.n_triangles == 96
        assert fine.interior.size == INTERIOR_COUNTS[1]

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_matches_direct_build(self, level):
        refined = refine_uniform(build_lshape_mesh(level))
        direct = build_lshape_mesh(level + 1)

        def vertex_key(mesh):
            return sorted(map(tuple, np.round(mesh.vertices, 12)))

        def triangle_key(mesh):
            v = np.round(mesh.vertices, 12)
            return sorted(
                tuple(sorted(map(tuple, v[tri]))) for tri in mesh.triangles
            )

        assert vertex_key(refined) == vertex_key(direct)
        assert triangle_key(refined) == triangle_key(direct)

    def test_midpoint_flags_recomputed_geometrically(self):
        fine = refine_uniform(build_lshape_mesh(0))
        assert np.array_equal(fine.boundary_flags,
                              on_lshape_boundary(fine.vertices))

    def test_areas_quarter(self):
        coarse = build_lshape_mesh(0)
        fine = refine_uniform(coarse)
        assert fine.areas().max() == pytest.approx(coarse.areas().max() / 4)


def one_triangle(vertices, triangle=(0, 1, 2)):
    return TriangleMesh(vertices=vertices, triangles=[triangle],
                        boundary_flags=[True] * len(vertices))


class TestMeshType:
    # every area is checked once, when the mesh is built
    def test_degenerate_triangle_rejected(self):
        with pytest.raises(DegenerateElement):
            one_triangle([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])

    def test_clockwise_triangle_rejected(self):
        with pytest.raises(DegenerateElement):
            one_triangle([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])

    def test_nan_area_rejected(self):
        # finite vertices whose difference overflows: inf * 0 is NaN
        with pytest.raises(DegenerateElement):
            one_triangle([(-1e308, 0.0), (1e308, 0.0), (0.0, 0.0)])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_vertex_index_out_of_range_rejected(self, index):
        # -1 would silently mean the last vertex, n_vertices an
        # IndexError inside the assembly
        with pytest.raises(ValueError, match="out of range"):
            one_triangle([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                         triangle=(0, 1, index))

    def test_arrays_are_read_only_copies(self):
        vertices = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        mesh = one_triangle(vertices)
        vertices[1, 0] = -1.0  # the caller's array stays writable
        assert mesh.areas()[0] == 0.5
        for array in (mesh.vertices, mesh.triangles, mesh.boundary_flags,
                      mesh.areas()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        # refused before any arithmetic: (bad, 1) would meet inf - inf in
        # the doubled area, which numpy warns about
        for vertex in ((0.0, bad), (bad, 1.0)):
            with pytest.raises(ValueError, match="vertices must be finite"):
                one_triangle([(0.0, 0.0), (1.0, 0.0), vertex])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TriangleMesh(vertices=[(0.0, 0.0, 0.0)], triangles=[(0, 0, 0)],
                         boundary_flags=[True])
