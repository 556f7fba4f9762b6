"""Quadrature rules, P1 assembly, load vectors, and error norms."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

from kronheat import fem
from kronheat.errors import DimensionMismatch, UsageError
from kronheat.experiments import (
    assemble_problem,
    solution_errors,
    time_mesh_at_level,
)
from kronheat.fem import (
    GRADED_SPLITS,
    _graded_unit_edges,
    assemble_global_rhs,
    assemble_p1,
    dirichlet_lift,
    error_norms,
    gauss_rule_01,
    project_rhs,
    triangle_rule,
)
from kronheat.lshape import TriangleMesh, build_lshape_mesh
from kronheat.manufactured import ExactFields
from kronheat.solvers import solve
from kronheat.temporal import TemporalMesh, assemble_temporal_operators

from conftest import (
    BASE_NODES,
    collapsed_rule,
    error_norms_reference,
    exact_dt,
    exact_grad,
    exact_u,
    full_p1,
    refine_uniform,
)


def reference_triangle():
    return TriangleMesh(
        vertices=[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
        triangles=[(0, 1, 2)],
        boundary_flags=[True, True, True],
    )


def rule_of_order(order):
    # fem's fixed rules up to degree 12, the reference rule beyond
    return triangle_rule(order) if order <= 12 else collapsed_rule(order)


class TestTriangleRule:
    @pytest.mark.parametrize("order", [*range(1, 15), 30])
    def test_weights_sum_to_area(self, order):
        _, wts = rule_of_order(order)
        assert wts.sum() == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("order", [*range(1, 15), 30])
    def test_monomial_exactness(self, order):
        # int_T x^a y^b = a! b! / (a + b + 2)! on the unit triangle
        pts, wts = rule_of_order(order)
        for a in range(order + 1):
            for b in range(order + 1 - a):
                val = np.sum(wts * pts[:, 0] ** a * pts[:, 1] ** b)
                exact = (
                    math.factorial(a) * math.factorial(b)
                    / math.factorial(a + b + 2)
                )
                assert val == pytest.approx(exact, rel=5e-13, abs=1e-15)

    def test_points_inside_closed_triangle(self):
        for order in (2, 5, 6, 9, 12, 13):
            pts, _ = rule_of_order(order)
            assert np.all(pts >= -1e-14)
            assert np.all(pts.sum(axis=1) <= 1.0 + 1e-14)
        _, wts = triangle_rule(12)
        assert np.all(wts > 0.0)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(UsageError, match="order"):
            triangle_rule(0)

    @pytest.mark.parametrize("order", [True, 2.5, 13],
                             ids=["bool", "fraction", "above-12"])
    def test_rejects_unusable_order(self, order):
        # a bool or a fraction is not a degree, and no rule above 12 is
        # kept: the load takes degree 6 and the error norms degree 12
        with pytest.raises(UsageError, match="order"):
            triangle_rule(order)

    def test_fixed_rules(self):
        # one 12-point rule up to degree 6 and one 33-point rule from 7
        # to 12; the load takes the first with 5 Gauss points in time,
        # the error norms degree 12 with 8
        for orders, degree, n in ((range(1, 7), 6, 12),
                                  (range(7, 13), 12, 33)):
            want_pts, want_wts = triangle_rule(degree)
            for order in orders:
                pts, wts = triangle_rule(order)
                assert len(pts) == n
                assert np.array_equal(pts, want_pts)
                assert np.array_equal(wts, want_wts)
        for seam, degree, n in ((fem._load_quadrature, 6, 5),
                                (fem._error_quadrature, 12, 8)):
            (pts, wts), (tq, tw) = seam()
            want_pts, want_wts = triangle_rule(degree)
            want_tq, want_tw = gauss_rule_01(n)
            assert np.array_equal(pts, want_pts)
            assert np.array_equal(wts, want_wts)
            assert np.array_equal(tq, want_tq) and np.array_equal(tw, want_tw)


class TestGaussRule:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_polynomial_exactness(self, n):
        q, w = gauss_rule_01(n)
        for k in range(2 * n):
            assert np.sum(w * q**k) == pytest.approx(1.0 / (k + 1), rel=1e-13)

    @pytest.mark.parametrize("n", [True, 0, 2.5],
                             ids=["bool", "zero", "fraction"])
    def test_rejects_unusable_count(self, n):
        with pytest.raises(UsageError, match="n must be"):
            gauss_rule_01(n)


class TestGradedEdges:
    def test_structure(self):
        edges = _graded_unit_edges()
        assert edges[0] == 0.0
        assert edges[-1] == 1.0
        assert len(edges) == GRADED_SPLITS + 1
        # widths double away from the origin, apart from the stub at 0
        widths = np.diff(edges[1:])
        assert np.allclose(widths[1:] / widths[:-1], 2.0)

    def test_default_covers_unit_interval(self):
        edges = _graded_unit_edges()
        assert np.all(np.diff(edges) > 0)
        assert edges[1] == pytest.approx(2.0 ** -11)


class TestAssembleP1:
    def test_nan_vertex_rejected(self):
        # a NaN vertex would make the P1 matrices NaN.  TriangleMesh
        # refuses one when it is built, and writing one into a mesh that
        # passed its checks is refused too
        mesh = reference_triangle()
        with pytest.raises(ValueError, match="read-only"):
            mesh.vertices[2, 0] = np.nan
        assert np.isfinite(assemble_p1(mesh).M10.toarray()).all()

    def test_reference_element_matrices(self):
        M, K = full_p1(reference_triangle())
        K = K.toarray()
        M = M.toarray()
        K_exact = np.array([
            [1.0, -0.5, -0.5],
            [-0.5, 0.5, 0.0],
            [-0.5, 0.0, 0.5],
        ])
        M_exact = (0.5 / 12.0) * np.array([
            [2.0, 1.0, 1.0],
            [1.0, 2.0, 1.0],
            [1.0, 1.0, 2.0],
        ])
        assert np.allclose(K, K_exact, atol=1e-15)
        assert np.allclose(M, M_exact, atol=1e-16)

    def test_mass_sums_to_domain_area(self):
        M, _ = full_p1(build_lshape_mesh(1))
        assert M.sum() == pytest.approx(3.0, rel=1e-13)

    def test_stiffness_annihilates_constants(self):
        M, A = full_p1(build_lshape_mesh(1))
        ones = np.ones(M.shape[0])
        assert np.abs(A @ ones).max() < 1e-13

    def test_stiffness_linear_exactness(self):
        # for u = x1, v = x2: int grad u . grad v = 0; u = v = x1 gives area
        mesh = build_lshape_mesh(0)
        _, A = full_p1(mesh)
        ux = mesh.vertices[:, 0]
        uy = mesh.vertices[:, 1]
        assert ux @ (A @ ux) == pytest.approx(3.0, rel=1e-13)
        assert ux @ (A @ uy) == pytest.approx(0.0, abs=1e-13)

    def test_interior_blocks_are_spd(self):
        ops = assemble_p1(build_lshape_mesh(1))
        for mat in (ops.M_II, ops.A_II):
            dense = mat.toarray()
            assert np.allclose(dense, dense.T, atol=1e-14)
            assert sla.eigvalsh(dense).min() > 0.0

    def test_mixed_mass_rows(self):
        mesh = build_lshape_mesh(0)
        ops = assemble_p1(mesh)
        areas = mesh.areas()
        m10 = ops.M10.toarray()
        row = {v: i for i, v in enumerate(mesh.interior)}
        # each column holds area/3 at the triangle's interior vertices
        for j, tri in enumerate(mesh.triangles):
            expect = np.zeros(ops.n_interior)
            for v in tri:
                if v in row:
                    expect[row[v]] = areas[j] / 3.0
            assert np.allclose(m10[:, j], expect, atol=1e-15)

    def test_submatrix_blocks_match_full(self):
        mesh = build_lshape_mesh(0)
        ops = assemble_p1(mesh)
        interior, boundary = mesh.interior, mesh.boundary
        assert ops.n_interior == len(interior)
        for blocks, full in zip(((ops.M_II, ops.M_IB), (ops.A_II, ops.A_IB)),
                                full_p1(mesh)):
            full = full.toarray()
            assert np.allclose(blocks[0].toarray(),
                               full[np.ix_(interior, interior)])
            assert np.allclose(blocks[1].toarray(),
                               full[np.ix_(interior, boundary)])


@pytest.fixture(scope="module")
def meshes():
    return build_lshape_mesh(0), TemporalMesh(BASE_NODES)


class TestProjectRhs:

    def test_constant_field(self, meshes):
        mesh_x, mesh_t = meshes
        F = project_rhs(mesh_x, mesh_t, lambda x1, x2, t: np.ones_like(x1 + t))
        assert np.allclose(F, 1.0, atol=1e-14)

    def test_linear_in_time(self, meshes):
        mesh_x, mesh_t = meshes
        F = project_rhs(mesh_x, mesh_t, lambda x1, x2, t: t + 0 * x1)
        mid = 0.5 * (mesh_t.nodes[:-1] + mesh_t.nodes[1:])
        assert np.allclose(F, np.broadcast_to(mid, F.shape), atol=1e-14)

    def test_linear_in_space(self, meshes):
        mesh_x, mesh_t = meshes
        F = project_rhs(mesh_x, mesh_t, lambda x1, x2, t: x1 + 0 * t)
        cx = mesh_x.vertices[mesh_x.triangles, 0].mean(axis=1)
        assert np.allclose(F, cx[:, None], atol=1e-14)

    def test_self_convergence_on_source(self, meshes, monkeypatch):
        # the source projection is limited by the spatial rule; the load
        # rule (degree 6, 5 time points) and degree 12 with 8 time points
        # agree to a few 1e-7 relative on the actual problem data
        source = ExactFields().source
        mesh_x = refine_uniform(refine_uniform(build_lshape_mesh(0)))
        base = np.asarray(BASE_NODES)
        mesh_t = TemporalMesh(np.sort(np.concatenate(
            [base, 0.5 * (base[:-1] + base[1:])])))
        coarse = project_rhs(mesh_x, mesh_t, source)
        monkeypatch.setattr(fem, "_load_quadrature",
                            lambda: (triangle_rule(12), gauss_rule_01(8)))
        fine = project_rhs(mesh_x, mesh_t, source)
        scale = np.abs(fine).max()
        assert np.abs(coarse - fine).max() < 1e-6 * scale


class TestDirichletLift:
    def test_values_and_shape(self):
        mesh_x = build_lshape_mesh(0)
        mesh_t = TemporalMesh(BASE_NODES)
        g = lambda x1, x2, t: x1 + 10.0 * x2 + 100.0 * t
        G = dirichlet_lift(mesh_x, mesh_t, g)
        assert G.shape == (len(mesh_x.boundary), mesh_t.n_cells)
        bv = mesh_x.vertices[mesh_x.boundary]
        for j, t in enumerate(mesh_t.nodes[1:]):
            assert np.allclose(G[:, j], bv[:, 0] + 10 * bv[:, 1] + 100 * t)

    def test_exact_fields_lift_matches_oracle(self):
        # ExactFields().u returns views of one reused buffer, so the lift
        # must copy each column or every column holds the last node's
        mesh_x = build_lshape_mesh(2)
        mesh_t = time_mesh_at_level(2)
        lift = dirichlet_lift(mesh_x, mesh_t, ExactFields().u)
        bv = mesh_x.vertices[mesh_x.boundary]
        want = exact_u(bv[:, :1], bv[:, 1:], mesh_t.nodes[None, 1:])
        assert np.max(np.abs(lift - want)) <= 1e-15 * np.max(np.abs(want))
        assert len(np.unique(lift, axis=1).T) == mesh_t.n_cells


@pytest.fixture(scope="module")
def pieces():
    mesh_x = build_lshape_mesh(0)
    mesh_t = TemporalMesh(BASE_NODES)
    ops = assemble_p1(mesh_x)
    temp = assemble_temporal_operators(mesh_t, j_max=20_000)
    rng = np.random.default_rng(7)
    F = rng.standard_normal((mesh_x.n_triangles, temp.n))
    G = rng.standard_normal((len(mesh_x.boundary), temp.n))
    return ops, temp, F, G


class TestAssembleGlobalRhs:

    def test_matches_kron_oracle(self, pieces):
        ops, temp, F, G = pieces
        rhs = assemble_global_rhs(F, ops, temp, lift=G)
        dense = (
            np.kron(temp.C, ops.M10.toarray()) @ F.ravel(order="F")
            - np.kron(temp.A, ops.M_IB.toarray()) @ G.ravel(order="F")
            - np.kron(temp.M, ops.A_IB.toarray()) @ G.ravel(order="F")
        )
        assert np.allclose(rhs, dense, atol=1e-12)

    def test_dimension_checks(self, pieces):
        ops, temp, F, G = pieces
        with pytest.raises(DimensionMismatch):
            assemble_global_rhs(F[:, :-1], ops, temp, G)
        with pytest.raises(DimensionMismatch):
            assemble_global_rhs(F, ops, temp, lift=G[:-1])


class TestErrorNorms:
    def test_reproduces_discrete_function(self, meshes):
        # u linear in space and time lies in the trial space, so both
        # errors vanish to rounding
        mesh_x, mesh_t = meshes
        a, b, c = 0.7, -1.3, 0.4
        u = lambda x1, x2, t: (a + b * x1 + c * x2) * t
        grad = lambda x1, x2, t: (b * t * np.ones_like(x1 + t),
                                  c * t * np.ones_like(x1 + t))
        dt = lambda x1, x2, t: (a + b * x1 + c * x2) * np.ones_like(t + x1)
        vals = a + b * mesh_x.vertices[:, 0] + c * mesh_x.vertices[:, 1]
        coeffs = vals[:, None] * mesh_t.nodes[None, 1:]
        [(l2, h1)] = error_norms(coeffs[None], mesh_x, mesh_t, u, grad, dt)
        assert l2 < 1e-13
        assert h1 < 1e-12

    def test_analytic_norm_of_known_field(self, meshes):
        # coeffs = 0 turns the error into the norm of u itself; u = t has
        # ||u||_L2^2 = |Omega| T^3/3 and full gradient norm |Omega| T
        mesh_x, mesh_t = meshes
        zero = np.zeros((1, mesh_x.n_vertices, mesh_t.n_cells))
        u = lambda x1, x2, t: t + 0 * x1
        grad = lambda x1, x2, t: (0 * x1 + 0 * t, 0 * x1 + 0 * t)
        dt = lambda x1, x2, t: 1.0 + 0 * x1 + 0 * t
        [(l2, h1)] = error_norms(zero, mesh_x, mesh_t, u, grad, dt)
        T = mesh_t.T
        assert l2 == pytest.approx(math.sqrt(3.0 * T**3 / 3.0), rel=1e-13)
        assert h1 == pytest.approx(math.sqrt(3.0 * T), rel=1e-13)

    def test_quadrature_invariance_on_smooth_error(self, meshes,
                                                   monkeypatch):
        # quartic-in-space error integrated with the default versus an
        # elevated rule (degree 16, 9 time points); both are converged so
        # the norms agree tightly
        mesh_x, mesh_t = meshes
        zero = np.zeros((1, mesh_x.n_vertices, mesh_t.n_cells))
        u, grad, dt = quartic_fields()
        [a] = error_norms(zero, mesh_x, mesh_t, u, grad, dt)
        monkeypatch.setattr(fem, "_error_quadrature",
                            lambda: (collapsed_rule(16), gauss_rule_01(9)))
        [b] = error_norms(zero, mesh_x, mesh_t, u, grad, dt)
        assert a[0] == pytest.approx(b[0], rel=1e-12)
        assert a[1] == pytest.approx(b[1], rel=1e-12)

    def test_shape_check(self, meshes):
        mesh_x, mesh_t = meshes
        bad = np.zeros((3, mesh_t.n_cells))
        u = lambda x1, x2, t: 0 * x1
        with pytest.raises(DimensionMismatch):
            error_norms(bad, mesh_x, mesh_t, u, lambda *a: (0, 0), u)

    @pytest.mark.parametrize("shape", [(3, 20, 4), (3, 21, 5), (2, 1, 21, 4),
                                       (21 * 4,), (21, 4)])
    def test_stack_shape_check(self, meshes, shape):
        mesh_x, mesh_t = meshes
        assert (mesh_x.n_vertices, mesh_t.n_cells) == (21, 4)
        u = lambda x1, x2, t: 0 * x1
        with pytest.raises(DimensionMismatch):
            error_norms(np.zeros(shape), mesh_x, mesh_t, u,
                        lambda *a: (0, 0), u)

    def test_stack_equals_single_calls(self, meshes):
        # three unrelated coefficient sets against the manufactured
        # solution: the stack of 3 shares the exact fields and must
        # reproduce every stack of 1
        mesh_x, mesh_t = meshes
        rng = np.random.default_rng(5)
        stack = rng.standard_normal((3, mesh_x.n_vertices, mesh_t.n_cells))
        fields = ExactFields()
        pairs = error_norms(stack, mesh_x, mesh_t,
                            fields.u, fields.grad, fields.dt)
        assert len(pairs) == 3
        for coeffs, (l2, h1) in zip(stack, pairs):
            [want] = error_norms(coeffs[None], mesh_x, mesh_t,
                                 exact_u, exact_grad, exact_dt)
            assert l2 == pytest.approx(want[0], rel=1e-13)
            assert h1 == pytest.approx(want[1], rel=1e-13)

    def test_fields_called_once_per_time_point(self, meshes):
        # the same x1, x2 objects every call, one call per time point,
        # however many coefficient sets are measured
        mesh_x, mesh_t = meshes
        seen = []

        def u(x1, x2, t):
            seen.append((id(x1), id(x2), t))
            return 0 * x1

        counts = []
        for k in (1, 4):
            seen.clear()
            zero = np.zeros((k, mesh_x.n_vertices, mesh_t.n_cells))
            error_norms(zero, mesh_x, mesh_t, u,
                        lambda x1, x2, t: (0 * x1, 0 * x2), u)
            counts.append(len(seen))
            assert len({key[:2] for key in seen}) == 1
            times = [key[2] for key in seen]
            assert times[::2] == times[1::2]  # u then dt at each point
        # u and dt at 12 graded panels x 8 points on cell 0 and 8 points
        # on each of the other three cells
        assert counts[0] == counts[1] == 2 * (12 * 8 + 3 * 8)


class TestErrorBlocks:
    """``error_norms`` on a mesh split into several triangle blocks."""

    @pytest.fixture
    def blocks_of_ten(self, meshes, monkeypatch):
        # the 24 level-0 triangles in blocks of 10, 10 and 4; the bound
        # is no multiple of the rule's 33 points
        (pts, _), _ = fem._error_quadrature()
        assert meshes[0].n_triangles == 24
        monkeypatch.setattr(fem, "ERROR_BLOCK_POINTS", 10 * len(pts) + 3)

    @pytest.fixture
    def stack(self, meshes):
        mesh_x, mesh_t = meshes
        rng = np.random.default_rng(17)
        return rng.standard_normal((3, mesh_x.n_vertices, mesh_t.n_cells))

    def test_matches_one_block(self, meshes, stack, blocks_of_ten,
                               monkeypatch):
        mesh_x, mesh_t = meshes
        fields = ExactFields()
        split = error_norms(stack, mesh_x, mesh_t,
                            fields.u, fields.grad, fields.dt)
        (pts, _), _ = fem._error_quadrature()
        monkeypatch.setattr(fem, "ERROR_BLOCK_POINTS",
                            mesh_x.n_triangles * len(pts))
        one = error_norms(stack, mesh_x, mesh_t,
                          fields.u, fields.grad, fields.dt)
        assert_pairs_close(split, one, 1e-13)
        want = error_norms_reference(stack, mesh_x, mesh_t,
                                     exact_u, exact_grad, exact_dt)
        assert_pairs_close(split, want, 1e-12)

    def test_fields_called_per_block(self, meshes, stack, blocks_of_ten):
        # each block passes its own (x1, x2) pair in one contiguous run of
        # calls, u then grad then dt once per time point
        mesh_x, mesh_t = meshes
        seen = []

        def recording(name, field):
            def f(x1, x2, t):
                seen.append((name, x1, x2, t))
                return field(x1, x2, t)
            return f

        error_norms(stack, mesh_x, mesh_t, recording("u", exact_u),
                    recording("grad", exact_grad), recording("dt", exact_dt))
        runs = []
        for name, x1, x2, t in seen:
            if not runs or runs[-1][0] is not x1:
                runs.append((x1, x2, []))
            assert runs[-1][1] is x2
            runs[-1][2].append((name, t))
        assert [x1.shape[1] for x1, _, _ in runs] == [10, 10, 4]
        n_times = 12 * 8 + 3 * 8
        for _, _, calls in runs:
            names = [name for name, _ in calls]
            assert names == ["u", "grad", "dt"] * n_times
            times = [t for _, t in calls]
            assert times[::3] == times[1::3] == times[2::3]
            assert times == [t for _, t in runs[0][2]]


def assert_pairs_close(got, want, rel):
    assert len(got) == len(want)
    for pair, expected in zip(got, want):
        assert pair[0] == pytest.approx(expected[0], rel=rel, abs=0.0)
        assert pair[1] == pytest.approx(expected[1], rel=rel, abs=0.0)


def quartic_fields():
    u = lambda x1, x2, t: (x1**4 - x2**3) * t**2
    grad = lambda x1, x2, t: (4 * x1**3 * t**2, -3 * x2**2 * t**2)
    dt = lambda x1, x2, t: (x1**4 - x2**3) * 2 * t
    return u, grad, dt


def spy_first_parts(monkeypatch):
    """Record, per ``_p1_split`` call, its first part relative to the field.

    Returns the list the ratios are appended to, in call order.
    """
    ratios = []
    split = fem._p1_split

    def first_part(f, *args):
        coef, square = split(f, *args)
        ratios.append(square.sum() / np.square(f).sum())
        return coef, square

    monkeypatch.setattr(fem, "_p1_split", first_part)
    return ratios


class TestErrorRule:
    @pytest.mark.parametrize("level, rel", [(0, 1e-5), (1, 1e-7)])
    def test_problem_norms_match_fine_rule(self, monkeypatch, level, rel):
        # the degree-12 rule against a 256-point degree-30 one, both with
        # 8 Gauss points in time, on the problem's own solutions: the
        # spatial rule limits the norms on the coarse triangles
        problem = assemble_problem(level)
        solutions = [solve(problem.system, variant)[0]
                     for variant in ("bs-real", "bs-complex", "fd")]
        got = solution_errors(problem, solutions)
        rules = (collapsed_rule(30), gauss_rule_01(8))
        monkeypatch.setattr(fem, "_error_quadrature", lambda: rules)
        want = solution_errors(problem, solutions)
        assert_pairs_close(got, want, rel)


class TestErrorSplit:
    """``error_norms`` against the unsplit per-point measurement."""

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_matches_reference_on_problem(self, level):
        # all three variants' solutions, boundary rows from the lift
        problem = assemble_problem(level)
        mesh_x = problem.mesh_x
        variants = ("bs-real", "bs-complex", "fd")
        stack = np.empty((len(variants), mesh_x.n_vertices,
                          problem.mesh_t.n_cells))
        stack[:, mesh_x.boundary] = problem.lift
        for full, variant in zip(stack, variants):
            solution, _ = solve(problem.system, variant)
            full[mesh_x.interior] = solution.coefficients.reshape(
                len(mesh_x.interior), -1, order="F")
        fields = ExactFields()
        got = error_norms(stack, problem.mesh_x, problem.mesh_t,
                          fields.u, fields.grad, fields.dt)
        want = error_norms_reference(stack, problem.mesh_x, problem.mesh_t,
                                     exact_u, exact_grad, exact_dt)
        assert_pairs_close(got, want, 1e-12)

    @pytest.mark.parametrize("degree, n_time", [(None, None), (2, 2), (5, 3)],
                             ids=["None", "2", "5"])
    def test_matches_reference_on_random_stack(self, meshes, monkeypatch,
                                               degree, n_time):
        # the split holds under any rule exact for P1 products, even one
        # that does not integrate the quartic field exactly; the
        # reference reads the patched rule too
        if degree is not None:
            rules = (collapsed_rule(degree), gauss_rule_01(n_time))
            monkeypatch.setattr(fem, "_error_quadrature", lambda: rules)
        mesh_x, mesh_t = meshes
        rng = np.random.default_rng(11)
        stack = rng.standard_normal((3, mesh_x.n_vertices, mesh_t.n_cells))
        u, grad, dt = quartic_fields()
        got = error_norms(stack, mesh_x, mesh_t, u, grad, dt)
        want = error_norms_reference(stack, mesh_x, mesh_t, u, grad, dt)
        assert_pairs_close(got, want, 1e-12)

    def test_p1_field_has_zero_first_part(self, meshes, monkeypatch):
        # u = phi(x) t^2 with phi linear and its interpolant as
        # coefficients: u - Pi u vanishes at every time point, and the
        # error is the temporal interpolation error of t^2 alone
        mesh_x, mesh_t = meshes
        a, b, c = 0.7, -1.3, 0.4
        phi = lambda x1, x2: a + b * x1 + c * x2
        u = lambda x1, x2, t: phi(x1, x2) * t**2
        grad = lambda x1, x2, t: (np.full_like(x1, b * t**2),
                                  np.full_like(x2, c * t**2))
        dt = lambda x1, x2, t: 2.0 * t * phi(x1, x2)
        ratios = spy_first_parts(monkeypatch)
        nodal = phi(mesh_x.vertices[:, 0], mesh_x.vertices[:, 1])
        coeffs = nodal[:, None] * mesh_t.nodes[None, 1:] ** 2
        [(l2, h1)] = error_norms(coeffs[None], mesh_x, mesh_t, u, grad, dt)
        assert len(ratios) == 4 * (12 * 8 + 3 * 8)
        assert max(ratios) < 1e-28
        # on a cell of width h, t^2 less its interpolant is s (s - h)
        M, A = full_p1(mesh_x)
        mass = nodal @ M @ nodal
        stiffness = nodal @ A @ nodal
        h = np.diff(mesh_t.nodes)
        assert l2 == pytest.approx(math.sqrt(mass * np.sum(h**5) / 30.0),
                                   rel=1e-13)
        assert h1 == pytest.approx(
            math.sqrt(mass * np.sum(h**3) / 3.0
                      + stiffness * np.sum(h**5) / 30.0), rel=1e-13)

    def test_linear_gradient_has_zero_first_part(self, meshes, monkeypatch):
        # u = (x1^2 + x2^2) t has a linear, nonconstant gradient: it lies
        # in P1, so its split leaves no first part, where a projection
        # onto constants would leave one
        mesh_x, mesh_t = meshes
        u = lambda x1, x2, t: (x1**2 + x2**2) * t
        grad = lambda x1, x2, t: (2.0 * x1 * t, 2.0 * x2 * t)
        dt = lambda x1, x2, t: x1**2 + x2**2
        ratios = spy_first_parts(monkeypatch)
        zero = np.zeros((1, mesh_x.n_vertices, mesh_t.n_cells))
        error_norms(zero, mesh_x, mesh_t, u, grad, dt)
        # u, du/dx1, du/dx2 and du/dt at each time point, in that order
        assert len(ratios) == 4 * (12 * 8 + 3 * 8)
        assert max(ratios[1::4] + ratios[2::4]) < 1e-28
        assert min(ratios[0::4]) > 1e-6

    def test_memory_is_a_few_point_sets(self):
        # the second part is measured a panel of time points at a time:
        # a stacked level-2 measurement, one block of 384 triangles,
        # allocates at most 25 arrays of the point set's size (about
        # 23.3), where the 96 time points of the whole first cell at a
        # time take about 72
        problem = assemble_problem(2)
        solutions = [solve(problem.system, variant)[0]
                     for variant in ("bs-real", "bs-complex", "fd")]
        (pts, _), _ = fem._error_quadrature()
        point_set = 8 * len(pts) * problem.mesh_x.n_triangles
        tracemalloc.start()
        try:
            solution_errors(problem, solutions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 25 * point_set

    def test_memory_is_a_few_block_sets(self):
        # each triangle block runs the whole time sweep in turn, so a
        # stacked level-3 measurement (blocks of 496, 496, 496 and 48
        # triangles) allocates its stack and at most 25 arrays of a
        # block's points (about 22.8), where the whole mesh as one block
        # took about 22 arrays of all its points
        problem = assemble_problem(3)
        solutions = [solve(problem.system, variant)[0]
                     for variant in ("bs-real", "bs-complex", "fd")]
        stack = 8 * len(solutions) * problem.mesh_x.n_vertices \
            * problem.mesh_t.n_cells
        block_set = 8 * fem.ERROR_BLOCK_POINTS
        tracemalloc.start()
        try:
            solution_errors(problem, solutions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= stack + 25 * block_set

    def test_non_finite_coefficient_is_refused(self, meshes):
        mesh_x, mesh_t = meshes
        u, grad, dt = quartic_fields()
        for bad in (np.nan, np.inf):
            coeffs = np.zeros((2, mesh_x.n_vertices, mesh_t.n_cells))
            coeffs[1, 5, 2] = bad
            with pytest.raises(UsageError):
                error_norms(coeffs, mesh_x, mesh_t, u, grad, dt)
