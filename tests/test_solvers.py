"""Tests for the three direct space-time solvers."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from kronheat import solvers, sparse_direct
from kronheat.dense import block_starts, eig_pencil
from kronheat.errors import (
    DefectivePencil,
    DimensionMismatch,
    ImaginaryResidueTooLarge,
    ResidualTooLarge,
    UsageError,
)
from kronheat.experiments import assemble_problem, time_mesh_at_level
from kronheat.fem import (
    SpatialOperators,
    assemble_global_rhs,
    assemble_p1,
    dirichlet_lift,
    project_rhs,
)
from kronheat.lshape import build_lshape_mesh
from kronheat.manufactured import ExactFields
from kronheat.solvers import (
    SpaceTimeSystem,
    build_pencil,
    eig_study,
    residual,
    solve,
)
from kronheat.temporal import (
    TemporalMesh,
    assemble_temporal_operators,
    refine_bisect,
)

import conftest
from conftest import (
    BASE_NODES,
    SizeGuardExceeded,
    counting,
    solve_dense_oracle,
)


def make_problem(level=0, refinements=0, j_max=100_000):
    mesh_x = build_lshape_mesh(level)
    mesh_t = TemporalMesh(np.array(BASE_NODES))
    for _ in range(refinements):
        mesh_t = refine_bisect(mesh_t)
    ops = assemble_p1(mesh_x)
    temp = assemble_temporal_operators(mesh_t, j_max=j_max)
    fields = ExactFields()
    F = project_rhs(mesh_x, mesh_t, fields.source)
    lift = dirichlet_lift(mesh_x, mesh_t, fields.u)
    rhs = assemble_global_rhs(F, ops, temp, lift=lift)
    return SpaceTimeSystem(temporal=temp, spatial=ops, rhs=rhs)


def wrap_spatial(M, A):
    """Package bare interior matrices as SpatialOperators for the solvers."""
    M = sp.csr_matrix(M)
    A = sp.csr_matrix(A)
    n = M.shape[0]
    empty_col = sp.csr_matrix((n, 0))
    return SpatialOperators(
        M_full=M, A_full=A,
        interior=np.arange(n), boundary=np.empty(0, dtype=int),
        interior_index=np.arange(n),
        M_II=M, A_II=A, M_IB=empty_col, A_IB=empty_col, M10=empty_col,
    )


def fem_pair_1d(n, seed):
    """Mass and stiffness of P1 elements on a randomly graded interval."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0.5, 1.5, size=n + 1) / n
    main_m = (h[:-1] + h[1:]) / 3.0
    off_m = h[1:-1] / 6.0
    M = sp.diags([off_m, main_m, off_m], [-1, 0, 1], format="csr")
    main_a = 1.0 / h[:-1] + 1.0 / h[1:]
    off_a = -1.0 / h[1:-1]
    A = sp.diags([off_a, main_a, off_a], [-1, 0, 1], format="csr")
    return M, A


def random_temporal(n, seed):
    """Random pencil with SPD A and positive definite symmetric part of M."""
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    S = rng.standard_normal((n, n))
    M = S @ S.T + n * np.eye(n) + (S - S.T)
    return dataclasses.replace(
        assemble_temporal_operators(
            TemporalMesh(np.linspace(0.0, 0.5, n + 1)), j_max=50),
        A=A, M=M)


def random_system(n_t, m_x, seed):
    temp = random_temporal(n_t, seed)
    M, A = fem_pair_1d(m_x, seed + 1000)
    rng = np.random.default_rng(seed + 2000)
    rhs = rng.standard_normal(n_t * m_x)
    return SpaceTimeSystem(temporal=temp, spatial=wrap_spatial(M, A), rhs=rhs)


def solve_as(system, variant, threads=1):
    """solve() that fails the test if fd fell back to another variant."""
    sol, report = solve(system, variant, threads=threads)
    assert report.variant == variant and report.fallback is None
    return sol, report


def rel_diff(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def small_system():
    return make_problem(level=0, refinements=0)


@pytest.fixture(scope="module")
def oracle_solution(small_system):
    return solve_dense_oracle(small_system)


class TestBuildPencil:
    @pytest.mark.parametrize("variant", ["bs-real", "bs-complex", "fd"])
    def test_transforms_reproduce_pencil(self, base_ops, variant):
        # P^T = left T^T right, the identity the sweep relies on
        pencil = build_pencil(base_ops, variant)
        P = np.linalg.solve(base_ops.A, base_ops.M)
        assert pencil.T.shape == P.shape
        PT = pencil.left @ pencil.T.T @ pencil.right
        assert np.linalg.norm(PT - P.T) < 1e-10 * np.linalg.norm(P)
        assert (pencil.kappa2 is None) == (variant != "fd")

    def test_pencil_is_frozen(self, base_ops):
        pencil = build_pencil(base_ops, "bs-real")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pencil.T = np.zeros((2, 2))

    def test_spectrum_consistent_across_variants(self, base_ops):
        mins = [build_pencil(base_ops, v).min_re_lambda
                for v in ("bs-real", "bs-complex", "fd")]
        assert mins[0] > 0.0
        assert np.allclose(mins, mins[0], rtol=1e-8)

    def test_real_schur_reconstructs(self, base_ops):
        pencil = build_pencil(base_ops, "bs-real")
        L = pencil.chol_A
        P = np.linalg.solve(L @ L.T, base_ops.M)
        Q, R = pencil.left, pencil.T
        assert np.linalg.norm(Q @ R @ Q.T - P) < 1e-12 * np.linalg.norm(P)

    def test_unknown_variant(self, base_ops):
        with pytest.raises(ValueError):
            build_pencil(base_ops, "qr")


class TestEigStudy:
    # reference values for the graded base partition of (0, 1/2),
    # printed to four significant digits
    REFERENCE = {
        4: (1.514e-02, 2.041e-01, 1.954e00, 9.576e00),
        8: (4.991e-03, 4.049e-02, 3.109e00, 7.678e01),
    }

    @pytest.mark.parametrize("n_t", [4, 8])
    def test_matches_reference_row(self, n_t):
        mesh = TemporalMesh(np.array(BASE_NODES))
        while mesh.n_cells < n_t:
            mesh = refine_bisect(mesh)
        temp = assemble_temporal_operators(mesh, j_max=100_000)
        row = eig_study(temp)
        min_re, s_min, s_max, kappa = self.REFERENCE[n_t]
        assert row["n_t"] == n_t
        assert row["min_re_lambda"] == pytest.approx(min_re, rel=1e-3)
        assert row["sigma_min"] == pytest.approx(s_min, rel=1e-3)
        assert row["sigma_max"] == pytest.approx(s_max, rel=1e-3)
        assert row["kappa2"] == pytest.approx(kappa, rel=1e-3)

    @pytest.mark.parametrize("level", range(5))
    def test_matches_fd_pencil(self, level):
        # the singular values alone give the statistics of the full SVD
        temp = assemble_temporal_operators(time_mesh_at_level(level))
        row = eig_study(temp)
        pencil = build_pencil(temp, "fd")
        assert row["n_t"] == 4 * 2**level
        assert set(row) == {"n_t", "min_re_lambda", "sigma_min",
                            "sigma_max", "kappa2"}
        assert row["kappa2"] == row["sigma_max"] / row["sigma_min"]
        for key in ("min_re_lambda", "kappa2"):
            assert row[key] == pytest.approx(getattr(pencil, key),
                                             rel=1e-12, abs=0), key

    def test_singular_eigenvectors_raise(self, base_ops, monkeypatch):
        # a repeated eigenpair passes the residual check; its sigma_min is
        # rounding (about 1e-16 sigma_max), not exactly 0
        vals, vecs = eig_pencil(base_ops.M, base_ops.A)
        vals[1], vecs[:, 1] = vals[0], vecs[:, 0]
        monkeypatch.setattr(solvers, "eig_pencil", lambda M, A: (vals, vecs))
        with pytest.raises(DefectivePencil, match="singular"):
            build_pencil(base_ops, "fd")
        with pytest.raises(DefectivePencil, match="singular"):
            eig_study(base_ops)


class TestSolveSmall:
    def test_bs_real_matches_oracle(self, small_system, oracle_solution):
        sol, report = solve_as(small_system, "bs-real")
        assert rel_diff(sol.coefficients, oracle_solution.coefficients) < 1e-10
        assert report.residual < 1e-9

    def test_bs_complex_matches_oracle(self, small_system, oracle_solution):
        sol, report = solve_as(small_system, "bs-complex")
        assert rel_diff(sol.coefficients, oracle_solution.coefficients) < 1e-10
        assert report.residual < 1e-9

    def test_fd_matches_oracle(self, small_system, oracle_solution):
        sol, report = solve_as(small_system, "fd")
        assert rel_diff(sol.coefficients, oracle_solution.coefficients) < 1e-8
        assert report.residual < 1e-6

    def test_real_complex_agree_tightly(self, small_system):
        a, _ = solve_as(small_system, "bs-real")
        b, _ = solve_as(small_system, "bs-complex")
        assert rel_diff(a.coefficients, b.coefficients) < 1e-10

    def test_reported_residual_is_reproducible(self, small_system):
        sol, report = solve_as(small_system, "bs-real")
        assert residual(small_system, sol.coefficients) == pytest.approx(
            report.residual, rel=1e-12, abs=1e-16)

    def test_residual_matches_dense_kronecker(self, small_system):
        rng = np.random.default_rng(17)
        u = rng.standard_normal(small_system.dof)
        K = (np.kron(small_system.temporal.A,
                     small_system.spatial.M_II.toarray())
             + np.kron(small_system.temporal.M,
                       small_system.spatial.A_II.toarray()))
        f = small_system.rhs
        expected = np.linalg.norm(K @ u - f) / np.linalg.norm(f)
        assert residual(small_system, u) == pytest.approx(expected,
                                                          rel=1e-12)

    def test_residual_rejects_wrong_length(self, small_system):
        with pytest.raises(DimensionMismatch):
            residual(small_system, np.ones(small_system.dof + 1))

    def test_fd_threads_agree(self, small_system):
        a, _ = solve_as(small_system, "fd", threads=1)
        b, _ = solve_as(small_system, "fd", threads=3)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_one_symbolic_analysis_per_solve(self, small_system,
                                             odd_system, monkeypatch):
        # every spatial system is M + lambda A, so one analysis serves
        # every variant, with mixed 1x1 and 2x2 blocks of R (odd_system)
        # as with pairs alone (small_system)
        calls = counting(monkeypatch, sparse_direct, "analyze")
        for system in (small_system, odd_system):
            for variant in ("bs-real", "bs-complex", "fd"):
                calls.clear()
                solve_as(system, variant)
                assert len(calls) == 1

    def test_fd_reports_spectral_stats(self, small_system):
        _, report = solve_as(small_system, "fd")
        assert report.kappa2 == pytest.approx(9.576, rel=1e-3)
        assert report.min_re_lambda > 0.0
        _, report = solve_as(small_system, "bs-complex")
        assert report.kappa2 is None
        assert report.min_re_lambda > 0.0


@pytest.fixture(scope="module")
def odd_system():
    # three uniform cells: the pencil keeps one real eigenvalue, so the
    # real Schur sweep exercises both the scalar and the paired path
    mesh_x = build_lshape_mesh(0)
    mesh_t = TemporalMesh(np.linspace(0.0, 0.5, 4))
    ops = assemble_p1(mesh_x)
    temp = assemble_temporal_operators(mesh_t, j_max=100_000)
    fields = ExactFields()
    F = project_rhs(mesh_x, mesh_t, fields.source)
    lift = dirichlet_lift(mesh_x, mesh_t, fields.u)
    rhs = assemble_global_rhs(F, ops, temp, lift=lift)
    return SpaceTimeSystem(temporal=temp, spatial=ops, rhs=rhs)


class TestMixedBlocks:
    def test_block_structure_is_mixed(self, odd_system):
        pencil = build_pencil(odd_system.temporal, "bs-real")
        R = pencil.T
        sub = np.abs(np.diag(R, -1)) > 0.0
        assert sub.any(), "expected a conjugate pair"
        assert not sub.all(), "expected a real eigenvalue"

    def test_all_variants_match_oracle(self, odd_system):
        oracle = solve_dense_oracle(odd_system)
        for variant, tol in (("bs-real", 1e-10),
                             ("bs-complex", 1e-10),
                             ("fd", 1e-8)):
            sol, _ = solve_as(odd_system, variant)
            assert rel_diff(sol.coefficients, oracle.coefficients) < tol


class TestPairSystems:
    def test_bs_real_matches_oracle_with_mixed_blocks(self):
        # M_x = 33, N_t = 8: R has diagonal blocks 2, 1, 2, 2, 1
        system = make_problem(level=1, refinements=1)
        R = build_pencil(system.temporal, "bs-real").T
        sub = np.abs(np.diag(R, -1)) > 0.0
        assert sub.any() and not sub.all()
        oracle = solve_dense_oracle(system)
        sol, _ = solve_as(system, "bs-real")
        assert rel_diff(sol.coefficients, oracle.coefficients) < 1e-10

    def test_every_factor_is_spatial_with_predicted_fill(self,
                                                          monkeypatch):
        # a conjugate pair is one complex shift of M + A, so every
        # factorization of the sweep has dimension M_x and exactly the
        # fill of the one analysis (18,108 at level 3)
        system = assemble_problem(3).system
        M, A = system.spatial.M_II, system.spatial.A_II
        predicted = sparse_direct.analyze(M, A).factor_nnz
        sizes, fill = [], []
        factorize = sparse_direct.factorize

        def recording(symbolic, shift):
            numeric = factorize(symbolic, shift)
            sizes.append(symbolic.n)
            fill.append(numeric.factor_nnz)
            return numeric

        monkeypatch.setattr(sparse_direct, "factorize", recording)
        solve_as(system, "bs-real")
        assert predicted == 18_108
        assert len(fill) < system.n_t  # pairs were solved as pairs
        assert set(sizes) == {system.m_x}
        assert set(fill) == {predicted}

    @pytest.mark.parametrize("form, threads", [
        ("quasi-triangular", 1), ("diagonal", 1), ("diagonal", 2),
        ("quasi-triangular", 2),
    ], ids=["quasi-triangular", "diagonal-t1", "diagonal-t2",
            "quasi-triangular-t2"])
    def test_back_substitution_matches_dense_kronecker(self, form, threads):
        # quasi-triangular: a standardized T with 2x2 blocks
        # [[a, b1], [b2, a]], |b1/b2| of 69 and 1/69 and b2 of both signs,
        # 1x1 blocks between them, and nonzero couplings above the blocks,
        # which keep the walk serial whatever the thread count;
        # diagonal: fd's complex diag(D), whose blocks are uncoupled and
        # run on the pool when threads > 1
        m_x = 9
        M, A = fem_pair_1d(m_x, 21)
        rng = np.random.default_rng(22)
        if form == "diagonal":
            n_t = 6
            T = np.diag(rng.uniform(0.1, 2.0, n_t)
                        + 1j * rng.uniform(-1.0, 1.0, n_t))
        else:
            blocks = [np.array([[0.3, 6.9], [-0.1, 0.3]]),
                      np.array([[0.7]]),
                      np.array([[0.5, -0.05], [3.45, 0.5]]),
                      np.array([[1.2, -0.8], [0.6, 1.2]]),
                      np.array([[0.2]])]
            n_t = sum(len(b) for b in blocks)
            T = np.triu(rng.standard_normal((n_t, n_t)), 1)
            k = 0
            for b in blocks:
                T[k:k + len(b), k:k + len(b)] = b
                k += len(b)
        G = rng.standard_normal((m_x, n_t)).astype(T.dtype)
        symbolic = sparse_direct.analyze(M, A)
        Z = solvers._back_substitution(G, T, A, symbolic, threads)
        K = (np.kron(np.eye(n_t), M.toarray())
             + np.kron(T, A.toarray()))
        expect = np.linalg.solve(K, G.ravel(order="F"))
        assert rel_diff(Z.ravel(order="F"), expect) < 1e-12

    @pytest.mark.parametrize("variant, threads", [
        ("bs-real", 1), ("bs-complex", 1), ("fd", 1), ("fd", 2),
    ], ids=["bs-real", "bs-complex", "fd", "fd-t2"])
    def test_one_factorization_per_diagonal_block(self, small_system,
                                                  odd_system, monkeypatch,
                                                  variant, threads):
        # one shift per diagonal block of the variant's T: pairs of R are
        # one factorization each, and no block is skipped or solved twice
        factorize = sparse_direct.factorize
        shifts = []

        def recording(symbolic, shift):
            shifts.append(shift)
            return factorize(symbolic, shift)

        monkeypatch.setattr(sparse_direct, "factorize", recording)
        for system in (small_system, odd_system):
            shifts.clear()
            solve_as(system, variant, threads)
            T = build_pencil(system.temporal, variant).T
            assert len(shifts) == len(block_starts(T))


class TestScalarReductions:
    def test_single_spatial_dof(self, base_ops):
        # with one spatial unknown the system collapses to
        # (m A_t + a M_t) u = rhs
        m, a = 0.7, 2.3
        rng = np.random.default_rng(8)
        rhs = rng.standard_normal(base_ops.n)
        system = SpaceTimeSystem(
            temporal=base_ops,
            spatial=wrap_spatial([[m]], [[a]]),
            rhs=rhs,
        )
        expect = np.linalg.solve(m * base_ops.A + a * base_ops.M, rhs)
        for variant, tol in (("bs-real", 1e-12),
                             ("bs-complex", 1e-12),
                             ("fd", 1e-10)):
            sol, _ = solve_as(system, variant)
            assert rel_diff(sol.coefficients, expect) < tol

    def test_single_time_cell(self):
        mesh_x = build_lshape_mesh(0)
        mesh_t = TemporalMesh(np.array([0.0, 0.5]))
        ops = assemble_p1(mesh_x)
        temp = assemble_temporal_operators(mesh_t, j_max=100_000)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal(ops.n_interior)
        system = SpaceTimeSystem(temporal=temp, spatial=ops, rhs=rhs)
        K = temp.A[0, 0] * ops.M_II.toarray() + temp.M[0, 0] * ops.A_II.toarray()
        expect = np.linalg.solve(K, rhs)
        for variant in ("bs-real", "bs-complex", "fd"):
            sol, _ = solve_as(system, variant)
            assert rel_diff(sol.coefficients, expect) < 1e-12


class TestRandomSystems:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_variants_match_oracle(self, seed):
        system = random_system(n_t=6, m_x=7, seed=seed)
        oracle = solve_dense_oracle(system)
        for variant, tol in (("bs-real", 1e-10),
                             ("bs-complex", 1e-10),
                             ("fd", 1e-8)):
            sol, report = solve_as(system, variant)
            assert rel_diff(sol.coefficients, oracle.coefficients) < tol
            assert report.residual < 1e-8


class TestDispatch:
    def test_named_variants(self, small_system):
        for name in ("bs-real", "bs-complex", "fd"):
            sol, report = solve(small_system, name)
            assert report.variant == name
            assert report.fallback is None

    def test_unknown_variant(self, small_system):
        with pytest.raises(ValueError):
            solve(small_system, "multigrid")

    @pytest.mark.parametrize("threads", [0, -3])
    def test_rejects_thread_count_below_one(self, small_system, threads):
        for name in ("bs-real", "bs-complex", "fd"):
            with pytest.raises(UsageError, match="threads"):
                solve(small_system, name, threads=threads)

    def test_fd_falls_back_to_complex_schur(self, small_system,
                                            forced_fd_fallback):
        sol, report = solve(small_system, "fd")
        assert report.variant == "bs-complex"
        assert "DefectivePencil" in report.fallback
        oracle = solve_dense_oracle(small_system)
        assert rel_diff(sol.coefficients, oracle.coefficients) < 1e-10


class TestResidualGuard:
    @pytest.fixture
    def near_defective_system(self):
        # kappa_2(M_t) = 2.2e12: fd's eigenvector basis is nearly singular
        temp = dataclasses.replace(
            assemble_temporal_operators(
                TemporalMesh(np.linspace(0.0, 0.5, 4)), j_max=50),
            A=np.eye(3),
            M=np.array([[1.0, 1.0, 0.0],
                        [0.0, 1.0 + 1e-12, 0.3],
                        [0.0, 0.0, 2.0]]))
        M, A = fem_pair_1d(6, 3)
        rhs = np.random.default_rng(1).standard_normal(18)
        return SpaceTimeSystem(temporal=temp, spatial=wrap_spatial(M, A),
                               rhs=rhs)

    def test_fd_falls_back_on_bad_residual(self, near_defective_system):
        # unguarded, fd returns this solution with relative residual 4.2e-4
        sol, report = solve(near_defective_system, "fd")
        assert report.variant == "bs-complex"
        assert report.fallback == "fd failed: ResidualTooLarge"
        assert report.residual < 1e-9
        oracle = solve_dense_oracle(near_defective_system)
        assert rel_diff(sol.coefficients, oracle.coefficients) < 1e-9

    def test_imaginary_residue_above_tolerance_raises(self):
        U = np.array([[1.0 + 2e-6j, 3.0], [0.5, -2.0 - 1e-6j]])
        assert np.array_equal(solvers._discard_imaginary(U, 1e-6), U.real)
        with pytest.raises(ImaginaryResidueTooLarge, match="above 1.0e-07"):
            solvers._discard_imaginary(U, 1e-7)

    def test_fd_falls_back_on_imaginary_residue(self, small_system,
                                                monkeypatch):
        # right scaled by 1 + 1e-3 i leaves U = Z right with an imaginary
        # part 1e-3 of its real one, far above fd's 1e-6
        build = solvers.build_pencil

        def tilted(temporal, variant):
            pencil = build(temporal, variant)
            if variant != "fd":
                return pencil
            return dataclasses.replace(pencil,
                                       right=pencil.right * (1 + 1e-3j))

        monkeypatch.setattr(solvers, "build_pencil", tilted)
        sol, report = solve(small_system, "fd")
        assert report.variant == "bs-complex"
        assert report.fallback == "fd failed: ImaginaryResidueTooLarge"
        oracle = solve_dense_oracle(small_system)
        assert rel_diff(sol.coefficients, oracle.coefficients) < 1e-10

    @pytest.mark.parametrize("bad", [1e-3, np.nan])
    def test_schur_variant_raises(self, small_system, monkeypatch, bad):
        monkeypatch.setattr(solvers, "residual", lambda system, coeffs: bad)
        with pytest.raises(ResidualTooLarge):
            solve(small_system, "bs-real")

    @pytest.mark.parametrize("refinements", [5, 6])
    def test_fd_stays_under_bound_at_large_n_t(self, refinements):
        # level-0 space, N_t = 128 and 256: kappa_2 = 9.3e6 and 1.1e8,
        # residual 3.3e-10 and 7.6e-9, growing ~20x per bisection, so fd
        # meets its 1e-6 bound here without falling back
        system = make_problem(level=0, refinements=refinements)
        assert system.n_t == 4 * 2**refinements
        _, report = solve_as(system, "fd")
        assert report.residual < solvers.TOLERANCES["fd"][1]


class TestSystemValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rhs_rejected(self, small_system, bad):
        rhs = small_system.rhs.copy()
        rhs[3] = bad
        with pytest.raises(UsageError):
            SpaceTimeSystem(temporal=small_system.temporal,
                            spatial=small_system.spatial, rhs=rhs)


class TestOracleGuard:
    def test_size_guard(self, small_system, monkeypatch):
        monkeypatch.setattr(conftest, "DENSE_ORACLE_GUARD", 10)
        with pytest.raises(SizeGuardExceeded):
            solve_dense_oracle(small_system)
