"""Tests for the three direct space-time solvers."""

import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from kronheat import solvers, sparse_direct
from kronheat.errors import (
    DefectivePencil,
    DimensionMismatch,
    ImaginaryResidueTooLarge,
    NotPositiveDefinite,
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
    block_starts,
    build_pencil,
    eig_pencil,
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
    pencil_ops,
    random_matrix,
    random_positive,
    solve_dense_oracle,
    sort_spectrum,
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
    empty_col = sp.csr_matrix((M.shape[0], 0))
    return SpatialOperators(M_II=M, A_II=sp.csr_matrix(A), M_IB=empty_col,
                            A_IB=empty_col, M10=empty_col)


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


@pytest.fixture(scope="module")
def level3_system():
    return assemble_problem(3).system


class TestBuildPencil:
    @pytest.mark.parametrize("variant", ["bs-real", "bs-complex", "fd"])
    def test_transforms_reproduce_pencil(self, base_ops, variant):
        # P^T = A_t left T^T right, the identity the sweep relies on
        pencil = build_pencil(base_ops, variant)
        P = np.linalg.solve(base_ops.A, base_ops.M)
        assert pencil.T.shape == P.shape
        PT = base_ops.A @ pencil.left @ pencil.T.T @ pencil.right
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
        P = np.linalg.solve(base_ops.A, base_ops.M)
        Q, R = pencil.right.T, pencil.T
        assert np.linalg.norm(Q @ R @ Q.T - P) < 1e-12 * np.linalg.norm(P)

    def test_unknown_variant(self, base_ops):
        with pytest.raises(ValueError):
            build_pencil(base_ops, "qr")


class TestSvdOfEigenvectors:
    def test_wraps_pencil_output(self):
        # fd's kappa2 is the 2-norm condition number of eig_pencil's X
        rng = np.random.default_rng(40)
        B = rng.standard_normal((5, 5))
        A = B @ B.T + 5 * np.eye(5)
        M = random_positive(5, 41)
        _, vecs = eig_pencil(M, A)
        pencil = build_pencil(pencil_ops(M, A), "fd")
        assert pencil.kappa2 == pytest.approx(np.linalg.cond(vecs, 2),
                                              rel=1e-10)

    def test_singular_matrix_raises(self, base_ops, monkeypatch):
        vals, vecs = eig_pencil(base_ops.M, base_ops.A)
        monkeypatch.setattr(solvers, "eig_pencil",
                            lambda M, A: (vals, np.zeros_like(vecs)))
        with pytest.raises(DefectivePencil, match="singular"):
            build_pencil(base_ops, "fd")


class TestEigSvd:
    def test_symmetric_has_unit_condition(self):
        # eig_pencil keeps LAPACK's column scaling; with unit columns the
        # eigenvectors of a symmetric matrix are orthonormal
        rng = np.random.default_rng(2)
        A = rng.standard_normal((6, 6))
        _, vecs = eig_pencil(A + A.T, np.eye(6))
        unit = vecs / np.linalg.norm(vecs, axis=0)
        assert np.linalg.cond(unit) == pytest.approx(1.0, abs=1e-8)

    def test_near_defective_condition_blows_up(self):
        pencil = build_pencil(
            pencil_ops([[1.0, 1.0], [0.0, 1.0 + 1e-8]]), "fd")
        assert pencil.kappa2 > 1e6

    def test_defective_raises(self, base_ops, monkeypatch):
        # build_pencil rejects eigenpairs whose residual exceeds 1e-8
        vals, vecs = eig_pencil(base_ops.M, base_ops.A)
        monkeypatch.setattr(solvers, "eig_pencil",
                            lambda M, A: (vals * 1.001, vecs))
        with pytest.raises(DefectivePencil):
            build_pencil(base_ops, "fd")

    def test_svd_reconstructs_eigenvectors(self, base_ops):
        # fd's right is X^T itself, and A_t left = X^{-T} inverts it
        _, X = eig_pencil(base_ops.M, base_ops.A)
        pencil = build_pencil(base_ops, "fd")
        assert np.array_equal(pencil.right, X.T)
        assert np.allclose(pencil.right @ (base_ops.A @ pencil.left),
                           np.eye(len(X)), atol=1e-12)

    def test_spectrum_agrees_with_schur(self):
        ops = pencil_ops(random_positive(6, 17))
        evals = sort_spectrum(np.diag(build_pencil(ops, "fd").T))
        svals = sort_spectrum(np.diag(build_pencil(ops, "bs-complex").T))
        assert np.allclose(evals, svals, atol=1e-10)


class TestCholesky:
    def test_identity(self):
        L, _ = solvers._factor(pencil_ops(np.eye(4)))
        assert np.allclose(L, np.eye(4))

    def test_hand_factorization(self):
        A = np.array([[4.0, 2.0], [2.0, 5.0]])
        L, _ = solvers._factor(pencil_ops(A, A))
        assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])

    def test_indefinite_rejected(self):
        ops = pencil_ops(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
        for variant in ("bs-real", "bs-complex", "fd"):
            with pytest.raises(NotPositiveDefinite):
                build_pencil(ops, variant)

    def test_nonsymmetric_rejected(self):
        # refused when the record is built, before any factorization
        with pytest.raises(NotPositiveDefinite, match="symmetric"):
            pencil_ops(np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]]))


def scan_block_starts(T):
    """The former scan of T's subdiagonal, the oracle of block_starts."""
    n = T.shape[0]
    starts, k = [], 0
    while k < n:
        starts.append(k)
        k += 2 if k + 1 < n and T[k + 1, k] != 0.0 else 1
    return starts


def quasi_triangular(n, pairs, dtype=float):
    """Upper triangular n x n T with a 2x2 block opened at each k in pairs."""
    rng = np.random.default_rng(n)
    T = np.triu(rng.standard_normal((n, n)) + 2.0).astype(dtype)
    T[[k + 1 for k in pairs], pairs] = -0.5
    return T


class TestBlockStarts:
    @pytest.mark.parametrize("T, want", [
        pytest.param(quasi_triangular(5, [0]), [0, 2, 3, 4], id="pair-first"),
        pytest.param(quasi_triangular(6, [2]), [0, 1, 2, 4, 5],
                     id="pair-middle"),
        pytest.param(quasi_triangular(5, [3]), [0, 1, 2, 3], id="pair-last"),
        pytest.param(quasi_triangular(7, [0, 3, 5]), [0, 2, 3, 5],
                     id="pairs-first-middle-last"),
        pytest.param(quasi_triangular(4, [], complex), [0, 1, 2, 3],
                     id="triangular"),
        pytest.param(np.diag([1 + 1j, 1 - 1j, 2.0]), [0, 1, 2],
                     id="diagonal"),
        pytest.param(np.zeros((0, 0)), [], id="n_t-0"),
        pytest.param(np.ones((1, 1)), [0], id="n_t-1"),
    ])
    def test_matches_scan(self, T, want):
        starts = block_starts(T)
        assert starts == want == scan_block_starts(T)
        assert all(type(k) is int for k in starts)


class TestEigPencil:
    def test_identity_pencil_reduces_to_standard(self):
        M = random_matrix(6, 21)
        vals, _ = eig_pencil(M, np.eye(6))
        assert np.allclose(sort_spectrum(vals),
                           sort_spectrum(np.linalg.eigvals(M)), atol=1e-10)

    @pytest.mark.parametrize("seed", [4, 9])
    def test_eigenpairs_satisfy_pencil(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((7, 7))
        A = B @ B.T + 7 * np.eye(7)
        M = rng.standard_normal((7, 7))
        vals, vecs = eig_pencil(M, A)
        resid = M @ vecs - A @ vecs * vals[None, :]
        assert np.linalg.norm(resid) < 1e-10 * np.linalg.norm(M)

    def test_conjugate_pairs_share_columns(self):
        vals, vecs = eig_pencil(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                np.eye(2))
        assert sorted(np.round(vals.imag, 12)) == [-1.0, 1.0]
        assert np.allclose(vecs[:, 0], np.conj(vecs[:, 1]))

    def test_raw_scaling_is_kept(self):
        # LAPACK scales so the largest |Re| + |Im| over each column is 1;
        # overall condition numbers depend on exactly this convention
        rng = np.random.default_rng(31)
        B = rng.standard_normal((6, 6))
        A = B @ B.T + 6 * np.eye(6)
        M = rng.standard_normal((6, 6))
        _, vecs = eig_pencil(M, A)
        peaks = np.max(np.abs(vecs.real) + np.abs(vecs.imag), axis=0)
        assert np.allclose(peaks, 1.0, atol=1e-12)

    def test_infinite_eigenvalue_raises(self):
        with pytest.raises(DefectivePencil):
            eig_pencil(np.eye(2), np.zeros((2, 2)))


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
                                                          level3_system,
                                                          monkeypatch):
        # a conjugate pair is one complex shift of M + A, so every
        # factorization of the sweep has dimension M_x and exactly the
        # fill of the one analysis (18,108 at level 3)
        system = level3_system
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
        # the sweep overwrites its right-hand side with Z and returns it
        work = G.copy()
        Z = solvers._back_substitution(work, T, A, symbolic, threads)
        assert Z is work
        K = (np.kron(np.eye(n_t), M.toarray())
             + np.kron(T, A.toarray()))
        expect = np.linalg.solve(K, G.ravel(order="F"))
        assert rel_diff(Z.ravel(order="F"), expect) < 1e-12

    def test_pool_starts_at_most_one_thread_fewer_than_blocks(
            self, small_system, monkeypatch):
        # N_t = 4 uncoupled blocks and threads=8: the calling thread runs
        # one share, so the pool needs at most 3 threads; the result is
        # the serial one bit for bit
        assert small_system.n_t == 4
        serial, _ = solve_as(small_system, "fd", threads=1)
        pools, runners = [], set()

        class RecordingPool(solvers.ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        factorize = sparse_direct.factorize

        def recording(symbolic, shift):
            runners.add(threading.get_ident())
            return factorize(symbolic, shift)

        monkeypatch.setattr(solvers, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(sparse_direct, "factorize", recording)
        # frequent switches interleave the shares' writes into one array
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled, _ = solve_as(small_system, "fd", threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert pools == [small_system.n_t - 1]
        assert threading.get_ident() in runners
        assert len(runners) <= small_system.n_t
        assert np.array_equal(pooled.coefficients, serial.coefficients)

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


class TestMemory:
    @pytest.mark.parametrize("variant, threads, bound", [
        ("bs-real", 1, 4.2), ("bs-complex", 1, 4.2), ("fd", 1, 4.2),
        ("fd", 2, 4.8),
    ], ids=["bs-real", "bs-complex", "fd", "fd-t2"])
    def test_solve_holds_one_work_array(self, level3_system, variant,
                                        threads, bound):
        # in arrays of M_x N_t complex entries, a level-3 solve peaks at
        # about 3.3 (bs-real) and 3.9 (bs-complex, fd) while the analysis
        # runs beside G, and at 4.4 with two factorizations alive at once
        # (fd on two threads); a separate Z and two copies of the
        # coefficients put it at 4.9 and 5.6.  The bound is a tracemalloc
        # proxy, not the process's RSS, and the two can rank allocation
        # orders oppositely: analysing M + A ahead of the transform in
        # lowered this traced peak, yet raised the benchmark's sweep-l4
        # peak_rss_mb by 2-5 MB.  A memory change that only this test
        # gates is no evidence of an RSS saving
        system = level3_system
        solve_as(system, variant, threads)  # imports and caches first
        work = 16 * system.m_x * system.n_t
        tracemalloc.start()
        try:
            solve_as(system, variant, threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * work


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

    @pytest.mark.parametrize("threads", [1.5, "2"])
    def test_rejects_thread_count_not_an_integer(self, small_system,
                                                 threads):
        for name in ("bs-real", "bs-complex", "fd"):
            with pytest.raises(UsageError, match="integer"):
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

    def test_fd_falls_back_on_nan_eigenvectors(self, small_system,
                                               monkeypatch):
        # a NaN eigenvector residual fails the check rather than passing it
        vals, vecs = eig_pencil(small_system.temporal.M,
                                small_system.temporal.A)
        vecs[0, 0] = np.nan
        monkeypatch.setattr(solvers, "eig_pencil", lambda M, A: (vals, vecs))
        sol, report = solve(small_system, "fd")
        assert report.variant == "bs-complex"
        assert report.fallback == "fd failed: DefectivePencil"
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
