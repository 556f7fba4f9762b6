import dataclasses

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from kronheat import (
    DEFAULT_J_MAX,
    TemporalMesh,
    TemporalOperators,
    assemble_temporal_operators,
    refine_bisect,
    tail_bounds,
)
from kronheat import temporal
from kronheat.errors import DimensionMismatch, NotPositiveDefinite, UsageError
from kronheat.temporal import _dyadic_period, _residue_weights

mp.mp.dps = 30


def theta(j):
    return np.pi * (j + 0.5)


def sine_table(mesh, j):
    """a[l][j] = (2/T) int phi_l sin(theta_j t/T) dt, rows l = 1..N_t.

    Closed form: integrated by parts twice, the hat's two slopes leave
    (2T/theta_j^2) [(s_l - s_{l-1})/h_l - (s_{l+1} - s_l)/h_{l+1}] with
    s_i = sin(theta_j t_i/T); the hat at t = N_t keeps only its rising
    slope, as its boundary term at T carries cos(theta_j) = 0.
    """
    j = np.asarray(j)
    w = theta(j) / mesh.T
    sin = np.sin(np.outer(mesh.nodes, w))
    slope = np.diff(sin, axis=0) / mesh.h[:, None]
    a = slope.copy()
    a[:-1] -= slope[1:]
    return a * (2.0 / (mesh.T * w**2))


class TestTemporalMesh:
    def test_properties(self):
        mesh = TemporalMesh([0.0, 0.1, 0.3, 0.5])
        assert mesh.T == 0.5
        assert mesh.n_cells == 3
        np.testing.assert_allclose(mesh.h, [0.1, 0.2, 0.2])
        assert mesh.h_max == pytest.approx(0.2)
        assert mesh.h_min == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TemporalMesh([0.0])
        with pytest.raises(ValueError):
            TemporalMesh([0.1, 0.5])
        with pytest.raises(ValueError):
            TemporalMesh([0.0, 0.3, 0.2])

    @pytest.mark.parametrize("nodes", [[0.0, np.inf], [0.0, 0.25, np.inf],
                                       [0.0, np.nan]])
    def test_non_finite_node_rejected(self, nodes):
        # an infinite end node is strictly increasing, but its operators
        # would be NaN
        with pytest.raises(ValueError, match="finite"):
            TemporalMesh(nodes)

    def test_refine_bisect_keeps_ratio(self, base_mesh):
        fine = refine_bisect(base_mesh)
        assert fine.n_cells == 2 * base_mesh.n_cells
        assert fine.T == base_mesh.T
        ratio = base_mesh.h_max / base_mesh.h_min
        assert fine.h_max / fine.h_min == pytest.approx(ratio)
        assert fine.h_max == pytest.approx(base_mesh.h_max / 2)


def three_cell_ops():
    return assemble_temporal_operators(TemporalMesh(np.linspace(0, 0.5, 4)),
                                       j_max=50)


class TestOperatorsRecord:
    # the record checks its matrices once, when it is built
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["A", "M", "C"])
    def test_non_finite_entry_rejected(self, name, bad):
        ops = three_cell_ops()
        matrices = {"A": ops.A, "M": ops.M, "C": ops.C}
        matrices[name] = matrices[name].copy()
        matrices[name][1, 2] = bad
        with pytest.raises(UsageError, match="non-finite"):
            TemporalOperators(**matrices, j_max=ops.j_max)

    @pytest.mark.parametrize("shapes", [
        ((3, 2), (3, 2), (3, 2)),  # not square
        ((3,), (3,), (3,)),        # not a matrix
        ((3, 3), (2, 2), (3, 3)),  # M another size
        ((3, 3), (3, 3), (3, 4)),  # C not square
    ], ids=["rectangular", "vector", "M-size", "C-shape"])
    def test_shape_mismatch_rejected(self, shapes):
        A, M, C = (np.ones(shape) for shape in shapes)
        with pytest.raises(DimensionMismatch):
            TemporalOperators(A=A, M=M, C=C, j_max=0)

    def test_arrays_are_read_only_copies(self):
        ops = three_cell_ops()
        M = ops.M.copy()
        record = TemporalOperators(A=ops.A, M=M, C=ops.C, j_max=ops.j_max)
        M[0, 0] = -1.0  # the caller's array stays writable
        assert record.M[0, 0] == ops.M[0, 0]
        assert record.M is not M
        for x in (record.A, record.M, record.C):
            assert x.dtype == float
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 0.0

    def test_integer_matrices_become_float(self):
        record = TemporalOperators(A=[[2, 1], [1, 2]], M=[[1, 0], [0, 1]],
                                   C=[[0, 0], [0, 0]], j_max=0)
        assert record.A.dtype == record.M.dtype == record.C.dtype == float
        assert record.n == 2

    def test_replace_checks_again(self):
        ops = three_cell_ops()
        with pytest.raises(UsageError):
            dataclasses.replace(ops, M=np.full((3, 3), np.nan))
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(ops, A=np.eye(2))
        with pytest.raises(NotPositiveDefinite, match="symmetric"):
            dataclasses.replace(ops, A=np.triu(np.ones((3, 3))))
        replaced = dataclasses.replace(ops, A=2.0 * np.eye(3))
        assert not replaced.A.flags.writeable


class TestSineCoefficients:
    """The closed form of a[l][j] that ``series_oracle`` is built on."""

    def test_single_element_j0(self):
        # phi_1(t) = t on [0,1]: a[1][0] = 2 int t sin(pi t/2) dt = 8/pi^2
        a = sine_table(TemporalMesh([0.0, 1.0]), [0])
        assert a[0, 0] == pytest.approx(8.0 / np.pi**2, rel=1e-14)

    def test_single_element_general_j(self):
        j = np.arange(51)
        a = sine_table(TemporalMesh([0.0, 1.0]), j)
        expect = 2.0 * (-1.0) ** j / theta(j) ** 2
        np.testing.assert_allclose(a[0], expect, rtol=1e-13)

    def test_adaptive_quadrature_oracle(self):
        # independent route for a handful of entries on a nonuniform mesh
        nodes = np.array([0.0, 0.2, 0.5, 1.3])
        a = sine_table(TemporalMesh(nodes), np.arange(8))
        T = nodes[-1]

        for ell in (1, 2, 3):
            lo, mid = nodes[ell - 1], nodes[ell]
            for j in (0, 3, 7):
                w = theta(j) / T
                val, _ = quad(lambda t: (t - lo) / (mid - lo) * np.sin(w * t),
                              lo, mid, limit=200)
                if ell + 1 < len(nodes):
                    hi = nodes[ell + 1]
                    down, _ = quad(lambda t: (hi - t) / (hi - mid) * np.sin(w * t),
                                   mid, hi, limit=200)
                    val += down
                assert a[ell - 1, j] == pytest.approx(2.0 / T * val, abs=1e-12)

    def test_rescaling_invariance(self):
        nodes = np.array([0.0, 0.125, 0.25, 0.5])
        j = np.arange(201)
        a1 = sine_table(TemporalMesh(nodes), j)
        a2 = sine_table(TemporalMesh(3.7 * nodes), j)
        np.testing.assert_allclose(a1, a2, rtol=1e-12, atol=1e-15)

    def test_envelope_decay(self, base_mesh):
        j = np.arange(5001)
        a = np.abs(sine_table(base_mesh, j))
        # constant calibrated on the head must dominate the whole tail
        c = (a[:, :50] * (j[:50] + 1) ** 2).max()
        assert np.all(a <= 1.0000001 * c / (j + 1) ** 2)

    def test_negative_j_max(self, base_mesh):
        with pytest.raises(UsageError, match="j_max"):
            assemble_temporal_operators(base_mesh, -1)

    @pytest.mark.parametrize("j_max", [
        pytest.param(7.5, id="fraction"),
        pytest.param(2.5, id="fraction-below-period"),
        pytest.param("5", id="string"),
        pytest.param(None, id="none"),
        pytest.param(np.float64(8.0), id="float64-integral"),
        pytest.param(True, id="bool"),
    ])
    def test_non_integer_j_max(self, j_max):
        # a float budget, even an integral one, is refused before it can
        # be recorded or reach range()
        with pytest.raises(UsageError, match="j_max"):
            assemble_temporal_operators(TemporalMesh([0.0, 0.25, 0.5]), j_max)

    @pytest.mark.parametrize("j_max", [True, -1, 7.5],
                             ids=["bool", "negative", "fraction"])
    def test_tail_bounds_refuse_unusable_j_max(self, j_max):
        # the bounds of a budget the assembly would refuse mean nothing;
        # at -1 they would divide by zero
        with pytest.raises(UsageError, match="j_max"):
            tail_bounds(TemporalMesh([0.0, 0.25, 0.5]), j_max)

    def test_integer_j_max_recorded_as_int(self):
        mesh = TemporalMesh([0.0, 0.25, 0.5])
        ops = assemble_temporal_operators(mesh, np.int64(40))
        assert type(ops.j_max) is int and ops.j_max == 40
        want = assemble_temporal_operators(mesh, 40)
        for got, ref in zip((ops.A, ops.M, ops.C), (want.A, want.M, want.C)):
            assert np.array_equal(got, ref)


class TestAnalyticValues:
    """Frozen unit values, each recomputed from its defining series by mpmath."""

    A11 = float(14 * mp.zeta(3) / mp.pi**3)
    BETA4 = float(mp.nsum(lambda j: (-1) ** j / (2 * j + 1) ** 4, [0, mp.inf]))
    M11_PER_T = float(2 * (7 * mp.zeta(3) / mp.pi**3 - 16 * mp.mpf(repr(BETA4)) / mp.pi**4))

    def test_A_single_element(self):
        A = assemble_temporal_operators(TemporalMesh([0.0, 1.0]), j_max=1_000_000).A
        assert A[0, 0] == pytest.approx(self.A11, abs=1e-12)

    def test_A_independent_of_T(self):
        for T in (0.5, 2.0):
            A = assemble_temporal_operators(TemporalMesh([0.0, T]), j_max=200_000).A
            assert A[0, 0] == pytest.approx(self.A11, rel=1e-9)

    def test_M_single_element(self):
        for T in (0.5, 0.7):
            M = assemble_temporal_operators(TemporalMesh([0.0, T]), j_max=1_000_000).M
            assert M[0, 0] == pytest.approx(self.M11_PER_T * T, rel=1e-10)

    def test_C_single_element(self):
        C = assemble_temporal_operators(TemporalMesh([0.0, 0.5]), j_max=1_000_000).C
        assert C[0, 0] == pytest.approx(self.A11 * 0.5, rel=1e-10)


class TestAssemblyProperties:
    def test_A_exactly_symmetric(self, base_ops):
        assert np.array_equal(base_ops.A, base_ops.A.T)

    def test_A_positive_definite(self, base_ops):
        np.linalg.cholesky(base_ops.A)
        assert np.linalg.eigvalsh(base_ops.A).min() > 0

    def test_M_symmetric_part_positive_definite(self, base_ops):
        sym = 0.5 * (base_ops.M + base_ops.M.T)
        assert np.linalg.eigvalsh(sym).min() > 0

    def test_quadratic_forms_positive(self, base_ops):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.standard_normal(base_ops.n)
            assert x @ base_ops.A @ x > 0
            assert x @ base_ops.M @ x > 0

    def test_M_C_scale_linearly_with_T(self):
        nodes = np.array([0.0, 0.125, 0.25, 0.5])
        o1 = assemble_temporal_operators(TemporalMesh(nodes), j_max=50_000)
        o2 = assemble_temporal_operators(TemporalMesh(3.0 * nodes), j_max=50_000)
        np.testing.assert_allclose(o2.A, o1.A, rtol=1e-12)
        np.testing.assert_allclose(o2.M, 3.0 * o1.M, rtol=1e-12)
        np.testing.assert_allclose(o2.C, 3.0 * o1.C, rtol=1e-12)


def cosine_tables(mesh, j):
    """b[k][j] = int phi_k cos(theta_j t/T) dt and d[l][j] = int_cell_l cos(theta_j t/T) dt.

    Closed forms: the hat slopes integrated by parts, plus the boundary term
    (-1)^j T/theta_j of the hat truncated at T.
    """
    w = theta(j) / mesh.T
    cos, sin = np.cos(np.outer(mesh.nodes, w)), np.sin(np.outer(mesh.nodes, w))
    slope = np.diff(cos, axis=0) / mesh.h[:, None]
    b = slope.copy()
    b[:-1] -= slope[1:]
    b /= w**2
    b[-1] += (-1.0) ** j / w
    return b, np.diff(sin, axis=0) / w


def series_oracle(mesh, j_max):
    """A, M, C summed term by term from ``sine_table`` and ``cosine_tables``."""
    n = mesh.n_cells
    A, M, C = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n))
    for j0 in range(0, j_max + 1, 20_000):  # bounded workspace at level 4
        j1 = min(j0 + 20_000, j_max + 1)
        j = np.arange(j0, j1)
        a = sine_table(mesh, j)
        b, d = cosine_tables(mesh, j)
        A += 0.5 * (a * theta(j)) @ a.T
        M += a @ b.T
        C += a @ d.T
    return A, M, C


def one_ulp_off(mesh):
    nodes = mesh.nodes.copy()
    nodes[2] = np.nextafter(nodes[2], 1.0)
    return TemporalMesh(nodes)


ORACLE_MESHES = {
    "base": lambda base: base,
    "level2": lambda base: refine_bisect(refine_bisect(base)),
    "single-cell": lambda base: TemporalMesh([0.0, 0.7]),
    "scaled": lambda base: TemporalMesh(3.7 * base.nodes),
    "non-dyadic": lambda base: TemporalMesh([0.0, 0.2, 0.5, 1.3]),
    "one-ulp": one_ulp_off,
}


def assert_matches_oracle(mesh, j_max):
    ops = assemble_temporal_operators(mesh, j_max)
    for got, want in zip((ops.A, ops.M, ops.C), series_oracle(mesh, j_max)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.array_equal(ops.A, ops.A.T)


class TestResidueSummation:
    """The per-residue kernel against the term-by-term series."""

    def test_cosine_tables_match_quadrature(self):
        mesh = TemporalMesh([0.0, 0.2, 0.5, 1.3])
        nodes, T = mesh.nodes, mesh.T
        j = np.array([0, 5, 12])
        b, d = cosine_tables(mesh, j)
        for col, jj in enumerate(j):
            w = theta(jj) / T
            for k in range(3):
                hat = np.eye(4)[k + 1]
                val, _ = quad(lambda t: np.interp(t, nodes, hat) * np.cos(w * t),
                              0.0, T, points=nodes[1:-1], limit=200)
                assert b[k, col] == pytest.approx(val, abs=1e-12)
                val, _ = quad(lambda t: np.cos(w * t), nodes[k], nodes[k + 1])
                assert d[k, col] == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("name", ORACLE_MESHES)
    def test_matches_series_oracle(self, base_mesh, name):
        # 20_001 terms: not a multiple of any dyadic period, so the last
        # residue classes hold one term fewer than the others
        assert_matches_oracle(ORACLE_MESHES[name](base_mesh), 20_000)

    def test_periods(self, base_mesh):
        assert _dyadic_period(base_mesh, 20_000) == 32
        assert _dyadic_period(refine_bisect(refine_bisect(base_mesh)), 20_000) == 128
        assert _dyadic_period(TemporalMesh([0.0, 0.7]), 20_000) == 2
        # the period never exceeds the number of terms
        assert _dyadic_period(base_mesh, 20) is None
        # non-dyadic meshes, even one node a single ulp off the grid, sum
        # term by term
        assert _dyadic_period(TemporalMesh([0.0, 0.2, 0.5, 1.3]), 20_000) is None
        assert _dyadic_period(one_ulp_off(base_mesh), 20_000) is None

    def test_level4(self, base_mesh):
        mesh = base_mesh
        for _ in range(4):
            mesh = refine_bisect(mesh)
        assert _dyadic_period(mesh, DEFAULT_J_MAX) == 512
        assert_matches_oracle(mesh, 100_000)


def summed_weights(r, P, j_max):
    """W_3, W_4 of residues r summed term by term, small terms first, in
    blocks of at most 2^15 terms: the oracle of the zeta closed form."""
    w3 = np.zeros(r.size)
    w4 = np.zeros(r.size)
    n_q = (j_max - int(r[0])) // P + 1
    size = max(1, (1 << 15) // r.size)
    for q0 in range(((n_q - 1) // size) * size, -1, -size):
        j = r + P * np.arange(min(q0 + size, n_q) - 1, q0 - 1, -1)[:, None]
        inv = np.where(j <= j_max, 1.0 / (np.pi * (j + 0.5)), 0.0)
        inv3 = inv**3
        w3 += inv3.sum(axis=0)
        w4 += (inv3 * inv).sum(axis=0)
    return w3, w4


def level_mesh(base_mesh, level):
    mesh = base_mesh
    for _ in range(level):
        mesh = refine_bisect(mesh)
    return mesh


class TestResidueWeights:
    """The Hurwitz zeta closed form against the summed series."""

    @pytest.mark.parametrize("P, j_max", [
        (2, 20_000),             # Q = 10_001 and 10_000
        (32, 40),                # Q = 2 for r <= 8, Q = 1 above
        (512, 100_000),          # j_max + 1 not a multiple of P
        (512, DEFAULT_J_MAX),    # the level-4 mesh at the default budget
    ], ids=["P2", "P32-mixed", "P512-uneven", "P512-default"])
    def test_matches_summed_series(self, P, j_max):
        r = np.arange(P)
        for got, want in zip(_residue_weights(r, P, j_max), summed_weights(r, P, j_max)):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("r0, r1", [(0, 20_001), (12_000, 20_001)])
    def test_single_terms_bit_identical(self, r0, r1):
        # P = j_max + 1, as on every non-dyadic mesh: each residue holds
        # one term, and the closed form is never used
        r = np.arange(r0, r1)
        for got, want in zip(_residue_weights(r, 20_001, 20_000),
                             summed_weights(r, 20_001, 20_000)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("level", range(5))
    def test_dyadic_assembly_matches_summed_weights(self, base_mesh, level, monkeypatch):
        mesh = level_mesh(base_mesh, level)
        ops = assemble_temporal_operators(mesh)
        monkeypatch.setattr(temporal, "_residue_weights", summed_weights)
        summed = assemble_temporal_operators(mesh)
        for got, want in zip((ops.A, ops.M, ops.C), (summed.A, summed.M, summed.C)):
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["non-dyadic", "one-ulp"])
    def test_non_dyadic_assembly_bit_identical(self, base_mesh, name, monkeypatch):
        mesh = ORACLE_MESHES[name](base_mesh)
        ops = assemble_temporal_operators(mesh, 100_000)
        monkeypatch.setattr(temporal, "_residue_weights", summed_weights)
        summed = assemble_temporal_operators(mesh, 100_000)
        for got, want in zip((ops.A, ops.M, ops.C), (summed.A, summed.M, summed.C)):
            assert np.array_equal(got, want)

    def test_fold_where_period_is_whole_budget(self, base_mesh):
        # P = j_max + 1 = 32 is the base mesh's dyadic period: one term per
        # residue, and each residue r < 16 folds in its mirror 31 - r
        assert _dyadic_period(base_mesh, 31) == 32
        assert_matches_oracle(base_mesh, 31)

    def test_even_fallback_period_never_folds(self, base_mesh, monkeypatch):
        # P = j_max + 1 = 100 is even but not a phase period of the mesh:
        # folding would pair residues whose sines are not mirrored
        mesh = ORACLE_MESHES["non-dyadic"](base_mesh)
        assert _dyadic_period(mesh, 99) is None
        assert_matches_oracle(mesh, 99)
        ops = assemble_temporal_operators(mesh, 99)
        monkeypatch.setattr(temporal, "_residue_weights", summed_weights)
        summed = assemble_temporal_operators(mesh, 99)
        for got, want in zip((ops.A, ops.M, ops.C), (summed.A, summed.M, summed.C)):
            assert np.array_equal(got, want)

    def test_huge_budget_within_tail_bounds(self, base_mesh):
        # 10^12 terms per entry: only a closed form can afford them, and
        # the distance to the default budget is that budget's tail
        mesh = level_mesh(base_mesh, 4)
        far = assemble_temporal_operators(mesh, 10**12)
        ops = assemble_temporal_operators(mesh)
        for got, want, bound in zip((ops.A, ops.M, ops.C), (far.A, far.M, far.C),
                                    tail_bounds(mesh, DEFAULT_J_MAX)):
            assert np.abs(got - want).max() < bound


class TestTruncation:
    @pytest.mark.parametrize("j_max", [4000, 16000])
    def test_series_convergence_within_advertised_bound(self, base_mesh, j_max):
        mesh = refine_bisect(base_mesh)
        o1 = assemble_temporal_operators(mesh, j_max=j_max)
        o2 = assemble_temporal_operators(mesh, j_max=2 * j_max)
        ta, tm, tc = tail_bounds(mesh, j_max)
        assert np.abs(o2.A - o1.A).max() < ta
        assert np.abs(o2.M - o1.M).max() < tm
        assert np.abs(o2.C - o1.C).max() < tc


class TestCouplingMatrix:
    def test_row_sum_is_integral_of_transformed_hat(self, base_mesh):
        # sum_l C[k,l] = int_0^T (H_T phi_k) dt; integrate the truncated
        # cosine series independently, per term in closed form and by
        # numerical quadrature for a low budget.
        j_max = 400
        C = assemble_temporal_operators(base_mesh, j_max).C
        j = np.arange(j_max + 1)
        a = sine_table(base_mesh, j)
        T = base_mesh.T
        per_term = a * ((-1.0) ** j * T / theta(j))
        np.testing.assert_allclose(C.sum(axis=1), per_term.sum(axis=1),
                                   rtol=0, atol=1e-13)
        # quadrature route at a budget quad can integrate accurately
        small = 60
        Cs = assemble_temporal_operators(base_mesh, small).C
        js = np.arange(small + 1)
        a_small = sine_table(base_mesh, js)
        k = 2
        val, _ = quad(lambda t: np.sum(a_small[k] * np.cos(theta(js) * t / T)),
                      0.0, T, limit=500)
        assert Cs[k].sum() == pytest.approx(val, abs=1e-11)

    def test_child_cells_sum_to_parent(self, base_mesh):
        # bisect the first cell only; hats at nodes >= t_2 are unchanged,
        # and for those rows the two child-cell entries add up to the parent.
        j_max = 150_000
        nodes = base_mesh.nodes
        fine = np.sort(np.append(nodes, 0.5 * (nodes[0] + nodes[1])))
        Cc = assemble_temporal_operators(base_mesh, j_max).C
        Cf = assemble_temporal_operators(TemporalMesh(fine), j_max).C
        tol = tail_bounds(base_mesh, j_max)[2] + tail_bounds(TemporalMesh(fine), j_max)[2]
        for k in range(2, base_mesh.n_cells + 1):
            # row k (1-based) in the coarse mesh is row k+1 in the fine mesh
            assert Cf[k, 0] + Cf[k, 1] == pytest.approx(Cc[k - 1, 0], abs=tol)
            for ell in range(2, base_mesh.n_cells + 1):
                assert Cf[k, ell] == pytest.approx(Cc[k - 1, ell - 1], abs=tol)

