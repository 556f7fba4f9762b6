"""Refinement-study drivers, config handling, table formatting, and an
end-to-end patch test of the assemble-solve-measure pipeline."""

import dataclasses

import numpy as np
import pytest

import kronheat.experiments as experiments
from kronheat.cli import build_parser, config_from_args
from kronheat.errors import SingularMatrix, UsageError
from kronheat.experiments import (
    BASE_TIME_NODES,
    COMPARE_HEADER,
    CONVERGENCE_HEADER,
    EIGSTUDY_HEADER,
    CompareRow,
    ConvergenceRow,
    EigRow,
    ExperimentConfig,
    compare_solvers,
    eoc,
    format_compare_row,
    format_convergence_row,
    format_eig_row,
    load_config_file,
    make_config,
    assemble_problem,
    run_convergence,
    run_eigstudy,
    solution_errors,
    time_mesh_at_level,
    write_csv,
)
from kronheat.fem import (
    assemble_global_rhs,
    assemble_p1,
    dirichlet_lift,
    error_norms,
    project_rhs,
)
from kronheat.lshape import build_lshape_mesh
from kronheat.manufactured import ExactFields
from kronheat.solvers import SpaceTimeSystem, solve
from kronheat.temporal import assemble_temporal_operators


class TestEoc:
    def test_second_order_model(self):
        # halving h multiplies dof by 8 and quarters the error
        assert eoc(4.0, 1.0, 100, 800) == pytest.approx(2.0, rel=1e-14)

    def test_published_rows(self):
        # values reproduce the reported two-decimal entries
        assert round(eoc(3.326e-1, 1.089e-1, 20, 264), 2) == 1.30
        assert round(eoc(3.136e-2, 8.309e-3, 2576, 22560), 2) == 1.84
        # the H1 order column is printed to one decimal: 0.544, 0.829,
        # 1.000 and 0.998 round to 0.5, 0.8, 1.0 and 1.0
        errors = (4.314e0, 2.702e0, 1.440e0, 6.984e-1, 3.447e-1)
        dofs = (20, 264, 2576, 22560, 188480)
        orders = [round(eoc(errors[k - 1], errors[k], dofs[k - 1], dofs[k]), 1)
                  for k in range(1, len(dofs))]
        assert orders == [0.5, 0.8, 1.0, 1.0]


def _linear_in_time(a, b, c):
    """u = t (a + b x1 + c x2), its spatial gradient and time derivative.

    laplace u = 0, so the time derivative is also the heat source.
    """
    def u(x1, x2, t):
        return t * (a + b * x1 + c * x2)

    def grad(x1, x2, t):
        return b * t + 0.0 * x1 * x2, c * t + 0.0 * x1 * x2

    def dt(x1, x2, t):
        return a + b * x1 + c * x2 + 0.0 * t

    return u, grad, dt


class TestPatchSolution:
    """A solution in the trial space is recovered through the full pipeline.

    u = t (a + b x1 + c x2) is piecewise linear in space and time and
    vanishes at t = 0, so the Galerkin solution equals it whenever the
    load is exact.  Its source dt u - laplace u = a + b x1 + c x2 is
    constant in time and linear in space.
    """

    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("a, b, c, exact_load", [
        (1.0, 0.0, 0.0, False),
        (1.0, 2.0, -3.0, True),
    ], ids=["u=t-cell-averages", "u=t(1+2x1-3x2)-exact-load"])
    def test_recovers_exact_solution(self, a, b, c, exact_load, level):
        u, grad, dt = _linear_in_time(a, b, c)
        mesh_x = build_lshape_mesh(level)
        mesh_t = time_mesh_at_level(level)
        ops = assemble_p1(mesh_x)
        temp = assemble_temporal_operators(mesh_t)
        lift = dirichlet_lift(mesh_x, mesh_t, u)
        if exact_load:
            # <f, H_T v> for the P1 source: M_full f in space times the
            # row sums of C in time, as f is constant in t
            F = np.zeros((mesh_x.n_triangles, temp.n))
            x1, x2 = mesh_x.vertices.T
            f_nodes = a + b * x1 + c * x2
            load = np.outer((ops.M_full @ f_nodes)[ops.interior],
                            temp.C.sum(axis=1)).ravel(order="F")
        else:
            # the source dt u = a is constant, so the cell averages of
            # project_rhs load it exactly
            F = project_rhs(mesh_x, mesh_t, dt)
            load = 0.0
        rhs = load + assemble_global_rhs(F, ops, temp, lift)
        system = SpaceTimeSystem(temporal=temp, spatial=ops, rhs=rhs)
        for variant in ("bs-real", "bs-complex", "fd"):
            solution, _ = solve(system, variant)
            full = np.empty((mesh_x.n_vertices, temp.n))
            full[ops.interior] = solution.coefficients.reshape(
                ops.n_interior, -1, order="F")
            full[ops.boundary] = lift
            [(l2, h1)] = error_norms(full[None], mesh_x, mesh_t,
                                     u, grad, dt)
            assert l2 < 1e-10 and h1 < 1e-10, (variant, l2, h1)


class TestExperimentConfig:
    def test_defaults(self):
        config = ExperimentConfig()
        assert config.max_level == 4
        assert config.variants == ("bs-real", "bs-complex", "fd")
        # every setting can come from a config file, and nothing else can
        assert ([field.name for field in dataclasses.fields(config)]
                == list(experiments._CONFIG_KEYS))

    # explicit ids keep each case's name fixed when cases are added or
    # dropped; kwargs2 (j_max) and kwargs7-9 belonged to settings that
    # are no longer knobs
    @pytest.mark.parametrize("kwargs", [
        pytest.param({"max_level": -1}, id="kwargs0"),
        pytest.param({"threads": 0}, id="kwargs1"),
        pytest.param({"variants": ()}, id="kwargs3"),
        pytest.param({"variants": ("bs-real", "qr")}, id="kwargs4"),
        pytest.param({"out": "no-such-directory/table.csv"}, id="kwargs5"),
        pytest.param({"variants": ("qr",)}, id="kwargs6"),
        pytest.param({"variants": ("fd", "fd")}, id="kwargs10"),
        pytest.param({"out": "."}, id="out-is-directory"),
        pytest.param({"out": ""}, id="out-empty"),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(UsageError):
            ExperimentConfig(**kwargs)


class TestTimeMesh:
    def test_levels_bisect(self):
        base = time_mesh_at_level(0)
        assert np.array_equal(base.nodes, np.asarray(BASE_TIME_NODES))
        fine = time_mesh_at_level(2)
        assert fine.n_cells == 16
        # bisection keeps the grading ratio of the base partition
        assert fine.h_max / fine.h_min == pytest.approx(12.0, rel=1e-12)
        assert base.nodes[1] / 4 == pytest.approx(fine.nodes[1], rel=1e-14)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "study.cfg"
        path.write_text(
            "# study setup\n"
            "max_level = 1\n"
            "variants = bs-real, fd\n"
            f"out = {tmp_path / 'table.csv'}   # per-variant tables\n"
            "\n"
            "threads = 2\n"
        )
        values = load_config_file(path)
        config = make_config(values)
        assert config.max_level == 1
        assert config.variants == ("bs-real", "fd")
        assert config.out == str(tmp_path / "table.csv")
        assert config.threads == 2

    def test_repeated_key(self, tmp_path):
        # the second line would silently win
        path = tmp_path / "twice.cfg"
        path.write_text("max_level = 2\n# finer\nmax_level = 5\n")
        with pytest.raises(UsageError, match="twice.cfg:3: repeated key"):
            load_config_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("max_level 1\n")
        with pytest.raises(UsageError, match="bad.cfg:1"):
            load_config_file(path)

    def test_unknown_key(self):
        # the study setup's time partition, quadrature and series
        # truncation are not settings
        for key, value in (("levels", "3"), ("quad_order", "6"),
                           ("error_quad_order", "none"),
                           ("time_nodes", "0, 0.5, 1"),
                           ("j_max", "2000000")):
            with pytest.raises(UsageError, match="unknown config key"):
                make_config({key: value})

    def test_bad_value(self):
        with pytest.raises(UsageError, match="bad value"):
            make_config({"max_level": "three"})

    def test_override_precedence(self, tmp_path):
        # a flag replaces the file's value, and repeated --solver chunks
        # replace the file's variants rather than add to them
        path = tmp_path / "study.cfg"
        path.write_text("max_level = 2\nthreads = 4\nvariants = fd\n")
        args = build_parser().parse_args(
            ["convergence", "--config", str(path), "--max-level", "0",
             "--solver", "bs-real", "--solver", "bs-complex"])
        config = config_from_args(args)
        assert config.max_level == 0
        assert config.threads == 4
        assert config.variants == ("bs-real", "bs-complex")


class TestRunEigstudy:
    def test_reference_rows(self):
        rows = run_eigstudy(ExperimentConfig(max_level=1))
        assert [r.n_t for r in rows] == [4, 8]
        first = rows[0]
        assert first.h_max == pytest.approx(0.375)
        assert first.h_min == pytest.approx(1.0 / 32.0)
        assert first.min_re_lambda == pytest.approx(1.514e-2, rel=1e-3)
        assert first.kappa2 == pytest.approx(9.576, rel=1e-3)
        assert rows[1].kappa2 == pytest.approx(76.78, rel=1e-3)


@pytest.fixture(scope="module")
def tables():
    return run_convergence(ExperimentConfig(max_level=1,
                                            variants=("bs-complex",)))


class TestRunConvergence:
    def test_row_fields(self, tables):
        rows = tables["bs-complex"]
        assert [r.dof for r in rows] == [20, 264]
        first, second = rows
        assert first.h_x == pytest.approx(np.sqrt(0.125), rel=1e-12)
        assert first.h_t_max == pytest.approx(0.375)
        assert first.h_t_min == pytest.approx(1.0 / 32.0)
        assert first.l2_eoc == 0.0 and first.h1_eoc == 0.0
        assert 0 < second.l2_error < first.l2_error
        assert 0 < second.h1_error < first.h1_error
        assert second.l2_eoc > 1.0
        assert second.seconds >= 0.0

    def test_level0_errors(self, tables):
        # converged level-0 values of the measured protocol
        first = tables["bs-complex"][0]
        assert first.l2_error == pytest.approx(3.70134e-1, rel=1e-4)
        assert first.h1_error == pytest.approx(4.67519e0, rel=1e-4)

    def test_failing_variant_is_dropped(self, monkeypatch, capsys):
        real_solve = experiments.solve
        calls = []

        def flaky(system, variant, threads=1):
            calls.append(variant)
            if variant == "fd":
                raise SingularMatrix("synthetic failure")
            return real_solve(system, variant, threads=threads)

        monkeypatch.setattr(experiments, "solve", flaky)
        config = ExperimentConfig(max_level=1, variants=("bs-complex", "fd"))
        tables = run_convergence(config)
        assert len(tables["bs-complex"]) == 2
        assert tables["fd"] == []
        assert calls.count("fd") == 1  # dropped after the first failure
        assert "SingularMatrix" in capsys.readouterr().err

    def test_fallback_is_noted(self, forced_fd_fallback, capsys):
        # the fd rows are bs-complex's, so stderr must say so
        tables = run_convergence(ExperimentConfig(max_level=0,
                                                  variants=("fd",)))
        assert len(tables["fd"]) == 1
        assert capsys.readouterr().err == (
            "# fallback level 0 fd: fd failed: "
            "DefectivePencil, solved by bs-complex\n")


class TestSolutionErrors:
    def test_one_pair_per_solution_in_order(self):
        problem = assemble_problem(1)
        rng = np.random.default_rng(7)
        solution, _ = solve(problem.system, "bs-complex")
        perturbed = dataclasses.replace(
            solution, coefficients=solution.coefficients
            + 0.1 * rng.standard_normal(solution.coefficients.shape))
        both = np.array(solution_errors(problem, [solution, perturbed]))
        alone = np.array([solution_errors(problem, [s])[0]
                          for s in (solution, perturbed)])
        assert both.shape == (2, 2)
        np.testing.assert_allclose(both, alone, rtol=1e-14)
        assert np.all(np.abs(both[1] - both[0]) > 1e-3 * both[0])
        assert solution_errors(problem, []) == []

    def test_boundary_rows_come_from_the_lift(self):
        # the solve returns interior rows only; the measured function
        # takes its boundary rows from the Dirichlet lift, which is
        # nonzero for the manufactured solution
        problem = assemble_problem(1)
        solution, _ = solve(problem.system, "bs-complex")
        ops = problem.system.spatial
        assert np.abs(problem.lift).max() > 0.1
        full = np.empty((problem.mesh_x.n_vertices, problem.mesh_t.n_cells))
        full[ops.interior] = solution.coefficients.reshape(
            ops.n_interior, -1, order="F")
        full[ops.boundary] = problem.lift
        fields = ExactFields()
        [expected] = error_norms(full[None], problem.mesh_x,
                                 problem.mesh_t,
                                 fields.u, fields.grad, fields.dt)
        [got] = solution_errors(problem, [solution])
        np.testing.assert_allclose(got, expected, rtol=1e-14)


class TestCompareSolvers:
    def test_needs_two_variants(self):
        with pytest.raises(UsageError):
            compare_solvers(ExperimentConfig(variants=("fd",)))

    def test_level0_agreement(self):
        config = ExperimentConfig(max_level=0)
        rows, residuals = compare_solvers(config)
        assert len(rows) == 3  # three unordered pairs
        assert not any(r.flagged for r in rows)
        assert all(r.threshold == 1e-8 for r in rows)
        assert set(residuals) == {(0, v) for v in config.variants}
        assert all(res < 1e-9 for res in residuals.values())

    def test_fallback_is_flagged(self, forced_fd_fallback, capsys):
        # fd's fallback solution is bs-complex's, so the pair agrees
        # exactly; only the flag shows that fd was never compared
        config = ExperimentConfig(max_level=0, variants=("bs-complex", "fd"))
        rows, _ = compare_solvers(config)
        assert [(r.diff, r.flagged) for r in rows] == [(0.0, True)]
        assert "# fallback level 0 fd:" in capsys.readouterr().err


class TestFormatting:
    def test_convergence_row(self):
        row = ConvergenceRow(dof=264, h_x=0.17678, h_t_max=0.1875,
                             h_t_min=0.015625, l2_error=1.089e-1,
                             l2_eoc=1.2984, h1_error=2.702, h1_eoc=0.54,
                             seconds=0.04)
        assert format_convergence_row(row) == (
            "264,0.17678,0.18750,0.01562,1.089e-01,1.30,2.702e+00,0.54,0.0")

    def test_eig_row(self):
        row = EigRow(n_t=4, h_max=0.375, h_min=0.03125,
                     min_re_lambda=1.514e-2, sigma_min=2.041e-1,
                     sigma_max=1.954, kappa2=9.576)
        assert format_eig_row(row) == (
            "4,0.37500,0.03125,1.514e-02,2.041e-01,1.954e+00,9.576e+00")

    def test_compare_row(self):
        row = CompareRow(level=2, dof=2576, variant_a="bs-real",
                         variant_b="fd", diff=3.2e-11, threshold=1e-8,
                         flagged=False)
        assert format_compare_row(row) == (
            "2,2576,bs-real,fd,3.200e-11,1.0e-08,no")

    def test_csv_writer(self, tmp_path):
        row = ConvergenceRow(dof=20, h_x=0.35355, h_t_max=0.375,
                             h_t_min=0.03125, l2_error=3.701e-1, l2_eoc=0.0,
                             h1_error=4.675, h1_eoc=0.0, seconds=0.0)
        path = tmp_path / "table.csv"
        write_csv(path, CONVERGENCE_HEADER, [format_convergence_row(row)])
        assert path.read_text() == (
            CONVERGENCE_HEADER + "\n"
            + "20,0.35355,0.37500,0.03125,3.701e-01,0.00,4.675e+00,0.00,0.0\n")
        assert EIGSTUDY_HEADER.startswith("N_t")
        assert COMPARE_HEADER.split(",")[0] == "level"
