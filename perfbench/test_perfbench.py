"""Tests of the benchmark itself, on small levels.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import kronheat  # noqa: E402
import kronheat.experiments  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Reproduce, Sweep, Temporal  # noqa: E402


def fail_ratio(tally):
    return tally.failed / tally.attempted


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(tracing.PER_LAYER)


@pytest.fixture(scope="module")
def sweep():
    workload = Sweep(kronheat, level=1)
    workload.setup()
    return workload


def test_sweep_passes_and_a_perturbed_solution_fails(sweep, monkeypatch):
    rng = np.random.default_rng(0)
    system = sweep.prepare(rng)
    assert fail_ratio(sweep.check(system, sweep.run(system))) == 0.0

    real_solve = kronheat.solvers.solve

    def perturbed(system, variant, threads=1):
        solution, report = real_solve(system, variant, threads=threads)
        if threads == 2:
            solution.coefficients[0] += 1e-3
        return solution, report

    monkeypatch.setattr(kronheat.solvers, "solve", perturbed)
    tally = sweep.check(system, sweep.run(system))
    assert tally.failed == 1 and fail_ratio(tally) > 0.0
    assert any("fd-t2" in note for note in tally.notes)


def test_raising_solve_counts_as_failed(sweep, monkeypatch):
    def broken(system, variant, threads=1):
        raise kronheat.SingularMatrix("injected")

    monkeypatch.setattr(kronheat.solvers, "solve", broken)
    system = sweep.prepare(np.random.default_rng(1))
    tally = sweep.check(system, sweep.run(system))
    assert (tally.attempted, tally.failed) == (4, 4)


def test_wrong_printed_rows_fail():
    workload = Reproduce(kronheat, max_level=1)
    eig, tables = workload.run(None)
    assert fail_ratio(workload.check(None, (eig, tables))) == 0.0

    eig[1] = dataclasses.replace(eig[1], kappa2=eig[1].kappa2 * 1.01)
    rows = tables["fd"]
    rows[0] = dataclasses.replace(rows[0], l2_error=rows[0].l2_error * 1.01)
    tally = workload.check(None, (eig, tables))
    assert tally.failed == 2 and fail_ratio(tally) > 0.0

    del tables["bs-real"]
    assert workload.check(None, (eig, tables)).failed == 4


def test_eigstudy_outside_published_bounds_fails():
    workload = Temporal(kronheat, max_level=0)
    rows = workload.run(None)
    assert fail_ratio(workload.check(None, rows)) == 0.0
    workload.expected = [kronheat.experiments.format_eig_row(
        dataclasses.replace(rows[0], min_re_lambda=2e-2))]
    rows[0] = dataclasses.replace(rows[0], min_re_lambda=2e-2)
    assert workload.check(None, rows).failed == 1


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},
        {"id": 4, "parent": 1, "start": 7.0, "end": 8.0},
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[2] == pytest.approx(3.0)


def test_traced_sweep_counts_and_restores(sweep):
    originals = (kronheat.solvers.solve, kronheat.sparse_direct.factorize)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, kronheat):
        assert kronheat.solvers.solve is not originals[0]
        tracer.phase = "round"
        for seed in (0, 1):
            system = sweep.prepare(np.random.default_rng(seed))
            assert sweep.check(system, sweep.run(system)).failed == 0
    assert (kronheat.solvers.solve,
            kronheat.sparse_direct.factorize) == originals

    m = tracing.layer_metrics(tracer.spans, rounds=2)
    n_t, m_x = 8, 33
    # per round: every variant factorizes and solves once per diagonal
    # position of its pencil form, bs-real once per Schur block
    assert m["sparse_direct.factorize.calls"] == \
        m["sparse_direct.solve.calls"]
    assert 3 * n_t < m["sparse_direct.factorize.calls"] <= 4 * n_t
    assert m["sparse_direct.factor_nnz.33"] > 0
    assert m["sparse_direct.factor_nnz.705"] == 0
    assert m["solvers.solve_s.fd-t2"] > 0
    assert m["solvers.fallbacks"] == 0
    assert all(s["parent"] is not None for s in tracer.spans
               if s["name"].startswith("sparse_direct"))
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER}
    assert sweep.problem.system.m_x == m_x


def test_run_without_the_package_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "temporal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
