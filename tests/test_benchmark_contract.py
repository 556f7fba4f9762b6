"""The benchmark's traced mode still runs against the library.

``perfbench`` patches kronheat's public functions by name; a rename or
a moved import in the library would break the traced reproduction
without failing any library test.  One small traced ``reproduce`` round
guards that contract.
"""

import importlib
import sys
from pathlib import Path

import kronheat

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer as tracing  # noqa: E402
from workloads import Reproduce  # noqa: E402


# one span name per traced layer a reproduce round runs through
TRACED_LAYERS = {
    "lshape.build",
    "fem.assemble_p1", "fem.project_rhs", "fem.dirichlet_lift",
    "fem.assemble_global_rhs", "fem.error_norms",
    "temporal.assemble",
    "solvers.solve", "solvers.eig_study",
    "experiments.assemble_problem", "experiments.run_convergence",
    "experiments.run_eigstudy",
    "sparse_direct.analyze", "sparse_direct.factorize",
    "sparse_direct.solve",
    "manufactured.exact_u", "manufactured.exact_grad",
    "manufactured.exact_dt",
}


def _names():
    """Every (module, attribute) -> value of the package and its modules."""
    modules = [kronheat] + [
        importlib.import_module(f"kronheat.{name}") for name in
        ("experiments", "solvers", "fem", "temporal", "lshape",
         "sparse_direct", "manufactured")]
    return {(module.__name__, attr): value for module in modules
            for attr, value in vars(module).items()}


def test_traced_reproduce_round_passes_and_restores():
    before = _names()
    workload = Reproduce(kronheat, max_level=1)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, kronheat):
        assert (kronheat.experiments.build_lshape_mesh
                is not before[("kronheat.experiments", "build_lshape_mesh")])
        workload.setup()
        tracer.phase = "round"
        tally = workload.check(None, workload.run(None))
    assert (tally.attempted, tally.failed) == (8, 0), tally.notes

    names = {span["name"] for span in tracer.spans}
    assert TRACED_LAYERS <= names, sorted(TRACED_LAYERS - names)

    after = _names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
