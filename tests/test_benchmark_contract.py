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
    assert {"lshape.build", "fem.error_norms"} <= names
    assert any(name.startswith("manufactured.") for name in names)

    after = _names()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
