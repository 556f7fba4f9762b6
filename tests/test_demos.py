"""Smoke test: the quick demos and the README quick start run against the package."""

import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# each runs in a few seconds on 2 cores (refinement_study.py, levels
# 0-3 with all three variants, about 4 s)
DEMOS = ("solve_one_level.py", "temporal_matrices.py", "refinement_study.py")


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    run_python([str(ROOT / "demos" / demo)])


def test_readme_quick_start_runs():
    # the python block under "## Quick start", so the README's API example
    # cannot go stale without a failure
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    run_python(["-c", code])


@pytest.mark.parametrize("module", ["kronheat", "kronheat.fem",
                                    "kronheat.lshape", "kronheat.manufactured"])
def test_public_exports_resolve(module):
    # a name left in __all__ after a rename fails here, not in a user's
    # ``from kronheat import *``
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
