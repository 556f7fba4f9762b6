"""Smoke tests: the demos, the README quick start and the installed
entry point run against the package, the README names exactly the CLI
flags and config keys, and no module reaches into a sibling's private
names."""

import argparse
import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

from kronheat import experiments

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
    return proc


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


def test_readme_lists_config_keys_and_flags():
    # the "Every subcommand accepts" paragraph names every config key and
    # every long option of every subcommand, and no others
    readme = (ROOT / "README.md").read_text()
    paragraph = readme.split("Every subcommand accepts", 1)[1].split("\n\n")[0]
    flags_text, keys_text = paragraph.split("Recognized keys:", 1)
    keys = re.findall(r"`(\w+)`", keys_text.split(".", 1)[0])
    assert keys == list(experiments._CONFIG_KEYS)
    flags = set(re.findall(r"`(--[\w-]+)", flags_text))
    subparsers = next(action for action
                      in experiments.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    for command in subparsers.choices.values():
        options = {option for action in command._actions
                   for option in action.option_strings
                   if option.startswith("--")}
        assert flags == options - {"--help"}


@pytest.mark.parametrize("module", ["kronheat", "kronheat.fem",
                                    "kronheat.lshape", "kronheat.manufactured"])
def test_public_exports_resolve(module):
    # a name left in __all__ after a rename fails here, not in a user's
    # ``from kronheat import *``
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_entry_point_runs():
    # the ``kronheat`` script that an install makes names a callable, and
    # that module runs as ``python -m`` without installing
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["kronheat"]
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))
    proc = run_python(["-m", module, "eigstudy", "--max-level", "0"])
    assert proc.stdout.splitlines()[0] == experiments.EIGSTUDY_HEADER


def test_no_module_imports_a_private_name_of_a_sibling():
    # a module that needs another's underscore name should own it, or the
    # name should be public; tests may still import private names
    offenders = []
    for path in sorted((ROOT / "src" / "kronheat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: {alias.name}"
                              for alias in node.names
                              if alias.name.startswith("_")]
    assert not offenders
