"""Invariants are real checks: ``python -O`` strips ``assert`` statements,
so the engine's source holds none, and a run under ``-O`` prints what a
plain run prints."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import euclid

PACKAGE = Path(euclid.__file__).resolve().parent


def test_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_global_statements():
    """Process-wide mutable state stays out: per-caller state lives in
    objects or context variables, never behind ``global``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_optimized_interpreter_gives_same_records():
    env = {k: v for k, v in os.environ.items() if k != "EUCLID_SEED"}
    env["PYTHONPATH"] = str(PACKAGE.parent)

    def run(*flags):
        return subprocess.run([sys.executable, *flags, "-m", "euclid", "suite",
                               "all", "--n", "1", "--seed", "3", "--records"],
                              capture_output=True, env=env, timeout=120)

    plain, optimized = run(), run("-O")
    assert plain.returncode == 0 and optimized.returncode == 0
    assert plain.stdout and plain.stdout == optimized.stdout
