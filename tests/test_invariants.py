"""Invariants are real checks: ``python -O`` strips ``assert`` statements,
so the engine's source holds none."""

import ast
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
