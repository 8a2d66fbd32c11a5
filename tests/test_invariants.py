"""Invariants are real checks: ``python -O`` strips ``assert`` statements,
so the engine's source holds none, and a run under ``-O`` prints what a
plain run prints.  The engine also keeps no definition that nothing
references, and runs every construction call through one runner."""

import ast
import dataclasses
import inspect
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import euclid
from euclid import elements, geom, trace
from euclid.number import new_context

PACKAGE = Path(euclid.__file__).resolve().parent
ROOT = PACKAGE.parent.parent


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


def test_the_engine_reads_no_environment():
    """A run is chosen by its arguments alone: no module reads
    ``os.environ`` or ``os.getenv``, nor imports either from ``os``."""
    words = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in words:
                read = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                read = [a.name for a in node.names if a.name in words]
            else:
                continue
            found += [f"{path.relative_to(PACKAGE)}:{node.lineno} {w}"
                      for w in read]
    assert found == []


def _definitions(tree):
    """The node of every module-level function, class and UPPER_CASE
    constant, and of every method that is not a dunder, with its name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield item.name, item


# Definitions that only tests call, each with the reason it stays.
TEST_ONLY = {
    "as_fraction": "the documented way back to a Fraction",
    "check_references": "ROADMAP item 5 retires it: a trace whose script "
                        "runs is closed",
}


def _reads(tree):
    """The line and name of each place the code of ``tree`` reads a
    name: an ``ast.Name``, an ``ast.Attribute`` or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for part in alias.name.split("."):
                    yield node.lineno, part


def test_every_definition_is_referenced():
    """No unused helpers: code reads each name the engine defines
    somewhere outside its own definition (a recursive call does not
    count), in the engine or the benchmark, or an example script uses it
    as a word.  Prose (the README, notes, docstrings and comments) does
    not count, and tests do not count as callers, so a definition only
    tests call is declared in ``TEST_ONLY`` with its reason.  The check
    goes by name, so it is a floor, not a proof of use."""
    sources = sorted(PACKAGE.rglob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in [*sources, *sorted((ROOT / "bench").rglob("*.py"))]}
    reads = {p: list(_reads(tree)) for p, tree in trees.items()}
    words = Counter(name for found in reads.values() for _, name in found)
    words.update(w for p in sorted((ROOT / "scripts").rglob("*"))
                 for w in re.findall(r"\w+", p.read_text(encoding="utf-8")))
    unused = []
    for path in sources:
        for name, node in _definitions(trees[path]):
            own = sum(1 for line, read in reads[path] if read == name
                      and node.lineno <= line <= node.end_lineno)
            if words[name] <= own:
                unused.append(name if name in TEST_ONLY else
                              f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    assert sorted(unused) == sorted(TEST_ONLY)


def test_no_unused_imports():
    """Every name a module of the engine or of its tests imports, other
    than a ``__future__`` feature, is read in that module or listed in its
    ``__all__``, so a deletion takes its imports with it."""
    unused = []
    for path in [*sorted(PACKAGE.rglob("*.py")),
                 *sorted((ROOT / "tests").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(
                        f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert unused == []


def _scoped_nodes(node, scope=None):
    """Every node below ``node`` with the name of the innermost function
    that holds it (``None`` at module level)."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = (child.name if isinstance(child, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef))
                 else scope)
        yield from _scoped_nodes(child, inner)


def _name(node) -> str:
    """The name a ``Name`` reads or the attribute an ``Attribute`` takes."""
    return getattr(node, "id", None) or getattr(node, "attr", "")


def _puts_strategy(node) -> bool:
    """``x["strategy"] = ...`` or ``dict(..., strategy=...)``."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return getattr(node.slice, "value", None) == "strategy"
    return (isinstance(node, ast.Call) and _name(node.func) == "dict"
            and any(k.arg == "strategy" for k in node.keywords))


def test_one_runner():
    """Every front door runs a resolved call one way: only ``elements.run``
    looks a construction up in ``CONSTRUCTIONS``, puts a strategy into a
    call and certifies the result."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = str(path.relative_to(PACKAGE))
        for scope, node in _scoped_nodes(tree):
            if (isinstance(node, ast.Subscript)
                    and _name(node.value) == "CONSTRUCTIONS"):
                found.add((where, scope, "CONSTRUCTIONS[...]"))
            if isinstance(node, ast.Call) and _name(node.func) == "certify":
                found.add((where, scope, "certify(...)"))
            if _puts_strategy(node):
                found.add((where, scope, "strategy key"))
    assert found == {("elements/__init__.py", "run", "CONSTRUCTIONS[...]"),
                     ("elements/__init__.py", "run", "certify(...)"),
                     ("elements/__init__.py", "run", "strategy key")}


def test_catalogue_lists_each_construction_once():
    """A construction, its postcondition and its strategy table are named
    once, in their ``PROPOSITIONS`` record, through the defining module:
    ``elements/__init__.py`` imports none of them by name."""
    listed = {id(x) for p in elements.PROPOSITIONS.values()
              for x in (p.fn, p.post, p.strategies) if x is not None}
    tree = ast.parse((PACKAGE / "elements" / "__init__.py")
                     .read_text(encoding="utf-8"))
    found = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if id(getattr(elements, alias.asname or alias.name, None))
             in listed]
    assert found == []


def test_one_apex_step_and_one_trace_writer():
    """Inside ``elements`` two circles are cut only by the I.1/I.22 step,
    ``_common.apex``, and by Proclus's I.23, which takes both points of one
    meet; and only ``trace`` writes a step with ``Tracer._record``."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(PACKAGE)
        for scope, node in _scoped_nodes(tree):
            if not isinstance(node, ast.Call):
                continue
            if (_name(node.func) == "intersect_circles"
                    and where.parts[0] == "elements"):
                found.add((str(where), scope, "intersect_circles(...)"))
            if _name(node.func) == "_record" and where != Path("trace.py"):
                found.add((str(where), scope, "_record(...)"))
    assert found == {
        ("elements/_common.py", "apex", "intersect_circles(...)"),
        ("elements/triangles.py", "_p23_proclus", "intersect_circles(...)")}


def test_one_superposition():
    """The engine moves a figure once, where the paper says Euclid does:
    only ``trace`` calls ``geom.superpose``, and only Euclid's I.44 route
    calls ``Tracer.superpose``, which records the step."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = str(path.relative_to(PACKAGE))
        for scope, node in _scoped_nodes(tree):
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "superpose"):
                found.add((where, scope, "Tracer.superpose"))
            elif _name(node.func) in ("superpose", "geom_superpose"):
                found.add((where, scope, "geom.superpose"))
    assert found == {("trace.py", "superpose", "geom.superpose"),
                     ("elements/areas.py", "_p44_euclid", "Tracer.superpose")}


def test_signs_take_no_norm():
    """A sign is decided by the halves and by refinement alone: only the
    inverse ``_pinv`` and the square-root norm test ``_sqrt_at_own_level``
    call ``_pnorm``."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = str(path.relative_to(PACKAGE))
        found |= {(where, scope) for scope, node in _scoped_nodes(tree)
                  if isinstance(node, ast.Call)
                  and _name(node.func) == "_pnorm"}
    assert found == {("number.py", "_pinv"),
                     ("number.py", "_sqrt_at_own_level")}


def test_no_given_is_a_number():
    """A construction is given figures, never numbers: nothing in
    ``elements`` takes a distance or a square root, and only I.22 reads a
    given line's length, for the cut GH."""
    found = set()
    for path in sorted((PACKAGE / "elements").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = str(path.relative_to(PACKAGE))
        found |= {(where, scope, _name(node.func))
                  for scope, node in _scoped_nodes(tree)
                  if isinstance(node, ast.Call)
                  and _name(node.func) in ("dist", "sqrt_nonneg", "length")}
    assert found == {("elements/triangles.py", "p22_triangle", "length")}


VALUE_TYPES = (geom.Point, geom.Vec, geom.Segment, geom.Line, geom.Ray,
               geom.Circle, geom.Angle, geom.Figure, geom.Isometry, trace.Step)


def _class_scoped_nodes(node, cls=None, fn=None):
    """Every node below ``node`` with the names of the innermost class and
    the innermost function that hold it (``None`` where there is none)."""
    for child in ast.iter_child_nodes(node):
        yield cls, fn, child
        if isinstance(child, ast.ClassDef):
            yield from _class_scoped_nodes(child, child.name, None)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _class_scoped_nodes(child, cls, child.name)
        else:
            yield from _class_scoped_nodes(child, cls, fn)


def test_values_are_written_only_by_their_constructors():
    """Geometry values and trace steps are immutable by contract, not by a
    frozen store.  Nothing in the engine names ``__setattr__`` or
    ``__delattr__`` or calls ``setattr`` or ``delattr``.  A field of one of
    these types is assigned only as ``self.<field>`` in the constructor of
    a class that has that field, or in ``Point.rounded``, which fills its
    slot once.  The check goes by attribute name, so a store of that name
    on any other object fails it too.  No instance has a ``__dict__`` that
    could hold anything else."""
    owners: dict[str, set[str]] = {}
    for cls in VALUE_TYPES:
        for f in dataclasses.fields(cls):
            owners.setdefault(f.name, set()).add(cls.__name__)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = f"{path.relative_to(PACKAGE)}"
        for cls, fn, node in _class_scoped_nodes(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("__setattr__", "__delattr__")):
                found.append(f"{where}:{node.lineno} .{node.attr}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("setattr", "delattr")):
                found.append(f"{where}:{node.lineno} {node.func.id}(...)")
            elif (isinstance(node, ast.Attribute)
                    and not isinstance(node.ctx, ast.Load)
                    and node.attr in owners):
                by_self = (isinstance(node.value, ast.Name)
                           and node.value.id == "self")
                if not by_self or (cls, fn, node.attr) not in (
                        *((c, "__init__", node.attr) for c in owners[node.attr]),
                        ("Point", "rounded", "_rounded")):
                    found.append(f"{where}:{node.lineno} {cls}.{fn} "
                                 f"stores .{node.attr}")
    assert found == []
    new_context()
    a, b, c = geom.Point(0, 0), geom.Point(1, 0), geom.Point(0, 1)
    values = [a, geom.Vec(1, 2), geom.Segment(a, b), geom.Line(a, b),
              geom.Ray(a, b), geom.Circle(a, 1), geom.Angle(a, b, c),
              geom.Figure([a, b, c]),
              geom.superpose(geom.Segment(a, b), geom.Segment(a, c)),
              trace.Step("join", (1, 2), (3,))]
    assert sorted(type(v).__name__ for v in values) == sorted(
        cls.__name__ for cls in VALUE_TYPES)
    assert [type(v).__name__ for v in values if hasattr(v, "__dict__")] == []


def test_vector_components_stay_in_geom():
    """Only ``geom`` reads a vector's ``dx`` or ``dy``: every other module
    moves a point with ``origin + d * t`` and tests sides and incidence
    with ``orientation`` and ``collinear``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE) == Path("geom.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno} .{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in ("dx", "dy")]
    assert found == []


def test_constructions_open_their_own_levels():
    """A construction opens its trace level with ``Tracer.level`` and takes
    its caller's level as ``parent``: nothing in ``elements`` builds a
    ``Tracer``, only ``trace`` calls ``.sub``, and no ``tracer`` keyword
    is left."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        where = path.relative_to(PACKAGE)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if _name(node.func) == "Tracer" and where.parts[0] == "elements":
                    found.append(f"{where}:{node.lineno} Tracer(...)")
                if (isinstance(node.func, ast.Attribute) and node.func.attr == "sub"
                        and where != Path("trace.py")):
                    found.append(f"{where}:{node.lineno} .sub(...)")
                found += [f"{where}:{node.lineno} tracer=" for k in node.keywords
                          if k.arg == "tracer"]
            if isinstance(node, ast.arg) and node.arg == "tracer":
                found.append(f"{where}:{node.lineno} tracer parameter")
    assert found == []
    for fn in (*elements.CONSTRUCTIONS.values(), elements.areas.p42_on_ray,
               elements.triangles.place_triangle_on_ray):
        assert "parent" in inspect.signature(fn).parameters, fn.__name__


def test_main_alone_decides_exit_codes():
    """A CLI command raises its failure and returns only 0 or 1: in
    ``cli.py`` only ``main`` writes to ``sys.stderr`` or returns the
    literal 2, and nothing raises ``SystemExit``."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = set()
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Attribute) and node.attr == "stderr":
            found.add((scope, "sys.stderr"))
        if isinstance(node, ast.Return) and any(
                isinstance(c, ast.Constant) and c.value == 2
                for c in ast.walk(node)):
            found.add((scope, "return 2"))
        if isinstance(node, ast.Raise) and any(
                _name(n) == "SystemExit" for n in ast.walk(node)):
            found.add((scope, "raise SystemExit"))
    assert found == {("main", "sys.stderr"), ("main", "return 2")}


def _same_under_optimization(argv) -> None:
    """The command prints the same bytes under ``python -O``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))

    def run(*flags):
        return subprocess.run([sys.executable, *flags, "-m", "euclid", *argv],
                              capture_output=True, env=env, timeout=120)

    plain, optimized = run(), run("-O")
    assert plain.returncode == 0 and optimized.returncode == 0
    assert plain.stdout and plain.stdout == optimized.stdout


def test_optimized_interpreter_gives_same_records():
    _same_under_optimization(["suite", "all", "--n", "1", "--seed", "3",
                              "--records"])


@pytest.mark.parametrize("argv", [
    ["prop", "I.45", "--seed", "3", "--trace"],
    ["run", str(ROOT / "scripts" / "i44.euc"), "--trace"],
])
def test_optimized_interpreter_gives_same_trace_text(argv):
    _same_under_optimization(argv)


def test_theorem_checks_take_only_their_givens():
    """Every theorem check takes the checks ``r`` and then its givens, none
    with a default, and its generator draws exactly those givens: no check
    takes an option that a bundle may leave out."""
    new_context()
    found = []
    for theorem_id, theorem in elements.THEOREMS.items():
        first, *givens = theorem.signature.parameters.values()
        drawn = theorem.generate(random.Random(0))
        if (first.name != "r"
                or any(p.default is not p.empty
                       or p.kind is not p.POSITIONAL_OR_KEYWORD
                       for p in [first, *givens])
                or set(drawn) != {p.name for p in givens}):
            found.append(theorem_id)
    assert found == []
