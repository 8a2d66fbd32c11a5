"""Command-line front door: run scripts, execute propositions, verify
suites, compare strategies, render figures.

Exit codes: 0 success, 1 assertion or postcondition failure, 2 usage or
parse error.  A command returns 0 or 1 from a run's ``trace.Checks``
and raises every failure; ``main`` alone prints a failure and decides
its code.  A run is chosen by its arguments alone: a proposition by its
bare id, a strategy by ``--strategy`` (or ``--strategies``), a seed by
``--seed``; no environment variable is read.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys

from . import dsl, elements, verify
from .errors import EuclidError, NothingToRender, UnknownProposition
from .number import new_context
from .render import render_result
from .trace import key_values, trace_lines


class _Usage(Exception):
    """A bad call: its message is printed as it stands and the exit code
    is 2."""


def _checked_script(path: str) -> list:
    """Read, parse and check a script; raise its diagnostics unless it is
    clean."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise _Usage(str(e))
    except UnicodeDecodeError as e:
        raise _Usage(f"{path}: {e}")
    script, diags = dsl.parse(text)
    diags += dsl.check(script)
    if diags:
        raise _Usage("\n".join(map(str, diags)))
    return script


def _load_instance(path: str, prop_id: str):
    """Bind the objects of a declaration script to a proposition's
    parameters, in declaration order."""
    script = _checked_script(path)
    try:
        declared = list(dsl.interpret(script)[0].objects.values())
    except dsl.ScriptError as e:
        raise _Usage(str(e))
    # each parameter takes the first type-matching object not yet consumed,
    # so helper declarations (points feeding a segment, say) are skipped;
    # a type word is the class name in lower case, and a line parameter
    # with no line left takes the line of a segment or ray, as in a script
    kwargs = {}
    unused = dict(enumerate(declared))
    for pname, ptype in elements.validate_call(prop_id).params:
        accepted = ((ptype,), ("segment", "ray") if ptype == "line" else ())
        ranked = [i for types in accepted for i, obj in unused.items()
                  if type(obj).__name__.lower() in types]
        if not ranked:
            raise _Usage(f"{path}: no {ptype} found for parameter {pname!r} "
                         f"of {prop_id}")
        obj = unused.pop(ranked[0])
        kwargs[pname] = obj.line() if ptype == "line" else obj
    return kwargs


def _instances(args, prop_id: str, strategies) -> dict:
    """Each strategy's instance, in a fresh context: the objects of the
    --input file as given, or one instance drawn from the seed and adapted
    to each strategy."""
    new_context()
    if args.input:
        givens = _load_instance(args.input, prop_id)
        return {s: givens for s in strategies}
    drawn = verify.generate_instance(prop_id, random.Random(args.seed))
    return {s: elements.drawn_instance(s, drawn) for s in strategies}


def _trace_and_svg(args, result, checks) -> int:
    """The tail of ``run`` and ``prop``: the trace lines on --trace, the
    SVG file on --svg; 0 if every check passed, else 1."""
    if args.trace:
        print("\n".join(trace_lines(result.trace)))
    if args.svg:
        svg = render_result(result)
        try:
            with open(args.svg, "wb") as f:
                f.write(svg)
        except OSError as e:
            raise _Usage(f"cannot write {args.svg}: {e.strerror or e}")
        print(f"wrote {args.svg}")
    return 0 if checks.all_pass else 1


def _print_report(report, records: bool) -> int:
    """Print a suite or comparison report, as key=value records or as
    lines; return its number of failed runs."""
    for line in (map(key_values, report.records()) if records
                 else report.lines()):
        print(line)
    return report.failures


def _cmd_run(args) -> int:
    result, checks = dsl.interpret(_checked_script(args.script))
    for claim, ok, _ in checks.claims:  # an assertion shows no residual
        print(f"{claim}\t{'PASS' if ok else 'FAIL'}")
    return _trace_and_svg(args, result, checks)


def _cmd_prop(args) -> int:
    elements.validate_call(args.id, args.strategy, args.side)
    givens = _instances(args, args.id, [args.strategy])[args.strategy]
    result, checks = elements.run(args.id, givens, args.strategy, args.side)
    print(f"# {checks.prop_id}")
    for line in checks.lines():
        print(line)
    if args.id == "I.45":
        print(f"triangles: {len(result.objects['triangles'])}")
    costs = result.costs()
    del costs["objects"]
    print(key_values(costs))
    return _trace_and_svg(args, result, checks)


def _cmd_suite(args) -> int:
    if args.n < 0:
        raise _Usage(f"--n must be a non-negative integer, got {args.n}")
    ids = verify.SUITE_IDS if args.id == "all" else (args.id,)
    failures = sum(_print_report(verify.run_suite(prop_id, args.n, args.seed),
                                 args.records) for prop_id in ids)
    return 0 if failures == 0 else 1


def _cmd_compare(args) -> int:
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    elements.validate_call(args.id)
    if not strategies:
        raise _Usage("--strategies needs at least one strategy name")
    for i, s in enumerate(strategies):
        if s in strategies[:i]:
            raise _Usage(f"--strategies names {s!r} twice")
    report = verify.compare(args.id, _instances(args, args.id, strategies))
    return 0 if _print_report(report, args.records) == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built on the first call, not on import."""
    parser = argparse.ArgumentParser(
        prog="euclid",
        description="exact straightedge-and-compass constructions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="parse, check and interpret a script")
    p_run.add_argument("script")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--svg")
    p_run.set_defaults(fn=_cmd_run)

    p_prop = sub.add_parser("prop", help="run one proposition")
    p_prop.add_argument("id")
    p_prop.add_argument("--strategy")
    p_prop.add_argument("--side")
    p_prop.add_argument("--input")
    p_prop.add_argument("--svg")
    p_prop.add_argument("--trace", action="store_true")
    p_prop.add_argument("--seed", type=int, default=7)
    p_prop.set_defaults(fn=_cmd_prop)

    p_suite = sub.add_parser("suite", help="run verification suites")
    p_suite.add_argument("id")
    p_suite.add_argument("--n", type=int, default=100)
    p_suite.add_argument("--seed", type=int, default=7)
    p_suite.add_argument("--records", action="store_true",
                         help="machine-readable key=value output")
    p_suite.set_defaults(fn=_cmd_suite)

    p_cmp = sub.add_parser("compare", help="compare variant strategies")
    p_cmp.add_argument("id")
    p_cmp.add_argument("--strategies", required=True)
    p_cmp.add_argument("--input")
    p_cmp.add_argument("--seed", type=int, default=7)
    p_cmp.add_argument("--records", action="store_true",
                       help="machine-readable key=value output")
    p_cmp.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (_Usage, UnknownProposition, NothingToRender) as e:
        print(e, file=sys.stderr)
        return 2
    except dsl.ScriptError as e:
        print(e, file=sys.stderr)
        return 1
    except EuclidError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
