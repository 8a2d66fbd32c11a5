"""Command-line front door: run scripts, execute propositions, verify
suites, compare strategies, render figures.

Exit codes: 0 success, 1 assertion or postcondition failure, 2 usage or
parse error.  The environment variable EUCLID_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import dsl, elements, verify
from .errors import EuclidError
from .number import new_context
from .render import render, render_result
from .trace import key_values, trace_lines


def _seed(args) -> int:
    env = os.environ.get("EUCLID_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        print(f"EUCLID_SEED must be an integer, got {env!r}", file=sys.stderr)
        raise SystemExit(2)


def _checked_script(path: str) -> dsl.Script:
    """Read, parse and check a script; print the diagnostics and exit 2
    unless it is clean."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(e, file=sys.stderr)
        raise SystemExit(2)
    script, diags = dsl.parse(text)
    diags += dsl.check(script)
    if diags:
        for d in diags:
            print(d, file=sys.stderr)
        raise SystemExit(2)
    return script


def _load_instance(path: str, base: str):
    """Bind the objects of a declaration script to a proposition's
    parameters, in declaration order."""
    script = _checked_script(path)
    try:
        inter = dsl.interpret(script)
    except dsl.ScriptError as e:
        print(e, file=sys.stderr)
        raise SystemExit(2)
    declared = []
    for st in script.statements:
        if isinstance(st, dsl.Decl):
            for name in st.names:
                declared.append(inter.env[name.ident])
    # each parameter takes the first type-matching object not yet consumed,
    # so helper declarations (points feeding a segment, say) are skipped;
    # a type word is the class name in lower case
    kwargs = {}
    used = [False] * len(declared)
    for pname, ptype in elements.PROPOSITIONS[base].params:
        want = "segment" if ptype == "number" else ptype
        for i, obj in enumerate(declared):
            if not used[i] and type(obj).__name__.lower() == want:
                used[i] = True
                kwargs[pname] = obj.length() if ptype == "number" else obj
                break
        else:
            print(f"{path}: no {ptype} found for parameter {pname!r} "
                  f"of {base}", file=sys.stderr)
            raise SystemExit(2)
    return kwargs


def _instance(args, base: str) -> dict:
    """The instance to run in a fresh context: the objects of the --input
    file, or a random instance drawn from the seed."""
    new_context()
    if args.input:
        return _load_instance(args.input, base)
    return verify.generate_instance(base, random.Random(_seed(args)))


def _write_svg(path: str, svg: bytes) -> None:
    """Write an SVG file; print why and exit 2 if it cannot be written."""
    try:
        with open(path, "wb") as f:
            f.write(svg)
    except OSError as e:
        print(f"cannot write {path}: {e.strerror or e}", file=sys.stderr)
        raise SystemExit(2)
    print(f"wrote {path}")


def _cmd_run(args) -> int:
    script = _checked_script(args.script)
    try:
        inter = dsl.interpret(script)
    except dsl.ScriptError as e:
        print(e, file=sys.stderr)
        return 1
    for outcome in inter.assertions:
        state = "PASS" if outcome.passed else "FAIL"
        print(f"{outcome.span}: assert {outcome.text}\t{state}")
    if args.trace:
        print(inter.trace_text())
    if args.svg:
        # a script's objects have no roles, so all draw as given
        _write_svg(args.svg, render({name: ("given", obj)
                                     for name, obj in inter.env.items()}))
    return 0 if inter.all_assertions_pass else 1


def _cmd_prop(args) -> int:
    try:
        base, id_strategy = elements.split_identifier(args.id)
    except EuclidError as e:
        print(e, file=sys.stderr)
        return 2
    strategy = args.strategy or id_strategy
    if strategy is not None and \
            strategy not in elements.STRATEGIES.get(base, ()):
        print(f"{base} has no strategy {strategy!r}", file=sys.stderr)
        return 2
    if args.side and not elements.PROPOSITIONS[base].takes_side:
        print(f"{base} takes no --side", file=sys.stderr)
        return 2
    kwargs = _instance(args, base)
    if args.side:
        kwargs["side"] = args.side
    call = elements.strategy_kwargs(strategy, kwargs)
    try:
        result = elements.CONSTRUCTIONS[base](**call)
        checks = elements.certify(base, call, result)
    except EuclidError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(f"# {result.prop_id}")
    for line in checks.lines():
        print(line)
    if base == "I.45":
        print(f"triangles: {len(result.objects['triangles'])}")
    costs = result.costs()
    del costs["objects"]
    print(key_values(costs))
    if args.trace:
        print("\n".join(trace_lines(result.trace)))
    if args.svg:
        _write_svg(args.svg, render_result(result))
    return 0 if checks.all_pass else 1


def _cmd_suite(args) -> int:
    if args.n < 0:
        print(f"--n must be a non-negative integer, got {args.n}",
              file=sys.stderr)
        return 2
    seed = _seed(args)
    ids = verify.SUITE_IDS if args.id == "all" else (args.id,)
    failures = 0
    for prop_id in ids:
        try:
            report = verify.run_suite(prop_id, args.n, seed)
        except EuclidError as e:
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            return 2
        failures += report.failures
        if args.records:
            for record in report.records():
                print(key_values(record))
        else:
            for line in report.lines():
                print(line)
    return 0 if failures == 0 else 1


def _cmd_compare(args) -> int:
    try:
        base, _ = elements.split_identifier(args.id)
    except EuclidError as e:
        print(e, file=sys.stderr)
        return 2
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    if not strategies:
        print("--strategies needs at least one strategy name", file=sys.stderr)
        return 2
    known = elements.STRATEGIES.get(base, ())
    for s in strategies:
        if s not in known:
            print(f"{base} has no strategy {s!r}", file=sys.stderr)
            return 2
    kwargs = _instance(args, base)
    report = verify.compare(base, strategies, kwargs)
    if args.records:
        for record in report.records():
            print(key_values(record))
    else:
        for line in report.lines():
            print(line)
    ok = all(oc.passed for oc in report.outcomes.values())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
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
    p_prop.add_argument("--side", choices=("upper", "lower"))
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
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
