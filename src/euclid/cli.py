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
from .geom import Angle, Figure, Line, Point, Ray, Segment
from .number import new_context
from .render import render, render_result
from .trace import trace_lines

_TYPE_MAP = {
    "point": Point, "segment": Segment, "line": Line, "ray": Ray,
    "angle": Angle, "figure": Figure,
}


def _seed(args) -> int:
    env = os.environ.get("EUCLID_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise SystemExit(2)
    return args.seed


def _load_instance(path: str, base: str):
    """Bind the objects of a declaration script to a proposition's
    parameters, in declaration order."""
    try:
        text = open(path, encoding="utf-8").read()
    except OSError as e:
        print(e, file=sys.stderr)
        raise SystemExit(2)
    script, diags = dsl.parse(text)
    diags += dsl.check(script)
    if any(d.severity == "error" for d in diags):
        for d in diags:
            print(d, file=sys.stderr)
        raise SystemExit(2)
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
    # so helper declarations (points feeding a segment, say) are skipped
    kwargs = {}
    used = [False] * len(declared)
    for pname, ptype in elements.PROPOSITIONS[base].params:
        want = Segment if ptype == "number" else _TYPE_MAP[ptype]
        for i, obj in enumerate(declared):
            if not used[i] and type(obj) is want:
                used[i] = True
                kwargs[pname] = obj.length() if ptype == "number" else obj
                break
        else:
            print(f"{path}: no {ptype} found for parameter {pname!r} "
                  f"of {base}", file=sys.stderr)
            raise SystemExit(2)
    return kwargs


def _cmd_run(args) -> int:
    try:
        text = open(args.script, encoding="utf-8").read()
    except OSError as e:
        print(e, file=sys.stderr)
        return 2
    script, diags = dsl.parse(text)
    diags += dsl.check(script)
    if any(d.severity == "error" for d in diags):
        for d in diags:
            print(d, file=sys.stderr)
        return 2
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
        drawable = {k: v for k, v in inter.env.items()}
        with open(args.svg, "wb") as f:
            f.write(render(drawable))
        print(f"wrote {args.svg}")
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
    new_context()
    if args.input:
        kwargs = _load_instance(args.input, base)
    else:
        kwargs = verify.generate_instance(base, random.Random(_seed(args)))
    if args.side:
        kwargs["side"] = args.side
    try:
        result = elements.CONSTRUCTIONS[base](
            **elements.strategy_kwargs(strategy, kwargs))
    except EuclidError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(f"# {result.prop_id}")
    for line in result.report_lines():
        print(line)
    if base == "I.45":
        print(f"triangles: {len(result.objects['triangles'])}")
    j, e, c = result.trace.postulate_counts()
    print(f"joins={j} extends={e} circles={c} "
          f"superpositions={result.trace.superposition_count} "
          f"max_radical_depth={result.max_radical_depth()}")
    if args.trace:
        print("\n".join(trace_lines(result.trace, result.tracer.registry)))
    if args.svg:
        with open(args.svg, "wb") as f:
            f.write(render_result(result))
        print(f"wrote {args.svg}")
    ok = all(chk.passed for chk in result.verification)
    return 0 if ok else 1


def _cmd_suite(args) -> int:
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
                print(" ".join(f"{k}={v}" for k, v in record.items()))
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
    known = elements.STRATEGIES.get(base, ())
    for s in strategies:
        if s not in known:
            print(f"{base} has no strategy {s!r}", file=sys.stderr)
            return 2
    new_context()
    if args.input:
        kwargs = _load_instance(args.input, base)
    else:
        kwargs = verify.generate_instance(base, random.Random(_seed(args)))
    report = verify.compare(base, strategies, kwargs)
    if args.records:
        for record in report.records():
            print(" ".join(f"{k}={v}" for k, v in record.items()))
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
