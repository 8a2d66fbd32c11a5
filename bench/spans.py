"""Outside-in span recorder for the traced run.

Nothing under ``src/`` is edited.  For the length of a traced phase each
measured function is replaced by a wrapper that opens a span around the
original.  Modules bind names with ``from ... import``, so a function is
rebound in every ``euclid`` module namespace and every module-level dict
that holds it (``elements.CONSTRUCTIONS`` is how ``verify`` and ``dsl``
reach the constructions); ``Constructible`` operators and the public
``Tracer`` primitives are wrapped on their classes.  ``uninstall`` puts
every original back.

A span has a name, a start, an end, a parent span and the id of the
benchmark operation it ran under.  Spans are appended to flat arrays in
memory and written out by ``write_spans`` when the run ends.  Calls are
single-threaded and properly nested, so a span's self time is its
duration minus the summed durations of its direct children, accumulated
per name as each span closes.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

# Constructible operators timed as one number-layer row each.
NUMBER_METHODS = {
    "mul": ("__mul__", "__rmul__"),
    "div": ("__truediv__", "__rtruediv__"),
    "addsub": ("__add__", "__radd__", "__sub__", "__rsub__"),
    "sign": ("sign",),
    "approx": ("approx",),
}
GEOM_FUNCTIONS = {
    "intersect_circles": ("intersect_circles",),
    "intersect_line_circle": ("intersect_line_circle",),
    "intersect_lines": ("intersect_lines",),
    "superpose": ("superpose",),
    "predicates": ("segment_eq", "angle_eq", "angle_lt",
                   "angles_sum_to_two_rights", "angle_sum_eq", "is_right",
                   "parallel", "collinear", "between", "is_parallelogram",
                   "is_simple"),
}
TRACER_METHODS = ("register_input", "join", "join_line", "extend", "circle",
                  "pick", "superpose", "sub", "attach")


class NullProbe:
    """The untraced stand-in: workloads report into it and nothing happens."""

    op_id = -1

    def tower(self) -> None:
        pass

    def step(self, key: str, seconds: float) -> None:
        pass


class Recorder(NullProbe):
    """Spans, per-name self time, counters, tower probes and step timings."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._stack: list[list] = []       # [span index, children's time]
        self.counts: Counter = Counter()
        self.tower_levels: list[int] = []
        self.tower_rational = 0
        self.memo_entries: list[int] = []
        self.steps: dict[str, list[float]] = {}
        self._undo: list[tuple] = []

    # spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return nid

    def enter(self, nid: int) -> None:
        idx = len(self.span_start)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        stack.append([idx, 0.0])
        self.span_start.append(perf_counter())

    def exit(self) -> None:
        end = perf_counter()
        idx, children = self._stack.pop()
        duration = end - self.span_start[idx]
        self.span_end[idx] = end
        nid = self.span_name[idx]
        self.calls[nid] += 1
        self.self_s[nid] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def total(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) recorded under ``name``."""
        nid = self._name_ids.get(name)
        return (0, 0.0) if nid is None else (self.calls[nid], self.self_s[nid])

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.span_start)):
                f.write(f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                        f"{names[self.span_name[i]]}\t{self.span_start[i]!r}\t"
                        f"{self.span_end[i]!r}\n")

    # probes ------------------------------------------------------------

    def tower(self) -> None:
        """Read the current field tower after a public call returns."""
        from euclid.number import current_context

        ctx = current_context()
        rads = ctx.radicands
        self.tower_levels.append(len(rads))
        self.tower_rational += sum(1 for r in rads if r[0] == 0)
        self.memo_entries.append(len(getattr(ctx, "_sqrt_memo", ()))
                                 + len(getattr(ctx, "_inv_memo", ())))

    def step(self, key: str, seconds: float) -> None:
        self.steps.setdefault(key, []).append(seconds)

    # installation ------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, fn, wrapper) -> None:
        """Replace ``fn`` wherever a euclid module or module dict holds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "euclid"
                                   or mod_name.startswith("euclid.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, fn))
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn:
                            value[dkey] = wrapper
                            self._undo.append((dict.__setitem__, value, dkey, fn))

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(orig, name))
        self._undo.append((setattr, cls, attr, orig))

    def install(self) -> None:
        from euclid import cli, dsl, elements, geom, number, render, trace, verify

        for row, attrs in NUMBER_METHODS.items():
            for attr in attrs:
                self._wrap_method(number.Constructible, attr, f"number.{row}")
        self._rebind(number.sqrt_nonneg, self._sqrt_wrapper(number.sqrt_nonneg))
        for row, fns in GEOM_FUNCTIONS.items():
            for fn_name in fns:
                fn = getattr(geom, fn_name)
                self._rebind(fn, self._wrap(fn, f"geom.{row}"))
        for attr in TRACER_METHODS:
            self._wrap_method(trace.Tracer, attr, "trace.tracer")
        for fn, name in ((trace.trace_lines, "trace.trace_lines"),
                         (trace.describe_object, "trace.describe_object"),
                         (elements.check_theorem, "elements.theorems"),
                         (elements.triangulate, "elements.triangulate"),
                         (verify.generate_instance, "verify.generate_instance"),
                         (verify.run_suite, "verify.run_suite"),
                         (dsl.parse, "dsl.parse"),
                         (dsl.check, "dsl.check"),
                         (dsl.interpret, "dsl.interpret"),
                         (render.render_result, "render.render"),
                         (cli.main, "cli.main")):
            self._rebind(fn, self._wrap(fn, name))
        self._rebind(render.render, self._render_wrapper(render.render))
        for prop_id, fn in list(elements.CONSTRUCTIONS.items()):
            self._rebind(fn, self._construction_wrapper(
                fn, prop_id, elements.STRATEGIES.get(prop_id)))

    def uninstall(self) -> None:
        while self._undo:
            setter, target, key, orig = self._undo.pop()
            setter(target, key, orig)

    def _sqrt_wrapper(self, fn):
        """sqrt_nonneg, with the tower length compared before and after."""
        from euclid.number import current_context

        timed = self._wrap(fn, "number.sqrt")
        counts = self.counts

        def sqrt_nonneg(a):
            before = len(current_context().radicands)
            root = timed(a)
            if len(current_context().radicands) > before:
                counts["sqrt.adjoined"] += 1
            elif not root.is_rational:
                counts["sqrt.in_tower"] += 1
            return root

        return sqrt_nonneg

    def _render_wrapper(self, fn):
        timed = self._wrap(fn, "render.render")
        counts = self.counts

        def render(*args, **kwargs):
            svg = timed(*args, **kwargs)
            counts["render.svg_bytes"] += len(svg)
            return svg

        return render

    def _construction_wrapper(self, fn, prop_id: str, strategies):
        """One span name per strategy, chosen from the call's arguments."""
        if not strategies:
            return self._wrap(fn, f"elements.{prop_id}")
        sig = inspect.signature(fn)
        default = sig.parameters["strategy"].default
        by_strategy = {s: self._wrap(fn, f"elements.{prop_id}.{s}")
                       for s in strategies}

        def construction(*args, **kwargs):
            chosen = sig.bind_partial(*args, **kwargs).arguments.get(
                "strategy", default)
            # an unknown strategy still reaches the engine, which rejects it
            return by_strategy.get(chosen, fn)(*args, **kwargs)

        return construction
