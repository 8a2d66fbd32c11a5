"""Construction traces.

A trace is the ordered record of primitive construction acts: postulate
applications (join, extend, circle), intersection selections, superposition
(rigid-motion placement) and opaque sub-construction references.  Postulate
counters tally the steps of one trace level; the superposition counter and
the radical-depth counter aggregate over nested sub-constructions as well,
since those two are global properties of a construction route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import NoSuchIntersection, VerificationFailure
from .geom import (
    Circle,
    Figure,
    Isometry,
    Line,
    Point,
    Ray,
    Segment,
    apply_isometry,
    circle as geom_circle,
    extend as geom_extend,
    join as geom_join,
    join_segment,
    superpose as geom_superpose,
)


@dataclass(frozen=True)
class Step:
    kind: str                  # join | extend | circle | pick | superpose | sub
    operands: tuple[int, ...]  # ids of earlier objects
    produced: tuple[int, ...]  # ids assigned to the step's outputs
    note: str = ""
    sub: Optional["Trace"] = None


class Trace:
    """Ordered construction steps plus aggregate counters."""

    def __init__(self, label: str = ""):
        self.label = label
        self.steps: list[Step] = []
        self.inputs: list[int] = []

    # counters ---------------------------------------------------------

    def _count(self, kind: str) -> int:
        return sum(1 for s in self.steps if s.kind == kind)

    @property
    def joins(self) -> int:
        return self._count("join")

    @property
    def extends(self) -> int:
        return self._count("extend")

    @property
    def circles(self) -> int:
        return self._count("circle")

    @property
    def subconstructions(self) -> int:
        return self._count("sub")

    @property
    def superposition_count(self) -> int:
        n = 0
        for s in self.steps:
            if s.kind == "superpose":
                n += 1
            elif s.sub is not None:
                n += s.sub.superposition_count
        return n

    def postulate_counts(self) -> tuple[int, int, int]:
        return self.joins, self.extends, self.circles

    @property
    def object_count(self) -> int:
        n = len(self.inputs) + sum(len(s.produced) for s in self.steps)
        return n

    def check_references(self, ambient=()) -> bool:
        """Every referenced object id precedes the ids a step produces.

        A sub-construction runs inside the surrounding scope: its steps
        may reference anything available there, and objects it registers
        or produces become available to the step that contains it.
        """
        seen = set(self.inputs) | set(ambient)
        for s in self.steps:
            if s.sub is not None:
                if not s.sub.check_references(seen):
                    return False
                seen.update(_all_ids(s.sub))
            if any(op not in seen for op in s.operands):
                return False
            seen.update(s.produced)
        return True


def _all_ids(trace: Trace) -> set[int]:
    out = set(trace.inputs)
    for s in trace.steps:
        out.update(s.produced)
        if s.sub is not None:
            out |= _all_ids(s.sub)
    return out


def _object_depth(obj) -> int:
    if isinstance(obj, Point):
        return obj.radical_depth()
    if isinstance(obj, Segment):
        return max(obj.a.radical_depth(), obj.b.radical_depth())
    if isinstance(obj, Line):
        return max(obj.p.radical_depth(), obj.q.radical_depth())
    if isinstance(obj, Ray):
        return max(obj.origin.radical_depth(), obj.through.radical_depth())
    if isinstance(obj, Circle):
        return max(obj.center.radical_depth(), obj.radius_sq.radical_depth())
    if isinstance(obj, Figure):
        return max(v.radical_depth() for v in obj.vertices)
    if isinstance(obj, Isometry):
        return max(x.radical_depth() for x in (obj.c, obj.s, obj.tx, obj.ty))
    return 0


class Tracer:
    """Builds a Trace while performing the primitive operations.

    A tracer owns an object registry shared with nested tracers, so ids are
    unique across one whole construction run.
    """

    def __init__(self, label: str = "", _registry=None, _ids=None, _counter=None):
        self.trace = Trace(label)
        self.registry: dict[int, object] = _registry if _registry is not None else {}
        self._ids: dict[int, int] = _ids if _ids is not None else {}
        self._counter = _counter if _counter is not None else [0]

    # registry ----------------------------------------------------------

    def _new_id(self, obj) -> int:
        self._counter[0] += 1
        oid = self._counter[0]
        self.registry[oid] = obj
        self._ids[id(obj)] = oid
        return oid

    def _id_of(self, obj) -> int:
        oid = self._ids.get(id(obj))
        if oid is not None:
            return oid
        return self.register_input(obj)

    def register_input(self, obj) -> int:
        oid = self._new_id(obj)
        self.trace.inputs.append(oid)
        return oid

    def _record(self, kind: str, operands: Iterable[object], produced: Iterable[object],
                note: str = "", sub: Optional[Trace] = None) -> Step:
        op_ids = tuple(self._id_of(o) for o in operands)
        out_ids = tuple(self._new_id(o) for o in produced)
        step = Step(kind, op_ids, out_ids, note, sub)
        self.trace.steps.append(step)
        return step

    # primitives ----------------------------------------------------------

    def join(self, p: Point, q: Point) -> Segment:
        s = join_segment(p, q)
        self._record("join", (p, q), (s,))
        return s

    def join_line(self, p: Point, q: Point) -> Line:
        l = geom_join(p, q)
        self._record("join", (p, q), (l,), note="line")
        return l

    def extend(self, s: Segment, beyond: str) -> Ray:
        r = geom_extend(s, beyond)
        self._record("extend", (s,), (r,), note=f"beyond {beyond}")
        return r

    def circle(self, center: Point, through: Point) -> Circle:
        c = geom_circle(center, through)
        self._record("circle", (center, through), (c,))
        return c

    def pick(self, candidates: list[Point], selector, note: str = "",
             operands: Iterable[object] = ()) -> Point:
        """Select one intersection point; records the selection."""
        chosen, hint = _select(candidates, selector)
        self._record("pick", operands, (chosen,), note=note or hint)
        return chosen

    def superpose(self, from_seg: Segment, to_seg: Segment, side: str,
                  carry: Iterable[Point] = ()) -> tuple[Isometry, list[Point]]:
        """Record one placement step; ``carry`` points are moved along."""
        m = geom_superpose(from_seg, to_seg, side)
        images = [apply_isometry(m, p) for p in carry]
        self._record("superpose", (from_seg, to_seg), (m, *images), note=side)
        return m, images

    def sub(self, prop_id: str) -> "Tracer":
        child = Tracer(prop_id, _registry=self.registry, _ids=self._ids,
                       _counter=self._counter)
        return child

    def attach(self, child: "Tracer", operands: Iterable[object] = (),
               produced: Iterable[object] = ()) -> None:
        self._record("sub", operands, produced, note=child.trace.label,
                     sub=child.trace)

    def max_radical_depth(self) -> int:
        depth = 0
        for obj in self.registry.values():
            depth = max(depth, _object_depth(obj))
        return depth


def _select(candidates: list[Point], selector) -> tuple[Point, str]:
    if not candidates:
        raise NoSuchIntersection("no intersection point to select")
    if selector is None or selector == "only":
        if len(candidates) != 1:
            raise NoSuchIntersection("expected exactly one intersection")
        return candidates[0], "only"
    if selector == "first":
        return candidates[0], "first"
    if selector == "second":
        if len(candidates) < 2:
            raise NoSuchIntersection("no second intersection")
        return candidates[1], "second"
    if callable(selector):
        chosen = [p for p in candidates if selector(p)]
        if len(chosen) != 1:
            raise NoSuchIntersection(
                f"selector matched {len(chosen)} of {len(candidates)} points"
            )
        return chosen[0], "predicate"
    raise ValueError(f"unknown selector {selector!r}")


# ---------------------------------------------------------------------------
# proposition results


@dataclass
class Check:
    claim: str
    passed: bool
    residual: str = "0"


@dataclass
class PropositionResult:
    """Named constructed objects, the trace, and the exact verifications."""

    prop_id: str
    objects: dict[str, object]
    roles: dict[str, str]          # given | aux | result
    result: object
    tracer: Tracer
    verification: list[Check] = field(default_factory=list)

    @property
    def trace(self) -> Trace:
        return self.tracer.trace

    def max_radical_depth(self) -> int:
        return self.tracer.max_radical_depth()

    def report_lines(self) -> list[str]:
        out = []
        for c in self.verification:
            out.append(f"{c.claim}\t{'PASS' if c.passed else 'FAIL'}\t{c.residual}")
        return out


def describe_object(obj) -> str:
    """Short deterministic description (six-digit decimal coordinates)."""
    if isinstance(obj, Point):
        return f"point({obj.x.approx(6)}, {obj.y.approx(6)})"
    if isinstance(obj, Segment):
        return f"segment[{describe_object(obj.a)} {describe_object(obj.b)}]"
    if isinstance(obj, Line):
        return f"line[{describe_object(obj.p)} {describe_object(obj.q)}]"
    if isinstance(obj, Ray):
        return f"ray[{describe_object(obj.origin)} {describe_object(obj.through)}]"
    if isinstance(obj, Circle):
        return (f"circle[{describe_object(obj.center)} "
                f"r2={obj.radius_sq.approx(6)}]")
    if isinstance(obj, Figure):
        inner = " ".join(describe_object(v) for v in obj.vertices)
        return f"figure[{inner}]"
    if isinstance(obj, Isometry):
        kind = "reflecting" if obj.reflect else "direct"
        return (f"isometry[{kind} c={obj.c.approx(6)} s={obj.s.approx(6)} "
                f"t=({obj.tx.approx(6)}, {obj.ty.approx(6)})]")
    return type(obj).__name__.lower()


def trace_lines(trace: Trace, registry: dict[int, object],
                indent: int = 0) -> list[str]:
    """Deterministic line rendering of a trace, nested subs indented."""
    pad = "  " * indent
    out = []
    if trace.label:
        out.append(f"{pad}[{trace.label}]")
    for n, s in enumerate(trace.steps, start=1):
        ops = ",".join(str(i) for i in s.operands)
        prods = " ".join(
            f"#{i}={describe_object(registry.get(i))}" for i in s.produced)
        note = f" ({s.note})" if s.note else ""
        out.append(f"{pad}{n}. {s.kind}{note} <- [{ops}] {prods}".rstrip())
        if s.sub is not None:
            out.extend(trace_lines(s.sub, registry, indent + 1))
    j, e, c = trace.postulate_counts()
    out.append(f"{pad}counters: joins={j} extends={e} circles={c} "
               f"superpositions={trace.superposition_count}")
    return out


class Verifier:
    """Collects exact checks; raises if any fails."""

    def __init__(self, prop_id: str):
        self.prop_id = prop_id
        self.checks: list[Check] = []

    def zero(self, claim: str, residual) -> None:
        ok = residual.sign() == 0
        self.checks.append(Check(claim, ok, str(residual)))
        if not ok:
            raise VerificationFailure(f"{self.prop_id}: {claim} (residual {residual!r})")

    def true(self, claim: str, value: bool, residual: str = "0") -> None:
        self.checks.append(Check(claim, bool(value), residual))
        if not value:
            raise VerificationFailure(f"{self.prop_id}: {claim}")
