"""Construction traces.

A trace is the ordered record of primitive construction acts: postulate
applications (join, extend, circle), intersection selections, superposition
(rigid-motion placement) and opaque sub-construction references.  One
``Tracer`` records each construction level, and a sub-construction's step
holds the child's ``Tracer``.  A construction opens its own level with
``Tracer.level``, so a nested level is labelled by the construction that
ran.  Postulate counters tally the steps of one level; the superposition
counter and the radical-depth counter aggregate over nested
sub-constructions as well, since those two are global properties of a
construction route; the radical depth is ``number.deepest`` over the
coordinates of every registered object.  A ``PropositionResult`` names
each object once, with its role, and ``PropositionResult.costs`` is a
route's one cost ledger, which reports, records and the ``prop`` line all
print.  A ``Step``, like a geometry value, is a slotted dataclass that is
immutable by contract: it is written once, when it is recorded, and never
assigned again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import NoSuchIntersection
from .geom import (
    Circle,
    Figure,
    Isometry,
    Line,
    Point,
    Ray,
    Segment,
    circle as geom_circle,
    coords,
    extend as geom_extend,
    points,
    superpose as geom_superpose,
)
from .number import DIGITS, deepest, fixed_text


@dataclass(slots=True, unsafe_hash=True)
class Step:
    kind: str                  # join | extend | circle | pick | superpose | sub
    operands: tuple[int, ...]  # ids of earlier objects
    produced: tuple[int, ...]  # ids assigned to the step's outputs
    note: str = ""
    sub: Optional["Tracer"] = None


def _all_ids(trace: "Tracer") -> set[int]:
    out = set(trace.inputs)
    for s in trace.steps:
        out.update(s.produced)
        if s.sub is not None:
            out |= _all_ids(s.sub)
    return out


class Tracer:
    """One level of a construction run: its label, input ids and ordered
    steps, recorded while performing the primitive operations.

    A tracer shares its object registry with nested tracers, so ids are
    unique across one whole construction run.  The registry only grows, so
    the next id is one past its size.
    """

    def __init__(self, label: str = "", _registry=None, _ids=None):
        self.label = label
        self.steps: list[Step] = []
        self.inputs: list[int] = []
        self.registry: dict[int, object] = _registry if _registry is not None else {}
        self._ids: dict[int, int] = _ids if _ids is not None else {}

    # counters ---------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Postulate steps of this level and superpositions of every level,
        in report order."""
        counts = {"joins": 0, "extends": 0, "circles": 0}
        for s in self.steps:
            key = s.kind + "s"
            if key in counts:
                counts[key] += 1
        counts["superpositions"] = self.superposition_count
        return counts

    @property
    def superposition_count(self) -> int:
        n = 0
        for s in self.steps:
            if s.kind == "superpose":
                n += 1
            elif s.sub is not None:
                n += s.sub.superposition_count
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

    # registry ----------------------------------------------------------

    def _new_id(self, obj) -> int:
        oid = len(self.registry) + 1
        self.registry[oid] = obj
        self._ids[id(obj)] = oid
        return oid

    def _id_of(self, obj) -> int:
        oid = self._ids.get(id(obj))
        if oid is None:
            self.register_input(obj)
            oid = self._ids[id(obj)]
        return oid

    def register_input(self, *objs) -> None:
        """Register each given object, in order, as an input of this level."""
        for obj in objs:
            self.inputs.append(self._new_id(obj))

    def _record(self, kind: str, operands: Iterable[object], produced: Iterable[object],
                note: str = "", sub: Optional["Tracer"] = None) -> Step:
        op_ids = tuple(self._id_of(o) for o in operands)
        out_ids = tuple(self._new_id(o) for o in produced)
        step = Step(kind, op_ids, out_ids, note, sub)
        self.steps.append(step)
        return step

    # primitives ----------------------------------------------------------

    def join(self, p: Point, q: Point) -> Segment:
        s = Segment(p, q)
        self._record("join", (p, q), (s,))
        return s

    def join_line(self, p: Point, q: Point) -> Line:
        l = Line(p, q)
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

    def pick(self, candidates: list[Point], selector="only", *, note: str,
             operands: Iterable[object] = ()) -> Point:
        """Select one intersection point; records the selection.  The note
        names the point in the step and in the error when none fits."""
        chosen = _select(candidates, selector, note)
        self._record("pick", operands, (chosen,), note=note)
        return chosen

    def superpose(self, from_seg: Segment, to_seg: Segment, side: str,
                  carry: Iterable[Point] = ()) -> tuple[Isometry, list[Point]]:
        """Record one placement step; ``carry`` points are moved along."""
        m = geom_superpose(from_seg, to_seg, side)
        images = [m.apply(p) for p in carry]
        self._record("superpose", (from_seg, to_seg), (m, *images), note=side)
        return m, images

    @staticmethod
    def level(parent: Optional["Tracer"], prop_id: str,
              strategy: Optional[str] = None) -> "Tracer":
        """The level a construction opens: under ``parent``, labelled by
        the bare id; at the top, labelled ``prop_id``, then ``.strategy``
        for any strategy other than "euclid"."""
        if parent is not None:
            return parent.sub(prop_id)
        return Tracer(prop_id if strategy in (None, "euclid")
                      else f"{prop_id}.{strategy}")

    def sub(self, prop_id: str) -> "Tracer":
        return Tracer(prop_id, _registry=self.registry, _ids=self._ids)

    def attach(self, nested: "PropositionResult",
               operands: Iterable[object] = (),
               produced: Iterable[object] = ()) -> None:
        """Record a nested construction run, opened under this level, as
        one step."""
        self._record("sub", operands, produced, note=nested.trace.label,
                     sub=nested.trace)

    def cite(self, note: str, operands: Iterable[object], product) -> None:
        """Record a cited construction that is not run as one opaque step:
        ``note`` names it, and ``product`` is what it gives."""
        self._record("sub", operands, (product,), note=note)


def _select(candidates: list[Point], selector, note: str) -> Point:
    if not candidates:
        raise NoSuchIntersection(f"{note}: no intersection point to select")
    if selector == "only":
        if len(candidates) != 1:
            raise NoSuchIntersection(f"{note}: expected exactly one intersection")
        return candidates[0]
    if selector == "first":
        return candidates[0]
    if selector == "second":
        if len(candidates) < 2:
            raise NoSuchIntersection(f"{note}: no second intersection")
        return candidates[1]
    if callable(selector):
        chosen = [p for p in candidates if selector(p)]
        if len(chosen) != 1:
            raise NoSuchIntersection(
                f"{note}: selector matched {len(chosen)} of "
                f"{len(candidates)} points")
        return chosen[0]
    raise ValueError(f"unknown selector {selector!r}")


# ---------------------------------------------------------------------------
# proposition results


@dataclass
class PropositionResult:
    """One run: each named object in drawing order with its role (given,
    aux or result), the principal result and the top-level trace.  The
    run's name is ``Checks.prop_id``, set when it is certified."""

    named: dict[str, tuple[str, object]]
    result: object
    trace: Tracer

    @property
    def objects(self) -> dict[str, object]:
        return {name: obj for name, (_, obj) in self.named.items()}

    def costs(self) -> dict[str, int]:
        """The route's cost ledger, in report order: the trace counters,
        the deepest radical among all registered objects, and the number
        of objects at the top level.  One run lives in one field context,
        as ``deepest`` requires."""
        trace = self.trace
        return {
            **trace.counters(),
            "max_radical_depth": deepest(c for obj in trace.registry.values()
                                         for c in coords(obj)),
            "objects": len(trace.inputs) + sum(len(s.produced)
                                               for s in trace.steps),
        }


@dataclass
class Checks:
    """Every exact check on one result, theorem instance or script, in
    order, as (claim, passed, residual); a failed check raises nothing.  A
    boolean claim has no residual: it shows ``0`` when it holds and ``-``
    when it fails; an irrational residual shows its value to six digits
    after it.  ``prop_id`` names the run: the id, then ``.strategy`` for a
    route of a construction with strategies, or ``script``."""

    prop_id: str
    claims: list[tuple[str, bool, str]] = field(default_factory=list)

    def true(self, claim: str, ok: bool) -> None:
        self.claims.append((claim, bool(ok), "0" if ok else "-"))

    def zero(self, claim: str, residual) -> None:
        text = str(residual)
        if not residual.is_rational:
            text += f" (≈ {residual.approx(DIGITS)})"
        self.claims.append((claim, residual.sign() == 0, text))

    @property
    def failed(self) -> list[str]:
        """The texts of the failed claims, in order."""
        return [c for c, ok, _ in self.claims if not ok]

    @property
    def all_pass(self) -> bool:
        return not self.failed

    def lines(self, prefix: str = "", failed_only: bool = False) -> list[str]:
        """``prefix + claim<TAB>PASS|FAIL<TAB>residual`` for each claim."""
        return [f"{prefix}{c}\t{'PASS' if ok else 'FAIL'}\t{r}"
                for c, ok, r in self.claims if not (ok and failed_only)]


def describe_object(obj) -> str:
    """Short deterministic description (DIGITS-place decimal coordinates)."""
    if isinstance(obj, Point):
        x, y = obj.rounded
        return f"point({fixed_text(x, DIGITS)}, {fixed_text(y, DIGITS)})"
    if isinstance(obj, Circle):
        return (f"circle[{describe_object(obj.center)} "
                f"r2={obj.radius_sq.approx(DIGITS)}]")
    if isinstance(obj, Isometry):
        kind = "reflecting" if obj.reflect else "direct"
        return (f"isometry[{kind} c={obj.c.approx(DIGITS)} s={obj.s.approx(DIGITS)} "
                f"t=({obj.tx.approx(DIGITS)}, {obj.ty.approx(DIGITS)})]")
    name = type(obj).__name__.lower()
    if isinstance(obj, (Segment, Line, Ray, Figure)):
        return f"{name}[{' '.join(describe_object(p) for p in points(obj))}]"
    return name


def trace_lines(trace: Tracer, indent: int = 0) -> list[str]:
    """Deterministic line rendering of a trace, nested subs indented."""
    pad = "  " * indent
    out = []
    if trace.label:
        out.append(f"{pad}[{trace.label}]")
    for n, s in enumerate(trace.steps, start=1):
        ops = ",".join(str(i) for i in s.operands)
        prods = " ".join(
            f"#{i}={describe_object(trace.registry.get(i))}" for i in s.produced)
        note = f" ({s.note})" if s.note else ""
        out.append(f"{pad}{n}. {s.kind}{note} <- [{ops}] {prods}".rstrip())
        if s.sub is not None:
            out.extend(trace_lines(s.sub, indent + 1))
    out.append(f"{pad}counters: {key_values(trace.counters())}")
    return out


def key_values(fields: dict) -> str:
    """``key=value`` pairs in order, space separated."""
    return " ".join(f"{k}={v}" for k, v in fields.items())
