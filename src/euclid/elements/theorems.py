"""Exact instance validators for the Book I theorems.

Each validator checks that a figure bundle satisfies a theorem's
hypothesis (raising HypothesisNotSatisfied otherwise) and then verifies
the conclusion exactly on that instance.  These are instance validators,
not proof checkers.

The five area theorems share one rule, :func:`_in_same_parallels`: two
figures on the same base (I.35, I.37, I.41) or on equal bases in one line
(I.36, I.38), with every other vertex on one parallel to the base, have
contents in a fixed ratio, 1 or I.41's 2.

I.26 and I.28 state their hypotheses as Euclid's disjunctions: any one
side equal to its correspondent (I.26); the exterior angle equal to the
interior and opposite one, or the co-interior angles equal to two right
angles (I.28).  I.27, I.28 and I.29 find the meets and the arm points
through one :func:`_transversal`, and each builds only the angles it tests.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from ..errors import HypothesisNotSatisfied, UnknownProposition
from ..geom import (
    Angle,
    Figure,
    Line,
    Point,
    Segment,
    angle_eq,
    angle_lt,
    angle_sum_eq,
    angles_sum_to_two_rights,
    between,
    collinear,
    content,
    intersect_lines,
    is_parallelogram,
    orientation,
    parallel,
    point_reflect,
    segment_eq,
    triangle_inequality,
)
from ..trace import Checks
from . import instances as gen


def _hyp(ok: bool, message: str) -> None:
    if not ok:
        raise HypothesisNotSatisfied(message)


def _tri(f) -> tuple[Point, Point, Point]:
    _hyp(isinstance(f, Figure) and len(f) == 3, "expected a triangle")
    a, b, c = f.vertices
    _hyp(not collinear(a, b, c), "degenerate triangle")
    return a, b, c


def _pgram(f) -> tuple[Point, Point, Point, Point]:
    _hyp(isinstance(f, Figure) and is_parallelogram(f),
         "expected a parallelogram")
    return f.vertices


def _check_i4(r: Checks, t1, t2) -> None:
    (a, b, c), (d, e, f) = _tri(t1), _tri(t2)
    _hyp(segment_eq(Segment(a, b), Segment(d, e)), "first sides unequal")
    _hyp(segment_eq(Segment(a, c), Segment(d, f)), "second sides unequal")
    _hyp(angle_eq(Angle(a, b, c), Angle(d, e, f)), "contained angles unequal")
    r.zero("base equals base", b.dist_sq(c) - e.dist_sq(f))
    r.zero("triangle content equals triangle content",
           content(t1) - content(t2))
    r.true("remaining angles equal respectively",
            angle_eq(Angle(b, a, c), Angle(e, d, f))
            and angle_eq(Angle(c, a, b), Angle(f, d, e)))


def _check_i7(r: Checks, base, c, d) -> None:
    _hyp(isinstance(base, Segment), "expected a base segment")
    a, b = base.a, base.b
    sc = orientation(a, b, c)
    sd = orientation(a, b, d)
    _hyp(sc != 0 and sd == sc, "the points must lie on one same side")
    _hyp(segment_eq(Segment(a, c), Segment(a, d)), "first pair unequal")
    _hyp(segment_eq(Segment(b, c), Segment(b, d)), "second pair unequal")
    r.true("the two meeting points coincide", c == d)


def _check_i8(r: Checks, t1, t2) -> None:
    (a, b, c), (d, e, f) = _tri(t1), _tri(t2)
    _hyp(segment_eq(Segment(a, b), Segment(d, e)), "first sides unequal")
    _hyp(segment_eq(Segment(a, c), Segment(d, f)), "second sides unequal")
    _hyp(segment_eq(Segment(b, c), Segment(e, f)), "bases unequal")
    r.true("the contained angles are equal",
            angle_eq(Angle(a, b, c), Angle(d, e, f)))
    r.true("the other angles are equal as well",
            angle_eq(Angle(b, a, c), Angle(e, d, f))
            and angle_eq(Angle(c, a, b), Angle(f, d, e)))


def _check_i13(r: Checks, a, b, c, d) -> None:
    _hyp(between(c, b, d),
         "the foot must lie strictly between the line points")
    _hyp(not collinear(a, b, c), "the standing line must leave the base line")
    r.true("the adjacent angles are two right angles or equal to two",
            angles_sum_to_two_rights(Angle(b, c, a), Angle(b, a, d)))


def _check_i14(r: Checks, a, b, c, d) -> None:
    _hyp(not collinear(a, b, c) and not collinear(a, b, d),
         "the side lines must leave BA")
    sc = orientation(b, a, c)
    sd = orientation(b, a, d)
    _hyp(sc * sd < 0, "the two lines must lie on opposite sides of BA")
    _hyp(angles_sum_to_two_rights(Angle(b, a, c), Angle(b, a, d)),
         "adjacent angles must equal two right angles")
    r.true("the two lines are in a straight line", collinear(c, b, d))


def _check_i15(r: Checks, a, b, c, d) -> None:
    _hyp(a != b and c != d, "each line needs two distinct points")
    meets = intersect_lines(Line(a, b), Line(c, d))
    _hyp(meets != [], "the lines do not cut one another")
    e = meets[0]
    _hyp(between(a, e, b) and between(c, e, d),
         "the intersection must fall inside both segments")
    r.true("vertical angles are equal (first pair)",
            angle_eq(Angle(e, c, a), Angle(e, d, b)))
    r.true("vertical angles are equal (second pair)",
            angle_eq(Angle(e, c, b), Angle(e, d, a)))


def _check_i16(r: Checks, t) -> None:
    a, b, c = _tri(t)
    d = point_reflect(b, c)  # BC produced to D
    ext = Angle(c, a, d)
    r.true("exterior angle exceeds the first interior and opposite angle",
            angle_lt(Angle(b, a, c), ext))
    r.true("exterior angle exceeds the second interior and opposite angle",
            angle_lt(Angle(a, b, c), ext))


def _check_i20(r: Checks, t) -> None:
    a, b, c = _tri(t)
    r.true("two sides exceed the third (all pairings)",
            triangle_inequality(a.dist_sq(b), b.dist_sq(c), c.dist_sq(a)))


def _check_i26(r: Checks, t1, t2) -> None:
    (a, b, c), (d, e, f) = _tri(t1), _tri(t2)
    _hyp(angle_eq(Angle(b, a, c), Angle(e, d, f)), "first angles unequal")
    _hyp(angle_eq(Angle(c, a, b), Angle(f, d, e)), "second angles unequal")
    # the side adjoining the equal angles (bc), or one subtending one of
    # them (ab or ac)
    _hyp(segment_eq(Segment(b, c), Segment(e, f))
         or segment_eq(Segment(a, b), Segment(d, e))
         or segment_eq(Segment(a, c), Segment(d, f)),
         "one side must equal its corresponding side")
    r.true("the remaining sides are equal",
            segment_eq(Segment(a, b), Segment(d, e))
            and segment_eq(Segment(a, c), Segment(d, f))
            and segment_eq(Segment(b, c), Segment(e, f)))
    r.true("the remaining angle is equal",
            angle_eq(Angle(a, b, c), Angle(d, e, f)))


def _transversal(l1: Line, l2: Line, t: Line):
    """Where the transversal ``t`` meets ``l1`` (g) and ``l2`` (h), and a
    point of each line on opposite sides of it: a on l1, d on l2."""
    meets = intersect_lines(t, l1) + intersect_lines(t, l2)
    _hyp(len(meets) == 2, "the transversal must meet both lines")
    g, h = meets
    _hyp(g != h, "the transversal meets the lines at one point")
    # each line meets the transversal only at g or h, so any other point
    # of the line is off it, and that point's reflection through h lies
    # on the other side
    a = l1.p if l1.p != g else l1.q
    d = l2.p if l2.p != h else l2.q
    if orientation(t.p, t.q, d) == orientation(t.p, t.q, a):
        d = point_reflect(d, h)
    return g, h, a, d


def _check_i27(r: Checks, l1, l2, transversal) -> None:
    g, h, a, d = _transversal(l1, l2, transversal)
    _hyp(angle_eq(Angle(g, a, h), Angle(h, d, g)),
         "alternate angles must be equal")
    r.true("the lines are parallel", parallel(l1, l2))


def _check_i28(r: Checks, l1, l2, transversal) -> None:
    g, h, a, d = _transversal(l1, l2, transversal)
    b = point_reflect(a, g)   # same side as d
    e = point_reflect(h, g)   # on the transversal beyond g
    _hyp(angle_eq(Angle(g, e, b), Angle(h, g, d))
         or angles_sum_to_two_rights(Angle(g, b, h), Angle(h, g, d)),
         "the exterior angle must equal the interior and opposite one, or "
         "the interior angles on the same side must equal two right angles")
    r.true("the lines are parallel", parallel(l1, l2))


def _check_i29(r: Checks, l1, l2, transversal) -> None:
    g, h, a, d = _transversal(l1, l2, transversal)
    _hyp(parallel(l1, l2), "the lines must be parallel")
    b = point_reflect(a, g)
    e = point_reflect(h, g)
    r.true("alternate angles are equal",
            angle_eq(Angle(g, a, h), Angle(h, d, g)))
    r.true("exterior equals interior and opposite on the same side",
            angle_eq(Angle(g, e, b), Angle(h, g, d)))
    r.true("interior angles on the same side equal two right angles",
            angles_sum_to_two_rights(Angle(g, b, h), Angle(h, g, d)))


def _check_i30(r: Checks, l1, l2, l3) -> None:
    _hyp(parallel(l1, l3), "the first line must parallel the third")
    _hyp(parallel(l2, l3), "the second line must parallel the third")
    r.true("lines parallel to the same line are parallel", parallel(l1, l2))


def _check_i32(r: Checks, t) -> None:
    a, b, c = _tri(t)
    d = point_reflect(b, c)
    at_a, at_b = Angle(b, a, c), Angle(a, b, c)
    r.true("the exterior angle equals the two interior and opposite",
            angle_sum_eq(at_a, at_b, Angle(c, a, d)))
    r.true("the three interior angles equal two right angles",
            angles_sum_to_two_rights(at_a, at_b, Angle(c, a, b)))


def _check_i33(r: Checks, ab, cd) -> None:
    _hyp(isinstance(ab, Segment) and isinstance(cd, Segment),
         "expected two segments")
    _hyp(segment_eq(ab, cd), "the segments must be equal")
    _hyp(parallel(ab.line(), cd.line()), "the segments must be parallel")
    _hyp(ab.direction().dot(cd.direction()).sign() > 0,
         "the segments must point in the same directions")
    _hyp(not ab.line().contains(cd.a), "the segments must not be collinear")
    ac = Segment(ab.a, cd.a)
    bd = Segment(ab.b, cd.b)
    r.true("the joining lines are equal", segment_eq(ac, bd))
    r.true("the joining lines are parallel", parallel(ac.line(), bd.line()))


def _check_i34(r: Checks, pg) -> None:
    a, b, c, d = _pgram(pg)
    r.true("opposite sides are equal",
            segment_eq(Segment(a, b), Segment(d, c))
            and segment_eq(Segment(b, c), Segment(a, d)))
    r.true("opposite angles are equal",
            angle_eq(Angle(a, d, b), Angle(c, b, d))
            and angle_eq(Angle(b, a, c), Angle(d, a, c)))
    r.zero("the diameter bisects the area",
           content(Figure([a, b, c])) - content(Figure([a, c, d])))


def _in_same_parallels(r: Checks, claim: str, f1: Figure, f2: Figure,
                       equal_bases: bool = False, ratio: int = 1) -> None:
    """Book I's area rule.  The first two vertices of each figure are its
    base.  The figures must share their base (or, with ``equal_bases``,
    have equal bases on one line), and every other vertex must lie on one
    parallel to the base.  Then ``f1`` is ``ratio`` times ``f2`` in
    content."""
    a1, b1, *tops1 = f1.vertices
    a2, b2, *tops2 = f2.vertices
    base_line = Line(a1, b1)
    if equal_bases:
        _hyp(base_line.contains(a2) and base_line.contains(b2),
             "the bases must lie on one line")
        _hyp(segment_eq(Segment(a1, b1), Segment(a2, b2)),
             "the bases must be equal")
    else:
        _hyp({a1, b1} == {a2, b2}, "the figures must share their base")
    top_line = Line(tops1[0], tops1[0] + base_line.direction())
    _hyp(all(top_line.contains(p) for p in tops1 + tops2),
         "the figures must lie in the same parallels")
    r.zero(claim, content(f1) - content(f2) * ratio)


def _check_i35(r: Checks, pg1, pg2) -> None:
    _pgram(pg1), _pgram(pg2)
    _in_same_parallels(r, "the parallelograms are equal in content", pg1, pg2)


def _check_i36(r: Checks, pg1, pg2) -> None:
    _pgram(pg1), _pgram(pg2)
    _in_same_parallels(r, "the parallelograms are equal in content", pg1, pg2,
                       equal_bases=True)


def _check_i37(r: Checks, t1, t2) -> None:
    _tri(t1), _tri(t2)
    _in_same_parallels(r, "the triangles are equal in content", t1, t2)


def _check_i38(r: Checks, t1, t2) -> None:
    _tri(t1), _tri(t2)
    _in_same_parallels(r, "the triangles are equal in content", t1, t2,
                       equal_bases=True)


def _check_i41(r: Checks, pg, t) -> None:
    _pgram(pg), _tri(t)
    _in_same_parallels(r, "the parallelogram is double of the triangle",
                       pg, t, ratio=2)


@dataclass(frozen=True)
class Theorem:
    """One theorem: its random hypothesis-conforming instance generator and
    its validator, ``check(checks, **bundle)``, whose parameters after the
    checks name the givens."""

    generate: Callable
    check: Callable

    @cached_property
    def signature(self) -> inspect.Signature:
        """The check's signature, read once."""
        return inspect.signature(self.check)


THEOREMS = {
    "I.4": Theorem(gen.t_pair, _check_i4),
    "I.7": Theorem(gen.i7, _check_i7),
    "I.8": Theorem(gen.t_pair, _check_i8),
    "I.13": Theorem(gen.i13, _check_i13),
    "I.14": Theorem(gen.i13, _check_i14),
    "I.15": Theorem(gen.i15, _check_i15),
    "I.16": Theorem(gen.triangle_only, _check_i16),
    "I.20": Theorem(gen.triangle_only, _check_i20),
    "I.26": Theorem(gen.t_pair, _check_i26),
    "I.27": Theorem(gen.transversal_bundle, _check_i27),
    "I.28": Theorem(gen.transversal_bundle, _check_i28),
    "I.29": Theorem(gen.transversal_bundle, _check_i29),
    "I.30": Theorem(gen.i30, _check_i30),
    "I.32": Theorem(gen.triangle_only, _check_i32),
    "I.33": Theorem(gen.i33, _check_i33),
    "I.34": Theorem(gen.i34, _check_i34),
    "I.35": Theorem(gen.i35, _check_i35),
    "I.36": Theorem(gen.i36, _check_i36),
    "I.37": Theorem(gen.i37, _check_i37),
    "I.38": Theorem(gen.i38, _check_i38),
    "I.41": Theorem(gen.i41, _check_i41),
}

THEOREM_IDS = tuple(THEOREMS)


def check_theorem(theorem_id: str, bundle: dict) -> Checks:
    """Validate one theorem instance exactly.  The bundle binds to the
    givens of the theorem's check by name; a bundle that lacks a given or
    names one the check does not take fails the hypothesis."""
    if theorem_id not in THEOREMS:
        raise UnknownProposition(f"no validator for {theorem_id!r}")
    theorem = THEOREMS[theorem_id]
    checks = Checks(theorem_id)
    try:
        theorem.signature.bind(checks, **bundle)
    except TypeError as e:
        raise HypothesisNotSatisfied(f"{theorem_id} bundle: {e}")
    theorem.check(checks, **bundle)
    return checks
