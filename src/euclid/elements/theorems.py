"""Exact instance validators for the Book I theorems.

Each validator checks that a figure bundle satisfies a theorem's
hypothesis (raising HypothesisNotSatisfied otherwise) and then verifies
the conclusion exactly on that instance.  These are instance validators,
not proof checkers.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from ..errors import HypothesisNotSatisfied, UnknownProposition
from ..geom import (
    Angle,
    Figure,
    Line,
    Point,
    Segment,
    angle_cos,
    angle_eq,
    angle_lt,
    angle_sin,
    angle_sum_eq,
    angles_sum_to_two_rights,
    between,
    collinear,
    content,
    intersect_lines,
    is_parallelogram,
    parallel,
    point_reflect,
    segment_eq,
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


def _corresponding(t1: Figure, t2: Figure):
    a, b, c = _tri(t1)
    d, e, f = _tri(t2)
    return a, b, c, d, e, f


def _check_i4(r: Checks, t1, t2) -> None:
    a, b, c, d, e, f = _corresponding(t1, t2)
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
    sc = Line(a, b).side_of(c)
    sd = Line(a, b).side_of(d)
    _hyp(sc != 0 and sd == sc, "the points must lie on one same side")
    _hyp(segment_eq(Segment(a, c), Segment(a, d)), "first pair unequal")
    _hyp(segment_eq(Segment(b, c), Segment(b, d)), "second pair unequal")
    r.true("the two meeting points coincide", c == d)


def _check_i8(r: Checks, t1, t2) -> None:
    a, b, c, d, e, f = _corresponding(t1, t2)
    _hyp(segment_eq(Segment(a, b), Segment(d, e)), "first sides unequal")
    _hyp(segment_eq(Segment(a, c), Segment(d, f)), "second sides unequal")
    _hyp(segment_eq(Segment(b, c), Segment(e, f)), "bases unequal")
    r.true("the contained angles are equal",
            angle_eq(Angle(a, b, c), Angle(d, e, f)))
    r.true("the other angles are equal as well",
            angle_eq(Angle(b, a, c), Angle(e, d, f))
            and angle_eq(Angle(c, a, b), Angle(f, d, e)))


def _check_i13(r: Checks, a, b, c, d) -> None:
    _hyp(collinear(c, b, d) and between(c, b, d),
         "the foot must lie strictly between the line points")
    _hyp(not collinear(a, b, c), "the standing line must leave the base line")
    r.true("the adjacent angles are two right angles or equal to two",
            angles_sum_to_two_rights(Angle(b, c, a), Angle(b, a, d)))


def _check_i14(r: Checks, a, b, c, d) -> None:
    _hyp(not collinear(a, b, c) and not collinear(a, b, d),
         "the side lines must leave BA")
    sc = Line(b, a).side_of(c)
    sd = Line(b, a).side_of(d)
    _hyp(sc * sd < 0, "the two lines must lie on opposite sides of BA")
    _hyp(angles_sum_to_two_rights(Angle(b, a, c), Angle(b, a, d)),
         "adjacent angles must equal two right angles")
    r.true("the two lines are in a straight line", collinear(c, b, d))


def _check_i15(r: Checks, a, b, c, d) -> None:
    e = intersect_lines(Line(a, b), Line(c, d))
    _hyp(isinstance(e, Point), "the lines do not cut one another")
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
    ab, bc, ca = a.dist(b), b.dist(c), c.dist(a)
    r.true("two sides exceed the third (all pairings)",
            (ab + bc - ca).sign() > 0 and (bc + ca - ab).sign() > 0
            and (ca + ab - bc).sign() > 0)


def _check_i26(r: Checks, t1, t2, case="adjoining") -> None:
    a, b, c, d, e, f = _corresponding(t1, t2)
    _hyp(angle_eq(Angle(b, a, c), Angle(e, d, f)), "first angles unequal")
    _hyp(angle_eq(Angle(c, a, b), Angle(f, d, e)), "second angles unequal")
    if case == "adjoining":
        _hyp(segment_eq(Segment(b, c), Segment(e, f)),
             "the sides adjoining the equal angles must be equal")
    elif case == "subtending":
        _hyp(segment_eq(Segment(a, b), Segment(d, e)),
             "the subtending sides must be equal")
    else:
        raise HypothesisNotSatisfied(f"unknown case {case!r}")
    r.true("the remaining sides are equal",
            segment_eq(Segment(a, b), Segment(d, e))
            and segment_eq(Segment(a, c), Segment(d, f))
            and segment_eq(Segment(b, c), Segment(e, f)))
    r.true("the remaining angle is equal",
            angle_eq(Angle(a, b, c), Angle(d, e, f)))


def _transversal_points(l1: Line, l2: Line, t: Line):
    g = intersect_lines(t, l1)
    h = intersect_lines(t, l2)
    _hyp(isinstance(g, Point) and isinstance(h, Point),
         "the transversal must meet both lines")
    _hyp(g != h, "the transversal meets the lines at one point")
    return g, h


def _alternate_pair(l1: Line, l2: Line, t: Line, g: Point, h: Point):
    # pick arm points of l1 and l2 on opposite sides of the transversal
    a = l1.p if l1.p != g else l1.q
    sa = t.side_of(a)
    if sa == 0:
        a = l1.q
        sa = t.side_of(a)
    _hyp(sa != 0, "degenerate transversal configuration")
    d = l2.p if l2.p != h else l2.q
    if t.side_of(d) != -sa:
        d = point_reflect(d, h)
    _hyp(t.side_of(d) == -sa, "could not find opposite-side arm")
    return a, d


def _check_i27(r: Checks, l1, l2, transversal) -> None:
    g, h = _transversal_points(l1, l2, transversal)
    a, d = _alternate_pair(l1, l2, transversal, g, h)
    _hyp(angle_eq(Angle(g, a, h), Angle(h, d, g)),
         "alternate angles must be equal")
    r.true("the lines are parallel", parallel(l1, l2))


def _check_i28(r: Checks, l1, l2, transversal, form="cointerior") -> None:
    g, h = _transversal_points(l1, l2, transversal)
    a, d = _alternate_pair(l1, l2, transversal, g, h)
    b = point_reflect(a, g)   # same side as d
    if form == "exterior":
        e = point_reflect(h, g)  # on the transversal above g
        _hyp(angle_eq(Angle(g, e, b), Angle(h, g, d)),
             "exterior angle must equal the interior opposite on the same side")
    elif form == "cointerior":
        _hyp(angles_sum_to_two_rights(Angle(g, b, h), Angle(h, g, d)),
             "interior angles on the same side must equal two right angles")
    else:
        raise HypothesisNotSatisfied(f"unknown form {form!r}")
    r.true("the lines are parallel", parallel(l1, l2))


def _check_i29(r: Checks, l1, l2, transversal) -> None:
    g, h = _transversal_points(l1, l2, transversal)
    _hyp(parallel(l1, l2), "the lines must be parallel")
    a, d = _alternate_pair(l1, l2, transversal, g, h)
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
    r.true("the exterior angle equals the two interior and opposite",
            angle_sum_eq(Angle(b, a, c), Angle(a, b, c), Angle(c, a, d)))
    interior_sum_cos = (
        angle_cos(Angle(b, a, c)) * angle_cos(Angle(a, b, c))
        - angle_sin(Angle(b, a, c)) * angle_sin(Angle(a, b, c)))
    r.zero("the three interior angles equal two right angles",
           interior_sum_cos + angle_cos(Angle(c, a, b)))


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
    _hyp(isinstance(pg, Figure) and is_parallelogram(pg),
         "expected a parallelogram")
    a, b, c, d = pg.vertices
    r.true("opposite sides are equal",
            segment_eq(Segment(a, b), Segment(d, c))
            and segment_eq(Segment(b, c), Segment(a, d)))
    r.true("opposite angles are equal",
            angle_eq(Angle(a, d, b), Angle(c, b, d))
            and angle_eq(Angle(b, a, c), Angle(d, a, c)))
    r.zero("the diameter bisects the area",
           content(Figure([a, b, c])) - content(Figure([a, c, d])))


def _same_parallels(base_line: Line, *tops: Point) -> bool:
    first = tops[0]
    top_line = Line(first, Point(first.x + base_line.direction().dx,
                                 first.y + base_line.direction().dy))
    return all(top_line.contains(p) for p in tops)


def _check_i35(r: Checks, pg1, pg2) -> None:
    for pg in (pg1, pg2):
        _hyp(isinstance(pg, Figure) and is_parallelogram(pg),
             "expected parallelograms")
    a1, b1, c1, d1 = pg1.vertices
    a2, b2, c2, d2 = pg2.vertices
    _hyp({a1, b1} == {a2, b2}, "the parallelograms must share their base")
    _hyp(_same_parallels(Line(a1, b1), c1, d1, c2, d2),
         "the parallelograms must lie in the same parallels")
    r.zero("the parallelograms are equal in content",
           content(pg1) - content(pg2))


def _check_i36(r: Checks, pg1, pg2) -> None:
    for pg in (pg1, pg2):
        _hyp(isinstance(pg, Figure) and is_parallelogram(pg),
             "expected parallelograms")
    a1, b1, c1, d1 = pg1.vertices
    a2, b2, c2, d2 = pg2.vertices
    base_line = Line(a1, b1)
    _hyp(base_line.contains(a2) and base_line.contains(b2),
         "the bases must lie on one line")
    _hyp(segment_eq(Segment(a1, b1), Segment(a2, b2)),
         "the bases must be equal")
    _hyp(_same_parallels(base_line, c1, d1, c2, d2),
         "the parallelograms must lie in the same parallels")
    r.zero("the parallelograms are equal in content",
           content(pg1) - content(pg2))


def _check_i37(r: Checks, t1, t2) -> None:
    a1, b1, c1 = _tri(t1)
    a2, b2, c2 = _tri(t2)
    _hyp({a1, b1} == {a2, b2}, "the triangles must share their base")
    _hyp(_same_parallels(Line(a1, b1), c1, c2),
         "the apexes must lie on one parallel")
    r.zero("the triangles are equal in content", content(t1) - content(t2))


def _check_i38(r: Checks, t1, t2) -> None:
    a1, b1, c1 = _tri(t1)
    a2, b2, c2 = _tri(t2)
    base_line = Line(a1, b1)
    _hyp(base_line.contains(a2) and base_line.contains(b2),
         "the bases must lie on one line")
    _hyp(segment_eq(Segment(a1, b1), Segment(a2, b2)),
         "the bases must be equal")
    _hyp(_same_parallels(base_line, c1, c2),
         "the apexes must lie on one parallel")
    r.zero("the triangles are equal in content", content(t1) - content(t2))


def _check_i41(r: Checks, pg, t) -> None:
    _hyp(isinstance(pg, Figure) and is_parallelogram(pg),
         "expected a parallelogram")
    a, b, c, d = pg.vertices
    ta, tb, tc = _tri(t)
    _hyp({a, b} == {ta, tb}, "the figures must share their base")
    _hyp(_same_parallels(Line(a, b), c, d, tc),
         "the figures must lie in the same parallels")
    r.zero("the parallelogram is double of the triangle",
           content(pg) - content(t) * 2)


@dataclass(frozen=True)
class Theorem:
    """One theorem: its random hypothesis-conforming instance generator and
    its validator, ``check(checks, **bundle)``, whose parameters after the
    checks name the givens."""

    generate: Callable
    check: Callable


THEOREMS = {
    "I.4": Theorem(gen.t_pair, _check_i4),
    "I.7": Theorem(gen.i7, _check_i7),
    "I.8": Theorem(gen.t_pair, _check_i8),
    "I.13": Theorem(gen.i13, _check_i13),
    "I.14": Theorem(gen.i13, _check_i14),
    "I.15": Theorem(gen.i15, _check_i15),
    "I.16": Theorem(gen.triangle_only, _check_i16),
    "I.20": Theorem(gen.triangle_only, _check_i20),
    "I.26": Theorem(gen.i26, _check_i26),
    "I.27": Theorem(gen.transversal_bundle, _check_i27),
    "I.28": Theorem(gen.i28, _check_i28),
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

THEOREM_IDS = tuple(sorted(THEOREMS, key=lambda s: int(s.split(".")[1])))


def check_theorem(theorem_id: str, bundle: dict) -> Checks:
    """Validate one theorem instance exactly.  The bundle binds to the
    givens of the theorem's check by name; a bundle that lacks a given or
    names one the check does not take fails the hypothesis."""
    if theorem_id not in THEOREMS:
        raise UnknownProposition(f"no validator for {theorem_id!r}")
    check = THEOREMS[theorem_id].check
    checks = Checks(theorem_id)
    try:
        inspect.signature(check).bind(checks, **bundle)
    except TypeError as e:
        raise HypothesisNotSatisfied(f"{theorem_id} bundle: {e}")
    check(checks, **bundle)
    return checks
