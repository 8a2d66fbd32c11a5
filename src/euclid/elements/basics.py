"""Book I propositions 1, 2, 3, 9, 10, 11 and 12."""

from __future__ import annotations

from ..errors import PreconditionViolated
from ..geom import (
    Angle,
    Figure,
    Line,
    Point,
    Ray,
    Segment,
    angle_eq,
    between,
    intersect_line_circle,
    intersect_lines,
    is_right,
    point_reflect,
    segment_eq,
)
from ..trace import Checks, PropositionResult, Tracer
from ._common import ahead, apex, side_name_of, side_selector


def p1_equilateral(ab: Segment, side: str = "upper",
                   parent: Tracer | None = None) -> PropositionResult:
    """On a given finite straight line construct an equilateral triangle."""
    tr = Tracer.level(parent, "I.1")
    a, b = ab.a, ab.b
    tr.register_input(a, b)
    c = apex(tr, a, b, b, a, b, side, f"apex on the {side} side")
    tr.join(c, a)
    tr.join(c, b)
    triangle = Figure([a, b, c])
    return PropositionResult(
        {"A": ("given", a), "B": ("given", b), "C": ("result", c),
         "triangle": ("result", triangle)}, triangle, tr)


def post_i1(r: Checks, call: dict, result: PropositionResult) -> None:
    ab, (a, b, c) = call["ab"], result.result.vertices
    r.zero("side CA equals AB", c.dist_sq(a) - ab.length_sq())
    r.zero("side CB equals AB", c.dist_sq(b) - ab.length_sq())
    r.true("apex lies on the requested side",
           side_selector(ab.a, ab.b, call["side"])(c))


def p2_place(a: Point, bc: Segment, side: str = "upper",
             parent: Tracer | None = None) -> PropositionResult:
    """Place at a given point a straight line equal to a given straight line.

    Euclid's construction is free of superposition; that is its whole point.
    When the point coincides with the segment's first endpoint the segment
    itself already answers, and it is returned unchanged (documented
    deviation for the degenerate case the text does not treat).
    """
    tr = Tracer.level(parent, "I.2")
    b, c = bc.a, bc.b
    tr.register_input(a, b, c)
    if a == b:
        result = Segment(a, c)
        return PropositionResult(
            {"A": ("given", a), "B": ("given", b), "C": ("given", c),
             "AL": ("result", result)}, result, tr)

    ab = tr.join(a, b)
    tri = p1_equilateral(ab, side, parent=tr)
    d = tri.result.vertices[2]
    tr.attach(tri, operands=(ab,), produced=(d,))
    da = tr.join(d, a)
    db = tr.join(d, b)
    ray_ae = tr.extend(da, "b")  # beyond A, away from D
    ray_bf = tr.extend(db, "b")  # beyond B, away from D
    cgh = tr.circle(b, c)
    g = tr.pick(intersect_line_circle(Line(d, b), cgh), ahead(b, b - d),
                note="G beyond B on BF", operands=(cgh, ray_bf))
    gkl = tr.circle(d, g)
    l = tr.pick(intersect_line_circle(Line(d, a), gkl), ahead(a, a - d),
                note="L beyond A on AE", operands=(gkl, ray_ae))
    result = Segment(a, l)
    return PropositionResult(
        {"A": ("given", a), "B": ("given", b), "C": ("given", c),
         "D": ("aux", d), "G": ("aux", g), "L": ("result", l),
         "AL": ("result", result)}, result, tr)


def post_i2(r: Checks, call: dict, result: PropositionResult) -> None:
    a, bc, al = call["a"], call["bc"], result.result
    if a == bc.a:
        r.zero("placed segment equals the given one", al.length_sq() - bc.length_sq())
        return
    r.zero("AL equals BC", al.length_sq() - bc.length_sq())
    r.true("AL starts at the given point", al.a == a)
    r.true("no superposition used", result.trace.superposition_count == 0)


def p3_cut(greater: Segment, less: Segment,
           parent: Tracer | None = None) -> PropositionResult:
    """Cut off from the greater of two segments a part equal to the less."""
    if (greater.length_sq() - less.length_sq()).sign() <= 0:
        raise PreconditionViolated("first segment must be strictly greater")
    tr = Tracer.level(parent, "I.3")
    a, b = greater.a, greater.b
    tr.register_input(a, b)
    placed = p2_place(a, less, parent=tr)
    d = placed.result.b
    tr.attach(placed, operands=(a,), produced=(d,))
    cdef = tr.circle(a, d)
    e = tr.pick(intersect_line_circle(Line(a, b), cdef), ahead(a, b - a),
                note="E toward B", operands=(cdef,))
    return PropositionResult(
        {"A": ("given", a), "B": ("given", b), "D": ("aux", d),
         "E": ("result", e)}, e, tr)


def post_i3(r: Checks, call: dict, result: PropositionResult) -> None:
    greater, e = call["greater"], result.result
    r.zero("AE equals the lesser segment", greater.a.dist_sq(e) - call["less"].length_sq())
    r.true("E lies strictly between the greater segment's ends",
           between(greater.a, e, greater.b))


def p9_bisect_angle(angle: Angle, parent: Tracer | None = None) -> PropositionResult:
    """Bisect a given rectilineal angle."""
    tr = Tracer.level(parent, "I.9")
    a = angle.vertex
    d = angle.arm1
    tr.register_input(a, d, angle.arm2)
    cad = tr.circle(a, d)
    arm2_ray = Ray(a, angle.arm2)
    e = tr.pick(intersect_line_circle(arm2_ray.line(), cad),
                arm2_ray.contains, note="E on the second arm", operands=(cad,))
    de = tr.join(d, e)
    # equilateral triangle on DE, apex away from the vertex
    away = side_name_of(e, d, a)
    tri = p1_equilateral(de, away, parent=tr)
    f = tri.result.vertices[2]
    tr.attach(tri, operands=(de,), produced=(f,))
    tr.join(a, f)
    bisector = Ray(a, f)
    return PropositionResult(
        {"A": ("given", a), "D": ("given", d), "E": ("aux", e),
         "F": ("aux", f), "bisector": ("result", bisector)}, bisector, tr)


def post_i9(r: Checks, call: dict, result: PropositionResult) -> None:
    angle, ray = call["angle"], result.result
    r.true("the two halves are equal angles",
           ray.origin == angle.vertex
           and angle_eq(Angle(angle.vertex, angle.arm1, ray.through),
                        Angle(angle.vertex, angle.arm2, ray.through)))


def p10_bisect_segment(ab: Segment, parent: Tracer | None = None) -> PropositionResult:
    """Bisect a given finite straight line."""
    tr = Tracer.level(parent, "I.10")
    a, b = ab.a, ab.b
    tr.register_input(a, b)
    tri = p1_equilateral(ab, "upper", parent=tr)
    c = tri.result.vertices[2]
    tr.attach(tri, operands=(a, b), produced=(c,))
    bis = p9_bisect_angle(Angle(c, a, b), parent=tr)
    ray = bis.result
    tr.attach(bis, operands=(c,), produced=(ray.through,))
    d = tr.pick(intersect_lines(ray.line(), Line(a, b)),
                note="D where the bisector meets AB", operands=(ab,))
    return PropositionResult(
        {"A": ("given", a), "B": ("given", b), "C": ("aux", c),
         "D": ("result", d)}, d, tr)


def bisect(tr: Tracer, a: Point, b: Point) -> Point:
    """Bisect the segment ab (runs I.10); the midpoint."""
    bisected = p10_bisect_segment(Segment(a, b), parent=tr)
    tr.attach(bisected, operands=(a, b), produced=(bisected.result,))
    return bisected.result


def post_i10(r: Checks, call: dict, result: PropositionResult) -> None:
    ab, d = call["ab"], result.result
    r.zero("AD equals DB", ab.a.dist_sq(d) - d.dist_sq(ab.b))
    r.true("D is the exact midpoint", d == ab.a.midpoint(ab.b))


def p11_perp_at(l: Line, c: Point, parent: Tracer | None = None) -> PropositionResult:
    """Erect a right angle to a given line at a given point on it."""
    if not l.contains(c):
        raise PreconditionViolated("the point must lie on the line")
    tr = Tracer.level(parent, "I.11")
    d = l.p if l.p != c else l.q
    tr.register_input(l, c, d)
    circ = tr.circle(c, d)
    e = tr.pick(intersect_line_circle(l, circ), lambda p: p != d,
                note="E opposite D", operands=(circ,))
    de = Segment(d, e)
    tri = p1_equilateral(de, "upper", parent=tr)
    f = tri.result.vertices[2]
    tr.attach(tri, operands=(d, e), produced=(f,))
    tr.join(f, c)
    result = Line(c, f)
    return PropositionResult(
        {"C": ("given", c), "D": ("aux", d), "E": ("aux", e),
         "F": ("aux", f), "perpendicular": ("result", result)}, result, tr)


def post_i11(r: Checks, call: dict, result: PropositionResult) -> None:
    c, line = call["c"], result.result
    f = line.q if line.p == c else line.p
    d, e = result.objects["D"], result.objects["E"]
    r.true("FC is at right angles to the line",
           line.contains(c)
           and is_right(Angle(c, f, d)) and is_right(Angle(c, f, e)))


def p12_perp_from(l: Line, c: Point, parent: Tracer | None = None) -> PropositionResult:
    """Drop a perpendicular to a given line from a point not on it.

    The text takes a point "on the other side" without saying how; here it
    is realized as the reflection of the given point through one of the
    line's defining points, which is a choice.
    """
    if l.contains(c):
        raise PreconditionViolated("the point must lie off the line")
    tr = Tracer.level(parent, "I.12")
    d = point_reflect(c, l.p)  # the chance point on the other side
    tr.register_input(l, c, d)
    circ = tr.circle(c, d)
    pts = intersect_line_circle(l, circ)
    g = tr.pick(pts, "first", note="G", operands=(circ, l))
    e = tr.pick(pts, "second", note="E", operands=(circ, l))
    h = bisect(tr, g, e)
    tr.join(c, g)
    ch = tr.join(c, h)
    tr.join(c, e)
    result = Line(c, h)
    return PropositionResult(
        {"C": ("given", c), "D": ("aux", d), "E": ("aux", e),
         "G": ("aux", g), "H": ("result", h),
         "perpendicular": ("result", result), "CH": ("aux", ch)}, result, tr)


def post_i12(r: Checks, call: dict, result: PropositionResult) -> None:
    c, line = call["c"], result.result
    h = line.q if line.p == c else line.p
    g, e = result.objects["G"], result.objects["E"]
    r.true("GH equals HE", segment_eq(Segment(g, h), Segment(h, e)))
    r.true("CG equals CE", segment_eq(Segment(c, g), Segment(c, e)))
    r.true("angles GHC and EHC are equal (I.8)",
           angle_eq(Angle(h, g, c), Angle(h, e, c)))
    r.true("CH is perpendicular to the line",
           line.contains(c)
           and is_right(Angle(h, c, g)) and is_right(Angle(h, c, e)))
