"""Book I propositions 42 to 46: application of areas.

I.44 is implemented in five strategies.  The classical route builds the
parallelogram elsewhere (I.42) and then *places* it against the given
segment with a rigid motion; that placement is recorded as an explicit
superposition step, so its trace has superposition count one.  The other
four routes construct the parallelogram directly against the segment's
extension and complete the figure through the complement argument (I.43);
their traces contain no superposition step at all.
"""

from __future__ import annotations

from ..errors import NotSimple, PreconditionViolated, StrategyInapplicable
from ..geom import (
    Angle,
    Figure,
    Line,
    Point,
    Ray,
    Segment,
    angle_eq,
    angles_sum_to_two_rights,
    apply_isometry,
    between,
    collinear,
    content,
    intersect_line_circle,
    intersect_lines,
    is_parallelogram,
    is_right,
    is_simple,
    point_reflect,
    segment_eq,
    signed_area,
    superpose,
)
from ..trace import PropositionResult, Tracer, Verifier
from ._common import (
    cite_midpoint,
    cite_parallel,
    cut_at,
    only_point,
    opposite_side,
    ray_side_word,
    require_parallelogram,
    require_triangle,
    side_name_of,
    side_selector,
    side_sign,
    verify_parallelogram_on_segment,
)
from .basics import p10_bisect_segment
from .triangles import p23_copy_angle, place_triangle_on_ray

P42_STRATEGIES = ("euclid", "alnayrizi")
P44_STRATEGIES = ("euclid_superposition", "alnayrizi", "robert_of_chester",
                  "campanus", "tinemue_equal_case")
P46_STRATEGIES = ("campanus_first", "campanus_second")


# ---------------------------------------------------------------------------
# I.42


def p42_parallelogram_eq_triangle(t: Figure, d: Angle, strategy: str = "euclid",
                                  tracer: Tracer | None = None) -> PropositionResult:
    """Construct, in a given angle, a parallelogram equal to a given triangle."""
    if strategy not in P42_STRATEGIES:
        raise PreconditionViolated(f"unknown I.42 strategy {strategy!r}")
    require_triangle(t)
    tr = tracer or Tracer("I.42" if strategy == "euclid" else "I.42.alnayrizi")
    if strategy == "euclid":
        fig, objects, roles, angle_vertex = _p42_euclid(tr, t, d)
    else:
        fig, objects, roles, angle_vertex = _p42_alnayrizi(tr, t, d)

    v = Verifier("I.42")
    _verify_p42(v, fig, t, d, angle_vertex)
    return PropositionResult(
        f"I.42.{strategy}", objects=objects, roles=roles,
        result=fig, tracer=tr, verification=v.checks)


def _verify_p42(v: Verifier, fig: Figure, t: Figure, d: Angle,
                angle_vertex: Point) -> None:
    v.zero("parallelogram content equals the triangle content",
           content(fig) - content(t))
    vs = fig.vertices
    idx = next(i for i, p in enumerate(vs) if p == angle_vertex)
    prev_v, next_v = vs[idx - 1], vs[(idx + 1) % 4]
    v.true("one angle equals the given angle",
           angle_eq(Angle(angle_vertex, prev_v, next_v), d))
    a, b, c, dd = vs
    v.true("opposite sides are parallel",
           (b - a).cross(c - dd).is_zero() and (c - b).cross(dd - a).is_zero())
    v.true("opposite sides are equal",
           segment_eq(Segment(a, b), Segment(dd, c))
           and segment_eq(Segment(b, c), Segment(a, dd)))


def _p42_euclid(tr: Tracer, t: Figure, d: Angle):
    a, b, c = t.vertices
    for p in t.vertices:
        tr.register_input(p)
    e = cite_midpoint(tr, b, c, "E bisects BC")
    tr.join(a, e)
    side = side_name_of(e, c, a)
    sub = tr.sub("I.23")
    copied = p23_copy_angle(Ray(e, c), d, side=side, tracer=sub)
    w = copied.result.arm2
    tr.attach(sub, operands=(e, c), produced=(w,))
    ag = cite_parallel(tr, a, Line(b, c), "AG through A parallel to EC")
    f = only_point(tr, intersect_lines(Line(e, w), ag), "F", operands=(ag,))
    cg = cite_parallel(tr, c, Line(e, w), "CG through C parallel to EF")
    g = only_point(tr, intersect_lines(cg, ag), "G", operands=(cg, ag))
    fig = Figure([f, e, c, g])
    objects = {"A": a, "B": b, "C": c, "E": e, "F": f, "G": g, "parallelogram": fig}
    roles = {"A": "given", "B": "given", "C": "given", "E": "aux",
             "F": "result", "G": "result", "parallelogram": "result"}
    return fig, objects, roles, e


def _p42_alnayrizi(tr: Tracer, t: Figure, d: Angle):
    # same bisection, but the parallel through the base vertex is drawn
    # first and the parallelogram is named from that vertex
    a, b, g = t.vertices
    for p in t.vertices:
        tr.register_input(p)
    e = cite_midpoint(tr, b, g, "E bisects BG")
    tr.join(a, e)
    side = side_name_of(e, g, a)
    sub = tr.sub("I.23")
    copied = p23_copy_angle(Ray(e, g), d, side=side, tracer=sub)
    w = copied.result.arm2
    tr.attach(sub, operands=(e, g), produced=(w,))
    gh = cite_parallel(tr, g, Line(e, w), "GH through G parallel to EZ")
    azh = cite_parallel(tr, a, Line(b, g), "AZH through A parallel to BG")
    z = only_point(tr, intersect_lines(Line(e, w), azh), "Z", operands=(azh,))
    h = only_point(tr, intersect_lines(gh, azh), "H", operands=(gh, azh))
    fig = Figure([g, e, z, h])
    objects = {"A": a, "B": b, "G": g, "E": e, "Z": z, "H": h, "parallelogram": fig}
    roles = {"A": "given", "B": "given", "G": "given", "E": "aux",
             "Z": "result", "H": "result", "parallelogram": "result"}
    return fig, objects, roles, e


def p42_on_ray(t: Figure, d: Angle, base_ray: Ray, side: str = "upper",
               tracer: Tracer | None = None) -> PropositionResult:
    """The strengthened I.42: prescribed placement along a given ray.

    One side of the parallelogram runs along the ray from its origin (its
    length is half the triangle's base) and the given angle sits at the ray
    origin.  This is the placement the I.44 routes silently require.
    """
    require_triangle(t)
    tr = tracer or Tracer("I.42+")
    v1, v2, v3 = t.vertices
    o = base_ray.origin
    tr.register_input(o)
    sub = tr.sub("I.22")
    placed = place_triangle_on_ray(
        v2.dist(v3), v3.dist(v1), v1.dist(v2), base_ray, side, tracer=sub)
    pb, pc, papex = placed.result.vertices
    tr.attach(sub, operands=(o,), produced=(pb, pc, papex))
    e = cite_midpoint(tr, pb, pc, "E bisects the placed base")
    sub23 = tr.sub("I.23")
    copied = p23_copy_angle(Ray(o, e), d, side=side, tracer=sub23)
    w = copied.result.arm2
    tr.attach(sub23, operands=(o, e), produced=(w,))
    top = cite_parallel(tr, papex, Line(pb, pc), "top line through the apex")
    theta = only_point(tr, intersect_lines(Line(o, w), top), "Theta",
                       operands=(top,))
    epar = cite_parallel(tr, e, Line(o, theta), "parallel through E")
    theta2 = only_point(tr, intersect_lines(epar, top), "Theta2",
                        operands=(epar, top))
    fig = Figure([o, e, theta2, theta])

    v = Verifier("I.42+")
    _verify_p42(v, fig, t, d, o)
    v.true("one side lies along the ray from its origin",
           fig.vertices[0] == o and base_ray.contains(e))
    objects = {"O": o, "E": e, "Theta": theta, "Theta2": theta2,
               "apex": papex, "parallelogram": fig}
    roles = {"O": "given", "E": "aux", "Theta": "result", "Theta2": "result",
             "apex": "aux", "parallelogram": "result"}
    return PropositionResult("I.42+", objects=objects, roles=roles,
                             result=fig, tracer=tr, verification=v.checks)


# ---------------------------------------------------------------------------
# I.43


def p43_complements(pg: Figure, k: Point,
                    tracer: Tracer | None = None) -> PropositionResult:
    """The two complements about the diameter of a parallelogram are equal."""
    require_parallelogram(pg)
    a, b, c, d = pg.vertices
    if not between(a, k, c):
        raise PreconditionViolated(
            "the point must lie strictly inside the diameter")
    tr = tracer or Tracer("I.43")
    for p in (a, b, c, d):
        tr.register_input(p)
    tr.register_input(k)
    tr.join(a, c)
    par_ab = cite_parallel(tr, k, Line(a, b), "through K parallel to AB")
    par_ad = cite_parallel(tr, k, Line(a, d), "through K parallel to AD")
    e = only_point(tr, intersect_lines(par_ad, Line(a, b)), "E", operands=(par_ad,))
    g = only_point(tr, intersect_lines(par_ad, Line(d, c)), "G", operands=(par_ad,))
    h = only_point(tr, intersect_lines(par_ab, Line(a, d)), "H", operands=(par_ab,))
    f = only_point(tr, intersect_lines(par_ab, Line(b, c)), "F", operands=(par_ab,))
    comp1 = Figure([e, b, f, k])
    comp2 = Figure([h, k, g, d])

    v = Verifier("I.43")
    v.true("both complements are parallelograms",
           is_parallelogram(comp1) and is_parallelogram(comp2))
    v.zero("the complements have equal content", content(comp1) - content(comp2))
    objects = {"A": a, "B": b, "C": c, "D": d, "K": k, "E": e, "F": f,
               "G": g, "H": h, "BK": comp1, "KD": comp2}
    roles = {"A": "given", "B": "given", "C": "given", "D": "given",
             "K": "given", "E": "aux", "F": "aux", "G": "aux", "H": "aux",
             "BK": "result", "KD": "result"}
    return PropositionResult("I.43", objects=objects, roles=roles,
                             result=(comp1, comp2), tracer=tr,
                             verification=v.checks)


# ---------------------------------------------------------------------------
# I.44


def p44_apply(ab: Segment, t: Figure, d: Angle,
              strategy: str = "euclid_superposition", side: str = "upper",
              tracer: Tracer | None = None) -> PropositionResult:
    """Apply to a given segment, in a given angle, a parallelogram equal to
    a given triangle.

    The result has the given segment as one full side, content exactly that
    of the triangle, and the given angle at the segment's first endpoint;
    ``side`` chooses the half-plane the result lies in.
    """
    if strategy not in P44_STRATEGIES:
        raise PreconditionViolated(f"unknown I.44 strategy {strategy!r}")
    require_triangle(t)
    tr = tracer or Tracer(f"I.44.{strategy}")
    builder = {
        "euclid_superposition": _p44_euclid,
        "alnayrizi": _p44_alnayrizi,
        "robert_of_chester": _p44_robert,
        "campanus": _p44_campanus,
        "tinemue_equal_case": _p44_tinemue,
    }[strategy]
    fig, objects, roles = builder(tr, ab, t, d, side)

    v = Verifier(f"I.44.{strategy}")
    verify_parallelogram_on_segment(v, fig, ab, content(t), d)
    want = 1 if strategy == "euclid_superposition" else 0
    v.true(f"superposition count is exactly {want}",
           tr.trace.superposition_count == want)
    objects.setdefault("parallelogram", fig)
    roles.setdefault("parallelogram", "result")
    return PropositionResult(f"I.44.{strategy}", objects=objects, roles=roles,
                             result=fig, tracer=tr, verification=v.checks)


def _p44_euclid(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # build the parallelogram anywhere (I.42), then place it so one side is
    # in a straight line with the given segment: one superposition step
    a0, b0 = ab.b, ab.a  # extension goes beyond the angle-carrying endpoint
    tr.register_input(a0)
    tr.register_input(b0)
    sub = tr.sub("I.42")
    p42 = p42_parallelogram_eq_triangle(t, d, "euclid", tracer=sub)
    f42, e42, c42, g42 = p42.result.vertices
    tr.attach(sub, operands=tuple(t.vertices), produced=(f42, e42, c42, g42))
    seg0 = Segment(a0, b0)
    tr.extend(seg0, "b")
    e_t = cut_at(tr, b0, point_reflect(a0, b0), e42.dist_sq(c42),
                 "BE in a straight line with AB")
    from_seg = Segment(e42, c42)
    to_seg = Segment(b0, e_t)
    scaffold_sign = -side_sign(side)
    ref = ab.b - ab.a
    want = lambda p: ref.cross(p - ab.a).sign() == scaffold_sign
    flag = "direct"
    if not want(apply_isometry(superpose(from_seg, to_seg, "direct"), f42)):
        flag = "flipped"
    m, (g, f) = tr.superpose(from_seg, to_seg, flag, carry=[f42, g42])
    b, e = b0, e_t
    ah = cite_parallel(tr, a0, Line(b, g), "AH through A parallel to BG")
    h = only_point(tr, intersect_lines(Line(g, f), ah), "H", operands=(ah,))
    tr.join(h, b)
    tr.extend(Segment(h, b), "b")
    tr.extend(Segment(f, e), "b")
    k = only_point(tr, intersect_lines(Line(h, b), Line(f, e)), "K")
    kl = cite_parallel(tr, k, Line(b, e), "KL through K parallel to EA")
    tr.extend(Segment(h, a0), "b")
    tr.extend(Segment(g, b), "b")
    l = only_point(tr, intersect_lines(Line(h, a0), kl), "L", operands=(kl,))
    mm = only_point(tr, intersect_lines(Line(g, b), kl), "M", operands=(kl,))
    fig = Figure([a0, b0, mm, l])
    objects = {"A": a0, "B": b0, "E": e, "F": f, "G": g, "H": h, "K": k,
               "L": l, "M": mm}
    roles = {"A": "given", "B": "given", "E": "aux", "F": "aux", "G": "aux",
             "H": "aux", "K": "aux", "L": "result", "M": "result"}
    return fig, objects, roles


def _p44_alnayrizi(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # half the base is cut off on the extension and the equal parallelogram
    # is built there directly; the complement argument lands the result on
    # the given segment with no superposition
    a0, b0 = ab.b, ab.a
    tr.register_input(a0)
    tr.register_input(b0)
    seg0 = Segment(a0, b0)
    tr.extend(seg0, "b")
    beyond = point_reflect(a0, b0)
    base_sq = t.vertices[1].dist_sq(t.vertices[2])
    h = cut_at(tr, b0, beyond, base_sq / 4, "BH equal to half the base")
    scaffold = ray_side_word(Ray(b0, beyond), ab.a, ab.b, -side_sign(side))
    sub = tr.sub("I.42")
    pr = p42_on_ray(t, d, Ray(b0, beyond), side=scaffold, tracer=sub)
    _, _, kk, theta = pr.result.vertices
    tr.attach(sub, operands=(b0, h), produced=(theta, kk))
    tr.extend(Segment(kk, theta), "b")
    apar = cite_parallel(tr, a0, Line(b0, theta), "through A parallel to B-Theta")
    l = only_point(tr, intersect_lines(Line(theta, kk), apar), "L", operands=(apar,))
    tr.join(l, b0)
    tr.extend(Segment(l, b0), "b")
    tr.extend(Segment(kk, h), "b")
    m = only_point(tr, intersect_lines(Line(l, b0), Line(kk, h)), "M")
    mn = cite_parallel(tr, m, Line(kk, l), "MN through M parallel to KL")
    tr.extend(Segment(l, a0), "b")
    n = only_point(tr, intersect_lines(Line(l, a0), mn), "N", operands=(mn,))
    tr.extend(Segment(theta, b0), "b")
    xi = only_point(tr, intersect_lines(Line(theta, b0), mn), "Xi", operands=(mn,))
    fig = Figure([a0, b0, xi, n])
    objects = {"A": a0, "B": b0, "H": h, "Theta": theta, "K": kk, "L": l,
               "M": m, "N": n, "Xi": xi}
    roles = {"A": "given", "B": "given", "H": "aux", "Theta": "aux",
             "K": "aux", "L": "aux", "M": "aux", "N": "result", "Xi": "result"}
    return fig, objects, roles


def _p44_robert(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # adjoin half the base; rebuild the triangle from its base angles on the
    # doubled adjunction (the half point is the bisection for free); set the
    # given angle at the common endpoint and complete the figure
    a0, b0 = ab.b, ab.a
    tr.register_input(a0)
    tr.register_input(b0)
    tv1, tv2, tv3 = t.vertices
    base_sq = tv2.dist_sq(tv3)
    seg0 = Segment(a0, b0)
    tr.extend(seg0, "b")
    beyond = point_reflect(a0, b0)
    h = cut_at(tr, b0, beyond, base_sq / 4, "adjoined half base")
    g = cut_at(tr, b0, beyond, base_sq, "produced to the whole base")
    want = -side_sign(side)
    sub1 = tr.sub("I.23")
    cp1 = p23_copy_angle(Ray(b0, g), Angle(tv2, tv3, tv1),
                         side=ray_side_word(Ray(b0, g), ab.a, ab.b, want),
                         tracer=sub1)
    w1 = cp1.result.arm2
    tr.attach(sub1, operands=(b0, g), produced=(w1,))
    sub2 = tr.sub("I.23")
    cp2 = p23_copy_angle(Ray(g, b0), Angle(tv3, tv2, tv1),
                         side=ray_side_word(Ray(g, b0), ab.a, ab.b, want),
                         tracer=sub2)
    w2 = cp2.result.arm2
    tr.attach(sub2, operands=(g, b0), produced=(w2,))
    k = only_point(tr, intersect_lines(Line(b0, w1), Line(g, w2)), "K")
    tr.join(k, h)
    top = cite_parallel(tr, k, Line(b0, g), "top line through K")
    sub3 = tr.sub("I.23")
    cp3 = p23_copy_angle(Ray(b0, h), d,
                         side=ray_side_word(Ray(b0, h), ab.a, ab.b, want),
                         tracer=sub3)
    w3 = cp3.result.arm2
    tr.attach(sub3, operands=(b0, h), produced=(w3,))
    theta = only_point(tr, intersect_lines(Line(b0, w3), top), "T", operands=(top,))
    hpar = cite_parallel(tr, h, Line(b0, theta), "through H parallel to BT")
    u = only_point(tr, intersect_lines(hpar, top), "U", operands=(hpar, top))
    apar = cite_parallel(tr, a0, Line(b0, theta), "through A parallel to BT")
    l = only_point(tr, intersect_lines(top, apar), "L", operands=(apar,))
    tr.join(l, b0)
    m = only_point(tr, intersect_lines(Line(l, b0), Line(u, h)), "M")
    bottom = cite_parallel(tr, m, Line(b0, g), "bottom line through M")
    n = only_point(tr, intersect_lines(Line(l, a0), bottom), "N", operands=(bottom,))
    xi = only_point(tr, intersect_lines(Line(theta, b0), bottom), "X",
                    operands=(bottom,))
    fig = Figure([a0, b0, xi, n])
    objects = {"A": a0, "B": b0, "H": h, "G": g, "K": k, "T": theta, "U": u,
               "L": l, "M": m, "N": n, "X": xi}
    roles = {"A": "given", "B": "given", "H": "aux", "G": "aux", "K": "aux",
             "T": "aux", "U": "aux", "L": "aux", "M": "aux",
             "N": "result", "X": "result"}
    return fig, objects, roles


def _p44_campanus(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # the whole base is adjoined beyond the angle-carrying endpoint, the
    # triangle is rebuilt there from its base angles, the given angle is set
    # at that endpoint opening into the adjunction, and the complements of
    # the completed figure land the result on the given segment
    a, b = ab.a, ab.b
    tr.register_input(a)
    tr.register_input(b)
    tv1, tv2, tv3 = t.vertices  # apex, base start, base end
    base_sq = tv2.dist_sq(tv3)
    seg0 = Segment(b, a)
    tr.extend(seg0, "b")
    beyond = point_reflect(b, a)
    g = cut_at(tr, a, beyond, base_sq, "ag adjoined equal to the base")
    # the ray g->a points with a->b, the ray a->g against it, so the side
    # words flip between the two copies
    want = -side_sign(side)
    sub1 = tr.sub("I.23")
    cp1 = p23_copy_angle(Ray(g, a), Angle(tv2, tv3, tv1),
                         side=ray_side_word(Ray(g, a), ab.a, ab.b, want),
                         tracer=sub1)
    w1 = cp1.result.arm2
    tr.attach(sub1, operands=(g, a), produced=(w1,))
    sub2 = tr.sub("I.23")
    cp2 = p23_copy_angle(Ray(a, g), Angle(tv3, tv2, tv1),
                         side=ray_side_word(Ray(a, g), ab.a, ab.b, want),
                         tracer=sub2)
    w2 = cp2.result.arm2
    tr.attach(sub2, operands=(a, g), produced=(w2,))
    k = only_point(tr, intersect_lines(Line(g, w1), Line(a, w2)), "k")
    sub10 = tr.sub("I.10")
    mid = p10_bisect_segment(Segment(g, a), tracer=sub10)
    h = mid.result
    tr.attach(sub10, operands=(g, a), produced=(h,))
    tr.join(k, h)
    top = cite_parallel(tr, k, Line(g, a), "mkn through k parallel to gh")
    sub3 = tr.sub("I.23")
    cp3 = p23_copy_angle(Ray(a, g), d,
                         side=ray_side_word(Ray(a, g), ab.a, ab.b, want),
                         tracer=sub3)
    w3 = cp3.result.arm2
    tr.attach(sub3, operands=(a, g), produced=(w3,))
    l = only_point(tr, intersect_lines(Line(a, w3), top), "l", operands=(top,))
    hpar = cite_parallel(tr, h, Line(a, l), "through h parallel to al")
    m = only_point(tr, intersect_lines(hpar, top), "m", operands=(hpar, top))
    bn = cite_parallel(tr, b, Line(a, l), "bn through b parallel to al")
    n = only_point(tr, intersect_lines(bn, top), "n", operands=(bn, top))
    tr.extend(Segment(n, a), "b")
    o = only_point(tr, intersect_lines(Line(n, a), Line(h, m)), "o")
    bottom = cite_parallel(tr, o, Line(g, a), "bottom through o")
    q = only_point(tr, intersect_lines(Line(b, n), bottom), "q", operands=(bottom,))
    tr.extend(Segment(l, a), "b")
    p = only_point(tr, intersect_lines(Line(l, a), bottom), "p", operands=(bottom,))
    fig = Figure([a, b, q, p])
    objects = {"a": a, "b": b, "g": g, "k": k, "h": h, "l": l, "m": m,
               "n": n, "o": o, "p": p, "q": q}
    roles = {"a": "given", "b": "given", "g": "aux", "k": "aux", "h": "aux",
             "l": "aux", "m": "aux", "n": "aux", "o": "aux",
             "p": "result", "q": "result"}
    return fig, objects, roles


def _p44_tinemue(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # applicable only when the slant of the adjoined triangle's bisecting
    # line already matches the given angle; the tilted cases are left
    # undetermined by the source and are not guessed at
    a, b = ab.b, ab.a
    tr.register_input(a)
    tr.register_input(b)
    tv1, tv2, tv3 = t.vertices
    seg0 = Segment(a, b)
    tr.extend(seg0, "b")
    beyond = point_reflect(a, b)
    scaffold = ray_side_word(Ray(b, beyond), ab.a, ab.b, -side_sign(side))
    sub = tr.sub("I.22")
    placed = place_triangle_on_ray(
        tv2.dist(tv3), tv3.dist(tv1), tv1.dist(tv2),
        Ray(b, beyond), side=scaffold, tracer=sub)
    _, c, dd = placed.result.vertices
    tr.attach(sub, operands=(b,), produced=(c, dd))
    sub10 = tr.sub("I.10")
    mid = p10_bisect_segment(Segment(b, c), tracer=sub10)
    o = mid.result
    tr.attach(sub10, operands=(b, c), produced=(o,))
    tr.join(o, dd)
    if not angle_eq(Angle(o, c, dd), d):
        raise StrategyInapplicable(
            "the bisecting slant does not equal the given angle; the "
            "tilted cases are out of scope")
    gpar = cite_parallel(tr, a, Line(o, dd), "through a parallel to od")
    top = cite_parallel(tr, dd, Line(a, o), "top line through d")
    g = only_point(tr, intersect_lines(gpar, top), "g", operands=(gpar, top))
    bf = cite_parallel(tr, b, Line(o, dd), "bf through b parallel to od")
    f = only_point(tr, intersect_lines(bf, top), "f", operands=(bf, top))
    tr.join(g, b)
    tr.extend(Segment(g, b), "b")
    tr.extend(Segment(dd, o), "b")
    k = only_point(tr, intersect_lines(Line(g, b), Line(o, dd)), "k")
    bottom = cite_parallel(tr, k, Line(g, dd), "kh through k parallel to gd")
    tr.extend(Segment(g, a), "b")
    h = only_point(tr, intersect_lines(Line(g, a), bottom), "h", operands=(bottom,))
    tr.extend(Segment(f, b), "b")
    i = only_point(tr, intersect_lines(Line(f, b), bottom), "i", operands=(bottom,))
    fig = Figure([a, b, i, h])
    objects = {"a": a, "b": b, "c": c, "d": dd, "o": o, "g": g, "f": f,
               "k": k, "h": h, "i": i}
    roles = {"a": "given", "b": "given", "c": "aux", "d": "aux", "o": "aux",
             "g": "aux", "f": "aux", "k": "aux", "h": "result", "i": "result"}
    return fig, objects, roles


def tinemue_matching_angle(t: Figure) -> Angle:
    """The angle the equal-angle route requires for the given triangle."""
    require_triangle(t)
    v1, v2, v3 = t.vertices
    o = v2.midpoint(v3)
    return Angle(o, v3, v1)


# ---------------------------------------------------------------------------
# I.45


def p45_apply_figure(d_angle: Angle, f: Figure,
                     tracer: Tracer | None = None) -> PropositionResult:
    """Construct, in a given angle, a parallelogram equal to a given
    rectilineal figure: triangulate, apply one piece, then apply each
    remaining piece to the far side of the accumulated parallelogram.

    Pieces are applied with the superposition-free route, so the whole
    construction records no superposition.  Degenerate (zero content)
    triangles arising from straight vertices count toward the triangle
    tally but contribute no area piece.
    """
    if not is_simple(f):
        raise NotSimple("the figure's boundary crosses itself")
    tr = tracer or Tracer("I.45")
    for p in f.vertices:
        tr.register_input(p)
    pieces = triangulate(f)
    fat = [p for p in pieces if content(p).sign() > 0]
    v = Verifier("I.45")
    v.true("the figure splits into two fewer triangles than sides",
           len(pieces) == len(f) - 2)

    sub = tr.sub("I.42")
    first = p42_parallelogram_eq_triangle(fat[0], d_angle, "euclid", tracer=sub)
    base_e, base_c = first.result.vertices[1], first.result.vertices[2]
    tr.attach(sub, operands=(), produced=tuple(first.result.vertices))
    # far side tracked as (u, v): u carries the supplementary angle
    u, vv = first.result.vertices[0], first.result.vertices[3]
    acc_probe = base_e
    for i, piece in enumerate(fat[1:], start=2):
        shared = Segment(u, vv)
        new_side = opposite_side(side_name_of(u, vv, acc_probe))
        sub44 = tr.sub("I.44")
        applied = p44_apply(shared, piece, d_angle, "alnayrizi",
                            side=new_side, tracer=sub44)
        nfig = applied.result
        tr.attach(sub44, operands=(u, vv), produced=tuple(nfig.vertices))
        _, _, xi, n = nfig.vertices
        v.true(f"piece {i}: shared side is a full side of both",
               any({s.a, s.b} == {u, vv} for s in nfig.sides()))
        v.true(f"piece {i}: abutting angles sum to two right angles",
               angles_sum_to_two_rights(Angle(u, vv, acc_probe),
                                        Angle(u, vv, xi)))
        v.true(f"piece {i}: the outer edges meet in a straight line",
               collinear(acc_probe, u, xi) and between(acc_probe, u, xi))
        acc_probe = u
        u, vv = xi, n
    fig = Figure([base_e, base_c, vv, u])

    v.true("the result is a parallelogram", is_parallelogram(fig))
    v.zero("the content equals the figure's content", content(fig) - content(f))
    v.true("one angle equals the given angle",
           angle_eq(Angle(base_e, base_c, u), d_angle))
    objects = {"figure": f, "parallelogram": fig,
               "triangles": tuple(pieces)}
    roles = {"figure": "given", "parallelogram": "result", "triangles": "aux"}
    return PropositionResult("I.45", objects=objects, roles=roles,
                             result=fig, tracer=tr, verification=v.checks)


def triangulate(f: Figure) -> list[Figure]:
    """Ear clipping with exact orientation predicates; n-2 triangles."""
    verts = list(f.vertices)
    if signed_area(f).sign() < 0:
        verts.reverse()
    out: list[Figure] = []
    guard = 0
    while len(verts) > 3:
        n = len(verts)
        clipped = False
        # straight vertices first: clipping them never changes the boundary
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if (b - a).cross(c - a).is_zero():
                out.append(Figure([a, b, c]))
                del verts[i]
                clipped = True
                break
        if clipped:
            continue
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if (b - a).cross(c - a).sign() <= 0:
                continue
            if any(_in_triangle(p, a, b, c) for j, p in enumerate(verts)
                   if p not in (a, b, c)):
                continue
            out.append(Figure([a, b, c]))
            del verts[i]
            clipped = True
            break
        guard += 1
        if not clipped or guard > 10000:
            raise NotSimple("ear clipping failed; is the figure simple?")
    out.append(Figure(verts))
    return out


def _in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    s1 = (b - a).cross(p - a).sign()
    s2 = (c - b).cross(p - b).sign()
    s3 = (a - c).cross(p - c).sign()
    return s1 >= 0 and s2 >= 0 and s3 >= 0


# ---------------------------------------------------------------------------
# I.46


def p46_square(ab: Segment, side: str = "upper",
               strategy: str = "campanus_first",
               tracer: Tracer | None = None) -> PropositionResult:
    """Describe a square on a given segment (two completed proof routes)."""
    if strategy not in P46_STRATEGIES:
        raise PreconditionViolated(f"unknown I.46 strategy {strategy!r}")
    tr = tracer or Tracer(f"I.46.{strategy}")
    a, b = ab.a, ab.b
    tr.register_input(a)
    tr.register_input(b)
    from .basics import p11_perp_at

    if strategy == "campanus_first":
        sub1 = tr.sub("I.11")
        perp_a = p11_perp_at(Line(a, b), a, tracer=sub1).result
        tr.attach(sub1, operands=(a,), produced=(perp_a,))
        circ_a = tr.circle(a, b)
        c = tr.pick(intersect_line_circle(perp_a, circ_a),
                    side_selector(a, b, side), note="c", operands=(circ_a,))
        sub2 = tr.sub("I.11")
        perp_b = p11_perp_at(Line(a, b), b, tracer=sub2).result
        tr.attach(sub2, operands=(b,), produced=(perp_b,))
        circ_b = tr.circle(b, a)
        dd = tr.pick(intersect_line_circle(perp_b, circ_b),
                     side_selector(a, b, side), note="d", operands=(circ_b,))
        tr.join(c, dd)
    else:
        sub1 = tr.sub("I.11")
        perp_a = p11_perp_at(Line(a, b), a, tracer=sub1).result
        tr.attach(sub1, operands=(a,), produced=(perp_a,))
        circ_a = tr.circle(a, b)
        c = tr.pick(intersect_line_circle(perp_a, circ_a),
                    side_selector(a, b, side), note="c", operands=(circ_a,))
        cd = cite_parallel(tr, c, Line(a, b), "cd through c parallel to ab")
        circ_c = tr.circle(c, a)
        dd = tr.pick(intersect_line_circle(cd, circ_c),
                     lambda p: (b - a).dot(p - c).sign() > 0,
                     note="d toward b", operands=(circ_c, cd))
        tr.join(dd, b)
    fig = Figure([a, b, dd, c])

    v = Verifier("I.46")
    for s in fig.sides():
        v.zero("side equals the given segment", s.length_sq() - ab.length_sq())
    vs = fig.vertices
    for i in range(4):
        v.true("right angle at each corner",
               is_right(Angle(vs[i], vs[i - 1], vs[(i + 1) % 4])))
    objects = {"a": a, "b": b, "c": c, "d": dd, "square": fig}
    roles = {"a": "given", "b": "given", "c": "result", "d": "result",
             "square": "result"}
    return PropositionResult(f"I.46.{strategy}", objects=objects, roles=roles,
                             result=fig, tracer=tr, verification=v.checks)
