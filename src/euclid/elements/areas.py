"""Book I propositions 42 to 46: application of areas.

I.44 is implemented in five strategies.  The classical route builds the
parallelogram elsewhere (I.42) and then *places* it against the given
segment with a rigid motion; that placement is recorded as an explicit
superposition step, so its trace has superposition count one.  The other
four routes construct the parallelogram directly against the segment's
extension and complete the figure through the complement argument (I.43);
their traces contain no superposition step at all.  Each builds its
scaffold on the far side of the segment from the result (``far_side``).
Robert of Chester's and Campanus's routes share one device, ``_rebuild``:
the given triangle rebuilt from its base angles (I.23 twice) on a base
adjoined to the segment.
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
    between,
    collinear,
    content,
    intersect_line_circle,
    intersect_lines,
    is_parallelogram,
    is_right,
    is_simple,
    orientation,
    segment_eq,
    signed_area,
)
from ..trace import Checks, PropositionResult, Tracer
from ._common import (
    ahead,
    cite_midpoint,
    cite_parallel,
    cut_at,
    far_side,
    produce,
    require_parallelogram,
    require_triangle,
    side_name_of,
    side_selector,
    side_sign,
    strategy_route,
)
from .basics import bisect, p11_perp_at
from .triangles import copy_angle, place_triangle_on_ray


# ---------------------------------------------------------------------------
# I.42


def p42_parallelogram_eq_triangle(t: Figure, d: Angle, strategy: str = "euclid",
                                  parent: Tracer | None = None) -> PropositionResult:
    """Construct, in a given angle, a parallelogram equal to a given triangle."""
    route = strategy_route(P42_STRATEGIES, "I.42", strategy)
    require_triangle(t)
    tr = Tracer.level(parent, "I.42", strategy)
    fig, named = route(tr, t, d)
    return PropositionResult(named, fig, tr)


def post_i42(r: Checks, call: dict, result: PropositionResult) -> None:
    """Both routes put the given angle at the second vertex."""
    a, b, c, dd = result.result.vertices
    r.zero("parallelogram content equals the triangle content",
           content(result.result) - content(call["t"]))
    r.true("one angle equals the given angle", angle_eq(Angle(b, a, c), call["d"]))
    r.true("opposite sides are parallel", is_parallelogram(result.result))
    r.true("opposite sides are equal",
           segment_eq(Segment(a, b), Segment(dd, c))
           and segment_eq(Segment(b, c), Segment(a, dd)))


def _p42_euclid(tr: Tracer, t: Figure, d: Angle):
    a, b, c = t.vertices
    tr.register_input(a, b, c)
    e = cite_midpoint(tr, b, c, "E bisects BC")
    tr.join(a, e)
    w = copy_angle(tr, Ray(e, c), d, side_name_of(e, c, a))
    ag = cite_parallel(tr, a, Line(b, c), "AG through A parallel to EC")
    f = tr.pick(intersect_lines(Line(e, w), ag), note="F", operands=(ag,))
    cg = cite_parallel(tr, c, Line(e, w), "CG through C parallel to EF")
    g = tr.pick(intersect_lines(cg, ag), note="G", operands=(cg, ag))
    fig = Figure([f, e, c, g])
    return fig, {"A": ("given", a), "B": ("given", b), "C": ("given", c),
                 "E": ("aux", e), "F": ("result", f), "G": ("result", g),
                 "parallelogram": ("result", fig)}


def _p42_alnayrizi(tr: Tracer, t: Figure, d: Angle):
    # same bisection, but the parallel through the base vertex is drawn
    # first and the parallelogram is named from that vertex
    a, b, g = t.vertices
    tr.register_input(a, b, g)
    e = cite_midpoint(tr, b, g, "E bisects BG")
    tr.join(a, e)
    w = copy_angle(tr, Ray(e, g), d, side_name_of(e, g, a))
    gh = cite_parallel(tr, g, Line(e, w), "GH through G parallel to EZ")
    azh = cite_parallel(tr, a, Line(b, g), "AZH through A parallel to BG")
    z = tr.pick(intersect_lines(Line(e, w), azh), note="Z", operands=(azh,))
    h = tr.pick(intersect_lines(gh, azh), note="H", operands=(gh, azh))
    fig = Figure([g, e, z, h])
    return fig, {"A": ("given", a), "B": ("given", b), "G": ("given", g),
                 "E": ("aux", e), "Z": ("result", z), "H": ("result", h),
                 "parallelogram": ("result", fig)}


# strategy name -> construction route
P42_STRATEGIES = {"euclid": _p42_euclid, "alnayrizi": _p42_alnayrizi}


def p42_on_ray(t: Figure, d: Angle, base_ray: Ray, side: str = "upper",
               parent: Tracer | None = None) -> PropositionResult:
    """The strengthened I.42: prescribed placement along a given ray.

    One side of the parallelogram runs along the ray from its origin (its
    length is half the triangle's base) and the given angle sits at the ray
    origin.  This is the placement the I.44 routes silently require.
    """
    require_triangle(t)
    tr = Tracer.level(parent, "I.42")
    v1, v2, v3 = t.vertices
    o = base_ray.origin
    tr.register_input(o)
    placed = place_triangle_on_ray(
        Segment(v2, v3), Segment(v3, v1), Segment(v1, v2), base_ray, side,
        parent=tr)
    pb, pc, papex = placed.result.vertices
    tr.attach(placed, operands=(o,), produced=(pb, pc, papex))
    e = cite_midpoint(tr, pb, pc, "E bisects the placed base")
    w = copy_angle(tr, Ray(o, e), d, side)
    top = cite_parallel(tr, papex, Line(pb, pc), "top line through the apex")
    theta = tr.pick(intersect_lines(Line(o, w), top), note="Theta",
                    operands=(top,))
    epar = cite_parallel(tr, e, Line(o, theta), "parallel through E")
    theta2 = tr.pick(intersect_lines(epar, top), note="Theta2",
                     operands=(epar, top))
    fig = Figure([o, e, theta2, theta])
    return PropositionResult(
        {"O": ("given", o), "E": ("aux", e), "Theta": ("result", theta),
         "Theta2": ("result", theta2), "apex": ("aux", papex),
         "parallelogram": ("result", fig)}, fig, tr)


# ---------------------------------------------------------------------------
# I.43


def p43_complements(pg: Figure, k: Point,
                    parent: Tracer | None = None) -> PropositionResult:
    """The two complements about the diameter of a parallelogram are equal."""
    require_parallelogram(pg)
    a, b, c, d = pg.vertices
    if not between(a, k, c):
        raise PreconditionViolated(
            "the point must lie strictly inside the diameter")
    tr = Tracer.level(parent, "I.43")
    tr.register_input(a, b, c, d, k)
    tr.join(a, c)
    par_ab = cite_parallel(tr, k, Line(a, b), "through K parallel to AB")
    par_ad = cite_parallel(tr, k, Line(a, d), "through K parallel to AD")
    e = tr.pick(intersect_lines(par_ad, Line(a, b)), note="E", operands=(par_ad,))
    g = tr.pick(intersect_lines(par_ad, Line(d, c)), note="G", operands=(par_ad,))
    h = tr.pick(intersect_lines(par_ab, Line(a, d)), note="H", operands=(par_ab,))
    f = tr.pick(intersect_lines(par_ab, Line(b, c)), note="F", operands=(par_ab,))
    comp1 = Figure([e, b, f, k])
    comp2 = Figure([h, k, g, d])
    return PropositionResult(
        {"A": ("given", a), "B": ("given", b), "C": ("given", c),
         "D": ("given", d), "K": ("given", k), "E": ("aux", e),
         "F": ("aux", f), "G": ("aux", g), "H": ("aux", h),
         "BK": ("result", comp1), "KD": ("result", comp2)},
        (comp1, comp2), tr)


def post_i43(r: Checks, call: dict, result: PropositionResult) -> None:
    comp1, comp2 = result.result
    r.true("both complements are parallelograms",
           is_parallelogram(comp1) and is_parallelogram(comp2))
    r.zero("the complements have equal content", content(comp1) - content(comp2))


# ---------------------------------------------------------------------------
# I.44


def p44_apply(ab: Segment, t: Figure, d: Angle,
              strategy: str = "euclid_superposition", side: str = "upper",
              parent: Tracer | None = None) -> PropositionResult:
    """Apply to a given segment, in a given angle, a parallelogram equal to
    a given triangle.

    The result has the given segment as one full side, content exactly that
    of the triangle, and the given angle at the segment's first endpoint;
    ``side`` chooses the half-plane the result lies in.
    """
    route = strategy_route(P44_STRATEGIES, "I.44", strategy)
    require_triangle(t)
    tr = Tracer.level(parent, "I.44", strategy)
    fig, named = route(tr, ab, t, d, side)
    named.setdefault("parallelogram", ("result", fig))
    return PropositionResult(named, fig, tr)


def post_i44(r: Checks, call: dict, result: PropositionResult) -> None:
    """The postcondition all five routes meet."""
    ab, fig = call["ab"], result.result
    r.true("result is a parallelogram", is_parallelogram(fig))
    r.zero("parallelogram content equals the given content",
           content(fig) - content(call["t"]))
    r.true("the given segment is one full side",
           any({s.a, s.b} == {ab.a, ab.b} for s in fig.sides()))
    vs = fig.vertices
    i = vs.index(ab.a) if ab.a in vs else None
    r.true("angle at the segment end equals the given angle", i is not None
           and angle_eq(Angle(ab.a, vs[i - 1], vs[(i + 1) % len(vs)]), call["d"]))
    want = 1 if call["strategy"] == "euclid_superposition" else 0
    r.true(f"superposition count is exactly {want}",
           result.trace.superposition_count == want)


def _p44_euclid(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # build the parallelogram anywhere (I.42), then place it so one side is
    # in a straight line with the given segment: one superposition step
    a0, b0 = ab.b, ab.a  # extension goes beyond the angle-carrying endpoint
    tr.register_input(a0, b0)
    p42 = p42_parallelogram_eq_triangle(t, d, "euclid", parent=tr)
    f42, e42, c42, g42 = p42.result.vertices
    tr.attach(p42, operands=tuple(t.vertices), produced=(f42, e42, c42, g42))
    e_t = cut_at(tr, b0, produce(tr, a0, b0), e42.dist_sq(c42),
                 "BE in a straight line with AB")
    from_seg = Segment(e42, c42)
    to_seg = Segment(b0, e_t)
    # the scaffold lies on the far side of the given segment from the
    # result; a direct motion keeps F on its side of EC, and BE runs
    # against AB
    flag = ("direct" if orientation(e42, c42, f42) == side_sign(side)
            else "flipped")
    m, (g, f) = tr.superpose(from_seg, to_seg, flag, carry=[f42, g42])
    b, e = b0, e_t
    ah = cite_parallel(tr, a0, Line(b, g), "AH through A parallel to BG")
    h = tr.pick(intersect_lines(Line(g, f), ah), note="H", operands=(ah,))
    tr.join(h, b)
    tr.extend(Segment(h, b), "b")
    tr.extend(Segment(f, e), "b")
    k = tr.pick(intersect_lines(Line(h, b), Line(f, e)), note="K")
    kl = cite_parallel(tr, k, Line(b, e), "KL through K parallel to EA")
    tr.extend(Segment(h, a0), "b")
    tr.extend(Segment(g, b), "b")
    l = tr.pick(intersect_lines(Line(h, a0), kl), note="L", operands=(kl,))
    mm = tr.pick(intersect_lines(Line(g, b), kl), note="M", operands=(kl,))
    fig = Figure([a0, b0, mm, l])
    return fig, {"A": ("given", a0), "B": ("given", b0), "E": ("aux", e),
                 "F": ("aux", f), "G": ("aux", g), "H": ("aux", h),
                 "K": ("aux", k), "L": ("result", l), "M": ("result", mm)}


def _p44_alnayrizi(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # half the base is cut off on the extension and the equal parallelogram
    # is built there directly; the complement argument lands the result on
    # the given segment with no superposition
    a0, b0 = ab.b, ab.a
    tr.register_input(a0, b0)
    beyond = produce(tr, a0, b0)
    base_sq = t.vertices[1].dist_sq(t.vertices[2])
    h = cut_at(tr, b0, beyond, base_sq / 4, "BH equal to half the base")
    ray = Ray(b0, beyond)
    pr = p42_on_ray(t, d, ray, side=far_side(ray, ab, side), parent=tr)
    _, _, kk, theta = pr.result.vertices
    tr.attach(pr, operands=(b0, h), produced=(theta, kk))
    tr.extend(Segment(kk, theta), "b")
    apar = cite_parallel(tr, a0, Line(b0, theta), "through A parallel to B-Theta")
    l = tr.pick(intersect_lines(Line(theta, kk), apar), note="L", operands=(apar,))
    tr.join(l, b0)
    tr.extend(Segment(l, b0), "b")
    tr.extend(Segment(kk, h), "b")
    m = tr.pick(intersect_lines(Line(l, b0), Line(kk, h)), note="M")
    mn = cite_parallel(tr, m, Line(kk, l), "MN through M parallel to KL")
    tr.extend(Segment(l, a0), "b")
    n = tr.pick(intersect_lines(Line(l, a0), mn), note="N", operands=(mn,))
    tr.extend(Segment(theta, b0), "b")
    xi = tr.pick(intersect_lines(Line(theta, b0), mn), note="Xi", operands=(mn,))
    fig = Figure([a0, b0, xi, n])
    return fig, {"A": ("given", a0), "B": ("given", b0), "H": ("aux", h),
                 "Theta": ("aux", theta), "K": ("aux", kk), "L": ("aux", l),
                 "M": ("aux", m), "N": ("result", n), "Xi": ("result", xi)}


def _p44_robert(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # adjoin half the base; rebuild the triangle from its base angles on the
    # doubled adjunction (the half point is the bisection for free); set the
    # given angle at the common endpoint and complete the figure
    a0, b0 = ab.b, ab.a
    tr.register_input(a0, b0)
    base_sq = t.vertices[1].dist_sq(t.vertices[2])
    beyond = produce(tr, a0, b0)
    h = cut_at(tr, b0, beyond, base_sq / 4, "adjoined half base")
    g = cut_at(tr, b0, beyond, base_sq, "produced to the whole base")
    k = _rebuild(tr, b0, g, t, ab, side, "K")
    tr.join(k, h)
    top = cite_parallel(tr, k, Line(b0, g), "top line through K")
    w3 = copy_angle(tr, Ray(b0, h), d, far_side(Ray(b0, h), ab, side))
    theta = tr.pick(intersect_lines(Line(b0, w3), top), note="T", operands=(top,))
    hpar = cite_parallel(tr, h, Line(b0, theta), "through H parallel to BT")
    u = tr.pick(intersect_lines(hpar, top), note="U", operands=(hpar, top))
    apar = cite_parallel(tr, a0, Line(b0, theta), "through A parallel to BT")
    l = tr.pick(intersect_lines(top, apar), note="L", operands=(apar,))
    tr.join(l, b0)
    m = tr.pick(intersect_lines(Line(l, b0), Line(u, h)), note="M")
    bottom = cite_parallel(tr, m, Line(b0, g), "bottom line through M")
    n = tr.pick(intersect_lines(Line(l, a0), bottom), note="N", operands=(bottom,))
    xi = tr.pick(intersect_lines(Line(theta, b0), bottom), note="X",
                 operands=(bottom,))
    fig = Figure([a0, b0, xi, n])
    return fig, {"A": ("given", a0), "B": ("given", b0), "H": ("aux", h),
                 "G": ("aux", g), "K": ("aux", k), "T": ("aux", theta),
                 "U": ("aux", u), "L": ("aux", l), "M": ("aux", m),
                 "N": ("result", n), "X": ("result", xi)}


def _p44_campanus(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # the whole base is adjoined beyond the angle-carrying endpoint, the
    # triangle is rebuilt there from its base angles, the given angle is set
    # at that endpoint opening into the adjunction, and the complements of
    # the completed figure land the result on the given segment
    a, b = ab.a, ab.b
    tr.register_input(a, b)
    base_sq = t.vertices[1].dist_sq(t.vertices[2])
    beyond = produce(tr, b, a)
    g = cut_at(tr, a, beyond, base_sq, "ag adjoined equal to the base")
    k = _rebuild(tr, g, a, t, ab, side, "k")
    h = bisect(tr, g, a)
    tr.join(k, h)
    top = cite_parallel(tr, k, Line(g, a), "mkn through k parallel to gh")
    w3 = copy_angle(tr, Ray(a, g), d, far_side(Ray(a, g), ab, side))
    l = tr.pick(intersect_lines(Line(a, w3), top), note="l", operands=(top,))
    hpar = cite_parallel(tr, h, Line(a, l), "through h parallel to al")
    m = tr.pick(intersect_lines(hpar, top), note="m", operands=(hpar, top))
    bn = cite_parallel(tr, b, Line(a, l), "bn through b parallel to al")
    n = tr.pick(intersect_lines(bn, top), note="n", operands=(bn, top))
    tr.extend(Segment(n, a), "b")
    o = tr.pick(intersect_lines(Line(n, a), Line(h, m)), note="o")
    bottom = cite_parallel(tr, o, Line(g, a), "bottom through o")
    q = tr.pick(intersect_lines(Line(b, n), bottom), note="q", operands=(bottom,))
    tr.extend(Segment(l, a), "b")
    p = tr.pick(intersect_lines(Line(l, a), bottom), note="p", operands=(bottom,))
    fig = Figure([a, b, q, p])
    return fig, {"a": ("given", a), "b": ("given", b), "g": ("aux", g),
                 "k": ("aux", k), "h": ("aux", h), "l": ("aux", l),
                 "m": ("aux", m), "n": ("aux", n), "o": ("aux", o),
                 "p": ("result", p), "q": ("result", q)}


def _p44_tinemue(tr: Tracer, ab: Segment, t: Figure, d: Angle, side: str):
    # applicable only when the slant of the adjoined triangle's bisecting
    # line already matches the given angle; the tilted cases are left
    # undetermined by the source and are not guessed at
    a, b = ab.b, ab.a
    tr.register_input(a, b)
    tv1, tv2, tv3 = t.vertices
    beyond = produce(tr, a, b)
    placed = place_triangle_on_ray(
        Segment(tv2, tv3), Segment(tv3, tv1), Segment(tv1, tv2),
        Ray(b, beyond), side=far_side(Ray(b, beyond), ab, side), parent=tr)
    _, c, dd = placed.result.vertices
    tr.attach(placed, operands=(b,), produced=(c, dd))
    o = bisect(tr, b, c)
    tr.join(o, dd)
    if not angle_eq(Angle(o, c, dd), d):
        raise StrategyInapplicable(
            "the bisecting slant does not equal the given angle; the "
            "tilted cases are out of scope")
    gpar = cite_parallel(tr, a, Line(o, dd), "through a parallel to od")
    top = cite_parallel(tr, dd, Line(a, o), "top line through d")
    g = tr.pick(intersect_lines(gpar, top), note="g", operands=(gpar, top))
    bf = cite_parallel(tr, b, Line(o, dd), "bf through b parallel to od")
    f = tr.pick(intersect_lines(bf, top), note="f", operands=(bf, top))
    tr.join(g, b)
    tr.extend(Segment(g, b), "b")
    tr.extend(Segment(dd, o), "b")
    k = tr.pick(intersect_lines(Line(g, b), Line(o, dd)), note="k")
    bottom = cite_parallel(tr, k, Line(g, dd), "kh through k parallel to gd")
    tr.extend(Segment(g, a), "b")
    h = tr.pick(intersect_lines(Line(g, a), bottom), note="h", operands=(bottom,))
    tr.extend(Segment(f, b), "b")
    i = tr.pick(intersect_lines(Line(f, b), bottom), note="i", operands=(bottom,))
    fig = Figure([a, b, i, h])
    return fig, {"a": ("given", a), "b": ("given", b), "c": ("aux", c),
                 "d": ("aux", dd), "o": ("aux", o), "g": ("aux", g),
                 "f": ("aux", f), "k": ("aux", k), "h": ("result", h),
                 "i": ("result", i)}


def _rebuild(tr: Tracer, p: Point, q: Point, t: Figure, ab: Segment,
             side: str, note: str) -> Point:
    # the device Robert's and Campanus's routes share: the triangle rebuilt
    # on pq from its base angles (I.23 at p, then at q) on the far side of
    # the given segment; its apex is where the two copied arms meet
    apex, start, end = t.vertices
    w1 = copy_angle(tr, Ray(p, q), Angle(start, end, apex),
                    far_side(Ray(p, q), ab, side))
    w2 = copy_angle(tr, Ray(q, p), Angle(end, start, apex),
                    far_side(Ray(q, p), ab, side))
    return tr.pick(intersect_lines(Line(p, w1), Line(q, w2)), note=note)


# strategy name -> construction route
P44_STRATEGIES = {"euclid_superposition": _p44_euclid,
                  "alnayrizi": _p44_alnayrizi,
                  "robert_of_chester": _p44_robert,
                  "campanus": _p44_campanus,
                  "tinemue_equal_case": _p44_tinemue}


def tinemue_matching_angle(t: Figure) -> Angle:
    """The angle the equal-angle route requires for the given triangle."""
    require_triangle(t)
    v1, v2, v3 = t.vertices
    o = v2.midpoint(v3)
    return Angle(o, v3, v1)


# ---------------------------------------------------------------------------
# I.45


def p45_apply_figure(d_angle: Angle, f: Figure,
                     parent: Tracer | None = None) -> PropositionResult:
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
    tr = Tracer.level(parent, "I.45")
    tr.register_input(*f.vertices)
    pieces = triangulate(f)
    fat = [p for p in pieces if content(p).sign() > 0]

    first = p42_parallelogram_eq_triangle(fat[0], d_angle, "euclid", parent=tr)
    base_e, base_c = first.result.vertices[1], first.result.vertices[2]
    tr.attach(first, operands=(), produced=tuple(first.result.vertices))
    # far side tracked as (u, v): u carries the supplementary angle
    u, vv = first.result.vertices[0], first.result.vertices[3]
    acc_probe = base_e
    for piece in fat[1:]:
        shared = Segment(u, vv)
        # the far side of u->v from the probe is the probe's side of v->u
        new_side = side_name_of(vv, u, acc_probe)
        applied = p44_apply(shared, piece, d_angle, "alnayrizi",
                            side=new_side, parent=tr)
        nfig = applied.result
        tr.attach(applied, operands=(u, vv), produced=tuple(nfig.vertices))
        _, _, xi, n = nfig.vertices
        acc_probe = u
        u, vv = xi, n
    fig = Figure([base_e, base_c, vv, u])
    return PropositionResult(
        {"figure": ("given", f), "parallelogram": ("result", fig),
         "triangles": ("aux", tuple(pieces))}, fig, tr)


def post_i45(r: Checks, call: dict, result: PropositionResult) -> None:
    # piece i >= 2 is the I.44 sub step from the far side (u, v) to the
    # figure (v, u, xi, n); the outer edge runs from the previous u to xi
    f, fig = call["f"], result.result
    r.true("the figure splits into two fewer triangles than sides",
           len(result.objects["triangles"]) == len(f) - 2)
    registry = result.trace.registry
    applied = [s for s in result.trace.steps
               if s.kind == "sub" and s.note == "I.44"]
    probe = fig.vertices[0]
    for i, step in enumerate(applied, start=2):
        u, vv = (registry[k] for k in step.operands)
        piece = Figure(registry[k] for k in step.produced)
        xi = piece.vertices[2]
        r.true(f"piece {i}: shared side is a full side of both",
               any({s.a, s.b} == {u, vv} for s in piece.sides()))
        r.true(f"piece {i}: abutting angles sum to two right angles",
               angles_sum_to_two_rights(Angle(u, vv, probe), Angle(u, vv, xi)))
        r.true(f"piece {i}: the outer edges meet in a straight line",
               between(probe, u, xi))
        probe = u
    base_e, base_c, _, u = fig.vertices
    r.true("the result is a parallelogram", is_parallelogram(fig))
    r.zero("the content equals the figure's content", content(fig) - content(f))
    r.true("one angle equals the given angle",
           angle_eq(Angle(base_e, base_c, u), call["d_angle"]))


def triangulate(f: Figure) -> list[Figure]:
    """Ear clipping with exact orientation predicates; n-2 triangles.

    Each clip takes the first straight corner if there is one (clipping it
    never changes the boundary), else the first ear."""
    verts = list(f.vertices)
    if signed_area(f).sign() < 0:
        verts.reverse()
    out: list[Figure] = []
    while len(verts) > 3:
        corners = [(verts[i - 1], v, verts[(i + 1) % len(verts)])
                   for i, v in enumerate(verts)]
        i = next((i for i, abc in enumerate(corners) if collinear(*abc)), None)
        if i is None:
            i = next((i for i, abc in enumerate(corners)
                      if _is_ear(abc, verts)), None)
        if i is None:
            raise NotSimple("ear clipping failed; is the figure simple?")
        out.append(Figure(corners[i]))
        del verts[i]
    out.append(Figure(verts))
    return out


def _is_ear(abc: tuple[Point, Point, Point], verts: list[Point]) -> bool:
    """A left turn with no other vertex in or on the triangle abc."""
    a, b, c = abc
    return orientation(a, b, c) > 0 and not any(
        orientation(a, b, p) >= 0 and orientation(b, c, p) >= 0
        and orientation(c, a, p) >= 0 for p in verts if p not in abc)


# ---------------------------------------------------------------------------
# I.46


def p46_square(ab: Segment, side: str = "upper",
               strategy: str = "campanus_first",
               parent: Tracer | None = None) -> PropositionResult:
    """Describe a square on a given segment (two completed proof routes).

    Both routes raise the perpendicular at a and cut it at c; the route
    then finds the fourth corner d."""
    route = strategy_route(P46_STRATEGIES, "I.46", strategy)
    tr = Tracer.level(parent, "I.46", strategy)
    a, b = ab.a, ab.b
    tr.register_input(a, b)
    c = _p46_corner(tr, a, b, a, b, side, "c")
    dd = route(tr, a, b, c, side)
    fig = Figure([a, b, dd, c])
    return PropositionResult(
        {"a": ("given", a), "b": ("given", b), "c": ("result", c),
         "d": ("result", dd), "square": ("result", fig)}, fig, tr)


def _p46_corner(tr: Tracer, a: Point, b: Point, at: Point, through: Point,
                side: str, note: str) -> Point:
    # the perpendicular to ab at ``at`` (I.11), cut on ``side`` by the
    # circle about ``at`` through ``through``
    perp = p11_perp_at(Line(a, b), at, parent=tr)
    tr.attach(perp, operands=(at,), produced=(perp.result,))
    circ = tr.circle(at, through)
    return tr.pick(intersect_line_circle(perp.result, circ),
                   side_selector(a, b, side), note=note, operands=(circ,))


def _p46_first(tr: Tracer, a: Point, b: Point, c: Point, side: str) -> Point:
    # the same perpendicular at b, then join the two corners
    dd = _p46_corner(tr, a, b, b, a, side, "d")
    tr.join(c, dd)
    return dd


def _p46_second(tr: Tracer, a: Point, b: Point, c: Point, side: str) -> Point:
    # the parallel through c, cut by the circle about c through a
    cd = cite_parallel(tr, c, Line(a, b), "cd through c parallel to ab")
    circ_c = tr.circle(c, a)
    dd = tr.pick(intersect_line_circle(cd, circ_c), ahead(c, b - a),
                 note="d toward b", operands=(circ_c, cd))
    tr.join(dd, b)
    return dd


# strategy name -> construction route
P46_STRATEGIES = {"campanus_first": _p46_first, "campanus_second": _p46_second}


def post_i46(r: Checks, call: dict, result: PropositionResult) -> None:
    ab, fig = call["ab"], result.result
    for s in fig.sides():
        r.zero("side equals the given segment", s.length_sq() - ab.length_sq())
    vs = fig.vertices
    for i in range(4):
        r.true("right angle at each corner",
               is_right(Angle(vs[i], vs[i - 1], vs[(i + 1) % 4])))
