"""Book I propositions 22, 23 (with the variant constructions) and 31."""

from __future__ import annotations

from ..errors import PreconditionViolated, TriangleInequalityViolated
from ..geom import (
    Angle,
    Figure,
    Line,
    Point,
    Ray,
    angle_eq,
    intersect_circles,
    orientation,
    parallel,
    point_reflect,
    triangle_inequality,
)
from ..number import Constructible
from ..trace import Checks, PropositionResult, Tracer
from ._common import (
    angle_measures,
    apex,
    cut_at,
    produce,
    side_selector,
    side_sign,
    side_word,
    strategy_route,
)


def _require_lengths(*lengths: Constructible) -> None:
    if any(l.sign() <= 0 for l in lengths):
        raise PreconditionViolated("lengths must be positive")
    if not triangle_inequality(*(l * l for l in lengths)):
        raise TriangleInequalityViolated(
            "two of the lengths taken together must exceed the third")


def p22_triangle(a_len: Constructible, b_len: Constructible, c_len: Constructible,
                 base_ray: Ray, side: str = "upper",
                 parent: Tracer | None = None) -> PropositionResult:
    """Construct a triangle out of three given lengths.

    Following the classical figure, the second length is laid along the ray
    from its origin; the triangle's sides taken in order from the apex are
    the three given lengths (a, b, c).  With lengths (3, 4, 5) on the
    positive x axis the apex is (0, 3).
    """
    _require_lengths(a_len, b_len, c_len)
    tr = Tracer.level(parent, "I.22")
    f = base_ray.origin
    toward = base_ray.through
    tr.register_input(f, toward)
    d = cut_at(tr, f, toward, a_len * a_len, "DF equal to the first length")
    g = cut_at(tr, f, toward, b_len * b_len, "FG equal to the second length")
    h = cut_at(tr, f, toward, (b_len + c_len) * (b_len + c_len),
               "GH equal to the third length")
    k = apex(tr, f, d, g, h, toward, side, f"K on the {side} side")
    tr.join(k, f)
    tr.join(k, g)
    triangle = Figure([k, f, g])
    return PropositionResult(
        {"D": ("aux", d), "F": ("given", f), "G": ("result", g),
         "H": ("aux", h), "K": ("result", k),
         "triangle": ("result", triangle)}, triangle, tr)


def post_i22(r: Checks, call: dict, result: PropositionResult) -> None:
    ray, (k, f, g) = call["base_ray"], result.result.vertices
    r.zero("KF equals the first length", k.dist_sq(f) - call["a_len"] ** 2)
    r.zero("FG equals the second length", f.dist_sq(g) - call["b_len"] ** 2)
    r.zero("GK equals the third length", g.dist_sq(k) - call["c_len"] ** 2)
    r.true("the second side lies along the ray from its origin",
           f == ray.origin and ray.contains(g))


def place_triangle_on_ray(a_len: Constructible, b_len: Constructible,
                          c_len: Constructible, ray: Ray, side: str = "upper",
                          parent: Tracer | None = None) -> PropositionResult:
    """The strengthened triangle construction with prescribed placement.

    The first length runs along the ray from its origin; the apex (joined
    to the origin by the third length and to the far end by the second)
    lands on the requested side.
    """
    _require_lengths(a_len, b_len, c_len)
    tr = Tracer.level(parent, "I.22")
    v1 = ray.origin
    toward = ray.through
    tr.register_input(v1, toward)
    v2 = cut_at(tr, v1, toward, a_len * a_len, "first length along the ray")
    m1 = cut_at(tr, v1, toward, c_len * c_len, "marker for the third length")
    m2 = cut_at(tr, v2, point_reflect(v1, v2), b_len * b_len,
                "marker for the second length")
    v3 = apex(tr, v1, m1, v2, m2, toward, side, f"apex on the {side} side")
    tr.join(v1, v2)
    tr.join(v2, v3)
    tr.join(v3, v1)
    triangle = Figure([v1, v2, v3])
    return PropositionResult(
        {"V1": ("given", v1), "V2": ("result", v2),
         "V3": ("result", v3), "triangle": ("result", triangle)}, triangle, tr)


# ---------------------------------------------------------------------------
# I.23 and its variants


def p23_copy_angle(target_ray: Ray, model: Angle, side: str = "upper",
                   strategy: str = "euclid",
                   parent: Tracer | None = None) -> PropositionResult:
    """Construct at the ray's origin an angle equal to the model angle.

    One arm of the result lies along the target ray; the apex lands on the
    requested side.  All strategies satisfy the same postcondition and
    differ only in their construction routes.
    """
    route = strategy_route(P23_STRATEGIES, "I.23", strategy)
    tr = Tracer.level(parent, "I.23", strategy)
    arm2, on_ray, named = route(tr, target_ray, model, side)
    result = Angle(target_ray.origin, on_ray, arm2)
    named.setdefault("angle", ("result", result))
    return PropositionResult(named, result, tr)


def post_i23(r: Checks, call: dict, result: PropositionResult) -> None:
    ray, angle = call["target_ray"], result.result
    r.true("constructed angle equals the model angle", angle_eq(angle, call["model"]))
    r.true("one arm lies along the target ray", ray.contains(angle.arm1))
    r.true("apex on the requested side",
           side_selector(ray.origin, ray.through, call["side"])(angle.arm2))


def _p23_euclid(tr: Tracer, ray: Ray, model: Angle, side: str):
    arm1_sq, arm2_sq, chord_sq = angle_measures(model)
    a = ray.origin
    d, e = model.arm1, model.arm2
    tr.register_input(a, d, e)
    tr.join(d, e)
    f = cut_at(tr, a, ray.through, arm1_sq, "AF equal to CD")
    m1 = cut_at(tr, a, ray.through, arm2_sq, "marker for CE")
    m2 = cut_at(tr, f, point_reflect(a, f), chord_sq, "marker for DE")
    g = apex(tr, a, m1, f, m2, ray.through, side, "G")
    tr.join(a, g)
    tr.join(f, g)
    return g, f, {"A": ("given", a), "D": ("given", d), "E": ("given", e),
                  "F": ("aux", f), "G": ("result", g)}


def _p23_proclus(tr: Tracer, ray: Ray, model: Angle, side: str):
    # produce the base both ways, cut off the model arms on the
    # extensions, and intersect two circles about the base's ends
    arm1_sq, arm2_sq, chord_sq = angle_measures(model)
    a = ray.origin
    tr.register_input(a)
    b = cut_at(tr, a, ray.through, arm2_sq, "AB equal to DE")
    ab = tr.join(a, b)
    tr.extend(ab, "a")
    tr.extend(ab, "b")
    f = cut_at(tr, a, point_reflect(b, a), arm1_sq, "FA equal to CD")
    g = cut_at(tr, b, point_reflect(a, b), chord_sq, "BG equal to CE")
    k = tr.circle(a, f)
    l = tr.circle(b, g)
    pts = intersect_circles(k, l)
    m = tr.pick(pts, side_selector(a, ray.through, side), note="M",
                operands=(k, l))
    other = side_word(-side_sign(side))
    n = tr.pick(pts, side_selector(a, ray.through, other), note="N",
                operands=(k, l))
    tr.join(m, a)
    tr.join(m, b)
    tr.join(n, a)
    tr.join(n, b)
    return m, b, {"A": ("given", a), "B": ("aux", b), "F": ("aux", f),
                  "G": ("aux", g), "M": ("result", m), "N": ("aux", n)}


def _p23_albertus(tr: Tracer, ray: Ray, model: Angle, side: str):
    # Albert the Great: adjust the base, extend both ways, and argue the
    # touching and separate circle cases away by I.20.
    arm1_sq, arm2_sq, chord_sq = angle_measures(model)
    a = ray.origin
    tr.register_input(a)
    b = cut_at(tr, a, ray.through, arm2_sq, "AB made equal to GH")
    ab = tr.join(a, b)
    tr.extend(ab, "a")
    c = cut_at(tr, a, point_reflect(b, a), arm1_sq, "AC equal to FG")
    tr.extend(ab, "b")
    e = cut_at(tr, b, point_reflect(a, b), chord_sq, "BE equal to FH")
    d = apex(tr, a, c, b, e, ray.through, side,
             "D (the circles intersect; touching is absurd by I.20)")
    tr.join(d, a)
    tr.join(d, b)
    return d, b, {"A": ("given", a), "B": ("aux", b), "C": ("aux", c),
                  "E": ("aux", e), "D": ("result", d)}


def _p23_commandinus(tr: Tracer, ray: Ray, model: Angle, side: str):
    arm1_sq, arm2_sq, chord_sq = angle_measures(model)
    a = ray.origin
    tr.register_input(a)
    tr.join(model.arm1, model.arm2)
    g = cut_at(tr, a, ray.through, arm2_sq, "AG equal to CE")
    m1 = cut_at(tr, a, ray.through, arm1_sq, "marker for CD")
    m2 = cut_at(tr, g, point_reflect(a, g), chord_sq, "marker for ED")
    f = apex(tr, a, m1, g, m2, ray.through, side, "F")
    tr.join(a, f)
    tr.join(f, g)
    return f, g, {"A": ("given", a), "G": ("aux", g), "F": ("result", f)}


def _p23_clavius(tr: Tracer, ray: Ray, model: Angle, side: str):
    arm1_sq, arm2_sq, chord_sq = angle_measures(model)
    c = ray.origin
    tr.register_input(c)
    i = cut_at(tr, c, ray.through, arm1_sq, "CI equal to EG")
    l = cut_at(tr, c, ray.through, arm2_sq, "CL equal to EH")
    m = cut_at(tr, i, point_reflect(c, i), chord_sq, "IM equal to GH")
    k = apex(tr, c, l, i, m, ray.through, side, "K")
    tr.join(c, k)
    tr.join(i, k)
    return k, i, {"C": ("given", c), "I": ("aux", i), "L": ("aux", l),
                  "M": ("aux", m), "K": ("result", k)}


def _p23_campanus(tr: Tracer, ray: Ray, model: Angle, side: str):
    # Campanus: adjoin the first model side backwards, lay the second along
    # the ray, the base beyond it, and cut the two circles.
    arm1_sq, arm2_sq, chord_sq = angle_measures(model)
    f = ray.origin
    tr.register_input(f)
    fe = tr.join(f, ray.through)
    tr.extend(fe, "a")
    d = cut_at(tr, f, point_reflect(ray.through, f), arm1_sq,
               "fd adjoined equal to the first side")
    g = cut_at(tr, f, ray.through, arm2_sq, "fg equal to the second side")
    h = cut_at(tr, g, point_reflect(f, g), chord_sq, "gh equal to the base")
    k = apex(tr, f, d, g, h, ray.through, side, "k")
    tr.join(k, f)
    tr.join(k, g)
    return k, g, {"f": ("given", f), "d": ("aux", d), "g": ("aux", g),
                  "h": ("aux", h), "k": ("result", k)}


# strategy name -> construction route
P23_STRATEGIES = {"euclid": _p23_euclid,
                  "proclus": _p23_proclus,
                  "albertus": _p23_albertus,
                  "commandinus": _p23_commandinus,
                  "clavius": _p23_clavius,
                  "campanus": _p23_campanus}


def copy_angle(tr: Tracer, ray: Ray, model: Angle, side: str) -> Point:
    """Copy the model angle onto the ray, apex on ``side`` (runs I.23);
    the apex of the copy."""
    copied = p23_copy_angle(ray, model, side=side, parent=tr)
    arm2 = copied.result.arm2
    tr.attach(copied, operands=(ray.origin, ray.through), produced=(arm2,))
    return arm2


# ---------------------------------------------------------------------------
# I.31


def p31_parallel(p: Point, l: Line, parent: Tracer | None = None) -> PropositionResult:
    """Draw through a given point the straight line parallel to a given line.

    When the point already lies on the line, the line itself is returned
    and the coincidence is recorded (documented deviation).
    """
    tr = Tracer.level(parent, "I.31")
    tr.register_input(p, l)
    if l.contains(p):
        return PropositionResult(
            {"A": ("given", p), "parallel": ("result", l)}, l, tr)

    # the chance point D: the nearer defining point of the line
    if (p.dist_sq(l.p) - p.dist_sq(l.q)).sign() <= 0:
        d, c = l.p, l.q
    else:
        d, c = l.q, l.p
    tr.register_input(d, c)
    ad = tr.join(p, d)
    model = Angle(d, p, c)
    # alternate angles: the copy's apex goes to the side of AD away from C
    side = side_word(-orientation(p, d, c))
    copied = p23_copy_angle(Ray(p, d), model, side=side, parent=tr)
    e = copied.result.arm2
    tr.attach(copied, operands=(ad,), produced=(e,))
    f = produce(tr, e, p)
    tr.register_input(f)  # label on the produced part
    result = Line(e, f)
    return PropositionResult(
        {"A": ("given", p), "D": ("aux", d), "C": ("aux", c), "E": ("aux", e),
         "F": ("aux", f), "parallel": ("result", result)}, result, tr)


def post_i31(r: Checks, call: dict, result: PropositionResult) -> None:
    p, l, drawn = call["p"], call["l"], result.result
    if l.contains(p):
        r.true("point on the line: the line itself is returned (coincident)",
               drawn == l and drawn.contains(p))
        return
    r.true("the drawn line is parallel to the given line", parallel(drawn, l))
    r.true("the drawn line passes through the given point", drawn.contains(p))
    d, c, e = (result.objects[k] for k in "DCE")
    r.true("alternate angles are equal (I.27 hypothesis)",
           angle_eq(Angle(p, d, e), Angle(d, p, c)))
