"""Random valid instances, one generator per Book I id returning the keyword
arguments of one call, drawn on a small rational grid (denominators at most
16, magnitudes at most 32) to keep radical depth and runtime bounded."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

from ..geom import (
    Angle,
    Figure,
    Line,
    Point,
    Ray,
    Segment,
    collinear,
    intersect_lines,
    is_simple,
    orientation,
    point_reflect,
    signed_area,
)
from ..number import Constructible


def _coord(rng: random.Random) -> Constructible:
    num = rng.randint(-24, 24)
    den = rng.choice((1, 1, 1, 2, 2, 4))
    return Constructible(Fraction(num, den))


def _point(rng) -> Point:
    return Point(_coord(rng), _coord(rng))


def _distinct_points(rng, n: int) -> list[Point]:
    pts: list[Point] = []
    while len(pts) < n:
        p = _point(rng)
        if all(p != q for q in pts):
            pts.append(p)
    return pts


def _segment(rng) -> Segment:
    a, b = _distinct_points(rng, 2)
    return Segment(a, b)


def _line(rng) -> Line:
    a, b = _distinct_points(rng, 2)
    return Line(a, b)


def _angle(rng) -> Angle:
    while True:
        v, p, q = _distinct_points(rng, 3)
        if not collinear(v, p, q):
            return Angle(v, p, q)


def _triangle(rng) -> Figure:
    while True:
        a, b, c = _distinct_points(rng, 3)
        if not collinear(a, b, c):
            return Figure([a, b, c])


def _length(rng) -> Constructible:
    return Constructible(Fraction(rng.randint(1, 24), rng.choice((1, 1, 2, 4))))


def _triangle_lengths(rng):
    while True:
        a, b, c = _length(rng), _length(rng), _length(rng)
        if ((a + b - c).sign() > 0 and (b + c - a).sign() > 0
                and (c + a - b).sign() > 0):
            return a, b, c


def _ray(rng) -> Ray:
    a, b = _distinct_points(rng, 2)
    return Ray(a, b)


def _parallelogram(rng) -> Figure:
    while True:
        a, b, d = _point(rng), _point(rng), _point(rng)
        if not collinear(a, b, d):
            return Figure([a, b, b + (d - a), d])


def _simple_polygon(rng, n: int) -> Figure:
    """A simple polygon via an exact angular sort around the centroid."""
    while True:
        pts = _distinct_points(rng, n)
        cx = sum((p.x for p in pts), Constructible(0)) / n
        cy = sum((p.y for p in pts), Constructible(0)) / n
        center = Point(cx, cy)
        if any(p == center for p in pts):
            continue

        def half(p: Point) -> int:
            dy = (p.y - center.y).sign()
            if dy != 0:
                return 0 if dy > 0 else 1
            return 0 if (p.x - center.x).sign() > 0 else 1

        def cmp(p: Point, q: Point) -> int:
            hp, hq = half(p), half(q)
            if hp != hq:
                return -1 if hp < hq else 1
            return -orientation(center, p, q)

        ordered = sorted(pts, key=functools.cmp_to_key(cmp))
        collinear_tie = any(
            cmp(ordered[i], ordered[(i + 1) % n]) == 0 for i in range(n))
        if collinear_tie:
            continue
        fig = Figure(ordered)
        if signed_area(fig).sign() != 0 and is_simple(fig):
            return fig


def _rational_rotation(rng):
    m = rng.randint(1, 5)
    n = rng.randint(0, m - 1)
    den = m * m + n * n
    c = Fraction(m * m - n * n, den)
    s = Fraction(2 * m * n, den)
    return Constructible(c), Constructible(s)


def _congruent_copy(rng, t: Figure) -> Figure:
    c, s = _rational_rotation(rng)
    tx, ty = _coord(rng), _coord(rng)
    flip = rng.choice((1, -1))
    out = []
    for p in t.vertices:
        x, y = p.x, p.y * flip
        out.append(Point(c * x - s * y + tx, s * x + c * y + ty))
    return Figure(out)


def _parallel_pair(rng):
    while True:
        l1 = _line(rng)
        p2 = _point(rng)
        if not l1.contains(p2):
            return l1, Line(p2, p2 + l1.direction())


def _transversal(rng, l1: Line, l2: Line) -> Line:
    while True:
        t = _line(rng)
        g = intersect_lines(t, l1)
        h = intersect_lines(t, l2)
        if isinstance(g, Point) and isinstance(h, Point) and g != h:
            return t


def i1(rng):
    return {"ab": _segment(rng), "side": rng.choice(("upper", "lower"))}


def i2(rng):
    while True:
        a = _point(rng)
        bc = _segment(rng)
        if a != bc.a:
            return {"a": a, "bc": bc}


def i3(rng):
    while True:
        g, l = _segment(rng), _segment(rng)
        if (g.length_sq() - l.length_sq()).sign() > 0:
            return {"greater": g, "less": l}


def i9(rng):
    return {"angle": _angle(rng)}


def i10(rng):
    return {"ab": _segment(rng)}


def i11(rng):
    l = _line(rng)
    t = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
    d = l.direction()
    c = Point(l.p.x + d.dx * t, l.p.y + d.dy * t)
    return {"l": l, "c": c}


def i12(rng):
    while True:
        l = _line(rng)
        c = _point(rng)
        if not l.contains(c):
            return {"l": l, "c": c}


def i22(rng):
    a, b, c = _triangle_lengths(rng)
    return {"a_len": a, "b_len": b, "c_len": c, "base_ray": _ray(rng),
            "side": rng.choice(("upper", "lower"))}


def i23(rng):
    return {"target_ray": _ray(rng), "model": _angle(rng),
            "side": rng.choice(("upper", "lower"))}


def i31(rng):
    got = i12(rng)
    return {"p": got["c"], "l": got["l"]}


def i42(rng):
    return {"t": _triangle(rng), "d": _angle(rng)}


def i43(rng):
    pg = _parallelogram(rng)
    t = Fraction(rng.randint(1, 15), 16)
    a, _, c, _ = pg.vertices
    k = Point(a.x + (c.x - a.x) * t, a.y + (c.y - a.y) * t)
    return {"pg": pg, "k": k}


def i44(rng):
    return {"ab": _segment(rng), "t": _triangle(rng), "d": _angle(rng),
            "side": rng.choice(("upper", "lower"))}


def i45(rng):
    n = rng.randint(3, 8)
    return {"d_angle": _angle(rng), "f": _simple_polygon(rng, n)}


def i46(rng):
    return {"ab": _segment(rng), "side": rng.choice(("upper", "lower"))}


def t_pair(rng):
    t1 = _triangle(rng)
    return {"t1": t1, "t2": _congruent_copy(rng, t1)}


def i7(rng):
    while True:
        base = _segment(rng)
        c = _point(rng)
        if base.line().side_of(c) != 0:
            return {"base": base, "c": c, "d": c}


def i13(rng):
    while True:
        b, d, a = _distinct_points(rng, 3)
        c = point_reflect(d, b)
        if not collinear(a, b, d):
            return {"a": a, "b": b, "c": c, "d": d}


def i15(rng):
    while True:
        e, a, c = _point(rng), _point(rng), _point(rng)
        if not collinear(e, a, c):
            return {"a": a, "b": point_reflect(a, e),
                    "c": c, "d": point_reflect(c, e)}


def triangle_only(rng):
    return {"t": _triangle(rng)}


def i26(rng):
    got = t_pair(rng)
    got["case"] = rng.choice(("adjoining", "subtending"))
    return got


def transversal_bundle(rng):
    l1, l2 = _parallel_pair(rng)
    return {"l1": l1, "l2": l2, "transversal": _transversal(rng, l1, l2)}


def i28(rng):
    got = transversal_bundle(rng)
    got["form"] = rng.choice(("exterior", "cointerior"))
    return got


def i30(rng):
    l1, l2 = _parallel_pair(rng)
    while True:
        p = _point(rng)
        if not l1.contains(p) and not l2.contains(p):
            l3 = Line(p, p + l1.direction())
            return {"l1": l1, "l2": l2, "l3": l3}


def i33(rng):
    while True:
        ab = _segment(rng)
        c = _point(rng)
        if not collinear(ab.a, ab.b, c):
            return {"ab": ab, "cd": Segment(c, ab.b + (c - ab.a))}


def i34(rng):
    return {"pg": _parallelogram(rng)}


def _shear_pg(rng, a: Point, b: Point, v) -> Figure:
    t = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
    u = b - a
    w_x, w_y = v.dx + u.dx * t, v.dy + u.dy * t
    return Figure([a, b, Point(b.x + w_x, b.y + w_y), Point(a.x + w_x, a.y + w_y)])


def _base_and_offset(rng):
    """Distinct points a, b and an offset v not parallel to b - a."""
    while True:
        a, b = _distinct_points(rng, 2)
        p = _point(rng)
        if not collinear(a, b, p):
            return a, b, p - a


def _slid_base(rng, a: Point, b: Point) -> tuple[Point, Point]:
    """The base a, b moved along its own line by a random multiple."""
    r = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
    u = b - a
    return (Point(a.x + u.dx * r, a.y + u.dy * r),
            Point(b.x + u.dx * r, b.y + u.dy * r))


def _apex_on_parallel(rng, a: Point, b: Point, v) -> Point:
    s = Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
    u = b - a
    return Point(a.x + v.dx + u.dx * s, a.y + v.dy + u.dy * s)


def i35(rng):
    a, b, v = _base_and_offset(rng)
    return {"pg1": _shear_pg(rng, a, b, v), "pg2": _shear_pg(rng, a, b, v)}


def i36(rng):
    a, b, v = _base_and_offset(rng)
    a2, b2 = _slid_base(rng, a, b)
    return {"pg1": _shear_pg(rng, a, b, v), "pg2": _shear_pg(rng, a2, b2, v)}


def i37(rng):
    a, b, v = _base_and_offset(rng)
    return {"t1": Figure([a, b, _apex_on_parallel(rng, a, b, v)]),
            "t2": Figure([a, b, _apex_on_parallel(rng, a, b, v)])}


def i38(rng):
    a, b, v = _base_and_offset(rng)
    a2, b2 = _slid_base(rng, a, b)
    return {"t1": Figure([a, b, _apex_on_parallel(rng, a, b, v)]),
            "t2": Figure([a2, b2, _apex_on_parallel(rng, a2, b2, v)])}


def i41(rng):
    a, b, v = _base_and_offset(rng)
    return {"pg": _shear_pg(rng, a, b, v),
            "t": Figure([a, b, _apex_on_parallel(rng, a, b, v)])}
