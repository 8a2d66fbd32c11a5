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
    Isometry,
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
    triangle_inequality,
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


def _segment(rng, cls=Segment):
    """A segment, or a ``Line`` or ``Ray`` as ``cls``, through two distinct
    points."""
    return cls(*_distinct_points(rng, 2))


def _triple(rng) -> list[Point]:
    """Three distinct points, not collinear."""
    while True:
        pts = _distinct_points(rng, 3)
        if not collinear(*pts):
            return pts


def _angle(rng) -> Angle:
    return Angle(*_triple(rng))


def _triangle(rng) -> Figure:
    return Figure(_triple(rng))


def _length(rng) -> Constructible:
    return Constructible(Fraction(rng.randint(1, 24), rng.choice((1, 1, 2, 4))))


def _triangle_lengths(rng):
    while True:
        a, b, c = _length(rng), _length(rng), _length(rng)
        if triangle_inequality(a * a, b * b, c * c):
            return a, b, c


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
    motion = Isometry(c, s, tx, ty, rng.choice((False, True)))
    return Figure(motion.apply(p) for p in t.vertices)


def _parallel_pair(rng):
    while True:
        l1 = _segment(rng, Line)
        p2 = _point(rng)
        if not l1.contains(p2):
            return l1, Line(p2, p2 + l1.direction())


def _transversal(rng, l1: Line, l2: Line) -> Line:
    while True:
        t = _segment(rng, Line)
        meets = intersect_lines(t, l1) + intersect_lines(t, l2)
        if len(meets) == 2 and meets[0] != meets[1]:
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
    l = _segment(rng, Line)
    t = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
    return {"l": l, "c": l.p + l.direction() * t}


def i12(rng):
    while True:
        l = _segment(rng, Line)
        c = _point(rng)
        if not l.contains(c):
            return {"l": l, "c": c}


def i22(rng):
    a, b, c = _triangle_lengths(rng)
    return {"a_len": a, "b_len": b, "c_len": c, "base_ray": _segment(rng, Ray),
            "side": rng.choice(("upper", "lower"))}


def i23(rng):
    return {"target_ray": _segment(rng, Ray), "model": _angle(rng),
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
    return {"pg": pg, "k": a + (c - a) * t}


def i44(rng):
    return {"ab": _segment(rng), "t": _triangle(rng), "d": _angle(rng),
            "side": rng.choice(("upper", "lower"))}


def i45(rng):
    n = rng.randint(3, 8)
    return {"d_angle": _angle(rng), "f": _simple_polygon(rng, n)}


def t_pair(rng):
    t1 = _triangle(rng)
    return {"t1": t1, "t2": _congruent_copy(rng, t1)}


def i7(rng):
    while True:
        base = _segment(rng)
        c = _point(rng)
        if orientation(base.a, base.b, c) != 0:
            return {"base": base, "c": c, "d": c}


def i13(rng):
    b, d, a = _triple(rng)
    return {"a": a, "b": b, "c": point_reflect(d, b), "d": d}


def i15(rng):
    while True:
        e, a, c = _point(rng), _point(rng), _point(rng)
        if not collinear(e, a, c):
            return {"a": a, "b": point_reflect(a, e),
                    "c": c, "d": point_reflect(c, e)}


def triangle_only(rng):
    return {"t": _triangle(rng)}


def transversal_bundle(rng):
    l1, l2 = _parallel_pair(rng)
    return {"l1": l1, "l2": l2, "transversal": _transversal(rng, l1, l2)}


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
    top = a + v + u * t
    return Figure([a, b, top + u, top])


def _base_and_offset(rng):
    """Distinct points a, b and an offset v not parallel to b - a."""
    while True:
        a, b = _distinct_points(rng, 2)
        p = _point(rng)
        if not collinear(a, b, p):
            return a, b, p - a


def _slid_base(rng, a: Point, b: Point) -> tuple[Point, Point]:
    """The base a, b moved along its own line by a random multiple."""
    shift = (b - a) * Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
    return a + shift, b + shift


def _apex_on_parallel(rng, a: Point, b: Point, v) -> Point:
    s = Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
    return a + v + (b - a) * s


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
