"""Helpers shared across the proposition catalogue."""

from __future__ import annotations

from ..errors import PreconditionViolated
from ..geom import (
    Angle,
    Figure,
    Line,
    Point,
    Ray,
    Segment,
    Vec,
    collinear,
    intersect_circles,
    is_parallelogram,
    on_ray_at_sq,
    orientation,
    point_reflect,
)
from ..number import Constructible
from ..trace import Tracer


def strategy_route(strategies: dict, base: str, strategy: str):
    """The route of ``strategy`` in the table of construction ``base``,
    which maps each strategy name to its route."""
    if strategy not in strategies:
        raise PreconditionViolated(f"unknown {base} strategy {strategy!r}")
    return strategies[strategy]


def side_sign(side: str) -> int:
    """The orientation sign of a side word: "upper" is +1 (left of the
    directed line), "lower" is -1."""
    if side == "upper":
        return 1
    if side == "lower":
        return -1
    raise PreconditionViolated("side must be 'upper' or 'lower'")


def side_word(sign: int) -> str:
    """The side word of an orientation sign."""
    return "upper" if sign > 0 else "lower"


def side_selector(anchor: Point, toward: Point, side: str):
    """Points strictly in the chosen half-plane of the ray anchor->toward,
    as ``orientation`` decides it, with the ray's direction taken once."""
    want = side_sign(side)
    direction = toward - anchor
    return lambda p: direction.cross(p - anchor).sign() == want


def side_name_of(anchor: Point, toward: Point, probe: Point) -> str:
    s = orientation(anchor, toward, probe)
    if s == 0:
        raise PreconditionViolated("probe point lies on the reference line")
    return side_word(s)


def far_side(ray: Ray, ab: Segment, side: str) -> str:
    """Side word on a ray along the segment ab for the half-plane away from
    ``side`` of the directed ab: the side where a construction builds its
    scaffold when its result is to lie on ``side``."""
    along = ray.direction().dot(ab.b - ab.a).sign()
    return side_word(-side_sign(side) * along)


def ahead(at: Point, d: Vec):
    """Points strictly ahead of ``at`` in the direction ``d``."""
    return lambda p: d.dot(p - at).sign() > 0


def produce(tr: Tracer, a: Point, b: Point) -> Point:
    """Produce ab beyond b (Postulate 2); the point as far beyond b as a
    lies before it."""
    tr.extend(Segment(a, b), "b")
    return point_reflect(a, b)


def cut_at(tr: Tracer, origin: Point, toward: Point, length_sq: Constructible,
           note: str) -> Point:
    """Lay off a length along the ray origin->toward (cites I.3)."""
    p = on_ray_at_sq(Ray(origin, toward), length_sq)
    tr.cite(note, (origin, toward), p)
    return p


def apex(tr: Tracer, c1: Point, t1: Point, c2: Point, t2: Point,
         toward: Point, side: str, note: str) -> Point:
    """Cut the circle about c1 through t1 with the circle about c2 through
    t2 on ``side`` of the ray c1->toward (the step of I.1 and I.22)."""
    k1 = tr.circle(c1, t1)
    k2 = tr.circle(c2, t2)
    return tr.pick(intersect_circles(k1, k2), side_selector(c1, toward, side),
                   note=note, operands=(k1, k2))


def cite_midpoint(tr: Tracer, a: Point, b: Point, note: str) -> Point:
    p = a.midpoint(b)
    tr.cite(note, (a, b), p)
    return p


def cite_parallel(tr: Tracer, through: Point, l: Line, note: str) -> Line:
    d = l.direction()
    out = Line(through, through + d)
    tr.cite(note, (through, l), out)
    return out


def angle_measures(a: Angle) -> tuple[Constructible, Constructible, Constructible]:
    """Squared lengths (vertex->arm1, vertex->arm2, arm1->arm2)."""
    return (a.vertex.dist_sq(a.arm1), a.vertex.dist_sq(a.arm2),
            a.arm1.dist_sq(a.arm2))


def require_triangle(f: Figure) -> None:
    if len(f) != 3:
        raise PreconditionViolated("expected a triangle")
    a, b, c = f.vertices
    if collinear(a, b, c):
        raise PreconditionViolated("degenerate (collinear) triangle")


def require_parallelogram(f: Figure) -> None:
    if not is_parallelogram(f):
        raise PreconditionViolated("expected a parallelogram")

