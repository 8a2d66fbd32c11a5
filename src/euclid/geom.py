"""Geometric primitives over exact constructible coordinates.

Points, segments, lines, rays, circles, angles and polygonal figures, the
three postulate primitives (join, extend, circle), exact intersection
operations, exact predicates, and rigid motions.  Every predicate decides
with the exact sign of a constructible number; there are no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import number
from .errors import (
    CoincidentCircles,
    DegenerateInput,
    SuperpositionMismatch,
)
from .number import Constructible, sqrt_nonneg

Coord = Union[int, "Constructible"]


def _c(x) -> Constructible:
    return x if isinstance(x, Constructible) else Constructible(x)


# ---------------------------------------------------------------------------
# primitive types


@dataclass(frozen=True)
class Point:
    x: Constructible
    y: Constructible

    def __init__(self, x: Coord, y: Coord):
        object.__setattr__(self, "x", _c(x))
        object.__setattr__(self, "y", _c(y))

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return (self.x - other.x).is_zero() and (self.y - other.y).is_zero()

    def __hash__(self):
        return hash((self.x, self.y))

    def __add__(self, v: "Vec") -> "Point":
        return Point(self.x + v.dx, self.y + v.dy)

    def __sub__(self, other: "Point") -> "Vec":
        return Vec(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        half = number.rational(1, 2)
        return Point((self.x + other.x) * half, (self.y + other.y) * half)

    def dist_sq(self, other: "Point") -> Constructible:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def dist(self, other: "Point") -> Constructible:
        return sqrt_nonneg(self.dist_sq(other))

    def radical_depth(self) -> int:
        return max(self.x.radical_depth(), self.y.radical_depth())

    def approx(self, digits: int = 6) -> tuple[str, str]:
        return self.x.approx(digits), self.y.approx(digits)

    def __repr__(self):
        return f"Point({self.x.approx(4)}, {self.y.approx(4)})"


@dataclass(frozen=True)
class Vec:
    dx: Constructible
    dy: Constructible

    def __init__(self, dx: Coord, dy: Coord):
        object.__setattr__(self, "dx", _c(dx))
        object.__setattr__(self, "dy", _c(dy))

    def dot(self, other: "Vec") -> Constructible:
        return self.dx * other.dx + self.dy * other.dy

    def cross(self, other: "Vec") -> Constructible:
        return self.dx * other.dy - self.dy * other.dx

    def norm_sq(self) -> Constructible:
        return self.dot(self)

    def perp(self) -> "Vec":
        return Vec(-self.dy, self.dx)

    def __add__(self, other: "Vec") -> "Vec":
        return Vec(self.dx + other.dx, self.dy + other.dy)

    def __neg__(self) -> "Vec":
        return Vec(-self.dx, -self.dy)

    def scaled(self, k) -> "Vec":
        k = _c(k)
        return Vec(self.dx * k, self.dy * k)


@dataclass(frozen=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise DegenerateInput("segment endpoints coincide")

    def length_sq(self) -> Constructible:
        return self.a.dist_sq(self.b)

    def length(self) -> Constructible:
        return self.a.dist(self.b)

    def direction(self) -> Vec:
        return self.b - self.a

    def midpoint(self) -> Point:
        return self.a.midpoint(self.b)

    def reversed(self) -> "Segment":
        return Segment(self.b, self.a)

    def line(self) -> "Line":
        return Line(self.a, self.b)

    def contains(self, p: Point) -> bool:
        d = self.direction()
        w = p - self.a
        if not d.cross(w).is_zero():
            return False
        t = d.dot(w)
        return t.sign() >= 0 and (t - d.norm_sq()).sign() <= 0


@dataclass(frozen=True)
class Line:
    p: Point
    q: Point

    def __post_init__(self):
        if self.p == self.q:
            raise DegenerateInput("a line needs two distinct points")

    def direction(self) -> Vec:
        return self.q - self.p

    def contains(self, pt: Point) -> bool:
        return self.direction().cross(pt - self.p).is_zero()

    def side_of(self, pt: Point) -> int:
        """+1 left of p->q, -1 right, 0 on the line."""
        return self.direction().cross(pt - self.p).sign()


@dataclass(frozen=True)
class Ray:
    origin: Point
    through: Point

    def __post_init__(self):
        if self.origin == self.through:
            raise DegenerateInput("a ray needs a direction point")

    def direction(self) -> Vec:
        return self.through - self.origin

    def line(self) -> Line:
        return Line(self.origin, self.through)

    def contains(self, p: Point) -> bool:
        d = self.direction()
        w = p - self.origin
        return d.cross(w).is_zero() and d.dot(w).sign() >= 0


@dataclass(frozen=True)
class Circle:
    center: Point
    radius_sq: Constructible

    def __init__(self, center: Point, radius_sq: Coord):
        rs = _c(radius_sq)
        if rs.sign() <= 0:
            raise DegenerateInput("circle must have positive radius")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius_sq", rs)

    @property
    def radius(self) -> Constructible:
        return sqrt_nonneg(self.radius_sq)

    def contains(self, p: Point) -> bool:
        return (self.center.dist_sq(p) - self.radius_sq).is_zero()


@dataclass(frozen=True)
class Angle:
    """Undirected rectilineal angle at ``vertex`` between the two arm rays.

    Proper by construction: the arms are distinct from the vertex and the
    three points are not collinear, so the angle lies strictly between zero
    and two right angles.
    """

    vertex: Point
    arm1: Point
    arm2: Point

    def __post_init__(self):
        u = self.arm1 - self.vertex
        v = self.arm2 - self.vertex
        if (u.dx.is_zero() and u.dy.is_zero()) or (v.dx.is_zero() and v.dy.is_zero()):
            raise DegenerateInput("angle arm coincides with vertex")
        if u.cross(v).is_zero():
            raise DegenerateInput("angle arms are collinear")

    def arms(self) -> tuple[Vec, Vec]:
        return self.arm1 - self.vertex, self.arm2 - self.vertex

    def cos_parts(self) -> tuple[Constructible, Constructible]:
        """(dot, |u|^2 * |v|^2): cos = dot / sqrt(second part)."""
        u, v = self.arms()
        return u.dot(v), u.norm_sq() * v.norm_sq()


@dataclass(frozen=True)
class Figure:
    """Closed polygon given by its ordered vertices (three or more)."""

    vertices: tuple[Point, ...]

    def __init__(self, vertices: Iterable[Point]):
        vs = tuple(vertices)
        if len(vs) < 3:
            raise DegenerateInput("a figure needs at least three vertices")
        for a, b in zip(vs, vs[1:] + vs[:1]):
            if a == b:
                raise DegenerateInput("consecutive figure vertices coincide")
        object.__setattr__(self, "vertices", vs)

    def __len__(self):
        return len(self.vertices)

    def sides(self) -> list[Segment]:
        vs = self.vertices
        return [Segment(a, b) for a, b in zip(vs, vs[1:] + vs[:1])]

    def reversed(self) -> "Figure":
        return Figure(tuple(reversed(self.vertices)))


# rotation pair (c, s) with c^2 + s^2 = 1, optional reflection, translation
@dataclass(frozen=True)
class Isometry:
    c: Constructible
    s: Constructible
    tx: Constructible
    ty: Constructible
    reflect: bool = False

    def apply(self, p: Point) -> Point:
        x, y = p.x, p.y
        if self.reflect:
            y = -y
        return Point(self.c * x - self.s * y + self.tx,
                     self.s * x + self.c * y + self.ty)

    def __call__(self, p: Point) -> Point:
        return self.apply(p)

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        oc, os = other.c, other.s
        if self.reflect:
            oc, os = oc, -os  # reflect flips the incoming rotation's sense
        c = self.c * oc - self.s * os
        s = self.s * oc + self.c * os
        t = self.apply(Point(other.tx, other.ty))
        return Isometry(c, s, t.x, t.y, self.reflect != other.reflect)


# sentinel results for line intersection
class _NoIntersection:
    def __repr__(self):
        return "NoIntersection"


class _Coincident:
    def __repr__(self):
        return "Coincident"


NO_INTERSECTION = _NoIntersection()
COINCIDENT = _Coincident()


# ---------------------------------------------------------------------------
# postulate primitives


def join(p: Point, q: Point) -> Line:
    """Postulate 1: the straight line through two distinct points."""
    if p == q:
        raise DegenerateInput("cannot join coincident points")
    return Line(p, q)


def join_segment(p: Point, q: Point) -> Segment:
    if p == q:
        raise DegenerateInput("cannot join coincident points")
    return Segment(p, q)


def extend(s: Segment, beyond: str) -> Ray:
    """Postulate 2: produce the segment beyond one endpoint.

    ``beyond`` names the endpoint ('a' or 'b') past which the segment is
    produced; the ray starts at the other endpoint and covers the segment.
    """
    if beyond == "b":
        return Ray(s.a, s.b)
    if beyond == "a":
        return Ray(s.b, s.a)
    raise ValueError("beyond must be 'a' or 'b'")


def circle(center: Point, distance_to: Point) -> Circle:
    """Postulate 3: circle with given centre through a given point."""
    if center == distance_to:
        raise DegenerateInput("circle through its own centre")
    return Circle(center, center.dist_sq(distance_to))


# ---------------------------------------------------------------------------
# intersections


def point_key(p: Point) -> "_PointKey":
    """Sort key for the canonical lexicographic point order."""
    return _PointKey(p)


class _PointKey:
    __slots__ = ("p",)

    def __init__(self, p: Point):
        self.p = p

    def __lt__(self, other: "_PointKey") -> bool:
        sx = (self.p.x - other.p.x).sign()
        if sx != 0:
            return sx < 0
        return (self.p.y - other.p.y).sign() < 0


def _sorted_points(points: list[Point]) -> list[Point]:
    return sorted(points, key=point_key)


def intersect_lines(l1: Line, l2: Line):
    """Exact intersection point, NO_INTERSECTION, or COINCIDENT."""
    d1 = l1.direction()
    d2 = l2.direction()
    denom = d1.cross(d2)
    if denom.is_zero():
        return COINCIDENT if l1.contains(l2.p) else NO_INTERSECTION
    t = (l2.p - l1.p).cross(d2) / denom
    return Point(l1.p.x + d1.dx * t, l1.p.y + d1.dy * t)


def intersect_line_circle(l: Line, c: Circle) -> list[Point]:
    """0, 1 (tangent) or 2 exact points in canonical order."""
    d = l.direction()
    f = l.p - c.center
    a = d.norm_sq()
    b = d.dot(f) * 2
    cc = f.norm_sq() - c.radius_sq
    disc = b * b - 4 * a * cc
    sd = disc.sign()
    if sd < 0:
        return []
    if sd == 0:
        t = -b / (2 * a)
        return [Point(l.p.x + d.dx * t, l.p.y + d.dy * t)]
    root = sqrt_nonneg(disc)
    out = []
    for t in ((-b - root) / (2 * a), (-b + root) / (2 * a)):
        out.append(Point(l.p.x + d.dx * t, l.p.y + d.dy * t))
    return _sorted_points(out)


def intersect_circles(c1: Circle, c2: Circle) -> list[Point]:
    """0, 1 (touching) or 2 exact points in canonical order."""
    same_center = c1.center == c2.center
    if same_center and (c1.radius_sq - c2.radius_sq).is_zero():
        raise CoincidentCircles("the circles coincide")
    if same_center:
        return []
    # radical line: subtract the two circle equations
    x1, y1 = c1.center.x, c1.center.y
    x2, y2 = c2.center.x, c2.center.y
    a = (x2 - x1) * 2
    b = (y2 - y1) * 2
    rhs = (c1.radius_sq - c2.radius_sq) - (x1 * x1 - x2 * x2) - (y1 * y1 - y2 * y2)
    # two points of the radical line a*x + b*y = rhs
    if not a.is_zero():
        p1 = Point(rhs / a, 0)
        p2 = Point((rhs - b) / a, 1)
    else:
        p1 = Point(0, rhs / b)
        p2 = Point(1, rhs / b)
    return intersect_line_circle(Line(p1, p2), c1)


# ---------------------------------------------------------------------------
# predicates


def segment_eq(s1: Segment, s2: Segment) -> bool:
    """Congruence of segments, decided on squared lengths."""
    return (s1.length_sq() - s2.length_sq()).is_zero()


def angle_eq(a1: Angle, a2: Angle) -> bool:
    """Equality of undirected proper angles: exactly equal cosines."""
    d1, q1 = a1.cos_parts()
    d2, q2 = a2.cos_parts()
    if d1.sign() != d2.sign():
        return False
    return (d1 * d1 * q2 - d2 * d2 * q1).is_zero()


def angle_lt(a1: Angle, a2: Angle) -> bool:
    """a1 strictly smaller than a2 (cosine strictly larger), exact."""
    d1, q1 = a1.cos_parts()
    d2, q2 = a2.cos_parts()
    s1, s2 = d1.sign(), d2.sign()
    if s1 != s2:
        return s1 > s2
    # same sign: compare d1/sqrt(q1) > d2/sqrt(q2) by squaring with care
    diff = (d1 * d1 * q2 - d2 * d2 * q1).sign()
    if s1 > 0:
        return diff > 0
    if s1 < 0:
        return diff < 0
    return False


def angles_sum_to_two_rights(a1: Angle, a2: Angle) -> bool:
    """cos(a1) == -cos(a2), exactly; for proper angles this is a1+a2=pi."""
    d1, q1 = a1.cos_parts()
    d2, q2 = a2.cos_parts()
    if d1.sign() != -d2.sign():
        return False
    return (d1 * d1 * q2 - d2 * d2 * q1).is_zero()


def angle_cos(a: Angle) -> Constructible:
    d, q = a.cos_parts()
    return d / sqrt_nonneg(q)


def angle_sin(a: Angle) -> Constructible:
    u, v = a.arms()
    return abs(u.cross(v)) / sqrt_nonneg(u.norm_sq() * v.norm_sq())


def angle_sum_eq(a1: Angle, a2: Angle, total: Angle) -> bool:
    """cos(a1 + a2) == cos(total), exactly (all proper, sum below 2 pi)."""
    c = angle_cos(a1) * angle_cos(a2) - angle_sin(a1) * angle_sin(a2)
    return (c - angle_cos(total)).is_zero()


def is_right(a: Angle) -> bool:
    u, v = a.arms()
    return u.dot(v).is_zero()


def parallel(l1: Line, l2: Line) -> bool:
    """Direction-parallelism; coincident lines also qualify."""
    return l1.direction().cross(l2.direction()).is_zero()


def collinear(p: Point, q: Point, r: Point) -> bool:
    return (q - p).cross(r - p).is_zero()


def between(p: Point, q: Point, r: Point) -> bool:
    """q strictly between p and r on their common line."""
    if not collinear(p, q, r):
        return False
    return (q - p).dot(q - r).sign() < 0


def signed_area(f: Figure) -> Constructible:
    """Half the shoelace sum; positive for counter-clockwise order."""
    total = _c(0)
    vs = f.vertices
    for a, b in zip(vs, vs[1:] + vs[:1]):
        total = total + (a.x * b.y - b.x * a.y)
    return total / 2


def content(f: Figure) -> Constructible:
    """Equality-of-figures measure: the absolute enclosed area."""
    return abs(signed_area(f))


def is_parallelogram(f: Figure) -> bool:
    if len(f) != 4:
        return False
    a, b, c, d = f.vertices
    return ((b - a).cross(c - d).is_zero() and (c - b).cross(d - a).is_zero()
            and not collinear(a, b, c))


def is_simple(f: Figure) -> bool:
    """No two non-adjacent sides meet; adjacent sides meet only at shared ends."""
    sides = f.sides()
    n = len(sides)
    for i in range(n):
        for j in range(i + 1, n):
            s1, s2 = sides[i], sides[j]
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                shared = s1.b if j == i + 1 else s1.a
                other1 = s1.a if j == i + 1 else s1.b
                if s2.contains(other1) and other1 != shared:
                    return False
                other2 = s2.b if j == i + 1 else s2.a
                if s1.contains(other2) and other2 != shared:
                    return False
                continue
            if _segments_meet(s1, s2):
                return False
    return True


def _segments_meet(s1: Segment, s2: Segment) -> bool:
    got = intersect_lines(s1.line(), s2.line())
    if got is NO_INTERSECTION:
        return False
    if got is COINCIDENT:
        return s1.contains(s2.a) or s1.contains(s2.b) or s2.contains(s1.a)
    return s1.contains(got) and s2.contains(got)


# ---------------------------------------------------------------------------
# rigid motions (the formal counterpart of superposition)


def superpose(from_seg: Segment, to_seg: Segment, side: str = "direct") -> Isometry:
    """The isometry carrying one segment exactly onto a congruent one.

    ``side`` chooses between the orientation-preserving motion ("direct")
    and the reflected one ("flipped"), which land images in opposite
    half-planes.
    """
    if not segment_eq(from_seg, to_seg):
        raise SuperpositionMismatch("only congruent segments can be superposed")
    vf = from_seg.direction()
    vt = to_seg.direction()
    lsq = from_seg.length_sq()
    if side == "flipped":
        vf = Vec(vf.dx, -vf.dy)
    c = vf.dot(vt) / lsq
    s = vf.cross(vt) / lsq
    a = from_seg.a
    ax, ay = (a.x, -a.y) if side == "flipped" else (a.x, a.y)
    tx = to_seg.a.x - (c * ax - s * ay)
    ty = to_seg.a.y - (s * ax + c * ay)
    m = Isometry(c, s, tx, ty, side == "flipped")
    assert (c * c + s * s - 1).is_zero(), "rotation pair must be unitary"
    return m


def apply_isometry(m: Isometry, p: Point) -> Point:
    return m.apply(p)


def point_reflect(p: Point, through: Point) -> Point:
    """The point on the far side of ``through`` at the same distance."""
    return Point(through.x * 2 - p.x, through.y * 2 - p.y)


# ---------------------------------------------------------------------------
# small helpers shared by the proposition catalogue


def on_ray_at_sq(ray: Ray, dist_sq: Constructible) -> Point:
    """The point of the ray at squared distance ``dist_sq`` from its origin."""
    d = ray.direction()
    t = sqrt_nonneg(dist_sq / d.norm_sq())
    return Point(ray.origin.x + d.dx * t, ray.origin.y + d.dy * t)


def foot_of_perpendicular(l: Line, p: Point) -> Point:
    d = l.direction()
    t = d.dot(p - l.p) / d.norm_sq()
    return Point(l.p.x + d.dx * t, l.p.y + d.dy * t)
