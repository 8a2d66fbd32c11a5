"""Geometric primitives over exact constructible coordinates.

Points, segments, lines, rays, circles, angles and polygonal figures, the
postulate primitives (a join is the ``Segment`` or ``Line`` constructor;
extend, circle), exact intersection operations, exact predicates, and
rigid motions.  Every predicate decides with the exact sign of a
constructible number; there are no tolerances.

Geometry values are immutable by contract, as ``Constructible`` is: each
is a slotted dataclass that stores its fields once, by plain assignment
in its own constructor, and nothing assigns them afterwards (a point's
rounded coordinates are filled once, on first use).  The store is not
frozen: a frozen dataclass stores each field through
``object.__setattr__``, which made building a point or a vector nearly
three times as slow, so ``tests/test_invariants.py`` checks the contract
instead.  Values compare and hash by their fields, and a value of one
type never equals one of another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import (
    CoincidentCircles,
    DegenerateInput,
    SuperpositionMismatch,
)
from .number import DIGITS, Constructible, sqrt_nonneg

Coord = Union[int, "Constructible"]


# ---------------------------------------------------------------------------
# primitive types


@dataclass(slots=True, unsafe_hash=True)
class Point:
    x: Constructible
    y: Constructible
    _rounded: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __init__(self, x: Coord, y: Coord):
        self.x = x if type(x) is Constructible else Constructible(x)
        self.y = y if type(y) is Constructible else Constructible(y)

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __add__(self, v: "Vec") -> "Point":
        return Point(self.x + v.dx, self.y + v.dy)

    def __sub__(self, other: "Point") -> "Vec":
        return Vec(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        return Point((self.x + other.x) / 2, (self.y + other.y) / 2)

    def dist_sq(self, other: "Point") -> Constructible:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    @property
    def rounded(self) -> tuple[int, int]:
        """The coordinates in units of 10**-DIGITS, each rounded once: the
        trace text and the SVG both write these integers.  Threads that
        race to fill the slot store equal integers."""
        try:
            return self._rounded
        except AttributeError:
            kept = self._rounded = (self.x.scaled(DIGITS), self.y.scaled(DIGITS))
            return kept

    def __repr__(self):
        return f"Point({self.x.approx(4)}, {self.y.approx(4)})"


@dataclass(slots=True, unsafe_hash=True)
class Vec:
    dx: Constructible
    dy: Constructible

    def __init__(self, dx: Coord, dy: Coord):
        self.dx = dx if type(dx) is Constructible else Constructible(dx)
        self.dy = dy if type(dy) is Constructible else Constructible(dy)

    def dot(self, other: "Vec") -> Constructible:
        return self.dx * other.dx + self.dy * other.dy

    def cross(self, other: "Vec") -> Constructible:
        return self.dx * other.dy - self.dy * other.dx

    def norm_sq(self) -> Constructible:
        return self.dot(self)

    def __mul__(self, k) -> "Vec":
        return Vec(self.dx * k, self.dy * k)


@dataclass(slots=True, unsafe_hash=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise DegenerateInput("segment endpoints coincide")

    def length_sq(self) -> Constructible:
        return self.a.dist_sq(self.b)

    def length(self) -> Constructible:
        return sqrt_nonneg(self.length_sq())

    def direction(self) -> Vec:
        return self.b - self.a

    def line(self) -> "Line":
        return Line(self.a, self.b)

    def contains(self, p: Point) -> bool:
        return (collinear(self.a, self.b, p)
                and (p - self.a).dot(p - self.b).sign() <= 0)


@dataclass(slots=True, unsafe_hash=True)
class Line:
    p: Point
    q: Point

    def __post_init__(self):
        if self.p == self.q:
            raise DegenerateInput("a line needs two distinct points")

    def direction(self) -> Vec:
        return self.q - self.p

    def line(self) -> "Line":
        return self

    def contains(self, pt: Point) -> bool:
        return collinear(self.p, self.q, pt)


@dataclass(slots=True, unsafe_hash=True)
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
        return (collinear(self.origin, self.through, p)
                and self.direction().dot(p - self.origin).sign() >= 0)


@dataclass(slots=True, unsafe_hash=True)
class Circle:
    center: Point
    radius_sq: Constructible

    def __init__(self, center: Point, radius_sq: Coord):
        rs = (radius_sq if type(radius_sq) is Constructible
              else Constructible(radius_sq))
        if rs.sign() <= 0:
            raise DegenerateInput("circle must have positive radius")
        self.center = center
        self.radius_sq = rs

    def contains(self, p: Point) -> bool:
        return (self.center.dist_sq(p) - self.radius_sq).is_zero()


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
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
        self.vertices = vs

    def __len__(self):
        return len(self.vertices)

    def sides(self) -> list[Segment]:
        vs = self.vertices
        return [Segment(a, b) for a, b in zip(vs, vs[1:] + vs[:1])]


# rotation pair (c, s) with c^2 + s^2 = 1, optional reflection, translation
@dataclass(slots=True, unsafe_hash=True)
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


def _fields(obj) -> list:
    """The values of a dataclass's constructor fields, in field order, which
    its ``__match_args__`` names; [] for any other value."""
    return [getattr(obj, name) for name in getattr(obj, "__match_args__", ())]


def coords(obj) -> list[Constructible]:
    """Every constructible number in a geometry value, in field order.

    Tuples are flattened and any other value walks its fields; a value
    with no geometry in it gives [].
    """
    if isinstance(obj, Point):
        return [obj.x, obj.y]
    if isinstance(obj, Constructible):
        return [obj]
    parts = obj if isinstance(obj, tuple) else _fields(obj)
    return [c for part in parts for c in coords(part)]


def points(obj) -> list[Point]:
    """The defining points of a geometry value, in field order."""
    if isinstance(obj, Point):
        return [obj]
    if isinstance(obj, Figure):
        return list(obj.vertices)
    return [v for v in _fields(obj) if isinstance(v, Point)]


# ---------------------------------------------------------------------------
# postulate primitives


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
    return Circle(center, center.dist_sq(distance_to))


# ---------------------------------------------------------------------------
# intersections


def intersect_lines(l1: Line, l2: Line) -> list[Point]:
    """The one exact intersection point, or none for parallel or
    coincident lines."""
    d1 = l1.direction()
    d2 = l2.direction()
    denom = d1.cross(d2)
    if denom.is_zero():
        return []
    t = (l2.p - l1.p).cross(d2) / denom
    return [l1.p + d1 * t]


def _chord(foot: Point, v: Vec, radicand: Constructible, k) -> list[Point]:
    """The chord foot -/+ v*sqrt(radicand)*k, k > 0: none when the radicand
    is negative, the foot alone when it is zero.  The second point less the
    first is a positive multiple of v, so the signs of v put the two in
    lexicographic (x, y) order."""
    sr = radicand.sign()
    if sr < 0:
        return []
    if sr == 0:
        return [foot]
    h = v * (sqrt_nonneg(radicand) * k)
    p, q = Point(foot.x - h.dx, foot.y - h.dy), foot + h
    return [p, q] if (v.dx.sign() or v.dy.sign()) > 0 else [q, p]


def intersect_line_circle(l: Line, c: Circle) -> list[Point]:
    """0, 1 (tangent) or 2 exact points in lexicographic (x, y) order: the
    roots of a t^2 + b t + cc = 0 on the line l.p + d t, the chord about
    the foot at t = -b/(2a) in the direction d, rooting b^2 - 4a cc."""
    d = l.direction()
    f = l.p - c.center
    a = d.norm_sq()
    b = d.dot(f) * 2
    cc = f.norm_sq() - c.radius_sq
    k = 1 / (2 * a)
    return _chord(l.p + d * (-b * k), d, b * b - 4 * a * cc, k)


def intersect_circles(c1: Circle, c2: Circle) -> list[Point]:
    """0, 1 (touching) or 2 exact points in lexicographic (x, y) order.

    With d = c2 - c1, s = r1 - r2 + |d|^2 (r1, r2 the squared radii) and
    q = 4*r1*|d|^2 - s^2, the chord's foot is c1 + d*s/(2|d|^2) and its
    half is (dy, -dx)*sqrt(q)/(2|d|^2).  ``_chord`` roots q/m^2, m being
    d.dx, or d.dy when d.dx is 0, and scales by k = |m|/(2|d|^2).  q/m^2
    is the discriminant b^2 - 4ac that ``intersect_line_circle`` takes for
    the radical line stepped by 1 in y (in x when d.dx is 0) and the first
    circle, so the tower adjoins the radicand that construction adjoined.
    Rooting q/(4|d|^4), the squared half chord over |d|^2, would give the
    same points over a different radicand and so move I.9's printed output.
    """
    d = c2.center - c1.center
    m = d.dx or d.dy
    if not m:
        if c1.radius_sq == c2.radius_sq:
            raise CoincidentCircles("the circles coincide")
        return []
    dd = d.norm_sq()
    s = c1.radius_sq - c2.radius_sq + dd
    q = 4 * c1.radius_sq * dd - s * s
    k = 1 / (2 * dd)
    return _chord(c1.center + d * (s * k), Vec(d.dy, -d.dx), q / (m * m),
                  abs(m) * k)


# ---------------------------------------------------------------------------
# predicates


def segment_eq(s1: Segment, s2: Segment) -> bool:
    """Congruence of segments, decided on squared lengths."""
    return (s1.length_sq() - s2.length_sq()).is_zero()


def triangle_inequality(x: Constructible, y: Constructible,
                        z: Constructible) -> bool:
    """Any two of the lengths with squares x, y, z together exceed the
    third, decided without a root.  sqrt(x) + sqrt(y) > sqrt(z) exactly
    when d = x + y - z >= 0 or 4xy > d^2; all three pairings hold exactly
    when 4xy > d^2, which is sixteen times the squared area (Heron)."""
    d = x + y - z
    return (4 * x * y - d * d).sign() > 0


def _angle_sum(*terms: tuple[Angle, int]) -> tuple[Constructible, Constructible]:
    """(c, s), a positive multiple of the cosine and sine of the signed sum
    of the terms (angle, +1 or -1).  An angle with arms u and v gives
    (u.v, |u x v|), which is |u||v| times its cosine and sine; the pairs
    fold by the angle-sum rule, so no norm and no root is taken."""
    pairs = []
    for a, k in terms:
        u, v = a.arms()
        sin = abs(u.cross(v))
        pairs.append((u.dot(v), sin if k > 0 else -sin))
    (c, s), *rest = pairs
    for ci, si in rest:
        c, s = c * ci - s * si, s * ci + c * si
    return c, s


def angle_eq(a1: Angle, a2: Angle) -> bool:
    """Equality of undirected proper angles: the sine of a1 - a2 is zero."""
    return _angle_sum((a1, 1), (a2, -1))[1].is_zero()


def angle_lt(a1: Angle, a2: Angle) -> bool:
    """a1 strictly smaller than a2: the sine of a2 - a1 is positive."""
    return _angle_sum((a2, 1), (a1, -1))[1].sign() > 0


def angles_sum_to_two_rights(*angles: Angle) -> bool:
    """Two or three proper angles make two right angles: the sine of their
    sum is zero and its cosine negative."""
    c, s = _angle_sum(*((a, 1) for a in angles))
    return s.is_zero() and c.sign() < 0


def angle_sum_eq(a1: Angle, a2: Angle, total: Angle) -> bool:
    """a1 + a2 equals total: the sine of a1 + a2 - total is zero and its
    cosine positive."""
    c, s = _angle_sum((a1, 1), (a2, 1), (total, -1))
    return s.is_zero() and c.sign() > 0


def is_right(a: Angle) -> bool:
    u, v = a.arms()
    return u.dot(v).is_zero()


def parallel(l1: Line, l2: Line) -> bool:
    """Direction-parallelism; coincident lines also qualify."""
    return l1.direction().cross(l2.direction()).is_zero()


def orientation(a: Point, b: Point, p: Point) -> int:
    """+1 if p lies left of the directed line a->b, -1 right of it, 0 on it."""
    return (b - a).cross(p - a).sign()


def collinear(p: Point, q: Point, r: Point) -> bool:
    return (q - p).cross(r - p).is_zero()


def between(p: Point, q: Point, r: Point) -> bool:
    """q strictly between p and r on their common line."""
    return collinear(p, q, r) and (q - p).dot(q - r).sign() < 0


def signed_area(f: Figure) -> Constructible:
    """Half the shoelace sum; positive for counter-clockwise order."""
    total = Constructible(0)
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
    """No vertex folds its two sides back onto each other, and no two
    non-adjacent sides meet."""
    vs = f.vertices
    n = len(vs)
    for a, b, c in zip(vs[-1:] + vs[:-1], vs, vs[1:] + vs[:1]):
        if collinear(a, b, c) and (b - a).dot(b - c).sign() >= 0:
            return False
    sides = f.sides()
    # sides 0 and n - 1 are adjacent across vertex 0
    return not any(_segments_meet(sides[i], sides[j])
                   for i in range(n) for j in range(i + 2, n - (i == 0)))


def _segments_meet(s1: Segment, s2: Segment) -> bool:
    got = intersect_lines(s1.line(), s2.line())
    if got:
        return s1.contains(got[0]) and s2.contains(got[0])
    # parallel sides meet only where they overlap on one line
    return s1.contains(s2.a) or s1.contains(s2.b) or s2.contains(s1.a)


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
    # c^2 + s^2 = 1: |vf|^2 = |vt|^2 = lsq, and by Lagrange's identity
    # (vf.vt)^2 + (vf x vt)^2 = |vf|^2 |vt|^2.
    c = vf.dot(vt) / lsq
    s = vf.cross(vt) / lsq
    a = from_seg.a
    ax, ay = (a.x, -a.y) if side == "flipped" else (a.x, a.y)
    tx = to_seg.a.x - (c * ax - s * ay)
    ty = to_seg.a.y - (s * ax + c * ay)
    return Isometry(c, s, tx, ty, side == "flipped")


def point_reflect(p: Point, through: Point) -> Point:
    """The point on the far side of ``through`` at the same distance."""
    return Point(through.x * 2 - p.x, through.y * 2 - p.y)


# ---------------------------------------------------------------------------
# small helpers shared by the proposition catalogue


def on_ray_at_sq(ray: Ray, dist_sq: Constructible) -> Point:
    """The point of the ray at squared distance ``dist_sq`` from its origin."""
    d = ray.direction()
    return ray.origin + d * sqrt_nonneg(dist_sq / d.norm_sq())
