import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from euclid.errors import CoincidentCircles, DegenerateInput, SuperpositionMismatch
from euclid.geom import (
    Angle,
    Circle,
    Figure,
    Line,
    Point,
    Ray,
    Segment,
    angle_eq,
    angle_sum_eq,
    angles_sum_to_two_rights,
    circle,
    collinear,
    extend,
    intersect_circles,
    intersect_line_circle,
    intersect_lines,
    angle_lt,
    between,
    is_right,
    is_simple,
    orientation,
    parallel,
    point_reflect,
    segment_eq,
    signed_area,
    superpose,
    triangle_inequality,
)
from euclid.number import (
    Constructible,
    current_context,
    new_context,
    sqrt_nonneg,
)


def P(x, y=None):
    if y is None:
        x, y = x
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


X_AXIS = Line(P(0, 0), P(1, 0))
Y_AXIS = Line(P(0, 0), P(0, 1))


class TestJoin:
    def test_x_axis_incidence(self):
        l = Line(P(0, 0), P(1, 0))
        assert l.contains(P(5, 0))

    def test_coincident_points(self):
        with pytest.raises(DegenerateInput):
            Line(P(0, 0), P(0, 0))

    def test_collinearity_determinant(self):
        # oracle: det [[2-1, 3-1], [3-1, 5-1]] = 1*4 - 2*2 = 0
        l = Line(P(1, 1), P(2, 3))
        assert l.contains(P(3, 5))


class TestExtend:
    def test_beyond_b(self):
        r = extend(Segment(P(0, 0), P(1, 0)), "b")
        assert r.contains(P(2, 0))
        assert not r.contains(P(-1, 0))

    def test_beyond_a(self):
        r = extend(Segment(P(0, 0), P(1, 0)), "a")
        assert r.contains(P(-1, 0))

    def test_diagonal(self):
        r = extend(Segment(P(0, 0), P(1, 1)), "b")
        assert r.contains(P(3, 3))

    def test_beyond_neither_endpoint(self):
        with pytest.raises(ValueError, match="^beyond must be 'a' or 'b'$"):
            extend(Segment(P(0, 0), P(1, 1)), "c")


@pytest.mark.parametrize("make, message", [
    (lambda: Ray(P(1, 1), P(1, 1)), "a ray needs a direction point"),
    (lambda: Figure([P(0, 0), P(1, 0)]),
     "a figure needs at least three vertices"),
])
def test_degenerate_object(make, message):
    with pytest.raises(DegenerateInput, match=f"^{message}$"):
        make()


def test_a_point_equals_no_tuple():
    assert P(0, 0) != (0, 0) and not P(0, 0) == (0, 0)


class TestCircle:
    def test_unit(self):
        c = circle(P(0, 0), P(1, 0))
        assert (c.radius_sq - 1).is_zero()

    def test_pythagorean_radius(self):
        c = circle(P(0, 0), P(1, 1))
        assert (c.radius_sq - 2).is_zero()

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            circle(P(0, 0), P(0, 0))


class TestIntersectLines:
    def test_axes(self):
        assert intersect_lines(X_AXIS, Y_AXIS) == [P(0, 0)]

    def test_parallel(self):
        assert intersect_lines(X_AXIS, Line(P(0, 1), P(1, 1))) == []

    def test_coincident(self):
        assert intersect_lines(X_AXIS, Line(P(2, 0), P(7, 0))) == []

    def test_linear_solve(self):
        # oracle: y = x and y = 2 - 2x meet where 3x = 2
        got = intersect_lines(Line(P(0, 0), P(1, 1)), Line(P(0, 2), P(1, 0)))
        assert got == [P(Fraction(2, 3), Fraction(2, 3))]


class TestIntersectLineCircle:
    def test_two_points_sorted(self):
        c = circle(P(0, 0), P(1, 0))
        got = intersect_line_circle(X_AXIS, c)
        assert got == [P(-1, 0), P(1, 0)]

    def test_tangent(self):
        c = circle(P(0, 0), P(1, 0))
        got = intersect_line_circle(Line(P(0, 1), P(1, 1)), c)
        assert got == [P(0, 1)]

    def test_miss(self):
        c = circle(P(0, 0), P(1, 0))
        assert intersect_line_circle(Line(P(0, 2), P(1, 2)), c) == []

    @pytest.mark.parametrize("down", [False, True])
    def test_vertical_line_orders_by_y(self, down):
        # equal x, so the lexicographic order falls to y: (1, -sqrt 3) first
        ends = [P(1, 0), P(1, 5)]
        line = Line(*reversed(ends)) if down else Line(*ends)
        r = sqrt_nonneg(Constructible(3))
        got = intersect_line_circle(line, Circle(P(1, 0), 3))
        assert got == [Point(1, -r), Point(1, r)]


class TestIntersectCircles:
    def test_two_unit_circles(self):
        # oracle: x^2 + y^2 = 1 less (x - 1)^2 + y^2 = 1 gives x = 1/2, y^2 = 3/4
        c1 = circle(P(0, 0), P(1, 0))
        c2 = circle(P(1, 0), P(0, 0))
        got = intersect_circles(c1, c2)
        assert len(got) == 2
        half = Constructible(Fraction(1, 2))
        r3 = sqrt_nonneg(Constructible(3))
        assert got[0] == Point(half, -r3 / 2)
        assert got[1] == Point(half, r3 / 2)

    def test_touching(self):
        c1 = circle(P(0, 0), P(1, 0))
        c2 = circle(P(2, 0), P(1, 0))
        assert intersect_circles(c1, c2) == [P(1, 0)]

    def test_separate(self):
        c1 = circle(P(0, 0), P(1, 0))
        c2 = circle(P(3, 0), P(4, 0))
        assert intersect_circles(c1, c2) == []

    def test_coincident(self):
        with pytest.raises(CoincidentCircles):
            intersect_circles(circle(P(0, 0), P(1, 0)), circle(P(0, 0), P(-1, 0)))

    def test_concentric(self):
        assert intersect_circles(circle(P(0, 0), P(1, 0)), circle(P(0, 0), P(2, 0))) == []


class TestSegmentEq:
    def test_translated(self):
        assert segment_eq(Segment(P(0, 0), P(1, 0)), Segment(P(5, 5), P(5, 6)))

    def test_radical_length(self):
        s1 = Segment(P(0, 0), P(1, 1))
        s2 = Segment(P(0, 0), Point(sqrt_nonneg(Constructible(2)), Constructible(0)))
        assert segment_eq(s1, s2)

    def test_unequal(self):
        assert not segment_eq(Segment(P(0, 0), P(1, 0)), Segment(P(0, 0), P(2, 0)))


class TestAngles:
    def test_right_angles_equal(self):
        a1 = Angle(P(0, 0), P(1, 0), P(0, 1))
        a2 = Angle(P(0, 0), P(1, 1), P(-1, 1))
        assert angle_eq(a1, a2)

    def test_equilateral_angles_equal(self):
        apex = Point(Constructible(Fraction(1, 2)), sqrt_nonneg(Constructible(3)) / 2)
        a1 = Angle(P(0, 0), P(1, 0), apex)
        a2 = Angle(P(1, 0), P(0, 0), apex)
        assert angle_eq(a1, a2)

    def test_right_vs_half_right(self):
        a1 = Angle(P(0, 0), P(1, 0), P(0, 1))
        a2 = Angle(P(0, 0), P(1, 0), P(1, 1))
        assert not angle_eq(a1, a2)

    def test_is_right(self):
        assert is_right(Angle(P(0, 0), P(1, 0), P(0, 1)))
        assert not is_right(Angle(P(0, 0), P(1, 0), P(1, 1)))
        with pytest.raises(DegenerateInput):
            Angle(P(0, 0), P(1, 0), P(2, 0))

    def test_sum_to_two_rights(self):
        a1 = Angle(P(0, 0), P(1, 0), P(1, 1))
        a2 = Angle(P(0, 0), P(-1, 0), P(1, 1))
        assert angles_sum_to_two_rights(a1, a2)
        assert not angles_sum_to_two_rights(a1, a1)

    def test_reflex_double_is_not_its_cosine_twin(self):
        # twice 126.87 degrees is 253.74, whose cosine is that of 106.26
        t = Angle(P(0, 0), P(1, 0), P(-3, 4))
        u = Angle(P(0, 0), P(1, 0), P(-7, 24))
        assert not angle_sum_eq(t, t, u)
        assert angle_sum_eq(Angle(P(0, 0), P(1, 0), P(1, 1)),
                            Angle(P(0, 0), P(0, 1), P(-1, 1)),
                            Angle(P(0, 0), P(1, 0), P(0, 1)))


class TestParallel:
    def test_horizontal(self):
        assert parallel(X_AXIS, Line(P(0, 1), P(1, 1)))

    def test_crossing(self):
        assert not parallel(X_AXIS, Y_AXIS)

    def test_diagonal(self):
        assert parallel(Line(P(0, 0), P(1, 1)), Line(P(0, 1), P(1, 2)))

    def test_parallel_implies_no_single_point(self):
        l1 = Line(P(0, 0), P(1, 1))
        l2 = Line(P(0, 1), P(1, 2))
        assert intersect_lines(l1, l2) == []


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
xy = st.tuples(rationals, rationals)


class TestOrientation:
    def test_left_right_on(self):
        a, b = P(0, 0), P(2, 0)
        assert orientation(a, b, P(1, 1)) == 1
        assert orientation(a, b, P(1, -1)) == -1
        assert orientation(a, b, P(5, 0)) == 0

    @given(xy, xy, xy, rationals)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_agrees_with_side_of_and_collinear(self, a, b, p, t):
        assume(a != b)
        (ax, ay), (bx, by), (px, py) = a, b, p
        cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        want = (cross > 0) - (cross < 0)
        a, b, p = P(a), P(b), P(p)
        assert orientation(a, b, p) == want
        assert orientation(b, a, p) == -want
        assert Line(a, b).contains(p) == (want == 0)
        assert collinear(a, b, p) == (want == 0)
        on = P(ax + t * (bx - ax), ay + t * (by - ay))
        assert orientation(a, b, on) == 0 and collinear(a, b, on)


class TestSignedArea:
    def test_three_four_legs(self):
        f = Figure([P(0, 0), P(4, 0), P(0, 3)])
        assert (signed_area(f) - 6).is_zero()

    def test_proclus_pair(self):
        # a 3,4 right triangle has content six; a 5,2 right triangle five
        f1 = Figure([P(0, 0), P(3, 0), P(3, 4)])
        f2 = Figure([P(0, 0), P(5, 0), P(5, 2)])
        assert (abs(signed_area(f1)) - 6).is_zero()
        assert (abs(signed_area(f2)) - 5).is_zero()

    def test_clockwise_square(self):
        f = Figure([P(0, 0), P(0, 1), P(1, 1), P(1, 0)])
        assert (signed_area(f) + 1).is_zero()


class TestSuperpose:
    def test_quarter_turn(self):
        m = superpose(Segment(P(0, 0), P(1, 0)), Segment(P(0, 0), P(0, 1)))
        assert m.c.is_zero() and (m.s - 1).is_zero()

    def test_identity(self):
        s = Segment(P(1, 2), P(3, 5))
        m = superpose(s, s)
        assert (m.c - 1).is_zero() and m.s.is_zero()
        assert m.apply(P(7, 7)) == P(7, 7)

    def test_mismatch(self):
        with pytest.raises(SuperpositionMismatch):
            superpose(Segment(P(0, 0), P(1, 0)), Segment(P(0, 0), P(2, 0)))

    def test_distance_preservation(self):
        # image-distance oracle on a translated and rotated segment
        m = superpose(Segment(P(0, 0), P(2, 0)), Segment(P(1, 1), P(1, 3)))
        pts = [P(0, 0), P(2, 0), P(1, 5), P(-3, 2), P(4, -1)]
        images = [m.apply(p) for p in pts]
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                d1 = pts[i].dist_sq(pts[j])
                d2 = images[i].dist_sq(images[j])
                assert (d1 - d2).is_zero()
        assert images[0] == P(1, 1) and images[1] == P(1, 3)

    def test_flipped_lands_other_side(self):
        s_from = Segment(P(0, 0), P(2, 0))
        s_to = Segment(P(0, 0), P(2, 0))
        direct = superpose(s_from, s_to, "direct")
        flipped = superpose(s_from, s_to, "flipped")
        probe = P(1, 1)
        assert direct.apply(probe) == probe
        assert flipped.apply(probe) == P(1, -1)


class TestPointReflect:
    def test_simple(self):
        assert point_reflect(P(0, 1), P(0, 0)) == P(0, -1)

    def test_self(self):
        assert point_reflect(P(2, 2), P(2, 2)) == P(2, 2)

    def test_midpoint_arithmetic(self):
        assert point_reflect(P(2, 3), P(1, 1)) == P(0, -1)


class TestRandomInvariants:
    def setup_method(self):
        new_context()
        self.rng = random.Random(99)

    def rand_point(self):
        r = self.rng
        return P(Fraction(r.randint(-32, 32), r.randint(1, 8)),
                 Fraction(r.randint(-32, 32), r.randint(1, 8)))

    def test_intersections_incident(self):
        for _ in range(40):
            a, b, c, d = (self.rand_point() for _ in range(4))
            try:
                l1, l2 = Line(a, b), Line(c, d)
            except DegenerateInput:
                continue
            for got in intersect_lines(l1, l2):
                assert l1.contains(got) and l2.contains(got)

    def test_circle_points_on_both(self):
        for _ in range(25):
            a, b, c, d = (self.rand_point() for _ in range(4))
            try:
                c1, c2 = circle(a, b), circle(c, d)
                pts = intersect_circles(c1, c2)
            except (DegenerateInput, CoincidentCircles):
                continue
            for p in pts:
                assert c1.contains(p) and c2.contains(p)

    def test_area_invariant_under_isometry(self):
        for _ in range(15):
            pts = [self.rand_point() for _ in range(3)]
            try:
                f = Figure(pts)
                m = superpose(Segment(P(0, 0), P(0, 2)), Segment(P(3, 3), P(5, 3)))
            except DegenerateInput:
                continue
            g = Figure([m.apply(p) for p in pts])
            assert (signed_area(f) - signed_area(g)).is_zero()
            assert (signed_area(f)
                    + signed_area(Figure(reversed(f.vertices)))).is_zero()

    def test_angle_eq_equivalence(self):
        angles = []
        while len(angles) < 6:
            v, p, q = self.rand_point(), self.rand_point(), self.rand_point()
            try:
                angles.append(Angle(v, p, q))
            except DegenerateInput:
                continue
        for a in angles:
            assert angle_eq(a, a)
        for a in angles:
            for b in angles:
                assert angle_eq(a, b) == angle_eq(b, a)


# ---------------------------------------------------------------------------
# reference checks for the predicates, against independent formulations

grid = st.tuples(st.integers(0, 4), st.integers(0, 4))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(a, b, p):
    """p = a + t (b - a) with 0 <= t <= 1, on Fraction pairs."""
    if _cross(a, b, p) != 0:
        return False
    t = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
    return 0 <= t <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2


def _sides_meet(s1, s2):
    (a, b), (c, d) = s1, s2
    denom = _cross((0, 0), (b[0] - a[0], b[1] - a[1]), (d[0] - c[0], d[1] - c[1]))
    if denom != 0:
        t = Fraction(_cross((0, 0), (c[0] - a[0], c[1] - a[1]),
                            (d[0] - c[0], d[1] - c[1])), denom)
        hit = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
        return _on_segment(a, b, hit) and _on_segment(c, d, hit)
    return _on_segment(a, b, c) or _on_segment(a, b, d) or _on_segment(c, d, a)


def _is_simple_pairwise(vs):
    """Every pair of sides: non-adjacent sides must not meet, and adjacent
    sides may share only their common end."""
    sides = list(zip(vs, vs[1:] + vs[:1]))
    n = len(sides)
    for i in range(n):
        for j in range(i + 1, n):
            s1, s2 = sides[i], sides[j]
            if j == i + 1 or (i == 0 and j == n - 1):
                shared = s1[1] if j == i + 1 else s1[0]
                other1 = s1[0] if j == i + 1 else s1[1]
                other2 = s2[1] if j == i + 1 else s2[0]
                if ((_on_segment(*s2, other1) and other1 != shared)
                        or (_on_segment(*s1, other2) and other2 != shared)):
                    return False
            elif _sides_meet(s1, s2):
                return False
    return True


class TestIsSimpleReference:
    @given(st.lists(grid, min_size=3, max_size=7))
    @example([(0, 0), (2, 0), (1, 0), (1, 1)])          # folds back along AB
    @example([(0, 0), (2, 0), (1, 0)])                  # a flat triangle
    @example([(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)])  # repeated vertex
    @example([(0, 0), (2, 2), (2, 0), (0, 2)])          # a bow tie
    @example([(0, 0), (4, 0), (4, 4), (0, 4)])          # a square
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_agrees_with_pairwise_sides(self, vs):
        assume(all(a != b for a, b in zip(vs, vs[1:] + vs[:1])))
        assert is_simple(Figure(P(v) for v in vs)) == _is_simple_pairwise(vs)


on_line_t = st.sampled_from([Fraction(t, 2) for t in range(-2, 5)])


class TestIncidenceReference:
    @given(grid, grid, grid, on_line_t, st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_contains_and_between(self, a, b, p, t, on_line):
        assume(a != b)
        if on_line:
            p = (a[0] + (b[0] - a[0]) * t, a[1] + (b[1] - a[1]) * t)
        on = _cross(a, b, p) == 0
        along = ((p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1]))
        A, B, Q = P(a), P(b), P(p)
        assert Segment(A, B).contains(Q) == _on_segment(a, b, p)
        assert Ray(A, B).contains(Q) == (on and along >= 0)
        assert Line(A, B).contains(Q) == on
        assert between(A, Q, B) == (_on_segment(a, b, p) and p not in (a, b))
        assert not between(A, Q, A)


def _surd(pair):
    """a + b sqrt(3)."""
    a, b = pair
    return Constructible(a) + Constructible(b) * sqrt_nonneg(Constructible(3))


def _mp_arms(angle: Angle):
    """The two arm vectors, from 60-digit coordinates."""
    def xy(pt):
        return mpmath.mpf(pt.x.approx(60)), mpmath.mpf(pt.y.approx(60))

    (vx, vy), (px, py), (qx, qy) = map(xy, (angle.vertex, angle.arm1, angle.arm2))
    return px - vx, py - vy, qx - vx, qy - vy


def _mp_cos(angle: Angle):
    ux, uy, wx, wy = _mp_arms(angle)
    return (ux * wx + uy * wy) / mpmath.sqrt((ux * ux + uy * uy) * (wx * wx + wy * wy))


def _mp_angle(angle: Angle):
    """The angle in radians."""
    ux, uy, wx, wy = _mp_arms(angle)
    return mpmath.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)


def _mirror(p: Point, v: Point, q: Point) -> Point:
    """p reflected in the line through v and q."""
    u, w = p - v, q - v
    return point_reflect(p, v + w * (u.dot(w) / w.norm_sq()))


def _proper(v: Point, p: Point, q: Point) -> Angle:
    assume(not collinear(v, p, q))
    return Angle(v, p, q)


surd = st.tuples(st.integers(-3, 3), st.sampled_from((0, 0, 1, -1)))
surd_point = st.tuples(surd, surd)
SQRT3_RIGHT = dict(v=((0, 0), (0, 0)), p=((1, 0), (0, 1)), q=((0, -1), (1, 0)),
                   r=((2, 0), (1, 0)), k=2)


class TestAnglePredicatesReference:
    """Each predicate against 50-digit cosines: smaller angle, larger cosine;
    equal angles, equal cosines; two right angles, opposite cosines."""

    @given(v=surd_point, p=surd_point, q=surd_point, r=surd_point,
           shape=st.sampled_from(("free", "moved", "supplement")),
           k=st.integers(1, 3))
    @example(shape="moved", **SQRT3_RIGHT)         # equal right angles
    @example(shape="supplement", **SQRT3_RIGHT)    # right, two rights in sum
    @example(v=((0, 0), (0, 0)), p=((2, 0), (0, 0)), q=((1, 0), (0, 1)),
             r=((3, 1), (0, 0)), shape="moved", k=3)       # 60 degrees, moved
    @example(v=((0, 0), (0, 0)), p=((2, 0), (0, 0)), q=((1, 0), (0, 1)),
             r=((0, 0), (0, 0)), shape="supplement", k=1)  # 60 and 120
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_agree_with_mpmath(self, v, p, q, r, shape, k):
        new_context()
        V, A, B, R = (Point(_surd(x), _surd(y)) for x, y in (v, p, q, r))
        assume(not collinear(V, A, B))
        a1 = Angle(V, A, B)
        if shape == "free":
            assume(not collinear(R, A, B))
            a2 = Angle(R, A, B)
        elif shape == "moved":
            a2 = Angle(R, R + (A - V) * k, R + (B - V))
        else:
            a2 = Angle(V, A, point_reflect(B, V))
        with mpmath.workdps(50):
            c1, c2 = _mp_cos(a1), _mp_cos(a2)
            tiny = mpmath.mpf(10) ** -40
            assert angle_eq(a1, a2) == (abs(c1 - c2) < tiny)
            assert angle_lt(a1, a2) == (c1 - c2 > tiny)
            assert angle_lt(a2, a1) == (c2 - c1 > tiny)
            assert angles_sum_to_two_rights(a1, a2) == (abs(c1 + c2) < tiny)
        if shape == "moved":
            assert angle_eq(a1, a2)
        if shape == "supplement":
            assert angles_sum_to_two_rights(a1, a2)

    @given(v=surd_point, p=surd_point, q=surd_point, r=surd_point,
           shape=st.sampled_from(("free", "triangle", "doubled")))
    @example(v=((0, 0), (0, 0)), p=((1, 0), (0, 0)), q=((-3, 0), (4, 0)),
             r=((0, 0), (0, 0)), shape="doubled")  # twice 126.87 is no 106.26
    @example(v=((0, 0), (0, 0)), p=((1, 0), (0, 0)), q=((-1, 0), (1, 0)),
             r=((0, 0), (0, 0)), shape="doubled")  # 135 + 135 + 90: four rights
    @example(v=((0, 0), (0, 0)), p=((2, 0), (0, 0)), q=((1, 0), (0, 1)),
             r=((0, 0), (0, 0)), shape="triangle")  # equilateral
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_sums_agree_with_mpmath(self, v, p, q, r, shape):
        """angle_sum_eq(a1, a2, total) and three-angle
        angles_sum_to_two_rights against 50-digit radians.  "triangle"
        takes the angles at V and A of triangle VAB, the exterior angle at
        B and the interior one; "doubled" takes the angle at V twice, the
        angle from A to its mirror A' in VB, and the angle from A' to A
        produced through V: both sums hold exactly when the angle at V is
        acute."""
        new_context()
        V, A, B, R = (Point(_surd(x), _surd(y)) for x, y in (v, p, q, r))
        a1 = _proper(V, A, B)
        if shape == "triangle":
            a2 = Angle(A, V, B)
            total = Angle(B, V, point_reflect(A, B))
            third = Angle(B, V, A)
        elif shape == "doubled":
            mirror = _mirror(A, V, B)
            a2 = a1
            total = _proper(V, A, mirror)
            third = Angle(V, mirror, point_reflect(A, V))
        else:
            a2, total, third = _proper(R, A, B), _proper(A, V, R), _proper(B, R, V)
        with mpmath.workdps(50):
            t1, t2, tt, t3 = map(_mp_angle, (a1, a2, total, third))
            tiny = mpmath.mpf(10) ** -40
            assert angle_sum_eq(a1, a2, total) == (abs(t1 + t2 - tt) < tiny)
            assert (angles_sum_to_two_rights(a1, a2, third)
                    == (abs(t1 + t2 + t3 - mpmath.pi) < tiny))
        if shape == "triangle":
            assert angle_sum_eq(a1, a2, total)
            assert angles_sum_to_two_rights(a1, a2, third)
        if shape == "doubled":
            acute = (A - V).dot(B - V).sign() > 0
            assert angle_sum_eq(a1, a2, total) == acute
            assert angles_sum_to_two_rights(a1, a2, third) == acute


def _length_loop(a, b, c) -> bool:
    """Any two lengths together exceed the third, length by length."""
    return all(x + y - z > 0 for x, y, z in ((a, b, c), (b, c, a), (c, a, b)))


lengths = st.fractions(min_value=Fraction(1, 16), max_value=32,
                       max_denominator=16)


class TestTriangleInequalityReference:
    """The rule on squared lengths, against the sum of the lengths."""

    @given(a=lengths, b=lengths, c=lengths,
           shape=st.sampled_from(("free", "sum", "difference")))
    @example(a=Fraction(3), b=Fraction(4), c=Fraction(5), shape="free")
    @example(a=Fraction(1), b=Fraction(2), c=Fraction(3), shape="free")
    @example(a=Fraction(5, 2), b=Fraction(1, 2), c=Fraction(2), shape="free")
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_rationals_agree_with_the_length_loop(self, a, b, c, shape):
        if shape == "sum":
            c = a + b
        elif shape == "difference":
            c = abs(a - b)
            assume(c > 0)
        squares = (Constructible(x * x) for x in (a, b, c))
        assert triangle_inequality(*squares) == _length_loop(a, b, c)

    @given(p=surd_point, q=surd_point, r=surd_point,
           t=st.sampled_from((None, None, Fraction(-1), Fraction(1, 2),
                              Fraction(3, 2), Fraction(2))))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_surd_points_agree_with_mpmath(self, p, q, r, t):
        """The squared sides of triangle ABC, where C lies on line AB at
        A + t (B - A) when t is given, against 50-digit roots; the rule
        adjoins no radical."""
        new_context()
        A, B, C = (Point(_surd(x), _surd(y)) for x, y in (p, q, r))
        if t is not None:
            C = A + (B - A) * t
        assume(A != B and B != C and C != A)
        sides = A.dist_sq(B), B.dist_sq(C), C.dist_sq(A)
        tower = len(current_context().radicands)
        got = triangle_inequality(*sides)
        assert len(current_context().radicands) == tower
        with mpmath.workdps(50):
            x, y, z = (mpmath.sqrt(mpmath.mpf(s.approx(60))) for s in sides)
            tiny = mpmath.mpf(10) ** -40
            assert got == all(u + v - w > tiny
                              for u, v, w in ((x, y, z), (y, z, x), (z, x, y)))
        if t is not None:
            assert not got


# ---------------------------------------------------------------------------
# the intersections against the radical-line construction, and their order


def _root2(pair):
    """u + v sqrt(2)."""
    u, v = pair
    return Constructible(u) + Constructible(v) * sqrt_nonneg(Constructible(2))


root2_coord = st.tuples(st.fractions(-3, 3, max_denominator=6),
                        st.sampled_from((0, 0, 1, -1, Fraction(1, 2))))
root2_point = st.tuples(root2_coord, root2_coord)
scale = st.sampled_from([Fraction(k, 4) for k in (1, 2, 3, 4, 5, 6, 8)])
alignment = st.sampled_from((None, None, "x", "y"))


def _lex(p, q):
    """The sign of q - p in lexicographic (x, y) order, decided on the
    coordinates themselves."""
    return (q.x - p.x).sign() or (q.y - p.y).sign()


def _radical_line_intersection(c1, c2):
    """Two circles met as the engine once met them: two points of the
    radical line a x + b y = rhs, one step apart in y (in x when a is 0),
    are met with the first circle through b^2 - 4ac of that line, and the
    two points are ordered by comparing their coordinates."""
    if c1.center == c2.center:
        if (c1.radius_sq - c2.radius_sq).is_zero():
            raise CoincidentCircles("the circles coincide")
        return []
    x1, y1 = c1.center.x, c1.center.y
    x2, y2 = c2.center.x, c2.center.y
    a = (x2 - x1) * 2
    b = (y2 - y1) * 2
    rhs = (c1.radius_sq - c2.radius_sq) - (x1 * x1 - x2 * x2) - (y1 * y1 - y2 * y2)
    if not a.is_zero():
        p, q = Point(rhs / a, 0), Point((rhs - b) / a, 1)
    else:
        p, q = Point(0, rhs / b), Point(1, rhs / b)
    d = q - p
    f = p - c1.center
    qa = d.norm_sq()
    qb = d.dot(f) * 2
    disc = qb * qb - 4 * qa * (f.norm_sq() - c1.radius_sq)
    if disc.sign() < 0:
        return []
    if disc.is_zero():
        return [p + d * (-qb / (2 * qa))]
    root = sqrt_nonneg(disc)
    pts = [p + d * ((-qb - root) / (2 * qa)), p + d * ((-qb + root) / (2 * qa))]
    return pts if _lex(*pts) > 0 else pts[::-1]


def _aligned(a, b, align):
    """The points a and b, b moved onto a's vertical ("x"), horizontal
    ("y") or onto a itself ("both")."""
    (ax, ay), (bx, by) = a, b
    if align in ("x", "both"):
        bx = ax
    if align in ("y", "both"):
        by = ay
    return (Point(_root2(ax), _root2(ay)), Point(_root2(bx), _root2(by)))


def _both_ways(a, b, lam, mu, align, scaled):
    """For each of the radical-line construction and intersect_circles, in
    a fresh context: the points as prefix strings (or the exception's
    type) and the radicands adjoined.  The circles are about a and b, with
    squared radii lam^2 and mu^2 times |ab|^2 when scaled (so they touch
    where lam + mu or |lam - mu| is 1), else lam and mu."""
    sides = []
    for meet in (_radical_line_intersection, intersect_circles):
        ctx = new_context()
        A, B = _aligned(a, b, align)
        dd = A.dist_sq(B)
        if scaled and not dd.is_zero():
            c1, c2 = Circle(A, dd * (lam * lam)), Circle(B, dd * (mu * mu))
        else:
            c1, c2 = Circle(A, lam), Circle(B, mu)
        try:
            got = [(str(p.x), str(p.y)) for p in meet(c1, c2)]
        except CoincidentCircles as exc:
            got = type(exc)
        sides.append((got, list(ctx.radicands)))
    return sides


_A = ((1, 1), (0, 0))     # (1 + sqrt 2, 0)
_B = ((2, 0), (1, -1))    # (2, 1 - sqrt 2)
_Q = Fraction(1, 4)
# name: the arguments of _both_ways, and the number of points or the error
SHAPES = {
    "crossing": ((_A, _B, 1, 1, None, True), 2),
    "external tangency": ((_A, _B, _Q, 3 * _Q, None, True), 1),
    "internal tangency": ((_A, _B, _Q, 5 * _Q, None, True), 1),
    "apart": ((_A, _B, _Q, 2 * _Q, None, True), 0),
    "one inside the other": ((_A, _B, _Q, 6 * _Q, None, True), 0),
    "dx = 0": ((_A, _B, 1, 1, "x", True), 2),
    "dy = 0": ((_A, _B, 1, 1, "y", True), 2),
    "dx = 0, touching": ((_A, _B, _Q, 3 * _Q, "x", True), 1),
    "concentric": ((_A, _B, 1, 2, "both", False), 0),
    "coincident": ((_A, _B, 2, 2, "both", False), CoincidentCircles),
}


class TestIntersectCirclesRadicands:
    """The closed form gives the radical-line construction's points, in its
    order, with its error, over the same adjoined radicands."""

    @pytest.mark.parametrize("name", SHAPES)
    def test_named_shapes(self, name):
        args, want = SHAPES[name]
        (got, radicands), other = _both_ways(*args)
        assert (got, radicands) == other
        assert (got if isinstance(got, type) else len(got)) == want

    @given(a=root2_point, b=root2_point, lam=scale, mu=scale,
           align=st.sampled_from((None, None, "x", "y", "both")),
           scaled=st.booleans())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_drawn_pairs(self, a, b, lam, mu, align, scaled):
        parent, change = _both_ways(a, b, lam, mu, align, scaled)
        assert change == parent


def _quadratic_line_circle(l, c):
    """A line and a circle met as the engine once met them: the two roots
    (-b -/+ sqrt(b^2 - 4ac))/(2a) of the quadratic in the line's
    parameter, each put on the line, swapped when the direction is
    negative in (x, y) order."""
    d = l.direction()
    f = l.p - c.center
    a = d.norm_sq()
    b = d.dot(f) * 2
    disc = b * b - 4 * a * (f.norm_sq() - c.radius_sq)
    sd = disc.sign()
    if sd < 0:
        return []
    k = 1 / (2 * a)
    if sd == 0:
        return [l.p + d * (-b * k)]
    root = sqrt_nonneg(disc)
    p = l.p + d * ((-b - root) * k)
    q = l.p + d * ((-b + root) * k)
    if (d.dx.sign() or d.dy.sign()) < 0:
        p, q = q, p
    return [p, q]


def _line_circle_both_ways(a, b, c, through, t=None):
    """For each of the quadratic and intersect_line_circle, in a fresh
    context: the points as prefix strings and the radicands adjoined.  The
    line runs from a to b; the circle is about c through ``through``, or
    through the point a + (b - a) t of the line when t is given.  A circle
    through its own centre gives the exception's type."""
    sides = []
    for meet in (_quadratic_line_circle, intersect_line_circle):
        ctx = new_context()
        A, B, C, D = (Point(_root2(x), _root2(y)) for x, y in (a, b, c, through))
        if t is not None:
            D = A + (B - A) * t
        try:
            got = [(str(p.x), str(p.y)) for p in meet(Line(A, B), circle(C, D))]
        except DegenerateInput as exc:
            got = type(exc)
        sides.append((got, list(ctx.radicands)))
    return sides


_O = ((0, 0), (0, 0))     # the origin
_C = ((1, 1), (0, 0))     # (1 + sqrt 2, 0)
_C2 = ((1, 1), (2, 0))    # (1 + sqrt 2, 2), on the circle about _C
# name: the arguments of _line_circle_both_ways, and the number of points
LINE_SHAPES = {
    "secant": ((_O, ((3, 0), (1, 0)), _C, _C2), 2),
    "secant, reversed": ((((3, 0), (1, 0)), _O, _C, _C2), 2),
    "tangent": ((((-1, 1), (2, 0)), ((4, 1), (2, 0)), _C, _C2), 1),
    "tangent, reversed": ((((4, 1), (2, 0)), ((-1, 1), (2, 0)), _C, _C2), 1),
    "slanting tangent": ((((3, 1), (0, 0)), ((2, 1), (1, 0)), _C,
                          ((2, 1), (1, 0))), 1),
    "miss": ((((4, 1), (0, 0)), ((3, 1), (1, 0)), _C, _C2), 0),
    "vertical": ((((1, 0), (0, 0)), ((1, 0), (5, 0)), _C, _C2), 2),
    "vertical, reversed": ((((1, 0), (5, 0)), ((1, 0), (0, 0)), _C, _C2), 2),
    "horizontal": ((((0, 0), (1, 0)), ((2, 0), (1, 0)), _C, _C2), 2),
    "horizontal, reversed": ((((2, 0), (1, 0)), ((0, 0), (1, 0)), _C, _C2), 2),
    "through the centre": ((_C, ((2, 1), (1, 0)), _C, _C2), 2),
    "through the centre, reversed": ((((2, 1), (1, 0)), _C, _C, _C2), 2),
}


class TestIntersectLineCircleRadicands:
    """The chord about the foot gives the quadratic's points, in its order,
    over the same adjoined radicands."""

    @pytest.mark.parametrize("name", LINE_SHAPES)
    def test_named_shapes(self, name):
        args, want = LINE_SHAPES[name]
        (got, radicands), other = _line_circle_both_ways(*args)
        assert (got, radicands) == other
        assert len(got) == want

    @given(a=root2_point, b=root2_point, c=root2_point, through=root2_point,
           t=st.sampled_from((None, None, Fraction(-1), Fraction(1, 2), 2)))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_drawn_lines(self, a, b, c, through, t):
        assume(a != b)
        parent, change = _line_circle_both_ways(a, b, c, through, t)
        assert change == parent


class TestIntersectionOrder:
    """Both intersections list two points in lexicographic (x, y) order, as
    comparing their coordinates decides it, whichever way a line runs and
    whichever circle comes first."""

    @given(a=root2_point, b=root2_point, c=root2_point, align=alignment,
           t=st.sampled_from((Fraction(-1), Fraction(1, 2), Fraction(2))))
    @example(a=((1, 0), (0, 0)), b=((1, 0), (5, 0)), c=((1, 0), (0, 0)),
             align=None, t=Fraction(-1))     # a vertical line: y decides
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_line_and_circle(self, a, b, c, align, t):
        new_context()
        A, B = _aligned(a, b, align)
        assume(A != B)
        on = A + (B - A) * t
        C = Point(_root2(c[0]), _root2(c[1]))
        assume(C != on)
        ring = circle(C, on)
        got = intersect_line_circle(Line(A, B), ring)
        assert on in got
        assert intersect_line_circle(Line(B, A), ring) == got
        if len(got) == 2:
            assert _lex(*got) > 0

    @given(a=root2_point, b=root2_point, c=root2_point, align=alignment)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_two_circles(self, a, b, c, align):
        new_context()
        A, B = _aligned(a, b, align)
        C = Point(_root2(c[0]), _root2(c[1]))
        assume(len({A, B, C}) == 3)
        got = intersect_circles(circle(A, C), circle(B, C))
        assert C in got
        assert intersect_circles(circle(B, C), circle(A, C)) == got
        if len(got) == 2:
            assert _lex(*got) > 0
