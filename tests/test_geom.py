import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euclid import geom, number
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
    angles_sum_to_two_rights,
    circle,
    collinear,
    extend,
    intersect_circles,
    intersect_line_circle,
    intersect_lines,
    is_right,
    join,
    join_segment,
    orientation,
    parallel,
    point_reflect,
    segment_eq,
    signed_area,
    superpose,
)
from euclid.number import Constructible, new_context, sqrt_nonneg


def P(x, y=None):
    if y is None:
        x, y = x
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


X_AXIS = Line(P(0, 0), P(1, 0))
Y_AXIS = Line(P(0, 0), P(0, 1))


class TestJoin:
    def test_x_axis_incidence(self):
        l = join(P(0, 0), P(1, 0))
        assert l.contains(P(5, 0))

    def test_coincident_points(self):
        with pytest.raises(DegenerateInput):
            join(P(0, 0), P(0, 0))

    def test_collinearity_determinant(self):
        # oracle: det [[2-1, 3-1], [3-1, 5-1]] = 1*4 - 2*2 = 0
        l = join(P(1, 1), P(2, 3))
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


class TestIntersectCircles:
    def test_two_unit_circles(self):
        # radical-line oracle: x = 1/2, y^2 = 3/4
        new_context()
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
        new_context()
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
        assert Line(a, b).side_of(p) == want
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
