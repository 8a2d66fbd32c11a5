from fractions import Fraction

import pytest

from euclid.elements import CONSTRUCTIONS, certify
from euclid.elements.basics import (
    p1_equilateral,
    p2_place,
    p3_cut,
    p9_bisect_angle,
    p10_bisect_segment,
    p11_perp_at,
    p12_perp_from,
)
from euclid.elements.triangles import (
    p22_triangle,
    p23_copy_angle,
    p31_parallel,
    place_triangle_on_ray,
)
from euclid.errors import (
    PreconditionViolated,
    TriangleInequalityViolated,
)
from euclid.geom import (
    Angle,
    Line,
    Point,
    Ray,
    Segment,
    angle_eq,
    intersect_lines,
    is_right,
    parallel,
    segment_eq,
)
from euclid.number import Constructible, new_context, sqrt_nonneg


def P(x, y):
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


def C(x, y=1):
    return Constructible(Fraction(x, y))


@pytest.fixture(autouse=True)
def _fresh_field():
    new_context()


class TestP1:
    def test_apex_upper(self):
        got = p1_equilateral(Segment(P(0, 0), P(1, 0)), "upper")
        apex = got.objects["C"]
        assert apex == Point(C(1, 2), sqrt_nonneg(C(3)) / 2)

    def test_apex_lower_scaled(self):
        got = p1_equilateral(Segment(P(0, 0), P(2, 0)), "lower")
        assert got.objects["C"] == Point(C(1), -sqrt_nonneg(C(3)))

    def test_all_sides_equal(self):
        got = p1_equilateral(Segment(P(1, 2), P(4, -2)), "upper")
        a, b, c = got.result.vertices
        assert segment_eq(Segment(a, b), Segment(b, c))
        assert segment_eq(Segment(b, c), Segment(c, a))

    def test_trace(self):
        got = p1_equilateral(Segment(P(0, 0), P(1, 0)))
        assert got.trace.counters()["circles"] == 2
        assert got.trace.counters()["joins"] == 2
        assert got.trace.superposition_count == 0


class TestP2:
    def test_unit_length(self):
        got = p2_place(P(0, 0), Segment(P(3, 0), P(3, 1)))
        assert got.result.a == P(0, 0)
        assert (got.result.length_sq() - 1).is_zero()

    def test_radical_length(self):
        got = p2_place(P(5, 5), Segment(P(0, 0), P(1, 1)))
        assert (got.result.length_sq() - 2).is_zero()

    def test_trace_counts(self):
        got = p2_place(P(0, 0), Segment(P(3, 0), P(3, 1)))
        assert got.trace.counters()["circles"] == 2
        assert got.trace.counters()["joins"] >= 2
        assert sum(s.kind == "sub" for s in got.trace.steps) == 1
        assert got.trace.superposition_count == 0

    def test_coincident_point_returns_reanchored(self):
        bc = Segment(P(1, 1), P(4, 5))
        got = p2_place(P(1, 1), bc)
        assert got.result.a == P(1, 1)
        assert segment_eq(got.result, bc)
        checks = certify("I.2", {"a": P(1, 1), "bc": bc}, got)
        assert checks.all_pass and len(checks.claims) == 1


class TestP3:
    def test_axis_cut(self):
        got = p3_cut(Segment(P(0, 0), P(5, 0)), Segment(P(10, 0), P(12, 0)))
        assert got.result == P(2, 0)

    def test_equal_segments_rejected(self):
        with pytest.raises(PreconditionViolated):
            p3_cut(Segment(P(0, 0), P(1, 0)), Segment(P(0, 1), P(1, 1)))

    def test_diagonal_cut(self):
        got = p3_cut(Segment(P(0, 0), P(2, 2)), Segment(P(0, 0), P(1, 0)))
        r2 = sqrt_nonneg(C(2))
        assert got.result == Point(r2 / 2, r2 / 2)


class TestP9:
    def test_right_angle_bisector(self):
        got = p9_bisect_angle(Angle(P(0, 0), P(1, 0), P(0, 1)))
        ray = got.result
        # the bisector of the axes' right angle passes through (1, 1)
        assert ray.line().contains(P(1, 1))

    def test_halves_equal(self):
        a = Angle(P(1, 1), P(4, 2), P(2, 5))
        got = p9_bisect_angle(a)
        f = got.objects["F"]
        assert angle_eq(Angle(P(1, 1), P(4, 2), f), Angle(P(1, 1), P(2, 5), f))


class TestP10:
    def test_midpoint(self):
        got = p10_bisect_segment(Segment(P(0, 0), P(1, 0)))
        assert got.result == P(Fraction(1, 2), 0)

    def test_general(self):
        got = p10_bisect_segment(Segment(P(-3, 2), P(5, -6)))
        assert got.result == P(1, -2)


class TestP11P12:
    def test_perp_at(self):
        l = Line(P(0, 0), P(1, 0))
        got = p11_perp_at(l, P(3, 0))
        assert is_right(Angle(P(3, 0), P(0, 0), got.result.q)) or \
            is_right(Angle(P(3, 0), P(0, 0), got.result.p))

    def test_perp_at_requires_incidence(self):
        with pytest.raises(PreconditionViolated):
            p11_perp_at(Line(P(0, 0), P(1, 0)), P(0, 1))

    def test_foot_of_perpendicular(self):
        got = p12_perp_from(Line(P(0, 0), P(1, 0)), P(3, 4))
        assert got.objects["H"] == P(3, 0)

    def test_perp_from_requires_off_line(self):
        with pytest.raises(PreconditionViolated):
            p12_perp_from(Line(P(0, 0), P(1, 0)), P(2, 0))


class TestP22:
    def test_three_four_five(self):
        got = p22_triangle(C(3), C(4), C(5), Ray(P(0, 0), P(1, 0)), "upper")
        k, f, g = got.result.vertices
        assert k == P(0, 3)
        assert f == P(0, 0)
        assert g == P(4, 0)

    def test_degenerate_lengths(self):
        with pytest.raises(TriangleInequalityViolated):
            p22_triangle(C(1), C(1), C(2), Ray(P(0, 0), P(1, 0)))

    def test_equilateral_cross_check(self):
        got = p22_triangle(C(1), C(1), C(1), Ray(P(0, 0), P(1, 0)), "upper")
        k, f, g = got.result.vertices
        assert k == Point(C(1, 2), sqrt_nonneg(C(3)) / 2)

    def test_placement(self):
        ray = Ray(P(0, 0), P(1, 0))
        got = place_triangle_on_ray(C(3), C(4), C(5), ray, "upper")
        v1, v2, v3 = got.result.vertices
        assert v1 == P(0, 0) and v2 == P(3, 0)
        assert v3 == P(3, 4)
        # the sides in order have the three lengths
        assert (v1.dist_sq(v2) - 9).is_zero()
        assert (v2.dist_sq(v3) - 16).is_zero()
        assert (v3.dist_sq(v1) - 25).is_zero()
        # the first side runs along the ray from its origin, the apex lies
        # on the requested side
        assert v1 == ray.origin and ray.contains(v2)
        assert ray.direction().cross(v3 - v1).sign() > 0


class TestP23:
    def right_angle(self):
        return Angle(P(10, 10), P(11, 10), P(10, 11))

    @pytest.mark.parametrize("strategy", ["euclid", "proclus", "albertus",
                                          "commandinus", "clavius", "campanus"])
    def test_copies_right_angle(self, strategy):
        got = p23_copy_angle(Ray(P(0, 0), P(1, 0)), self.right_angle(),
                             strategy=strategy)
        u, v = got.result.arms()
        assert u.dot(v).is_zero()
        assert got.trace.superposition_count == 0

    @pytest.mark.parametrize("strategy", ["euclid", "proclus", "albertus",
                                          "commandinus", "clavius", "campanus"])
    def test_copies_sixty_degrees(self, strategy):
        apex = Point(C(1, 2), sqrt_nonneg(C(3)) / 2)
        model = Angle(P(0, 0), P(1, 0), apex)
        got = p23_copy_angle(Ray(P(2, 3), P(5, 3)), model, strategy=strategy)
        # cos of the result is exactly one half
        u, v = got.result.arms()
        d = u.dot(v)
        q = u.norm_sq() * v.norm_sq()
        assert (d * d * 4 - q).is_zero() and d.sign() > 0

    def test_euclid_vs_proclus_traces_differ(self):
        model = Angle(P(0, 0), P(2, 1), P(1, 3))
        ray = Ray(P(0, 0), P(1, 0))
        a = p23_copy_angle(ray, model, strategy="euclid")
        b = p23_copy_angle(ray, model, strategy="proclus")
        assert angle_eq(a.result, b.result)
        ca, cb = a.trace.counters(), b.trace.counters()
        assert ca["circles"] == cb["circles"] == 2
        assert ca["joins"] != cb["joins"]

    def test_side_selection(self):
        model = Angle(P(0, 0), P(2, 1), P(1, 3))
        ray = Ray(P(0, 0), P(1, 0))
        up = p23_copy_angle(ray, model, side="upper")
        down = p23_copy_angle(ray, model, side="lower")
        assert up.result.arm2.y.sign() > 0
        assert down.result.arm2.y.sign() < 0


class TestP31:
    def test_horizontal(self):
        got = p31_parallel(P(0, 1), Line(P(0, 0), P(1, 0)))
        assert parallel(got.result, Line(P(0, 0), P(1, 0)))
        assert got.result.contains(P(0, 1))

    def test_diagonal(self):
        l = Line(P(0, 0), P(1, 1))
        got = p31_parallel(P(2, 3), l)
        assert parallel(got.result, l)
        assert got.result.contains(P(2, 3))

    def test_never_meets(self):
        l = Line(P(0, 0), P(1, 0))
        got = p31_parallel(P(0, 1), l)
        assert intersect_lines(got.result, l) == []

    def test_point_on_line(self):
        l = Line(P(0, 0), P(1, 0))
        got = p31_parallel(P(2, 0), l)
        assert got.result is l

    def test_point_on_line_certified(self):
        call = {"p": P(2, 0), "l": Line(P(0, 0), P(1, 0))}
        got = CONSTRUCTIONS["I.31"](**call)
        assert certify("I.31", call, got).lines() == [
            "point on the line: the line itself is returned (coincident)"
            "\tPASS\t0"]
