import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euclid import elements, verify
from euclid.elements.areas import (
    p42_on_ray,
    p42_parallelogram_eq_triangle,
    p43_complements,
    p44_apply,
    p45_apply_figure,
    p46_square,
    tinemue_matching_angle,
    triangulate,
)
from euclid.errors import (
    NotSimple,
    PreconditionViolated,
    StrategyInapplicable,
)
from euclid.geom import (
    Angle,
    Figure,
    Point,
    Ray,
    Segment,
    angle_eq,
    collinear,
    content,
    is_parallelogram,
    is_simple,
    orientation,
    segment_eq,
    signed_area,
)
from euclid.number import Constructible, new_context
from euclid.render import render_result


def P(x, y):
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


def C(x, y=1):
    return Constructible(Fraction(x, y))


RIGHT = Angle(P(20, 20), P(21, 20), P(20, 21))
SLANT = Angle(P(20, 20), P(22, 20), P(21, 22))


class TestP42:
    def test_area_six_right_angle(self):
        t = Figure([P(0, 0), P(4, 0), P(0, 3)])
        got = p42_parallelogram_eq_triangle(t, RIGHT)
        assert (content(got.result) - 6).is_zero()

    def test_proclus_area_pair(self):
        t1 = Figure([P(0, 0), P(3, 0), P(3, 4)])
        t2 = Figure([P(0, 0), P(5, 0), P(5, 2)])
        got1 = p42_parallelogram_eq_triangle(t1, SLANT)
        got2 = p42_parallelogram_eq_triangle(t2, SLANT)
        assert (content(got1.result) - 6).is_zero()
        assert (content(got2.result) - 5).is_zero()

    @pytest.mark.parametrize("strategy", ["euclid", "alnayrizi"])
    def test_any_angle_preserves_area(self, strategy):
        t = Figure([P(1, 1), P(6, 2), P(3, 5)])
        got = p42_parallelogram_eq_triangle(t, SLANT, strategy)
        assert (content(got.result) - content(t)).is_zero()
        assert is_parallelogram(got.result)

    def test_strategies_agree_in_content_but_not_trace(self):
        t = Figure([P(0, 0), P(4, 0), P(1, 3)])
        a = p42_parallelogram_eq_triangle(t, SLANT, "euclid")
        b = p42_parallelogram_eq_triangle(t, SLANT, "alnayrizi")
        assert (content(a.result) - content(b.result)).is_zero()
        sa = [s.kind for s in a.trace.steps]
        sb = [s.kind for s in b.trace.steps]
        assert sa != sb

    def test_on_ray_places_at_origin(self):
        t = Figure([P(0, 0), P(4, 0), P(1, 3)])
        ray = Ray(P(10, 10), P(11, 10))
        got = p42_on_ray(t, RIGHT, ray)
        fig = got.result
        assert fig.vertices[0] == P(10, 10)
        assert (content(fig) - content(t)).is_zero()
        assert angle_eq(Angle(fig.vertices[0], fig.vertices[1],
                              fig.vertices[3]), RIGHT)
        # opposite sides parallel and equal; one side along the ray
        a, b, c, d = fig.vertices
        assert is_parallelogram(fig)
        assert segment_eq(Segment(a, b), Segment(d, c))
        assert segment_eq(Segment(b, c), Segment(a, d))
        assert ray.contains(b)

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(PreconditionViolated):
            p42_parallelogram_eq_triangle(
                Figure([P(0, 0), P(1, 0), P(2, 0)]), RIGHT)


class TestP43:
    def unit_square(self):
        return Figure([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])

    def test_center_split(self):
        got = p43_complements(self.unit_square(), P(Fraction(1, 2), Fraction(1, 2)))
        c1, c2 = got.result
        assert (content(c1) - Fraction(1, 4)).is_zero()
        assert (content(c2) - Fraction(1, 4)).is_zero()

    def test_quarter_point_on_rectangle(self):
        pg = Figure([P(0, 0), P(4, 0), P(4, 3), P(0, 3)])
        k = P(1, Fraction(3, 4))
        got = p43_complements(pg, k)
        c1, c2 = got.result
        assert (content(c1) - content(c2)).is_zero()
        # shoelace oracle: (4 - 1) * 3/4 = 9/4 = (1 - 0) * (3 - 3/4)
        assert (content(c1) - Fraction(9, 4)).is_zero()

    def test_sheared_parallelogram(self):
        pg = Figure([P(0, 0), P(4, 0), P(6, 3), P(2, 3)])
        k = P(2, 1)
        got = p43_complements(pg, k)
        c1, c2 = got.result
        assert (content(c1) - content(c2)).is_zero()

    def test_endpoint_rejected(self):
        with pytest.raises(PreconditionViolated):
            p43_complements(self.unit_square(), P(0, 0))

    def test_off_diameter_rejected(self):
        with pytest.raises(PreconditionViolated):
            p43_complements(self.unit_square(), P(Fraction(1, 2), Fraction(1, 4)))


# apex first, then the base: isoceles over its base, so every route applies
AREA12 = Figure([P(3, 4), P(0, 0), P(6, 0)])
AB4 = Segment(P(0, 0), P(4, 0))

ALL44 = ["euclid_superposition", "alnayrizi", "robert_of_chester",
         "campanus", "tinemue_equal_case"]


class TestP44:
    @pytest.mark.parametrize("strategy", ALL44)
    def test_breadth_three(self, strategy):
        got = p44_apply(AB4, AREA12, RIGHT, strategy)
        fig = got.result
        assert (content(fig) - 12).is_zero()
        sides = fig.sides()
        assert any({s.a, s.b} == {AB4.a, AB4.b} for s in sides)
        # the breadth side at the segment end measures exactly three
        vs = fig.vertices
        idx = next(i for i, p in enumerate(vs) if p == AB4.a)
        breadth = vs[idx - 1] if vs[(idx + 1) % 4] == AB4.b else vs[(idx + 1) % 4]
        assert (AB4.a.dist_sq(breadth) - 9).is_zero()

    @pytest.mark.parametrize("strategy", ALL44)
    def test_angle_at_first_endpoint(self, strategy):
        ab = Segment(P(1, 1), P(4, 1))
        t = Figure([P(0, 0), P(6, 0), P(3, 4)])
        got = p44_apply(ab, t, SLANT, strategy) if strategy != "tinemue_equal_case" \
            else p44_apply(ab, t, tinemue_matching_angle(t), strategy)
        fig = got.result
        vs = fig.vertices
        idx = next(i for i, p in enumerate(vs) if p == ab.a)
        want = SLANT if strategy != "tinemue_equal_case" else tinemue_matching_angle(t)
        assert angle_eq(Angle(ab.a, vs[idx - 1], vs[(idx + 1) % 4]), want)

    def test_superposition_counts(self):
        counts = {}
        for strategy in ALL44:
            got = p44_apply(AB4, AREA12, RIGHT, strategy)
            counts[strategy] = got.trace.superposition_count
        assert counts == {"euclid_superposition": 1, "alnayrizi": 0,
                          "robert_of_chester": 0, "campanus": 0,
                          "tinemue_equal_case": 0}

    @pytest.mark.parametrize("strategy", ALL44)
    def test_trace_references_are_well_formed(self, strategy):
        got = p44_apply(AB4, AREA12, RIGHT, strategy)
        assert got.trace.check_references()

    def test_tinemue_rejects_unequal_case(self):
        t = Figure([P(0, 0), P(6, 0), P(1, 4)])  # not isoceles
        with pytest.raises(StrategyInapplicable):
            p44_apply(AB4, t, RIGHT, "tinemue_equal_case")

    def test_sides_param(self):
        up = p44_apply(AB4, AREA12, RIGHT, "alnayrizi", side="upper")
        down = p44_apply(AB4, AREA12, RIGHT, "alnayrizi", side="lower")
        y_up = [p.y.sign() for p in up.result.vertices if p.y.sign() != 0]
        y_down = [p.y.sign() for p in down.result.vertices if p.y.sign() != 0]
        assert all(s > 0 for s in y_up) and y_up
        assert all(s < 0 for s in y_down) and y_down

    def test_irrational_segment_direction(self):
        ab = Segment(P(0, 0), P(1, 1))
        t = Figure([P(0, 0), P(2, 0), P(1, 3)])
        got = p44_apply(ab, t, SLANT, "alnayrizi")
        assert (content(got.result) - 3).is_zero()


class TestP45:
    def test_unit_square(self):
        f = Figure([P(0, 0), P(1, 0), P(1, 1), P(0, 1)])
        got = p45_apply_figure(RIGHT, f)
        assert (content(got.result) - 1).is_zero()
        assert got.trace.superposition_count == 0

    def test_triangle_count_decagon(self):
        pts = [P(4, 0), P(3, 2), P(1, 3), P(-1, 3), P(-3, 2), P(-4, 0),
               P(-3, -2), P(-1, -3), P(1, -3), P(3, -2)]
        f = Figure(pts)
        assert len(triangulate(f)) == 8
        got = p45_apply_figure(RIGHT, f)
        assert len(got.objects["triangles"]) == 8
        assert (content(got.result) - content(f)).is_zero()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_ngon_pieces(self, n):
        from math import cos, sin, pi
        pts = []
        for i in range(n):
            x = Fraction(round(100 * cos(2 * pi * i / n)), 25)
            y = Fraction(round(100 * sin(2 * pi * i / n)), 25)
            pts.append(P(x, y))
        f = Figure(pts)
        got = p45_apply_figure(SLANT, f)
        assert len(got.objects["triangles"]) == n - 2
        assert (content(got.result) - content(f)).is_zero()
        assert is_parallelogram(got.result)

    def test_nonconvex(self):
        f = Figure([P(0, 0), P(4, 0), P(4, 3), P(2, 1), P(0, 3)])
        got = p45_apply_figure(RIGHT, f)
        assert (content(got.result) - content(f)).is_zero()

    def test_straight_vertex(self):
        # the flat corner at (2,0) yields one degenerate piece, which counts
        # toward the tally but contributes no area
        f = Figure([P(0, 0), P(2, 0), P(4, 0), P(4, 3), P(0, 3)])
        got = p45_apply_figure(RIGHT, f)
        assert len(got.objects["triangles"]) == 3
        assert (content(got.result) - 12).is_zero()

    def test_self_intersecting_rejected(self):
        with pytest.raises(NotSimple):
            p45_apply_figure(RIGHT, Figure([P(0, 0), P(2, 2), P(2, 0), P(0, 2)]))

    def test_triangulate_finds_no_ear_in_a_crossed_pentagon(self):
        f = Figure([P(0, 2), P(0, 3), P(1, 5), P(4, 2), P(6, 6)])
        assert not is_simple(f)
        with pytest.raises(NotSimple, match="^ear clipping failed"):
            triangulate(f)

    @pytest.mark.parametrize("seed", range(6))
    def test_clockwise_figure(self, seed):
        """A figure given clockwise is triangulated as its counterclockwise
        reversal."""
        call = verify.generate_instance("I.45", random.Random(seed))
        f = Figure(reversed(call["f"].vertices))
        assert signed_area(f).sign() < 0
        call = dict(call, f=f)
        got = p45_apply_figure(**call)
        assert len(got.objects["triangles"]) == len(f) - 2
        assert elements.certify("I.45", call, got).all_pass

    def test_triangle_matches_p42_content(self):
        t = Figure([P(0, 0), P(4, 0), P(1, 3)])
        via45 = p45_apply_figure(SLANT, t)
        via42 = p42_parallelogram_eq_triangle(t, SLANT)
        assert (content(via45.result) - content(via42.result)).is_zero()


def _two_loop_triangulate(f):
    """Ear clipping as the engine once wrote it: one loop clips the first
    straight corner, and only when there is none a second loop clips the
    first ear."""
    verts = list(f.vertices)
    if signed_area(f).sign() < 0:
        verts.reverse()
    out = []
    while len(verts) > 3:
        n = len(verts)
        clipped = False
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if collinear(a, b, c):
                out.append(Figure([a, b, c]))
                del verts[i]
                clipped = True
                break
        if clipped:
            continue
        for i in range(n):
            a, b, c = verts[i - 1], verts[i], verts[(i + 1) % n]
            if orientation(a, b, c) <= 0:
                continue
            if any(orientation(a, b, p) >= 0 and orientation(b, c, p) >= 0
                   and orientation(c, a, p) >= 0
                   for p in verts if p not in (a, b, c)):
                continue
            out.append(Figure([a, b, c]))
            del verts[i]
            clipped = True
            break
        if not clipped:
            raise NotSimple("ear clipping failed; is the figure simple?")
    out.append(Figure(verts))
    return out


# primitive lattice directions, one per angle
DIRECTIONS = sorted({(x // math.gcd(x, y), y // math.gcd(x, y))
                     for x in range(-3, 4) for y in range(-3, 4) if x or y},
                    key=lambda v: math.atan2(v[1], v[0]))


@st.composite
def polygons_with_straight_corners(draw):
    """A polygon of 3 to 9 corners, star-shaped about the origin (each
    corner a drawn multiple of a drawn direction, in the order of their
    angles), with the midpoints of one or two of its sides inserted."""
    n = draw(st.integers(3, 9))
    dirs = sorted(draw(st.lists(st.sampled_from(DIRECTIONS), min_size=n,
                                max_size=n, unique=True)),
                  key=DIRECTIONS.index)
    verts = [P(x * r, y * r) for (x, y), r in
             zip(dirs, draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))]
    sides = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2,
                          unique=True))
    for i in sorted(sides, reverse=True):
        verts.insert(i + 1, verts[i].midpoint(verts[(i + 1) % n]))
    return verts


class TestTriangulate:
    """One clipping loop gives the two-loop clipper's triangles, in its
    order, whichever way the figure runs."""

    @given(verts=polygons_with_straight_corners(), clockwise=st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_drawn_polygons(self, verts, clockwise):
        f = Figure(reversed(verts) if clockwise else verts)
        assume(is_simple(f) and signed_area(f).sign() != 0)
        want = [t.vertices for t in _two_loop_triangulate(f)]
        assert [t.vertices for t in triangulate(f)] == want
        assert len(want) == len(f) - 2


class TestP46:
    def test_unit_square_upper(self):
        got = p46_square(Segment(P(0, 0), P(1, 0)), "upper")
        assert set(got.result.vertices) == {P(0, 0), P(1, 0), P(1, 1), P(0, 1)}

    def test_diagonal_content(self):
        got = p46_square(Segment(P(0, 0), P(1, 1)))
        assert (content(got.result) - 2).is_zero()

    def test_sides_and_angles(self):
        ab = Segment(P(0, 0), P(2, 1))
        got = p46_square(ab, "lower")
        for s in got.result.sides():
            assert segment_eq(s, ab)


ROUTES = [(pid, strategy) for pid, prop in elements.PROPOSITIONS.items()
          for strategy in list(prop.strategies) or [None]]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("prop_id, strategy", ROUTES,
                         ids=[f"{p}.{s}" if s else p for p, s in ROUTES])
def test_trace_references_on_every_route(prop_id, strategy, seed):
    """Every step of every construction route, nested sub-constructions
    included, refers only to objects registered or produced before it."""
    kwargs = verify.generate_instance(prop_id, random.Random(seed))
    got, _ = elements.run(
        prop_id, elements.drawn_instance(strategy, kwargs), strategy)
    assert got.trace.check_references()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("prop_id, strategy", ROUTES,
                         ids=[f"{p}.{s}" if s else p for p, s in ROUTES])
def test_roles_on_every_route(prop_id, strategy, seed):
    """Every construction route names each object once, with a role the
    renderer styles, and its figure renders."""
    kwargs = verify.generate_instance(prop_id, random.Random(seed))
    got, _ = elements.run(
        prop_id, elements.drawn_instance(strategy, kwargs), strategy)
    for name, entry in got.named.items():
        assert isinstance(entry, tuple) and len(entry) == 2, name
        assert entry[0] in ("given", "aux", "result"), name
    assert render_result(got).startswith(b"<svg")


def _one_figure(prop_id, a, b) -> bool:
    """Whether two routes' results are one figure: one vertex set, or for
    I.23 one vertex and the same two arm rays, as its routes mark
    different points on the arms."""
    if prop_id == "I.23":
        return (a.vertex == b.vertex
                and Ray(a.vertex, a.arm1).contains(b.arm1)
                and Ray(a.vertex, a.arm2).contains(b.arm2))
    return set(a.vertices) == set(b.vertices)


@pytest.mark.parametrize("prop_id", sorted(elements.STRATEGIES))
def test_every_route_builds_one_figure(prop_id):
    """On one call every route of an id builds the same figure, so the
    medieval routes of I.44 give Euclid's parallelogram itself, not only
    one of equal content.  I.44's general routes run on the drawn
    instance, and all five on Tinemue's equal case."""
    strategies = elements.STRATEGIES[prop_id]
    sides = (("upper", "lower")
             if "side" in elements.PROPOSITIONS[prop_id].signature.parameters
             else (None,))
    for seed in range(10):
        new_context()
        kwargs = verify.generate_instance(prop_id, random.Random(seed))
        calls = [(kwargs, [s for s in strategies
                           if s != "tinemue_equal_case"])]
        if prop_id == "I.44":
            calls.append((elements.drawn_instance("tinemue_equal_case",
                                                  kwargs), strategies))
        for side in sides:
            for givens, routes in calls:
                first, *rest = [elements.run(prop_id, givens, s, side)[0].result
                                for s in routes]
                for strategy, got in zip(routes[1:], rest):
                    assert _one_figure(prop_id, first, got), (seed, side,
                                                              strategy)
