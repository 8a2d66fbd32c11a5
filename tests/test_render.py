import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euclid import elements, verify
from euclid.elements.areas import p44_apply
from euclid.elements.basics import p1_equilateral
from euclid.errors import NothingToRender
from euclid.geom import Angle, Figure, Point, Segment
from euclid.number import Constructible, current_context, new_context
from euclid.render import _Canvas, render, render_result


def P(x, y):
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


class TestRender:
    def test_i1_census(self):
        got = p1_equilateral(Segment(P(0, 0), P(1, 0)))
        svg = render_result(got).decode()
        # two construction circles with radius 100+, three point dots r=3,
        # the two joined sides plus the triangle path, and the labels
        assert sum(1 for chunk in svg.split("<circle")[1:]
                   if 'r="3"' not in chunk) == 2
        assert svg.count("<line") >= 2
        assert '>A<' in svg and '>B<' in svg and '>C<' in svg

    def test_deterministic_bytes(self):
        got = p1_equilateral(Segment(P(0, 0), P(1, 0)))
        a = render_result(got)
        b = render_result(got)
        assert a == b

    def test_drawing_adjoins_nothing(self):
        """A circle's radius is rounded from intervals of its squared
        radius, so drawing a result leaves the tower it was built in as
        it was: every route at seeds 0-2."""
        grown = []
        for prop_id in elements.CONSTRUCTIONS:
            for strategy in elements.STRATEGIES.get(prop_id, (None,)):
                for seed in range(3):
                    new_context()
                    kwargs = verify.generate_instance(prop_id,
                                                      random.Random(seed))
                    result, _ = elements.run(
                        prop_id, elements.drawn_instance(strategy, kwargs),
                        strategy)
                    before = len(current_context().radicands)
                    render_result(result)
                    after = len(current_context().radicands)
                    if after != before:
                        grown.append((prop_id, strategy, seed, before, after))
        assert grown == []

    def test_deterministic_across_contexts(self):
        a = render_result(p1_equilateral(Segment(P(0, 0), P(1, 0))))
        new_context()
        b = render_result(p1_equilateral(Segment(P(0, 0), P(1, 0))))
        assert a == b

    def test_i44_completion_labels(self):
        t = Figure([P(3, 4), P(0, 0), P(6, 0)])
        d = Angle(P(20, 20), P(21, 20), P(20, 21))
        got = p44_apply(Segment(P(0, 0), P(4, 0)), t, d, "euclid_superposition")
        svg = render_result(got).decode()
        for letter in ("H", "L", "K", "M"):
            assert f">{letter}<" in svg

    def test_labels_unique(self):
        got = p1_equilateral(Segment(P(0, 0), P(1, 0)))
        svg = render_result(got).decode()
        for letter in ("A", "B", "C"):
            assert svg.count(f">{letter}<") == 1

    def test_empty_raises(self):
        with pytest.raises(NothingToRender):
            render({})

    def test_svg_subset_only(self):
        t = Figure([P(3, 4), P(0, 0), P(6, 0)])
        d = Angle(P(20, 20), P(21, 20), P(20, 21))
        got = p44_apply(Segment(P(0, 0), P(4, 0)), t, d, "alnayrizi")
        svg = render_result(got).decode()
        import re
        tags = set(re.findall(r"<(\w+)", svg))
        assert tags <= {"svg", "line", "circle", "path", "text"}


def _reference_clip_line(canvas, p, q):
    """The line clipper the one clip replaced, kept as a reference.  The
    canvas box is in twentieths of a model unit."""
    x1, y1 = p
    x2, y2 = q
    dx, dy = x2 - x1, y2 - y1
    ts = []
    for bound, origin, delta in ((canvas.min_x, x1, dx), (canvas.max_x, x1, dx),
                                 (canvas.min_y, y1, dy), (canvas.max_y, y1, dy)):
        if delta != 0:
            ts.append(Fraction(bound - 20 * origin, 20 * delta))
    hits = []
    for t in sorted(set(ts)):
        x, y = x1 + dx * t, y1 + dy * t
        if (canvas.min_x <= 20 * x <= canvas.max_x
                and canvas.min_y <= 20 * y <= canvas.max_y):
            hits.append((x, y))
    if len(hits) < 2:
        return None
    return hits[0], hits[-1]


def _reference_clip_ray(canvas, origin, through):
    """The ray clipper the one clip replaced, kept as a reference."""
    got = _reference_clip_line(canvas, origin, through)
    if got is None:
        return None
    dx = through[0] - origin[0]
    dy = through[1] - origin[1]
    ends = [origin]
    for pt in got:
        if (pt[0] - origin[0]) * dx + (pt[1] - origin[1]) * dy >= 0:
            ends.append(pt)
    far = max(ends, key=lambda pt: (pt[0] - origin[0]) * dx
              + (pt[1] - origin[1]) * dy)
    return origin, far


# model coordinates are integers; n/k for k <= 4 in units of 1/12
small = st.builds(lambda n, k: n * 12 // k, st.integers(-12, 12),
                  st.integers(1, 4))
xy = st.tuples(small, small)


@given(xy, xy, st.lists(xy, max_size=3))
@settings(max_examples=400, deadline=None, derandomize=True)
@example((0, 0), (0, 0), [])
@example((12, 24), (12, 24), [(-36, 60)])
def test_one_clip_matches_the_line_and_ray_clippers(p, q, others):
    extent = [p, q, *others]
    canvas = _Canvas([x for x, _ in extent], [y for _, y in extent])
    assert canvas.clip(p, q, ray=False) == _reference_clip_line(canvas, p, q)
    assert canvas.clip(p, q, ray=True) == _reference_clip_ray(canvas, p, q)
