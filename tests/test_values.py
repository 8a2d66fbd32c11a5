"""The value contract of the geometry values and of ``trace.Step``.

Each is a slotted dataclass that is immutable by contract (its stores are
checked in ``test_invariants.py``).  Two values with equal fields are
equal and hash alike, a changed field makes a different value, a value
never equals one of another type with the same fields, ``repr`` names the
fields, and ``geom.coords`` and ``geom.points`` walk the fields in field
order.  The texts and lists below are those the frozen dataclasses gave.
"""

import dataclasses
import threading

import pytest

from euclid.geom import (
    Angle,
    Circle,
    Figure,
    Isometry,
    Line,
    Point,
    Ray,
    Segment,
    Vec,
    coords,
    points,
)
from euclid.number import DIGITS, Constructible, new_context, sqrt_nonneg
from euclid.trace import Step, Tracer


def _values(shift=0):
    """One value of each type over fresh points (0, 0), (3, 1), (1, 2),
    each coordinate moved by ``shift``, and the three points."""
    a, b, c = (Point(x + shift, y + shift) for x, y in ((0, 0), (3, 1), (1, 2)))
    n = [Constructible(k + shift) for k in range(4)]
    return {
        "Point": a,
        "Vec": Vec(2 + shift, -1 - shift),
        "Segment": Segment(a, b),
        "Line": Line(a, b),
        "Ray": Ray(a, b),
        "Circle": Circle(b, 5 + shift),
        "Angle": Angle(a, b, c),
        "Figure": Figure([a, b, c]),
        "Isometry": Isometry(*n, not shift),
        "Step": (Step("pick", (1, 3), (4,), "y", Tracer()) if shift
                 else Step("join", (1, 2), (3,), "x", None)),
    }, (a, b, c)


# repr, coords and the indices of points(...) among (0, 0), (3, 1), (1, 2)
CASES = {
    "Point": ("Point(0.0000, 0.0000)", [0, 0], [0]),
    "Vec": ("Vec(dx=Constructible(2.000000...), dy=Constructible(-1.000000...))",
            [2, -1], []),
    "Segment": ("Segment(a=Point(0.0000, 0.0000), b=Point(3.0000, 1.0000))",
                [0, 0, 3, 1], [0, 1]),
    "Line": ("Line(p=Point(0.0000, 0.0000), q=Point(3.0000, 1.0000))",
             [0, 0, 3, 1], [0, 1]),
    "Ray": ("Ray(origin=Point(0.0000, 0.0000), through=Point(3.0000, 1.0000))",
            [0, 0, 3, 1], [0, 1]),
    "Circle": ("Circle(center=Point(3.0000, 1.0000), "
               "radius_sq=Constructible(5.000000...))", [3, 1, 5], [1]),
    "Angle": ("Angle(vertex=Point(0.0000, 0.0000), arm1=Point(3.0000, 1.0000), "
              "arm2=Point(1.0000, 2.0000))", [0, 0, 3, 1, 1, 2], [0, 1, 2]),
    "Figure": ("Figure(vertices=(Point(0.0000, 0.0000), Point(3.0000, 1.0000), "
               "Point(1.0000, 2.0000)))", [0, 0, 3, 1, 1, 2], [0, 1, 2]),
    "Isometry": ("Isometry(c=Constructible(0.000000...), "
                 "s=Constructible(1.000000...), tx=Constructible(2.000000...), "
                 "ty=Constructible(3.000000...), reflect=True)", [0, 1, 2, 3], []),
    "Step": ("Step(kind='join', operands=(1, 2), produced=(3,), note='x', "
             "sub=None)", [], []),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equal_fields_make_equal_values(name):
    new_context()
    one, two = _values()[0][name], _values()[0][name]
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_field_is_compared(name):
    """Taking any one field from a value with other fields gives a value
    that differs."""
    new_context()
    value, other = _values()[0][name], _values(1)[0][name]
    for f in dataclasses.fields(value):
        if f.init:
            changed = dataclasses.replace(value, **{f.name: getattr(other, f.name)})
            assert changed != value, f.name


def test_no_value_equals_one_of_another_type():
    new_context()
    a, b = Point(0, 0), Point(3, 1)
    same_fields = [Segment(a, b), Line(a, b), Ray(a, b)]
    for i, u in enumerate(same_fields):
        for v in same_fields[i + 1:]:
            assert u != v and v != u
    assert Point(1, 2) != Vec(1, 2) and Vec(1, 2) != Point(1, 2)


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr_coords_and_points(name):
    new_context()
    values, pts = _values()
    value = values[name]
    text, want_coords, want_points = CASES[name]
    assert repr(value) == text
    assert coords(value) == [Constructible(k) for k in want_coords]
    got = points(value)
    assert got == [pts[i] for i in want_points]
    assert all(p is pts[i] for p, i in zip(got, want_points))


def test_rounded_fills_its_slot_once_and_changes_no_value():
    new_context()
    r2 = sqrt_nonneg(Constructible(2))
    p, fresh = Point(r2, 1), Point(r2, 1)
    assert not hasattr(p, "_rounded")
    kept = p.rounded
    assert kept == (r2.scaled(DIGITS), 10 ** DIGITS)
    assert p.rounded is kept
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert coords(p) == coords(fresh)


def test_threads_that_race_to_fill_rounded_read_equal_integers():
    new_context()
    p = Point(sqrt_nonneg(Constructible(3)), Constructible(1) / 3)
    start = threading.Barrier(4)
    got = []

    def read():
        start.wait()
        got.append(p.rounded)

    threads = [threading.Thread(target=read) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert got == [p.rounded] * 4
