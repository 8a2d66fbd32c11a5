"""One dispatch over geometry values: ``geom.coords`` and ``geom.points``
and the trace and render helpers built on them.

Each value carries a sqrt(2) coordinate.  The descriptions and extents
pin trace and SVG output; every depth, an angle's included, is the
deepest radical among the value's coordinates.
"""

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
    coords,
    points,
)
from euclid.number import Constructible, deepest, new_context, sqrt_nonneg
from euclid.render import _model
from euclid.trace import describe_object

O_ = "point(0.000000, 0.000000)"
P_ = "point(1.414214, 1.000000)"
Q_ = "point(2.000000, 0.000000)"


def _values():
    new_context()
    r2 = sqrt_nonneg(Constructible(2))
    o, p, q = Point(0, 0), Point(r2, 1), Point(2, 0)
    values = {
        "Point": p,
        "Segment": Segment(o, p),
        "Line": Line(o, p),
        "Ray": Ray(o, p),
        "Circle": Circle(p, 3),
        "Angle": Angle(o, q, p),
        "Figure": Figure([o, q, p]),
        "Isometry": Isometry(r2 / 2, r2 / 2, r2, Constructible(1), True),
    }
    return values, r2, (o, p, q)


# class: (description, extent, depth, coords, points); the extent is in
# the renderer's model units of 10**-6; coords and points name the parts
# r2 = sqrt(2), "o" = (0, 0), "p" = (r2, 1), "q" = (2, 0)
CASES = {
    "Point": (P_, [(1414214, 10**6)], 1, ["r2", 1], ["p"]),
    "Segment": (f"segment[{O_} {P_}]",
                [(0, 0), (1414214, 10**6)], 1,
                [0, 0, "r2", 1], ["o", "p"]),
    "Line": (f"line[{O_} {P_}]",
             [(0, 0), (1414214, 10**6)], 1,
             [0, 0, "r2", 1], ["o", "p"]),
    "Ray": (f"ray[{O_} {P_}]",
            [(0, 0), (1414214, 10**6)], 1,
            [0, 0, "r2", 1], ["o", "p"]),
    "Circle": (f"circle[{P_} r2=3.000000]",
               [(-317837, -732051), (3146265, 2732051)], 1,
               ["r2", 1, 3], ["p"]),
    "Angle": ("angle",
              [(0, 0), (2 * 10**6, 0), (1414214, 10**6)], 1,
              [0, 0, 2, 0, "r2", 1], ["o", "q", "p"]),
    "Figure": (f"figure[{O_} {Q_} {P_}]",
               [(0, 0), (2 * 10**6, 0), (1414214, 10**6)], 1,
               [0, 0, 2, 0, "r2", 1], ["o", "q", "p"]),
    "Isometry": ("isometry[reflecting c=0.707107 s=0.707107 "
                 "t=(1.414214, 1.000000)]", [], 1,
                 ["r2/2", "r2/2", "r2", 1], []),
}


@pytest.mark.parametrize("cls", sorted(CASES))
def test_dispatch(cls):
    values, r2, (o, p, q) = _values()
    obj = values[cls]
    description, extent, depth, want_coords, want_points = CASES[cls]
    assert type(obj).__name__ == cls
    assert describe_object(obj) == description
    assert _model(obj)[2] == extent
    assert deepest(coords(obj)) == depth
    parts = {"r2": r2, "r2/2": r2 / 2}
    got = coords(obj)
    assert len(got) == len(want_coords)
    for c, want in zip(got, want_coords):
        assert isinstance(c, Constructible)
        assert (c - parts.get(want, want)).is_zero()
    named = {"o": o, "p": p, "q": q}
    assert points(obj) == [named[n] for n in want_points]


def test_non_geometry_values():
    assert coords("upper") == [] and points("upper") == []
    assert coords(None) == [] and points(None) == []
    assert deepest(coords(None)) == 0
    assert describe_object(None) == "nonetype"


def test_depth_walk_stops_only_at_the_deepest_radicand():
    values, r2, (o, p, q) = _values()
    deep = Point(sqrt_nonneg(1 + r2), 0)
    assert deepest(coords((o, p, values["Circle"], deep, q))) == 2
    assert deepest(coords((o, p, q))) == 1
    assert deepest(coords((o, q))) == 0


def test_tuples_flatten():
    values, r2, (o, p, q) = _values()
    got = coords((o, values["Segment"]))
    assert [c.radical_depth() for c in got] == [0, 0, 0, 0, 1, 0]
