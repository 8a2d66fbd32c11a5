"""The tracer's object registry, its levels and its selections."""

import pytest

from euclid.elements import p1_equilateral
from euclid.errors import NoSuchIntersection
from euclid.geom import Point, Segment
from euclid.number import Constructible, new_context, sqrt_nonneg
from euclid.trace import Checks, Tracer


def test_register_input_takes_objects_in_order():
    new_context()
    a, b = Point(0, 0), Point(1, 0)
    objs = (a, b, Segment(a, b))
    one_call, three_calls = Tracer(), Tracer()
    one_call.register_input(*objs)
    for obj in objs:
        three_calls.register_input(obj)
    for tr in (one_call, three_calls):
        assert tr.inputs == [1, 2, 3]
        assert tr.registry == {1: objs[0], 2: objs[1], 3: objs[2]}
        assert [tr._id_of(obj) for obj in objs] == [1, 2, 3]
    assert list(map(id, one_call.registry.values())) == list(map(id, objs))


def test_an_unregistered_operand_becomes_an_input():
    new_context()
    tr = Tracer()
    tr.register_input(Point(0, 0))
    c = Point(2, 0)
    assert tr._id_of(c) == 2
    assert tr.inputs == [1, 2] and tr.registry[2] is c


@pytest.mark.parametrize("strategy, label", [
    (None, "I.42"), ("euclid", "I.42"), ("alnayrizi", "I.42.alnayrizi")])
def test_level_label(strategy, label):
    top = Tracer.level(None, "I.42", strategy)
    assert top.label == label
    nested = Tracer.level(top, "I.44", "alnayrizi")
    assert nested.label == "I.44" and nested.registry is top.registry


@pytest.mark.parametrize("selector, message", [
    ("only", "X: expected exactly one intersection"),
    (lambda p: True, "X: selector matched 2 of 2 points"),
])
def test_pick_fails(selector, message):
    new_context()
    with pytest.raises(NoSuchIntersection, match=f"^{message}$"):
        Tracer().pick([Point(0, 0), Point(1, 0)], selector, note="X")


def test_unattached_nested_run_fails_the_reference_check():
    """A step that uses what a nested run produced, with the run never
    attached, cites an id that no earlier step of its level made."""
    new_context()
    a, b = Point(0, 0), Point(1, 0)
    for attached in (False, True):
        tr = Tracer("outer")
        tr.register_input(a, b)
        tri = p1_equilateral(Segment(a, b), parent=tr)
        apex = tri.result.vertices[2]
        if attached:
            tr.attach(tri, operands=(a, b), produced=(apex,))
        tr.join(apex, a)
        assert tr.check_references() is attached


def test_residual_shows_an_irrational_value():
    checks = Checks("I.0")
    checks.zero("irrational", sqrt_nonneg(Constructible(2)) - 1)
    checks.zero("rational", Constructible(1) / 3)
    checks.zero("zero", Constructible(0))
    checks.true("boolean", False)
    assert checks.lines() == [
        "irrational\tFAIL\t+ -1 × 1 √ 2 (≈ 0.414214)",
        "rational\tFAIL\t1/3",
        "zero\tPASS\t0",
        "boolean\tFAIL\t-",
    ]
    assert checks.failed == ["irrational", "rational", "boolean"]
    assert not checks.all_pass
    assert checks.lines("p: ", failed_only=True) == [
        "p: " + line for line in checks.lines() if "\tFAIL\t" in line]
