"""The tracer's object registry."""

from euclid.geom import Point, Segment
from euclid.number import new_context
from euclid.trace import Tracer


def test_register_input_takes_objects_in_order():
    new_context()
    a, b = Point(0, 0), Point(1, 0)
    objs = (a, b, Segment(a, b))
    one_call, three_calls = Tracer(), Tracer()
    one_call.register_input(*objs)
    for obj in objs:
        three_calls.register_input(obj)
    for tr in (one_call, three_calls):
        assert tr.trace.inputs == [1, 2, 3]
        assert tr.registry == {1: objs[0], 2: objs[1], 3: objs[2]}
        assert [tr._id_of(obj) for obj in objs] == [1, 2, 3]
    assert list(map(id, one_call.registry.values())) == list(map(id, objs))


def test_an_unregistered_operand_becomes_an_input():
    new_context()
    tr = Tracer()
    tr.register_input(Point(0, 0))
    c = Point(2, 0)
    assert tr._id_of(c) == 2
    assert tr.trace.inputs == [1, 2] and tr.registry[2] is c
