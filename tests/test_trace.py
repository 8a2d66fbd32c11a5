"""The tracer's object registry, its levels and its selections."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euclid import elements, render, verify
from euclid.elements.basics import p1_equilateral
from euclid.errors import NoSuchIntersection
from euclid.geom import Point, Segment, coords, points
from euclid.number import DIGITS, Constructible, new_context, sqrt_nonneg
from euclid.trace import Checks, PropositionResult, Tracer, describe_object


def test_register_input_takes_objects_in_order():
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
    tr = Tracer()
    tr.register_input(Point(0, 0))
    c = Point(2, 0)
    assert tr._id_of(c) == 2
    assert tr.inputs == [1, 2] and tr.registry[2] is c


# operands that ``_id_of`` registered because no step made them, per route
# over seeds 0-2; a strict tracer would take every entry to 0
IMPLICIT_INPUTS = {
    "I.1": 0, "I.2": 0, "I.3": 0, "I.9": 0, "I.10": 3, "I.11": 0, "I.12": 3,
    "I.22": 0, "I.23.euclid": 6, "I.23.proclus": 9, "I.23.albertus": 9,
    "I.23.commandinus": 12, "I.23.clavius": 6, "I.23.campanus": 9,
    "I.31": 6, "I.42.euclid": 9, "I.42.alnayrizi": 9, "I.43": 6,
    "I.44.euclid_superposition": 39, "I.44.alnayrizi": 39,
    "I.44.robert_of_chester": 27, "I.44.campanus": 36,
    "I.44.tinemue_equal_case": 33, "I.45": 61, "I.46.campanus_first": 0,
    "I.46.campanus_second": 3,
}


def test_implicit_inputs_do_not_grow(monkeypatch):
    """No route registers more operands unseen than the table holds: the
    count may fall, never rise."""
    counts = dict.fromkeys(IMPLICIT_INPUTS, 0)
    route = None
    id_of = Tracer._id_of

    def counting(self, obj):
        if id(obj) not in self._ids:
            counts[route] += 1
        return id_of(self, obj)

    monkeypatch.setattr(Tracer, "_id_of", counting)
    for prop_id in elements.CONSTRUCTIONS:
        for strategy in elements.STRATEGIES.get(prop_id, (None,)):
            route = prop_id if strategy is None else f"{prop_id}.{strategy}"
            for seed in range(3):
                new_context()
                kwargs = verify.generate_instance(prop_id, random.Random(seed))
                elements.run(prop_id, elements.drawn_instance(strategy, kwargs),
                             strategy)
    assert counts.keys() == IMPLICIT_INPUTS.keys()
    assert {r: n for r, n in counts.items() if n > IMPLICIT_INPUTS[r]} == {}


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
    with pytest.raises(NoSuchIntersection, match=f"^{message}$"):
        Tracer().pick([Point(0, 0), Point(1, 0)], selector, note="X")


def test_pick_refuses_an_unknown_selector():
    with pytest.raises(ValueError, match="^unknown selector 'nearest'$"):
        Tracer().pick([Point(0, 0), Point(1, 0)], "nearest", note="X")


def test_unattached_nested_run_fails_the_reference_check():
    """A step that uses what a nested run produced, with the run never
    attached, cites an id that no earlier step of its level made."""
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


def test_a_nested_level_that_fails_the_reference_check_fails_its_parent():
    a, b = Point(0, 0), Point(1, 0)
    outer = Tracer("outer")
    outer.register_input(a, b)
    inner = outer.sub("inner")
    inner.register_input(a, b)
    tri = p1_equilateral(Segment(a, b), parent=inner)
    inner.join(tri.result.vertices[2], a)
    outer.attach(PropositionResult({}, None, inner), operands=(a, b))
    assert not inner.check_references()
    assert not outer.check_references()


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


_Q = st.fractions(min_value=-9, max_value=9, max_denominator=9)
_COORDINATES = st.one_of(
    st.fractions(max_denominator=10 ** 4).map(Constructible),
    # n + 1/2 units of the last place: a tie, which rounds up
    st.integers(-10 ** 7, 10 ** 7).map(
        lambda n: Constructible(Fraction(2 * n + 1, 2 * 10 ** DIGITS))),
    st.tuples(_Q, _Q, st.sampled_from((2, 3, Fraction(5, 7)))).map(
        lambda t: t[0] + t[1] * sqrt_nonneg(Constructible(t[2]))),
)


@given(_COORDINATES, _COORDINATES)
@example(Constructible(Fraction(-1, 2 * 10 ** DIGITS)),
         -sqrt_nonneg(Constructible(2)))
@example(Constructible(Fraction(-3, 2 * 10 ** DIGITS)),
         Constructible(Fraction(-7, 3)))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_a_point_is_rounded_once_for_the_text_and_the_svg(x, y):
    """A point's kept integers are those a fresh rounding gives; the trace
    writes them and the SVG lays them out; and keeping them changes no
    list of the point's or its segment's coordinates or points."""
    p = Point(x, y)
    seg = Segment(p, Point(x + 1, y))
    before = (coords(p), points(p), coords(seg), points(seg))
    assert describe_object(p) == f"point({x.approx(DIGITS)}, {y.approx(DIGITS)})"
    assert p.rounded == (x.scaled(DIGITS), y.scaled(DIGITS))
    assert render._model(seg)[0][0] == p.rounded
    assert (coords(p), points(p), coords(seg), points(seg)) == before
