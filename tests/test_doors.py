"""Each construction and validator rejects a bad call itself, with its own
message, whichever front door (``prop``, a script, a suite or a direct
call) reached it.  The front doors check ids, strategies and side words
first, so these raises run only on a direct library call."""

import random
import re
from fractions import Fraction

import pytest

from euclid import verify
from euclid.elements import (
    CONSTRUCTIONS,
    STRATEGIES,
    certify,
    check_theorem,
    run,
)
from euclid.elements._common import side_name_of
from euclid.elements.areas import p42_parallelogram_eq_triangle, p43_complements
from euclid.elements.basics import p1_equilateral
from euclid.errors import (
    HypothesisNotSatisfied,
    PreconditionViolated,
    UnknownProposition,
)
from euclid.geom import Figure, Point, Segment
from euclid.number import Constructible


def P(x, y):
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


TRIANGLE = [P(0, 0), P(4, 0), P(1, 3)]
# a trapezium: one pair of parallel sides only
TRAPEZIUM = Figure([P(0, 0), P(4, 0), P(3, 2), P(1, 2)])


@pytest.mark.parametrize("prop_id", ["I.99", "I.4"])
def test_runner_rejects_an_id_that_names_no_construction(prop_id):
    """An unknown id, or a theorem's: the library runner and the pure
    check give the error each front door gives."""
    message = f"^unknown proposition {re.escape(repr(prop_id))}$"
    with pytest.raises(UnknownProposition, match=message):
        run(prop_id, {})
    result, _ = run("I.1", {"ab": Segment(P(0, 0), P(1, 0))})
    with pytest.raises(UnknownProposition, match=message):
        certify(prop_id, {}, result)


@pytest.mark.parametrize("call, message", [
    (lambda: check_theorem("I.99", {}), "no validator for 'I.99'"),
    (lambda: verify.generate_instance("I.99", random.Random(0)),
     "no instance generator for 'I.99'"),
])
def test_unknown_id_at_the_check_and_the_generator(call, message):
    with pytest.raises(UnknownProposition, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("prop_id", list(STRATEGIES))
def test_unknown_strategy(prop_id):
    """One construction per strategy table."""
    call = verify.generate_instance(prop_id, random.Random(0))
    message = f"unknown {prop_id} strategy 'nope'"
    with pytest.raises(PreconditionViolated, match=f"^{re.escape(message)}$"):
        CONSTRUCTIONS[prop_id](**call, strategy="nope")


def test_side_word():
    with pytest.raises(PreconditionViolated,
                       match=r"^side must be 'upper' or 'lower'$"):
        p1_equilateral(Segment(P(0, 0), P(1, 0)), side="left")


def test_no_side_of_a_line_for_a_point_on_it():
    with pytest.raises(PreconditionViolated,
                       match="^probe point lies on the reference line$"):
        side_name_of(P(0, 0), P(2, 0), P(1, 0))


def test_i42_expects_a_triangle():
    d = verify.generate_instance("I.42", random.Random(0))["d"]
    with pytest.raises(PreconditionViolated, match="^expected a triangle$"):
        p42_parallelogram_eq_triangle(TRAPEZIUM, d)


def test_i43_expects_a_parallelogram():
    with pytest.raises(PreconditionViolated,
                       match="^expected a parallelogram$"):
        p43_complements(TRAPEZIUM, P(2, 1))


def test_i34_expects_a_parallelogram():
    """A three-sided figure takes ``geom.is_parallelogram``'s vertex-count
    branch."""
    with pytest.raises(HypothesisNotSatisfied,
                       match="^expected a parallelogram$"):
        check_theorem("I.34", {"pg": Figure(TRIANGLE)})
