"""Each construction and validator rejects a bad call itself, with its own
message, whichever front door (``prop``, a script, a suite or a direct
call) reached it.  The front doors check ids, strategies and side words
first, so these raises run only on a direct library call."""

import random
import re
from fractions import Fraction

import pytest

from euclid import verify
from euclid.elements import CONSTRUCTIONS, STRATEGIES, check_theorem
from euclid.elements.areas import p42_parallelogram_eq_triangle, p43_complements
from euclid.elements.basics import p1_equilateral
from euclid.elements.triangles import p22_triangle
from euclid.errors import HypothesisNotSatisfied, PreconditionViolated
from euclid.geom import Figure, Point, Ray, Segment
from euclid.number import Constructible, new_context


def P(x, y):
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


TRIANGLE = [P(0, 0), P(4, 0), P(1, 3)]
# a trapezium: one pair of parallel sides only
TRAPEZIUM = Figure([P(0, 0), P(4, 0), P(3, 2), P(1, 2)])


@pytest.fixture(autouse=True)
def _fresh_field():
    new_context()


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


def test_lengths_must_be_positive():
    one = Constructible(1)
    with pytest.raises(PreconditionViolated,
                       match="^lengths must be positive$"):
        p22_triangle(one, Constructible(0), one, Ray(P(0, 0), P(1, 0)))


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
