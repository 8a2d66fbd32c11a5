"""The stored form of constructible numbers.

The SHA-256 pins hold the bytes of ``to_prefix`` for every coordinate of
every object of every construction result at one instance seed, and for
elements of 12-level towers whose nested radicands carry denominators.
The property test holds every stored value to its normal form: integer
leaves over one positive denominator coprime to their gcd, minimal
level and a nonzero top coefficient; a rational value is one int over
its denominator in lowest terms.
"""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid import elements, number
from euclid.errors import FieldContextError
from euclid.geom import Point, coords
from euclid.number import (
    Constructible,
    from_prefix,
    new_context,
    sqrt_nonneg,
    to_prefix,
)
from euclid.verify import generate_instance

# Recorded while coefficients were still stored as Fraction leaves; a
# change in how any coefficient prints breaks them.
CONSTRUCTIONS_SHA256 = \
    "4891cd382df20546fa9388e4f1a2aa6be909dc41f4490e29fec65e446a0edaca"
TOWERS_SHA256 = \
    "e28c4f87aedb5cfba77f1e9bfca58c631fe50944489e3eec26350962f430772c"


def _digest(strings) -> str:
    return hashlib.sha256("\n".join(strings).encode()).hexdigest()


def test_construction_coordinates_pinned():
    out = []
    for prop_id in elements.CONSTRUCTIONS:
        for strategy in elements.STRATEGIES.get(prop_id, (None,)):
            new_context()
            kwargs = generate_instance(prop_id, random.Random(3))
            call = elements.strategy_kwargs(strategy, kwargs)
            result = elements.CONSTRUCTIONS[prop_id](**call)
            out.extend(to_prefix(c) for obj in result.objects.values()
                       for c in coords(obj))
    assert len(out) == 484
    assert _digest(out) == CONSTRUCTIONS_SHA256


def _squarefree(rng):
    while True:
        n = rng.randint(2, 97)
        if all(n % (p * p) for p in (2, 3, 5, 7)):
            return n


def _tower(rng, levels):
    """Generators of a fresh tower; the top two radicands are
    a + b*g over a lower generator g, with b's denominator 1, 2 or 3."""
    ctx = new_context()
    gens = []
    while len(gens) < levels:
        if len(gens) >= levels - 2:
            b = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
            rad = rng.randint(2, 12) + b * rng.choice(gens)
            if rad.sign() <= 0:
                continue
        else:
            rad = Constructible(_squarefree(rng))
        before = len(ctx.radicands)
        root = sqrt_nonneg(rad)
        if len(ctx.radicands) > before:
            gens.append(root)
    return gens


def _element(rng, gens):
    def coeff():
        return Fraction(rng.randint(1, 5), rng.randint(1, 3))

    i, j, k = rng.sample(range(len(gens) - 1), 3)
    return (Constructible(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
            + coeff() * gens[-1] + coeff() * gens[i]
            + coeff() * gens[j] * gens[k])


def test_nested_tower_elements_pinned():
    out = []
    for seed in range(3):
        rng = random.Random(seed)
        gens = _tower(rng, 12)
        p, q = _element(rng, gens), _element(rng, gens)
        out += [to_prefix(v) for v in (*gens[-2:], p, q, p * q, p - q,
                                       p / 3, 1 / p)]
    assert _digest(out) == TOWERS_SHA256


def test_context_does_not_grow_with_queries():
    """A long-lived context holds its tower and nothing that grows with
    the square-root queries asked of it."""
    rng = random.Random(5)
    gens = _tower(rng, 8)
    ctx = number.current_context()
    for _ in range(200):
        p = _element(rng, gens)
        assert sqrt_nonneg(p * p) == abs(p)
    assert len(ctx.radicands) == 8
    sizes = {name: len(value) for name, value in vars(ctx).items()
             if isinstance(value, (dict, list))}
    assert max(sizes.values()) <= 4 * len(ctx.radicands), sizes


def _poly_level(p) -> int:
    """The level of a poly, after checking its nested form."""
    if type(p) is int:
        return 0
    k, a, b = p
    assert b != 0
    assert _poly_level(a) < k and _poly_level(b) < k
    return k


def _content(p) -> int:
    return abs(p) if type(p) is int else gcd(_content(p[1]), _content(p[2]))


def assert_normal(x: Constructible) -> None:
    level, p, d = x._node
    assert _poly_level(p) == level
    if level == 0:
        assert type(p) is int
    assert type(d) is int and d > 0 and gcd(_content(p), d) == 1


_OPS = st.lists(st.tuples(st.sampled_from("+-*/√"), st.integers(0, 99),
                          st.integers(0, 99)), min_size=1, max_size=8)


@given(st.integers(0, 2**16), _OPS)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_nested_tower_arithmetic_stays_normal(seed, ops):
    rng = random.Random(seed)
    gens = _tower(rng, 12)
    values = [*gens, _element(rng, gens), Constructible(Fraction(-5, 6))]
    for op, i, j in ops:
        x, y = values[i % len(values)], values[j % len(values)]
        if op == "+":
            z = x + y
        elif op == "-":
            z = x - y
        elif op == "*":
            z = x * y
        elif op == "/":
            z = x / y if y else x / 7
        else:
            z = sqrt_nonneg(abs(x))
        assert_normal(z)
        assert from_prefix(to_prefix(z)) == z
        if not z.is_rational:  # the exact fallback agrees with refinement
            assert number._psign_exact(z._node[1],
                                       z._ctx.gen_square) == z.sign()
        values.append(z)
    for v in values:
        assert_normal(v)


class TestEquality:
    def test_equal_values_have_equal_nodes_and_hashes(self):
        rng = random.Random(5)
        gens = _tower(rng, 12)
        p, q = _element(rng, gens), _element(rng, gens)
        for x, y in ((p * q / q, p), ((p + q) * (p - q), p * p - q * q),
                     (gens[-1] * gens[-1] / 3, (gens[-1] ** 2) * Fraction(1, 3))):
            assert x == y
            assert x._node == y._node and hash(x) == hash(y)
        assert (1 / p) * p == 1 and hash((1 / p) * p) == hash(1)

    def test_rationals_meet_int_and_fraction(self):
        assert hash(Constructible(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert Constructible(3) in {3}
        f = Constructible(Fraction(-2, 4)).as_fraction()
        assert type(f) is Fraction and f == Fraction(-1, 2)

    def test_points_compare_by_coordinates(self):
        new_context()
        r2 = sqrt_nonneg(Constructible(2))
        half = Constructible(Fraction(1, 2))
        assert Point(r2 * r2 / 4, r2) == Point(half, 2 / r2)
        assert Point(half, r2) != Point(half, -r2)

    def test_cross_context_equality_raises(self):
        new_context()
        a = sqrt_nonneg(Constructible(2))
        new_context()
        b = sqrt_nonneg(Constructible(2))
        with pytest.raises(FieldContextError):
            a == b  # noqa: B015
        assert a != Fraction(7, 5) and a != 2
