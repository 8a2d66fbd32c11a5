"""The stored form of constructible numbers.

The SHA-256 pins hold the bytes of ``to_prefix`` for every coordinate of
every object of every construction result at one instance seed, and for
elements of 12-level towers whose nested radicands carry denominators.
The property test holds every stored value to its normal form: integer
leaves over one positive denominator coprime to their gcd, minimal
level and a nonzero top coefficient; a rational value is one int over
its denominator in lowest terms.  Two more hold every operator to
``Fraction`` arithmetic on rationals, however they are spelled, and to
the node functions on the values of a tower.
"""

import hashlib
import operator
import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import assume, example, given, settings
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
            result, _ = elements.run(
                prop_id, elements.drawn_instance(strategy, kwargs), strategy)
            out.extend(to_prefix(c) for obj in result.objects.values()
                       for c in coords(obj))
    assert len(out) == 484
    assert _digest(out) == CONSTRUCTIONS_SHA256


def _squarefree(rng):
    while True:
        n = rng.randint(2, 97)
        if all(n % (p * p) for p in (2, 3, 5, 7)):
            return n


def _tower(rng, levels, nested=None):
    """Generators of a fresh tower.  The radicands of the levels in nested
    (by default the top two) are a + b*g over a lower generator g, with b's
    denominator 1, 2 or 3; the others are squarefree integers."""
    if nested is None:
        nested = (levels - 1, levels)
    ctx = new_context()
    gens = []
    while len(gens) < levels:
        if len(gens) + 1 in nested:
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
    """A long-lived context holds its tower and per-level facts, and
    nothing that grows with the square-root queries asked of it: neither
    irrational squares nor rational squares over the rational prefix (whose
    large square factors make some of them split a square-class base
    element) change the square-class basis."""
    rng = random.Random(5)
    gens = _tower(rng, 8)
    ctx = number.current_context()
    basis = (list(ctx.square_base), dict(ctx.square_rows))
    rads = ctx.rational_radicands
    for _ in range(100):
        p = _element(rng, gens)
        assert sqrt_nonneg(p * p) == abs(p)
        q = Fraction(rng.choice((41, 43, 47)) * rng.randint(1, 9),
                     rng.randint(1, 9))
        x = q * q * rng.choice(rads) * rng.choice(rads)
        assert sqrt_nonneg(x) ** 2 == x
    assert len(ctx.radicands) == 8
    assert (ctx.square_base, ctx.square_rows) == basis
    sizes = {name: len(value) for name, value in vars(ctx).items()
             if isinstance(value, (dict, list))}
    assert max(sizes.values()) <= 4 * len(ctx.radicands), sizes


# -- the square-root search against the scan before the norm test -------


def _reference_has_sqrt(x, k, ctx):
    """A square root of x >= 0 in F(k) by the full scan: a root at the
    level of x, then a root t*sqrt(r_j) for every j above it up to k.  It
    is the search as it was before the norm test pruned it, except that a
    rational query over the rational prefix tries every subset of the
    prefix radicands."""
    lx = x[0]
    if lx == 0 and k <= len(ctx.rational_radicands):
        return _reference_prefix_sqrt(x, k, ctx)
    root = _reference_own_level(x, ctx)
    j = lx
    while root is None and j < k:
        j += 1
        t = _reference_has_sqrt(number._ndiv(x, ctx.radicands[j - 1], ctx),
                                j - 1, ctx)
        if t is not None:
            root = number._mk(j, number._ZERO, t, ctx)
    return root


def _reference_own_level(x, ctx):
    if x[0] == 0:
        return number._rational_sqrt(x)
    k = x[0]
    a, b = number._split(x, ctx)
    disc = number._node(number._pnorm(x[1], ctx.gen_square), x[2] * x[2])
    if number._psign(disc[1], ctx) < 0:
        return None
    w = _reference_has_sqrt(disc, k - 1, ctx)
    if w is None:
        return None
    for w2 in (w, number._nneg(w)):
        p = number._nmul(number._nadd(a, w2), number._HALF, ctx)
        if p == number._ZERO or number._psign(p[1], ctx) < 0:
            continue
        s = _reference_has_sqrt(p, k - 1, ctx)
        if s is None:
            continue
        t = number._ndiv(number._nmul(b, number._HALF, ctx), s, ctx)
        y = number._mk(k, s, t, ctx)
        if number._nmul(y, y, ctx) == x:
            return y
    return None


def _reference_prefix_sqrt(x, k, ctx):
    rads = ctx.rational_radicands[:k]
    for subset in range(1 << k):
        chosen = [i for i in range(k) if subset >> i & 1]
        prod = 1
        for i in chosen:
            prod *= rads[i]
        root = number._rational_sqrt(number._node(x[1], x[2] * prod))
        if root is not None:
            for i in chosen:
                root = number._nmul(root, number._gen(i + 1, ctx), ctx)
            return root
    return None


# A prime above the absolute norm of every radicand _tower draws does not
# ramify in the tower, so it is not a square there.
_NON_SQUARE = 10**9 + 7


@given(st.integers(0, 2**16), st.integers(3, 6), st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_pruned_scan_agrees_with_full_scan(seed, levels, data):
    nested = data.draw(st.sets(st.integers(2, levels), min_size=1,
                               max_size=2))
    rng = random.Random(seed)
    gens = _tower(rng, levels, nested)
    ctx = number.current_context()
    for _ in range(3):
        y = Constructible(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        for g in rng.sample(gens, rng.randint(1, 3)):
            y = y + Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * g
        x = y * y
        for g in rng.sample(gens, rng.randint(0, 2)):
            x = x * g * g
        # a rational square of the rational prefix, asked above it too
        q = (Fraction(rng.randint(1, 9), rng.randint(1, 4)) ** 2
             * rng.choice(ctx.rational_radicands))
        for value, square in ((x, True), (x * _NON_SQUARE, False),
                              (Constructible(q), True),
                              (Constructible(q * _NON_SQUARE), False)):
            for k in range(value._node[0], levels + 1):
                got = number._has_sqrt(value._node, k, ctx)
                assert got == _reference_has_sqrt(value._node, k, ctx)
            assert (got is not None) == square
        root = sqrt_nonneg(x)
        assert root * root == x and len(ctx.radicands) == levels
    root = sqrt_nonneg(x * _NON_SQUARE)
    assert root * root == x * _NON_SQUARE
    assert len(ctx.radicands) == levels + 1


def test_norm_test_ends_the_scan(monkeypatch):
    """3 + sqrt(2) has norm 7 over Q, not a square, so it is not a square
    under any number of rational levels: one norm test proves it, where
    the full scan tries every subset of the ten levels above sqrt(2)."""
    ctx = new_context()
    r2 = sqrt_nonneg(2)
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        sqrt_nonneg(p)
    own_level = number._sqrt_at_own_level
    checks = []

    def counted(x, c):
        checks.append(x)
        return own_level(x, c)

    monkeypatch.setattr(number, "_sqrt_at_own_level", counted)
    sqrt_nonneg(3 + r2)
    assert len(ctx.radicands) == 12
    assert len(checks) <= 2


def test_rational_query_takes_one_span_test(monkeypatch):
    """A rational value asked for above the rational prefix takes the span
    test once, over the whole prefix, and scans only the levels above it:
    13 under five rational levels and one nested level."""
    ctx = new_context()
    for p in (2, 3, 5, 7, 11):
        sqrt_nonneg(p)
    sqrt_nonneg(1 + sqrt_nonneg(2))
    assert (len(ctx.rational_radicands), len(ctx.radicands)) == (5, 6)
    span_test = number._rational_sqrt_in_prefix
    levels = []

    def counted(x, k, c):
        levels.append(k)
        return span_test(x, k, c)

    monkeypatch.setattr(number, "_rational_sqrt_in_prefix", counted)
    assert number._has_sqrt(Constructible(13)._node, 6, ctx) is None
    assert levels == [5]


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


def _reference_sign(x: Constructible) -> int:
    """The sign of the prefix form of x, evaluated right to left in mpmath
    at 100 digits: a reference that shares no code with the engine's
    signs.  It must stand clear of the evaluation's error."""
    stack = []
    with mpmath.workdps(100):
        for tok in reversed(to_prefix(x).split()):
            if tok == "√":
                stack.append(mpmath.sqrt(stack.pop()))
            elif tok in ("+", "×"):
                u, v = stack.pop(), stack.pop()
                stack.append(u + v if tok == "+" else u * v)
            else:
                q = Fraction(tok)
                stack.append(mpmath.mpf(q.numerator) / q.denominator)
        (value,) = stack
        assert value == 0 or abs(value) > mpmath.mpf(10) ** -60
    return (value > 0) - (value < 0)


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
        assert z.sign() == _reference_sign(z)
        values.append(z)
    for v in values:
        assert_normal(v)


def _refuse(*args):
    raise AssertionError("this rule should not have been reached")


def test_halves_of_one_sign_need_no_interval(monkeypatch):
    """Both halves of 3 + g_top + g_0*g_1 are positive at every level, so
    its sign is read off them without any interval."""
    gens = _tower(random.Random(4), 12)
    x = 3 + gens[-1] + gens[0] * gens[1]
    monkeypatch.setattr(number, "_piv", _refuse)
    assert x.sign() == 1 and (-x).sign() == -1


def test_refinement_settles_a_tiny_difference(monkeypatch):
    """x - q, for x = sqrt(1 + sqrt(2 + ... + sqrt(12))) and q its 60-digit
    approximation, is below 2**-199 in size and its halves differ in
    sign: refinement from 64 bits settles it once the interval is fine
    enough, with no norm taken."""
    x = from_prefix(" ".join(f"sqrt + {i}" for i in range(1, 12))
                    + " sqrt 12")
    q = Fraction(x.approx(60))
    r = Fraction(x.approx(100))
    expected = (r > q) - (r < q)
    monkeypatch.setattr(number, "_pnorm", _refuse)
    assert (x - q).sign() == expected != 0
    assert (q - x).sign() == -expected


def test_refinement_signs_a_20_deep_chain(monkeypatch):
    """x - q, for x = sqrt(1 + sqrt(2 + ... + sqrt(20))) and q its
    200-digit decimal, is settled by refinement at 1024 bits; its norm
    would hold integers that double in size at each of the 20 levels.  An
    mpmath evaluation at 260 digits gives the sign."""
    x = from_prefix(" ".join(f"sqrt + {i}" for i in range(1, 20))
                    + " sqrt 20")
    q = Fraction(x.approx(200))
    with mpmath.workdps(260):
        chain = mpmath.mpf(20)
        for i in range(19, 0, -1):
            chain = i + mpmath.sqrt(chain)
        gap = mpmath.sqrt(chain) - mpmath.mpf(q.numerator) / q.denominator
        expected = int(mpmath.sign(gap))
    monkeypatch.setattr(number, "_pnorm", _refuse)
    assert (x - q).sign() == expected != 0
    assert (q - x).sign() == -expected


@pytest.mark.parametrize("rational_levels", [1, 5])
def test_a_square_radicand_breaks_the_tower(rational_levels):
    """Adjoining (1 + sqrt 2)^2 = 3 + 2*sqrt 2 directly skips the search for
    its square root, so the top generator g is 1 + sqrt 2 while no
    canonical form says so.  g - (1 + sqrt 2) is then 0 with halves of
    opposite signs: its intervals hold 0 at every precision, and once one
    is narrower than any nonzero value of the tower can be, the sign
    raises."""
    ctx = new_context()
    for r in (2, 3, 5, 7, 11)[:rational_levels]:
        sqrt_nonneg(Constructible(r))
    one_plus_r2 = 1 + sqrt_nonneg(Constructible(2))
    square = one_plus_r2 * one_plus_r2
    assert ctx.adjoin(square._node) == rational_levels + 1
    g = sqrt_nonneg(square)
    with pytest.raises(FieldContextError, match="tower canonicity violated"):
        (g - one_plus_r2).sign()


def test_a_radicand_in_a_square_class_of_the_tower_breaks_it():
    """8 = 2 * 2^2 has the square class of 2, so adjoining it after 2,
    past the search that finds sqrt 8 = 2*sqrt 2, gives the square-class
    rows no new row."""
    ctx = new_context()
    ctx.adjoin(Constructible(2)._node)
    with pytest.raises(FieldContextError, match="^a rational radicand is "
                       "a square in the tower below it$"):
        ctx.adjoin(Constructible(8)._node)


def test_corrupt_square_class_rows_are_caught():
    """A row that says the parity of 3 comes from the radicand 2 reduces
    6 to the empty subset, whose root of 6 is not rational."""
    ctx = new_context()
    for r in (2, 3):
        sqrt_nonneg(Constructible(r))
    assert ctx.square_rows[2] == (0b10, 0b10)
    ctx.square_rows[2] = (0b10, 0b01)
    with pytest.raises(FieldContextError, match="^square classes of the "
                       "rational radicands are inconsistent$"):
        sqrt_nonneg(Constructible(6))


# -- the operators against Fraction and against the node kernel ---------

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}
_RATIONALS = (st.fractions(min_value=-50, max_value=50, max_denominator=12)
              | st.sampled_from((Fraction(0), Fraction(1), Fraction(-1))))


def _spell(q: Fraction, spelling: str):
    """q as an operand: a Constructible, an int (when it is one) or a
    Fraction."""
    if spelling == "int" and q.denominator == 1:
        return int(q)
    if spelling == "fraction":
        return q
    return Constructible(q)


@given(_RATIONALS, _RATIONALS, st.sampled_from(sorted(_OPERATORS)),
       st.sampled_from(("constructible", "int", "fraction")), st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rational_results_are_canonical(a, b, op, spelling, reflected):
    """Two rationals combine to the stored form and the hash of the
    Fraction result, whichever side the Constructible is on."""
    assume(not (op == "/" and b == 0))
    fn = _OPERATORS[op]
    f = fn(a, b)
    if reflected:
        z = fn(_spell(a, spelling), Constructible(b))
    else:
        z = fn(Constructible(a), _spell(b, spelling))
    assert type(z) is Constructible and z._ctx is None
    assert z._node == (0, f.numerator, f.denominator)
    assert hash(z) == hash(f)
    assert_normal(z)


_STEPS = st.lists(st.tuples(st.sampled_from(sorted(_OPERATORS)), st.booleans(),
                            st.integers(0, 99), st.integers(0, 99)),
                  min_size=1, max_size=8)


@given(st.integers(0, 2**16), _STEPS)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_operators_agree_with_node_kernel(seed, steps):
    """Each operator gives the node that the node functions give on the raw
    nodes, over operands of a 4-level tower of which half are rational.  A
    reflected step spells a rational left operand as a Fraction."""
    rng = random.Random(seed)
    gens = _tower(rng, 4)
    ctx = number.current_context()
    kernel = {"+": lambda x, y: number._nadd(x, y),
              "-": lambda x, y: number._nadd(x, y, -1),
              "*": lambda x, y: number._nmul(x, y, ctx),
              "/": lambda x, y: number._ndiv(x, y, ctx)}
    values = [*gens, _element(rng, gens), _element(rng, gens)]
    values += [Constructible(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
               for _ in values]
    for op, reflected, i, j in steps:
        x, y = values[i % len(values)], values[j % len(values)]
        if op == "/" and not y:
            continue
        left = x.as_fraction() if reflected and x.is_rational else x
        z = _OPERATORS[op](left, y)
        assert z._node == kernel[op](x._node, y._node)
        assert z._ctx is (ctx if z._node[0] else None)
        assert_normal(z)
        values.append(z)


_ONE_LEVEL_Q = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@given(st.sampled_from(("rational", "nested", "cancel")),
       st.sampled_from((2, 3, Fraction(5, 7))), _ONE_LEVEL_Q, _ONE_LEVEL_Q,
       _ONE_LEVEL_Q, _ONE_LEVEL_Q, st.sampled_from(sorted(_OPERATORS)))
@example("cancel", 2, Fraction(1), Fraction(1), None, None, "*")
@example("cancel", 2, Fraction(1), Fraction(1), None, None, "+")
@settings(max_examples=200, deadline=None, derandomize=True)
def test_one_level_operands(kind, r, a, b, c, d, op):
    """x = a + b*g and y = c + d*g for g the root of a rational radicand r,
    whose g^2 is an int (the one-level path), or of the nested radicand
    1 + sqrt(r), whose g^2 is a poly (the general product); "cancel" takes
    y = a - b*g over the rational radicand, so that x*y and x + y lose
    their g part.  Each result agrees with mpmath at 50 digits and its
    node is the canonical one, as rebuilt from its prefix form."""
    if kind == "cancel":
        c, d = a, -b
    assume(not (op == "/" and c == 0 and d == 0))
    with mpmath.workdps(50):
        g_mp = mpmath.sqrt(mpmath.mpf(r.numerator) / r.denominator)
        if kind == "nested":
            g_mp = mpmath.sqrt(1 + g_mp)
        x_mp, y_mp = (mpmath.mpf(u.numerator) / u.denominator
                      + mpmath.mpf(v.numerator) / v.denominator * g_mp
                      for u, v in ((a, b), (c, d)))
        root = sqrt_nonneg(Constructible(r))
        g = sqrt_nonneg(1 + root) if kind == "nested" else root
        z = _OPERATORS[op](a + b * g, c + d * g)
        error = mpmath.mpf(z.approx(45)) - _OPERATORS[op](x_mp, y_mp)
        assert abs(error) < mpmath.mpf(10) ** -44
    assert_normal(z)
    assert from_prefix(to_prefix(z))._node == z._node


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
        r2 = sqrt_nonneg(Constructible(2))
        half = Constructible(Fraction(1, 2))
        assert Point(r2 * r2 / 4, r2) == Point(half, 2 / r2)
        assert Point(half, r2) != Point(half, -r2)

    def test_cross_context_equality_raises(self):
        a = sqrt_nonneg(Constructible(2))
        new_context()
        b = sqrt_nonneg(Constructible(2))
        with pytest.raises(FieldContextError):
            a == b  # noqa: B015
        assert a != Fraction(7, 5) and a != 2

    @pytest.mark.parametrize("op", [
        operator.add, operator.sub, operator.mul, operator.truediv,
        Constructible.__radd__, Constructible.__rsub__, Constructible.__rmul__,
        Constructible.__rtruediv__,
        operator.lt, operator.le, operator.gt, operator.ge],
        ids=["add", "sub", "mul", "truediv", "radd", "rsub", "rmul",
             "rtruediv", "lt", "le", "gt", "ge"])
    def test_cross_context_operations_raise(self, op):
        a = sqrt_nonneg(Constructible(2))
        new_context()
        b = sqrt_nonneg(Constructible(3))
        with pytest.raises(FieldContextError):
            op(a, b)

    def test_rationals_cross_contexts(self):
        """A rational carries no context, even one computed from
        irrationals, so it combines with an irrational of any context."""
        a = sqrt_nonneg(Constructible(2))
        two = a * a
        new_context()
        b = sqrt_nonneg(Constructible(3))
        assert two.is_rational and two == 2
        assert to_prefix(two + b) == "+ 2 × 1 √ 3"
        assert (two - b) + b == 2 and two * b / b == 2
        assert (b - two).sign() < 0 and b / two * two == b
        assert b > a * a - 1 and b < two
