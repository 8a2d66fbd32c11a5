import math
import operator
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid.errors import DivisionByZero, NegativeRadicand
from euclid.geom import Point
from euclid.number import (
    Constructible,
    from_prefix,
    new_context,
    sqrt_nonneg,
    to_prefix,
)


def C(x, y=1):
    return Constructible(Fraction(x, y))


rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


class TestRationalArithmetic:
    def test_add_fractions(self):
        assert (C(1, 2) + C(1, 3)).as_fraction() == Fraction(5, 6)

    def test_sqrt2_plus_zero(self):
        r2 = sqrt_nonneg(C(2))
        assert (r2 + 0).sign() == r2.sign()
        assert (r2 + 0 - r2).sign() == 0

    def test_sqrt2_plus_sqrt8_equals_sqrt18(self):
        # expansion oracle: (sqrt2 + sqrt8)^2 = 2 + 8 + 2*sqrt(16) = 18
        lhs = sqrt_nonneg(C(2)) + sqrt_nonneg(C(8))
        assert (lhs * lhs - 18).sign() == 0
        assert (lhs - sqrt_nonneg(C(18))).sign() == 0

    def test_mul_sqrt2_sqrt2(self):
        r2 = sqrt_nonneg(C(2))
        assert r2 * r2 == C(2)

    def test_div_one_by_sqrt2(self):
        r2 = sqrt_nonneg(C(2))
        assert (1 / r2 - r2 / 2).sign() == 0

    def test_sub_identical_radicals(self):
        r3 = sqrt_nonneg(C(3))
        assert (r3 - r3).sign() == 0

    def test_division_by_zero(self):
        r2 = sqrt_nonneg(C(2))
        for make in (lambda: 1 / C(0), lambda: C(1) / 0,
                     lambda: Fraction(1) / C(0), lambda: C(1) / False,
                     lambda: r2 / (r2 - r2)):
            with pytest.raises(DivisionByZero,
                               match="^division by exact zero$"):
                make()

    # a zero denominator is the same error however the value is spelled
    @pytest.mark.parametrize("make", [lambda: Constructible("1/0"),
                                      lambda: from_prefix("1/0")],
                             ids=["str", "prefix"])
    def test_zero_denominator(self, make):
        with pytest.raises(DivisionByZero):
            make()

    # a float is the binary fraction nearest its literal, so no exact value
    # is made from one: 0.1 would be 3602879701896397/36028797018963968
    def test_float_rejected_by_constructor(self):
        with pytest.raises(TypeError):
            Constructible(0.1)

    def test_float_rejected_by_point(self):
        with pytest.raises(TypeError):
            Point(0.5, 0)

    def test_float_rejected_by_operation_surface(self):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.lt):
            with pytest.raises(TypeError):
                op(C(1), 0.1)
            with pytest.raises(TypeError):
                op(0.1, C(1))

    def test_float_is_never_equal(self):
        assert not C(1) == 0.1 and C(1) != 0.1 and not 0.1 == C(1)

    def test_bool_acts_as_int(self):
        assert C(2) + True == 3 and True + C(2) == 3
        assert C(2) - True == 1 and True - C(2) == -1
        assert C(2) * False == 0 and (False * C(2))._node == (0, 0, 1)
        assert C(2) / True == 2 and True / C(2) == C(1, 2)
        assert C(1) == True and C(0) == False  # noqa: E712
        assert C(1) > False and C(0) < True


class TestSqrt:
    def test_sqrt_zero(self):
        assert sqrt_nonneg(C(0)).is_zero()

    def test_sqrt_rational_square(self):
        assert sqrt_nonneg(C(9, 4)).as_fraction() == Fraction(3, 2)

    def test_sqrt_defining_property(self):
        r = sqrt_nonneg(C(2))
        assert (r * r - 2).sign() == 0
        assert r.sign() == 1

    def test_negative_radicand(self):
        with pytest.raises(NegativeRadicand):
            sqrt_nonneg(C(-1))

    def test_sqrt_of_tower_square(self):
        # sqrt(3 + 2*sqrt(2)) = 1 + sqrt(2), found inside the tower
        r2 = sqrt_nonneg(C(2))
        v = sqrt_nonneg(3 + 2 * r2)
        assert (v - (1 + r2)).sign() == 0

    def test_sqrt_scaled_radicand_shares_tower(self):
        new_context()
        r2 = sqrt_nonneg(C(2))
        r8 = sqrt_nonneg(C(8))
        assert (r8 - 2 * r2).is_zero()

    def test_depth(self):
        r2 = sqrt_nonneg(C(2))
        assert C(5).radical_depth() == 0
        assert r2.radical_depth() == 1
        assert sqrt_nonneg(1 + r2).radical_depth() == 2


# square-class atoms: small primes, primes above 37, and squares of primes
# above 37 (5043 = 41^2*3 and 72283 = 41^2*43 leave coprime-base elements
# that are not squarefree)
_ATOMS = (2, 3, 5, 7, 11, 41, 43, 47, 41 * 41, 43 * 43)
_square_class_products = st.lists(st.sampled_from(_ATOMS), min_size=1,
                                  max_size=3).map(math.prod)


def _is_rational_square(f):
    """A Fraction in lowest terms is a square when both its terms are."""
    return all(math.isqrt(n) ** 2 == n for n in (f.numerator, f.denominator))


def _in_span(x, rads):
    """Brute force: x times the product of some subset of rads is a
    rational square."""
    for mask in range(1 << len(rads)):
        prod = math.prod(r for i, r in enumerate(rads) if mask >> i & 1)
        if _is_rational_square(x * prod):
            return True
    return False


class TestMultiquadratic:
    @given(st.lists(_square_class_products | st.sampled_from((5043, 72283)),
                    max_size=6),
           st.lists(st.tuples(_square_class_products, _square_class_products),
                    min_size=1, max_size=4))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_brute_force_oracle(self, radicands, queries):
        for p, q in queries:
            ctx = new_context()
            for r in radicands:
                sqrt_nonneg(C(r))
            rads = list(ctx.rational_radicands)
            assert rads == [r[1] for r in ctx.radicands]
            x = Fraction(p, q)
            y = sqrt_nonneg(C(x))
            assert (len(ctx.radicands) == len(rads)) == _in_span(x, rads)
            assert y * y == C(x)
            assert y.sign() == 1

    def test_nested_level_ends_rational_prefix(self):
        # sqrt(5 + 2*sqrt(6)) = sqrt(2) + sqrt(3), so 2 is a square in the
        # tower although no rational radicand spans it
        ctx = new_context()
        r6 = sqrt_nonneg(C(6))
        sqrt_nonneg(5 + 2 * r6)
        assert ctx.rational_radicands == [6]
        r2 = sqrt_nonneg(C(2))
        assert len(ctx.radicands) == 2
        assert r2 * r2 == C(2)
        assert to_prefix(r2) == "+ 0 × + -2 × 1 √ 6 √ + 5 × 2 √ 6"

    def test_square_factor_above_small_primes(self):
        ctx = new_context()
        assert to_prefix(sqrt_nonneg(C(72283))) == "+ 0 × 1 √ 72283"
        assert to_prefix(sqrt_nonneg(C(43))) == "+ 0 × 1/41 √ 72283"
        assert len(ctx.radicands) == 1


class TestSign:
    def test_sqrt2_vs_seven_fifths(self):
        # rational squaring oracle: 2 > 49/25
        assert (sqrt_nonneg(C(2)) - C(7, 5)).sign() == 1

    def test_sqrt2_vs_three_halves(self):
        # rational squaring oracle: 2 < 9/4
        assert (sqrt_nonneg(C(2)) - C(3, 2)).sign() == -1

    def test_expansion_zero(self):
        lhs = sqrt_nonneg(C(2)) + sqrt_nonneg(C(8))
        assert (lhs * lhs - 18).sign() == 0

    def test_tiny_difference(self):
        # sqrt(2) against a 20-digit convergent; sign must still be exact
        a = Fraction(14142135623730950488, 10 ** 19)
        assert (sqrt_nonneg(C(2)) - Constructible(a)).sign() == 1
        b = Fraction(14142135623730950489, 10 ** 19)
        assert (sqrt_nonneg(C(2)) - Constructible(b)).sign() == -1

    def test_sign_beyond_interval_refinement(self):
        # a 200-digit convergent: the difference is about 2**-670 in size,
        # so refinement doubles from 64 bits until an interval excludes 0
        new_context()
        q = 10 ** 200
        p = __import__("math").isqrt(2 * q * q)
        approx_under = Fraction(p, q)
        v = sqrt_nonneg(C(2)) - Constructible(approx_under)
        assert v.sign() == 1
        w = sqrt_nonneg(C(2)) - Constructible(Fraction(p + 1, q))
        assert w.sign() == -1

    def test_threaded_shared_values(self):
        from concurrent.futures import ThreadPoolExecutor

        new_context()
        r2 = sqrt_nonneg(C(2))
        r3 = sqrt_nonneg(C(3))

        def work(i):
            x = (r2 + r3) * (r2 - r3)      # exactly -1
            y = sqrt_nonneg(C(i % 7 + 2))
            return (x + 1).sign() == 0 and (y * y - (i % 7 + 2)).sign() == 0

        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(work, range(40)))

    def test_zero_family(self):
        # sqrt(a) + sqrt(b) - sqrt(a + b + 2*sqrt(ab)) is identically zero
        rng = random.Random(7)
        new_context()
        for _ in range(25):
            a = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            b = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            ra = sqrt_nonneg(Constructible(a))
            rb = sqrt_nonneg(Constructible(b))
            inner = sqrt_nonneg(Constructible(a * b))
            total = sqrt_nonneg(Constructible(a) + Constructible(b) + 2 * inner)
            assert (ra + rb - total).sign() == 0


class TestApprox:
    def test_third(self):
        assert C(1, 3).approx(4) == "0.3333"

    def test_sqrt2(self):
        # interval-refinement oracle: isqrt(2 * 10^8) = 14142
        assert sqrt_nonneg(C(2)).approx(4) == "1.4142"

    def test_zero(self):
        assert C(0).approx(2) == "0.00"

    def test_negative(self):
        assert C(-1, 3).approx(3) == "-0.333"

    def test_past_the_int_string_limit(self):
        # 4401 integer digits, past the interpreter's default of 4300
        v = C(10) ** 4400 + C(1, 3)
        assert v.approx(2) == "1" + "0" * 4400 + ".33"

    def test_agrees_with_mpmath(self):
        with mpmath.workdps(60):
            want = mpmath.nstr(mpmath.sqrt(5), 25, strip_zeros=False)
        got = sqrt_nonneg(C(5)).approx(20)
        assert abs(mpmath.mpf(got) - mpmath.mpf(want)) < mpmath.mpf(10) ** -19

    @pytest.mark.parametrize("x, want", [
        (Fraction(1, 8), "0.13"), (Fraction(-1, 8), "-0.12"),
        (Fraction(-1, 200), "0.00"), (Fraction(-3, 200), "-0.01"),
        (Fraction(1, 200), "0.01")])
    def test_ties_round_half_up(self, x, want):
        # half up is toward +infinity on both sides of 0; no "-0.00"
        assert Constructible(x).approx(2) == want

    @given(st.fractions(max_denominator=10 ** 9), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_decimal_text_is_the_fraction_rule(self, x, digits):
        scaled = x * 10 ** digits
        n = (scaled.numerator * 2 + scaled.denominator) // (2 * scaled.denominator)
        text = str(abs(n)).rjust(digits + 1, "0")
        want = f"{'-' if n < 0 else ''}{text[:-digits]}.{text[-digits:]}"
        assert Constructible(x).approx(digits) == want

    @given(st.data(), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_within_one_unit_of_the_last_place(self, data, digits):
        # a + b*sqrt(r), and the nested sqrt(r + s*(a + b*sqrt(r))^2)
        new_context()
        q = st.fractions(min_value=-20, max_value=20, max_denominator=9)
        a, b = data.draw(q), data.draw(q)
        r = data.draw(st.integers(2, 40).filter(lambda n: math.isqrt(n) ** 2 != n))
        s = data.draw(st.integers(1, 9))
        flat = Constructible(a) + Constructible(b) * sqrt_nonneg(C(r))
        nested = sqrt_nonneg(r + s * flat * flat)
        with mpmath.workdps(60):
            want_flat = (mpmath.mpf(a.numerator) / a.denominator
                         + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(r))
            want_nested = mpmath.sqrt(r + s * want_flat ** 2)
            for x, want in ((flat, want_flat), (nested, want_nested)):
                got = mpmath.mpf(x.approx(digits))
                assert abs(got - want) < mpmath.mpf(10) ** -digits


class TestProperties:
    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        ca, cb, cc = Constructible(a), Constructible(b), Constructible(c)
        assert ((ca + cb) + cc - (ca + (cb + cc))).sign() == 0
        assert (ca * (cb + cc) - (ca * cb + ca * cc)).sign() == 0
        assert (ca + cb - (cb + ca)).sign() == 0

    @given(st.fractions(min_value=Fraction(0), max_value=Fraction(50), max_denominator=12))
    @settings(max_examples=40, deadline=None)
    def test_sqrt_squares_back(self, x):
        new_context()
        v = Constructible(x)
        r = sqrt_nonneg(v)
        assert (r * r - v).sign() == 0
        assert r.sign() >= 0

    def test_interval_oracle_agreement(self):
        # random radical expressions of depth <= 3 vs a 100-digit mpmath
        # interval evaluation
        rng = random.Random(20240809)

        def build(depth):
            kind = rng.randint(0, 5 if depth > 0 else 2)
            if kind == 0:
                q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                return Constructible(q), mpmath.mpf(q.numerator) / q.denominator
            if kind == 1:
                q = Fraction(rng.randint(1, 30))
                return Constructible(q), mpmath.mpf(q.numerator)
            if kind == 2:
                q = Fraction(rng.randint(-5, 5))
                return Constructible(q), mpmath.mpf(q.numerator)
            a, fa = build(depth - 1)
            b, fb = build(depth - 1)
            if kind == 3:
                return a + b, fa + fb
            if kind == 4:
                return a * b, fa * fb
            if a.sign() < 0:
                a, fa = -a, -fa
            return sqrt_nonneg(a), mpmath.sqrt(fa)

        with mpmath.workdps(100):
            for _ in range(300):
                new_context()
                v, f = build(3)
                if abs(f) > mpmath.mpf(10) ** -80:
                    want = 1 if f > 0 else -1
                    assert v.sign() == want


class TestSerialization:
    def test_rational_round_trip(self):
        v = C(-22, 7)
        assert from_prefix(to_prefix(v)) == v

    def test_radical_round_trip(self):
        v = sqrt_nonneg(C(2)) + sqrt_nonneg(C(3)) * C(1, 2)
        w = from_prefix(to_prefix(v))
        assert (v - w).sign() == 0

    def test_nested_round_trip(self):
        v = sqrt_nonneg(1 + sqrt_nonneg(C(5)))
        w = from_prefix(to_prefix(v))
        assert (v - w).sign() == 0

    def test_prints_past_the_int_string_limit(self):
        v = C(10) ** 4400 + C(1, 3)
        assert to_prefix(v) == "3" + "0" * 4399 + "1/3"

    def test_accepts_all_operator_tokens(self):
        v = from_prefix("÷ − 5 1 √ 4")
        assert v.as_fraction() == Fraction(2)

    def test_deep_expression(self):
        assert from_prefix("+ " * 5000 + "1 " * 5001).as_fraction() == 5001
        assert from_prefix("√ " * 2000 + "1").as_fraction() == 1

    @pytest.mark.parametrize("text, message", [
        ("", "unexpected end"), ("+ 1", "unexpected end"),
        ("1 2", "trailing tokens"), ("√ 4 4", "trailing tokens")])
    def test_malformed(self, text, message):
        with pytest.raises(ValueError, match=message):
            from_prefix(text)

    def test_roots_taken_left_to_right(self):
        ctx = new_context()
        from_prefix("+ √ 3 × √ 2 √ 5")
        assert [r[1] for r in ctx.radicands] == [3, 2, 5]

    def test_canonical_is_stable(self):
        new_context()
        a = to_prefix(sqrt_nonneg(C(2)) + 1)
        new_context()
        b = to_prefix(sqrt_nonneg(C(2)) + 1)
        assert a == b


class TestImmutability:
    def test_hash_and_eq(self):
        new_context()
        a = sqrt_nonneg(C(2)) + 1
        b = 1 + sqrt_nonneg(C(2))
        assert a == b
        assert hash(a) == hash(b)

    def test_ordering(self):
        assert sqrt_nonneg(C(2)) < sqrt_nonneg(C(3))
        assert C(1) <= C(1)
        assert sqrt_nonneg(C(2)) > C(1)
