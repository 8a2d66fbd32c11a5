"""Exact arithmetic over straightedge-and-compass constructible numbers.

A value is an element of a tower of real quadratic extensions
Q = F0 < F1 < ... < Fk, where F(i) = F(i-1)(sqrt(r_i)) and each radicand
r_i is a positive element of F(i-1) that is not a square there.  One
rule decides every sign of a + b*sqrt(r_k): the sign that a and b share,
else an outward-rounded interval that excludes 0, refined from 64 bits by
doubling the precision.  A canonical nonzero value is bounded away from 0
by its conjugates, so an interval narrower than that bound which still
holds 0 shows a broken tower.  No decision ever rests on floating point.

Every value, rational or not, is stored as integers over one
denominator.  Level i has the integral generator g_i = e_i*sqrt(r_i),
where e_i is the denominator of r_i (so g_i = sqrt(r_i) when r_i has
none); g_i^2 = e_i^2*r_i then has integer coefficients over the lower
generators.  A value is p/d with d a positive integer and p an integer
polynomial in the nested form ``a + b*g_k``, with ``b != 0`` (a value that
lives in a lower field is stored at its minimal level), and the gcd of the
integer leaves of p coprime to d.  A rational value is the case k = 0,
where p is one int and p/d is in lowest terms.  That form is unique, so
two values of one tower are equal exactly when their nodes are, and a
value is zero exactly when it is the rational zero.  Each operation works
on the integer leaves and reduces its result with one gcd pass, so
arithmetic stays in Python ints.  Most operands are rational, so an
operator combines two rational operands in its own frame with one gcd (a
product or quotient with two cross gcds) and calls the node kernel only
when an operand is irrational.  Most irrational operands are one-level
values a + b*g_k with int a and b: the kernel adds two of those, and
reduces one, in one step, and multiplies two in one step when g_k^2 is
an int; it recurses only into nested coefficients or a nested radicand.
Only the public boundary (the constructor,
:meth:`Constructible.as_fraction` and the prefix form) converts to and
from fractions; ``approx`` rounds an integer ratio.

The tower itself lives in a :class:`FieldContext`, with per-level facts
that :meth:`FieldContext.adjoin` sets and nothing keyed by queries.
Radicands are adjoined on demand by :func:`sqrt_nonneg`, which first
searches the existing tower for an exact square root along one of two
paths, one for each kind of value.  A rational value takes the
multiquadratic path over the rational prefix r_1..r_p of the tower: it is
a square in F(p) exactly when its square class lies in the GF(2) span of
the classes of r_1..r_p (Besicovitch), which gcd factor refinement decides
without factoring; the context keeps the coprime base and the echelon rows
of those classes.  Asked for in a higher F(k), it then scans only the
levels above p.  An irrational value takes the general path, a recursive
scan of the tower levels that a norm test prunes exactly: when the norm of
x into the field below its level is not a square there, no branch that
only multiplies x by lower radicands can find a root.  Rational values are
context-free; irrational values from different contexts must not be mixed
(``FieldContextError``).

The current context is a context variable: a thread gets a fresh one on
first use, an asyncio task starts with its creator's (the same tower),
and :func:`new_context` replaces its caller's only.  Long-running batch jobs
should call :func:`new_context` between independent problem instances so
towers stay small.
"""

from __future__ import annotations

import operator
import sys
import threading
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union

from .errors import DivisionByZero, FieldContextError, NegativeRadicand

# A poly is an int, or (k, a, b) with k >= 1 for a + b*g_k, where a and b
# are polys of levels below k and b is never 0.
Poly = Union[int, tuple]
# A node is (k, p, d) for the value p/d: p a poly of level k (an int when
# k is 0), d > 0 an int coprime to the gcd of the leaves of p.
Node = tuple

_ZERO: Node = (0, 0, 1)
_ONE: Node = (0, 1, 1)
_HALF: Node = (0, 1, 2)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class FieldContext:
    """A growable tower of quadratic extensions of the rationals."""

    def __init__(self) -> None:
        self.radicands: list[Node] = []      # radicands[i] generates level i+1
        self.rad_depth: list[int] = []       # nested radical depth of sqrt(radicands[i])
        self.rad_index: dict[Node, int] = {}  # radicand node -> level
        # integer radicands of levels 1..len, all below the first nested one
        self.rational_radicands: list[int] = []
        # g_i^2 as a poly; e_i, the denominator of r_i, is radicands[i-1][2]
        self.gen_square: list[Poly] = []
        # an int at least the size of every conjugate of g_i
        self.gen_bound: list[int] = []
        # the square classes of rational_radicands: a pairwise coprime base
        # of non-square integers, and one GF(2) echelon row per radicand,
        # keyed by its top bit, as (exponent parities over the base, subset
        # of rational_radicands)
        self.square_base: list[int] = []
        self.square_rows: dict[int, tuple[int, int]] = {}
        self._rad_iv: dict[tuple[int, int], tuple[int, int]] = {}
        self._lock = threading.RLock()

    def adjoin(self, radicand: Node) -> int:
        """Append a radicand known not to be a square in the current tower."""
        with self._lock:
            square = _pscale(radicand[1], radicand[2])
            self.gen_square.append(square)
            self.gen_bound.append(isqrt(_pbound(square, self)) + 1)
            self.radicands.append(radicand)
            level = len(self.radicands)
            if (len(self.rational_radicands) == level - 1
                    and radicand[0] == 0 and radicand[2] == 1):
                self.rational_radicands.append(radicand[1])
                self._add_square_class(radicand[1])
            self.rad_index[radicand] = level
            self.rad_depth.append(_pdepth(radicand[1], self) + 1)
            return level

    def _add_square_class(self, r: int) -> None:
        """Extend the square-class basis by the newest rational radicand r.

        A part of r coprime to the base becomes a new base element.  When r
        would split a base element instead, the base and rows are refined
        again from all the rational radicands."""
        base = self.square_base
        mask, rest = _parity_mask(r, base)
        if _splits(rest, base):
            self.square_base = _square_base(self.rational_radicands)
            self.square_rows = _square_rows(self.rational_radicands,
                                            self.square_base)
            return
        if not _is_square(rest):
            mask |= 1 << len(base)
            base.append(rest)
        _add_row(self.square_rows, mask,
                 1 << (len(self.rational_radicands) - 1))


_current: ContextVar[FieldContext] = ContextVar("euclid_field_context")


def new_context() -> FieldContext:
    """Start a fresh field tower for the calling thread or task; subsequent
    radicals are adjoined to it.

    Existing values remain valid (they keep a reference to their own
    context) but irrational values from different contexts cannot be
    combined.
    """
    ctx = FieldContext()
    _current.set(ctx)
    return ctx


def current_context() -> FieldContext:
    """The caller's tower: a thread's own, created on first use; a task's
    creator's until the task calls ``new_context``."""
    ctx = _current.get(None)
    return new_context() if ctx is None else ctx


# ---------------------------------------------------------------------------
# integer polys: the numerators of values


def _pscale(p: Poly, k: int) -> Poly:
    """k*p for a nonzero int k."""
    if k == 1:
        return p
    if type(p) is int:
        return p * k
    return (p[0], _pscale(p[1], k), _pscale(p[2], k))


def _plin(p: Poly, u: int, q: Poly, v: int) -> Poly:
    """u*p + v*q for nonzero ints u and v."""
    if type(p) is int:
        if type(q) is int:
            return u * p + v * q
        return (q[0], _plin(p, u, q[1], v), _pscale(q[2], v))
    if type(q) is int:
        return (p[0], _plin(p[1], u, q, v), _pscale(p[2], u))
    lp, lq = p[0], q[0]
    if lp == lq:
        _, a, b = p
        _, c, d = q
        if (type(a) is int and type(b) is int
                and type(c) is int and type(d) is int):  # one level
            b = u * b + v * d
            a = u * a + v * c
        else:
            b = _plin(b, u, d, v)
            a = _plin(a, u, c, v)
        return (lp, a, b) if b else a
    if lp > lq:
        return (lp, _plin(p[1], u, q, v), _pscale(p[2], u))
    return (lq, _plin(p, u, q[1], v), _pscale(q[2], v))


def _pmul(p: Poly, q: Poly, sq: list[Poly]) -> Poly:
    """p*q, where sq[k-1] is g_k^2."""
    if type(p) is int:
        if type(q) is int:
            return p * q
        return _pscale(q, p) if p else 0
    if type(q) is int:
        return _pscale(p, q) if q else 0
    lp, lq = p[0], q[0]
    if lp < lq:
        p, q, lp, lq = q, p, lq, lp
    _, a, b = p
    if lq < lp:
        return (lp, _pmul(a, q, sq), _pmul(b, q, sq))
    _, c, d = q
    g2 = sq[lp - 1]
    if (type(a) is int and type(b) is int and type(c) is int
            and type(d) is int and type(g2) is int):  # one level
        hi = a * d + b * c
        lo = a * c + b * d * g2
    else:
        hi = _plin(_pmul(a, d, sq), 1, _pmul(b, c, sq), 1)
        lo = _plin(_pmul(a, c, sq), 1, _pmul(_pmul(b, d, sq), g2, sq), 1)
    return (lp, lo, hi) if hi else lo


def _pnorm(p: tuple, sq: list[Poly]) -> Poly:
    """a^2 - b^2 g_k^2 for p = (k, a, b): nonzero, because g_k is not in
    the lower field."""
    k, a, b = p
    return _plin(_pmul(a, a, sq), 1, _pmul(_pmul(b, b, sq), sq[k - 1], sq), -1)


def _pinv(p: Poly, sq: list[Poly]) -> tuple[Poly, int]:
    """(q, d) with q/d = 1/p in lowest terms and d > 0; p is not 0."""
    if type(p) is int:
        return (1, p) if p > 0 else (-1, -p)
    # 1/(a + b*g) = (a - b*g) / (a^2 - b^2 g^2)
    k, a, b = p
    q, d = _pinv(_pnorm(p, sq), sq)
    return _reduce((k, _pmul(a, q, sq), _pmul(b, _pscale(q, -1), sq)), d)


def _pbound(p: Poly, ctx: FieldContext) -> int:
    """An int at least the size of every conjugate of p: the sum of the
    sizes of its leaves, each times the bounds of its generators."""
    if type(p) is int:
        return abs(p)
    k, a, b = p
    return _pbound(a, ctx) + _pbound(b, ctx) * ctx.gen_bound[k - 1]


def _pgcd(p: Poly, g: int) -> int:
    """The gcd of g and every leaf of p."""
    if type(p) is int:
        return gcd(g, p)
    g = _pgcd(p[2], g)
    return g if g == 1 else _pgcd(p[1], g)


def _pdiv(p: Poly, g: int) -> Poly:
    """p/g for a g that divides every leaf of p."""
    if type(p) is int:
        return p // g
    return (p[0], _pdiv(p[1], g), _pdiv(p[2], g))


def _reduce(p: Poly, d: int) -> tuple[Poly, int]:
    """p/d with the common factor of d and the leaves of p taken out."""
    if d != 1:
        g = _pgcd(p, d)
        if g != 1:
            return _pdiv(p, g), d // g
    return p, d


def _pdepth(p: Poly, ctx: FieldContext) -> int:
    if type(p) is int:
        return 0
    k, a, b = p
    return max(ctx.rad_depth[k - 1], _pdepth(a, ctx), _pdepth(b, ctx))


# ---------------------------------------------------------------------------
# nodes


def _node(p: Poly, d: int) -> Node:
    """The node of p/d for an int d > 0."""
    if type(p) is int:
        g = gcd(p, d)
        return (0, p, d) if g == 1 else (0, p // g, d // g)
    k, a, b = p
    if type(a) is int and type(b) is int:  # one level
        g = gcd(gcd(b, d), a)
        return (k, p, d) if g == 1 else (k, (k, a // g, b // g), d // g)
    p, d = _reduce(p, d)
    return (k, p, d)


def _gen(k: int, ctx: FieldContext) -> Node:
    """The node of sqrt(r_k)."""
    return (k, (k, 0, 1), ctx.radicands[k - 1][2])


def _mk(k: int, a: Node, b: Node, ctx: FieldContext) -> Node:
    """The node of a + b*sqrt(r_k) for nodes a, b of F(k-1), b nonzero."""
    _, pa, da = a
    _, pb, db = b
    db *= ctx.radicands[k - 1][2]
    g = gcd(da, db)
    return _node((k, _pscale(pa, db // g), _pscale(pb, da // g)), da // g * db)


def _split(x: Node, ctx: FieldContext) -> tuple[Node, Node]:
    """Nodes a, b of F(k-1) with x = a + b*sqrt(r_k), k the level of x."""
    k, (_, a, b), d = x
    return _node(a, d), _node(_pscale(b, ctx.radicands[k - 1][2]), d)


def _nneg(x: Node) -> Node:
    return (x[0], _pscale(x[1], -1), x[2])


def _nadd(x: Node, y: Node, s: int = 1) -> Node:
    """x + s*y for s = 1 or -1."""
    _, px, dx = x
    _, py, dy = y
    if dx == dy:
        return _node(_plin(px, 1, py, s), dx)
    g = gcd(dx, dy)
    return _node(_plin(px, dy // g, py, s * (dx // g)), dx // g * dy)


def _nmul(x: Node, y: Node, ctx: Optional[FieldContext]) -> Node:
    # the poly code reads g_k^2 only when both factors are irrational, so
    # rationals need no context here or in _ninv
    sq = None if ctx is None else ctx.gen_square
    return _node(_pmul(x[1], y[1], sq), x[2] * y[2])


def _ninv(x: Node, ctx: Optional[FieldContext]) -> Node:
    if x[1] == 0:
        raise DivisionByZero("division by exact zero")
    q, d = _pinv(x[1], None if ctx is None else ctx.gen_square)
    return _node(_pscale(q, x[2]), d)


def _ndiv(x: Node, y: Node, ctx: Optional[FieldContext]) -> Node:
    return _nmul(x, _ninv(y, ctx), ctx)


# ---------------------------------------------------------------------------
# signs: the halves' shared sign, then intervals of doubling precision


def _iv_leaf(n: int, d: int, prec: int) -> tuple[int, int]:
    """Floor and ceiling of n/d * 2**prec."""
    n <<= prec
    return n // d, -(-n // d)


def _piv(p: Poly, m: int, d: int, ctx: FieldContext, prec: int):
    """Integers lo, hi with lo <= p*m/d * 2**prec <= hi.  Each leaf is
    rounded outward as the reduced coefficient of the canonical form it
    stands for, and each product with sqrt(r_k) is rounded outward, to
    multiples of 2**-prec."""
    if type(p) is int:
        return _iv_leaf(p * m, d, prec)
    k, a, b = p
    alo, ahi = _piv(a, m, d, ctx, prec)
    blo, bhi = _piv(b, m * ctx.radicands[k - 1][2], d, ctx, prec)
    rlo, rhi = _rad_sqrt_interval(k, ctx, prec)
    prods = (blo * rlo, blo * rhi, bhi * rlo, bhi * rhi)
    return alo + (min(prods) >> prec), ahi - (-max(prods) >> prec)


def _rad_sqrt_interval(level: int, ctx: FieldContext, prec: int):
    cache = ctx._rad_iv
    key = (level, prec)
    got = cache.get(key)
    if got is None:
        _, r, e = ctx.radicands[level - 1]
        lo, hi = _piv(r, 1, e, ctx, prec)
        got = cache[key] = (isqrt(max(lo, 0) << prec), isqrt(hi << prec) + 1)
    return got


def _psign(p: Poly, ctx: FieldContext) -> int:
    """The sign of p = a + b*g_k, which is that of the value p/d: the sign
    that a and b share (b's when a is 0), as g_k > 0; else that of an
    interval of p, from 64 bits and doubling, that excludes 0.

    A nonzero p is an algebraic integer of F(k), a field of degree 2^k,
    so the product of its 2^k conjugates is a nonzero integer: with U at
    least the size of every conjugate, |p| >= U^-(2^k - 1) (Burnikel et
    al., Algorithmica 27, 2000, bound radical expressions the same way).
    An interval that still holds 0 once it is narrower than that shows a
    radicand that is a square below it."""
    if type(p) is int:
        return (p > 0) - (p < 0)
    sa = _psign(p[1], ctx)
    sb = _psign(p[2], ctx)
    if sa == sb or sa == 0:
        return sb
    prec = 64
    while True:
        lo, hi = _piv(p, 1, 1, ctx, prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        # (hi - lo) * U^(2^k - 1) < 2^prec, by bit lengths
        if ((hi - lo).bit_length() + ((1 << p[0]) - 1)
                * _pbound(p, ctx).bit_length() <= prec):
            raise FieldContextError("tower canonicity violated")
        prec *= 2


# ---------------------------------------------------------------------------
# square roots inside and on top of the tower


def _rational_sqrt(x: Node) -> Optional[Node]:
    """The square root of the rational x >= 0 if it is rational, or None:
    n/d in lowest terms is a square exactly when n and d are."""
    _, n, d = x
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return (0, rn, rd)
    return None


def _has_sqrt(x: Node, k: int, ctx: FieldContext) -> Optional[Node]:
    """An exact square root of x inside F(k), or None.  Requires x >= 0.

    A rational x first takes one multiquadratic span test,
    :func:`_rational_sqrt_in_prefix`, in F(min(k, p)), where r_1..r_p is
    the rational prefix of the tower.  An irrational x first looks for a
    root at its own level l.  Either query then scans each level j above p
    or above l, up to k, for a root t*sqrt(r_j), stopping at the first root
    found.  Branch j asks whether x/r_j is a square in F(j-1), and recurses
    the same way.

    The norm test prunes the scan of an irrational x exactly.  For u in F(l-1), the norm of
    x*u into F(l-1) is u^2 times the norm of x, so when the norm of x is
    negative or not a square in F(l-1), no x*u is a square in F(l).  While
    r_(l+1)..r_j all lie in F(l-1), branch j asks only about such values
    x*u, so the scan skips it: over rational radicands above l the whole
    query costs one norm test.
    """
    lx = x[0]
    if lx == 0:
        j = len(ctx.rational_radicands)
        root = _rational_sqrt_in_prefix(x, min(k, j), ctx)
    else:
        root, norm_fails = _sqrt_at_own_level(x, ctx)
        j = lx
        if norm_fails:
            while j < k and ctx.radicands[j][0] < lx:
                j += 1
    while root is None and j < k:
        j += 1
        root = _sqrt_t_branch(x, j, ctx)
    return root


def _coprime_base(nums: list[int]) -> list[int]:
    """Pairwise coprime integers > 1 whose products give every number in
    nums (gcd factor refinement; nothing is factored)."""
    base: list[int] = []
    todo = list(nums)
    while todo:
        a = todo.pop()
        if a == 1:
            continue
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                todo += (g, a // g, b // g)
                break
        else:
            base.append(a)
    return base


def _is_square(n: int) -> bool:
    return isqrt(n) ** 2 == n


def _square_base(nums: list[int]) -> list[int]:
    """The non-square elements of a coprime base of nums: a square element
    changes no square class, so only these carry parities."""
    return [b for b in _coprime_base(nums) if not _is_square(b)]


def _parity_mask(n: int, base: list[int]) -> tuple[int, int]:
    """(mask, rest): bit j of mask is the parity of the exponent of base[j]
    in n, and rest is n with every power of a base element divided out."""
    mask = 0
    for j, b in enumerate(base):
        while n % b == 0:
            n //= b
            mask ^= 1 << j
    return mask, n


def _splits(rest: int, base: list[int]) -> bool:
    """Whether rest shares a factor with some base element, which would
    then have to be split before it can carry a parity."""
    return any(gcd(rest, b) > 1 for b in base)


def _reduce_row(rows: dict[int, tuple[int, int]], v: int,
                subset: int) -> tuple[int, int]:
    """Reduce the parities v, reached from the given subset of radicands,
    by the echelon rows."""
    while v:
        pivot = rows.get(v.bit_length())
        if pivot is None:
            break
        v ^= pivot[0]
        subset ^= pivot[1]
    return v, subset


def _add_row(rows: dict[int, tuple[int, int]], v: int, subset: int) -> None:
    v, subset = _reduce_row(rows, v, subset)
    if not v:
        raise FieldContextError("a rational radicand is a square in the "
                                "tower below it")
    rows[v.bit_length()] = (v, subset)


def _square_rows(rads: list[int],
                 base: list[int]) -> dict[int, tuple[int, int]]:
    """The echelon rows of the parities of rads over base."""
    rows: dict[int, tuple[int, int]] = {}
    for i, r in enumerate(rads):
        _add_row(rows, _parity_mask(r, base)[0], 1 << i)
    return rows


def _rational_sqrt_in_prefix(x: Node, k: int,
                             ctx: FieldContext) -> Optional[Node]:
    """A square root of the rational x >= 0 inside F(k), or None, where
    r_1..r_k are all rational.

    x is a square in Q(sqrt r_1, ..., sqrt r_k) exactly when x times the
    product of some subset S of the r_i is a rational square; the root is
    then c * prod_S sqrt(r_i) with c rational.  Over a pairwise coprime
    base, an integer is a square exactly when its exponent of every base
    element that is not itself a square is even, and its part coprime to
    the base is a square, so S solves a GF(2) system in the exponent
    parities.  The context keeps that system for all its rational
    radicands; each is independent of the earlier ones, so S is unique,
    and it lies in F(k) when it uses no radicand above level k.  A query
    whose target shares a factor with a base element without dividing out
    refines a base of its own, and stores nothing.
    """
    c = _rational_sqrt(x)
    if c is not None:  # also x == 0, which gcd refinement cannot take
        return c
    _, n, d = x
    target = n * d
    base, rows = ctx.square_base, ctx.square_rows
    mask, rest = _parity_mask(target, base)
    if _splits(rest, base):
        rads = ctx.rational_radicands[:k]
        base = _square_base(rads + [target])
        rows = _square_rows(rads, base)
        mask, rest = _parity_mask(target, base)
    if not _is_square(rest):
        return None
    v, subset = _reduce_row(rows, mask, 0)
    if v or subset >> k:
        return None
    root, prod = _ONE, 1
    for i, r in enumerate(ctx.rational_radicands[:k]):
        if subset >> i & 1:
            root = _nmul(root, _gen(i + 1, ctx), ctx)
            prod *= r
    c = _rational_sqrt(_node(n, d * prod))
    if c is None:
        raise FieldContextError("square classes of the rational radicands "
                                "are inconsistent")
    return _nmul(root, c, ctx)


def _sqrt_at_own_level(x: Node,
                       ctx: FieldContext) -> tuple[Optional[Node], bool]:
    """A square root of the irrational x > 0 in F(l), l the level of x, or
    None; and whether the norm test failed, proving that no x*u with u in
    F(l-1) is a square in F(l).

    With x = a + b*g, a root s + t*g has s^2 = (a +- w)/2 for a root w of
    the norm a^2 - b^2*r_l, and t = b/(2s).  Both halves are > 0: x > 0
    and a norm x*x' > 0 (not 0, as r_l is no square in F(l-1)) give
    x' > 0, so a = (x + x')/2 > sqrt(x*x') = |w|.
    A root s of a half needs no recheck: s^2 = (a +- w)/2 and t = b/(2s)
    give (s + t*g)^2 = x identically.
    """
    k = x[0]
    disc = _node(_pnorm(x[1], ctx.gen_square), x[2] * x[2])
    if _psign(disc[1], ctx) < 0:
        return None, True
    w = _has_sqrt(disc, k - 1, ctx)
    if w is None:
        return None, True
    a, b = _split(x, ctx)
    for w2 in (w, _nneg(w)):
        p = _nmul(_nadd(a, w2), _HALF, ctx)
        s = _has_sqrt(p, k - 1, ctx)
        if s is not None:
            t = _ndiv(_nmul(b, _HALF, ctx), s, ctx)
            return _mk(k, s, t, ctx), False
    return None, False


def _sqrt_t_branch(x: Node, j: int, ctx: FieldContext) -> Optional[Node]:
    """A root of the form t*sqrt(r_j) with t in F(j-1), if any."""
    t = _has_sqrt(_ndiv(x, ctx.radicands[j - 1], ctx), j - 1, ctx)
    if t is not None:
        return _mk(j, _ZERO, t, ctx)
    return None


def _strip_square_factor(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m, removing small square factors."""
    s = 1
    r = isqrt(n)
    if r * r == n:
        return r, 1
    for p in _SMALL_PRIMES:
        p2 = p * p
        while n % p2 == 0:
            n //= p2
            s *= p
    return s, n


def _csqrt(x: Node, ctx: FieldContext) -> Node:
    s = _psign(x[1], ctx)
    if s < 0:
        raise NegativeRadicand("square root of a negative value")
    if s == 0:
        return _ZERO
    scale = _ONE
    rad = x
    if x[0] == 0:
        # sqrt(n/d) = sqrt(n*d)/d; pull out small square factors so equal
        # rational radicands share one tower entry.
        _, n, d = x
        sq, m = _strip_square_factor(n * d)
        scale = _node(sq, d)
        if m == 1:
            return scale
        rad = (0, m, 1)
    with ctx._lock:
        level = ctx.rad_index.get(rad)
        if level is None:
            y = _has_sqrt(rad, len(ctx.radicands), ctx)
            if y is not None:
                if _psign(y[1], ctx) < 0:
                    y = _nneg(y)
                return _nmul(y, scale, ctx)
            level = ctx.adjoin(rad)
        root = _gen(level, ctx)
    return _nmul(root, scale, ctx)


# ---------------------------------------------------------------------------
# public value type


RationalLike = Union[int, Fraction, "Constructible"]

_new = object.__new__
_MIXED = "cannot mix irrational values from different field contexts"


class Constructible:
    """An exact constructible real number.  Immutable."""

    __slots__ = ("_node", "_ctx")

    def __init__(self, value: Union[int, str, Fraction] = 0):
        if type(value) is int:
            self._node = (0, value, 1)
            self._ctx = None
        elif isinstance(value, (int, Fraction, str)):
            # a Fraction is already in lowest terms with a positive denominator
            if not isinstance(value, Fraction):
                try:
                    value = Fraction(value)
                except ZeroDivisionError:
                    raise DivisionByZero(f"zero denominator in {value!r}") from None
            self._node = (0, value.numerator, value.denominator)
            self._ctx = None
        else:
            # a float is a binary fraction, not the decimal it prints as
            raise TypeError("an exact value needs an int, a Fraction or a "
                            f"str, not {type(value).__name__}")

    # -- arithmetic ---------------------------------------------------------
    #
    # Each operator does its common case in its own frame, because a Python
    # call costs more than the integer work of a rational operation.  It
    # reads the other operand's node directly (an int n is (0, n, 1); a
    # bool or a Fraction goes through its numerator and denominator),
    # combines two rationals there with one gcd, and otherwise makes one
    # call into the node kernel.  Only an irrational value carries a
    # context, so the contexts are joined only when the other operand is
    # irrational.

    def __add__(self, other):
        if type(other) is Constructible:
            y = other._node
        elif type(other) is int:
            y = (0, other, 1)
        elif isinstance(other, (int, Fraction)):
            y = (0, other.numerator, other.denominator)
        else:
            return NotImplemented
        x = self._node
        v = _new(Constructible)
        if not (x[0] or y[0]):
            _, n, d = x
            _, m, e = y
            if d == e:
                n += m
            else:
                n = n * e + m * d
                d *= e
            g = gcd(n, d)
            v._node = (0, n // g, d // g)
            v._ctx = None
            return v
        ctx = self._ctx
        if y[0] and other._ctx is not ctx:
            if ctx is not None:
                raise FieldContextError(_MIXED)
            ctx = other._ctx
        v._node = node = _nadd(x, y)
        v._ctx = ctx if node[0] else None
        return v

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is Constructible:
            y = other._node
        elif type(other) is int:
            y = (0, other, 1)
        elif isinstance(other, (int, Fraction)):
            y = (0, other.numerator, other.denominator)
        else:
            return NotImplemented
        x = self._node
        v = _new(Constructible)
        if not (x[0] or y[0]):
            _, n, d = x
            _, m, e = y
            if d == e:
                n -= m
            else:
                n = n * e - m * d
                d *= e
            g = gcd(n, d)
            v._node = (0, n // g, d // g)
            v._ctx = None
            return v
        ctx = self._ctx
        if y[0] and other._ctx is not ctx:
            if ctx is not None:
                raise FieldContextError(_MIXED)
            ctx = other._ctx
        v._node = node = _nadd(x, y, -1)
        v._ctx = ctx if node[0] else None
        return v

    def __rsub__(self, other):
        # Python asks a right operand only when the left one is not a
        # Constructible, which is rare, so this goes through the left
        # operand's own operator
        if isinstance(other, (int, Fraction)):
            other = Constructible(other)
        elif not isinstance(other, Constructible):
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is Constructible:
            y = other._node
        elif type(other) is int:
            y = (0, other, 1)
        elif isinstance(other, (int, Fraction)):
            y = (0, other.numerator, other.denominator)
        else:
            return NotImplemented
        x = self._node
        v = _new(Constructible)
        if not (x[0] or y[0]):
            _, n, d = x
            _, m, e = y
            g = gcd(n, e)
            h = gcd(m, d)
            v._node = (0, (n // g) * (m // h), (d // h) * (e // g))
            v._ctx = None
            return v
        ctx = self._ctx
        if y[0] and other._ctx is not ctx:
            if ctx is not None:
                raise FieldContextError(_MIXED)
            ctx = other._ctx
        v._node = node = _nmul(x, y, ctx)
        v._ctx = ctx if node[0] else None
        return v

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is Constructible:
            y = other._node
        elif type(other) is int:
            y = (0, other, 1)
        elif isinstance(other, (int, Fraction)):
            y = (0, other.numerator, other.denominator)
        else:
            return NotImplemented
        x = self._node
        v = _new(Constructible)
        if not (x[0] or y[0]):
            _, n, d = x
            _, m, e = y
            if not m:
                raise DivisionByZero("division by exact zero")
            g = gcd(n, m)
            h = gcd(d, e)
            n, d = (n // g) * (e // h), (d // h) * (m // g)
            v._node = (0, n, d) if d > 0 else (0, -n, -d)
            v._ctx = None
            return v
        ctx = self._ctx
        if y[0] and other._ctx is not ctx:
            if ctx is not None:
                raise FieldContextError(_MIXED)
            ctx = other._ctx
        v._node = node = _ndiv(x, y, ctx)
        v._ctx = ctx if node[0] else None
        return v

    def __rtruediv__(self, other):
        # as __rsub__
        if isinstance(other, (int, Fraction)):
            other = Constructible(other)
        elif not isinstance(other, Constructible):
            return NotImplemented
        return other / self

    def __neg__(self):
        v = _new(Constructible)
        v._node = _nneg(self._node)
        v._ctx = self._ctx
        return v

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = Constructible(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- decisions ----------------------------------------------------------

    def sign(self) -> int:
        """Exact trichotomy: -1, 0 or +1."""
        x = self._node
        if x[0]:
            return _psign(x[1], self._ctx)
        return (x[1] > 0) - (x[1] < 0)

    def is_zero(self) -> bool:
        return self._node == _ZERO

    def __eq__(self, other):
        if type(other) is Constructible:
            y = other._node
            if y[0] and self._node[0] and other._ctx is not self._ctx:
                raise FieldContextError(_MIXED)
            return self._node == y
        if isinstance(other, (int, Fraction)):
            return self._node == (0, other.numerator, other.denominator)
        return NotImplemented

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __hash__(self):
        k, n, d = self._node
        if k == 0:  # equal to the hash of the equal int or Fraction
            return hash(n) if d == 1 else hash(Fraction(n, d))
        return hash(self._node)

    def __bool__(self):
        return self._node != _ZERO

    # -- views --------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self._node[0] == 0

    def as_fraction(self) -> Fraction:
        k, n, d = self._node
        if k != 0:
            raise ValueError("value is irrational")
        return Fraction(n, d)

    def radical_depth(self) -> int:
        """Maximum nesting depth of square roots in the canonical form."""
        return _pdepth(self._node[1], self._ctx)

    def scaled(self, digits: int) -> int:
        """The m that approx(digits) writes, |self - m/10**digits| <
        10**-digits: self, or the midpoint of an interval narrower than
        10**-digits / 4, times 10**digits rounded half up."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        k, n, d = self._node
        if k:
            return _scaled_iv(n, d, self._ctx, digits, False)
        return half_up(n, d, digits)

    def scaled_sqrt(self, digits: int) -> int:
        """``scaled(digits)`` of the non-negative square root of self, by
        the same rule and without adjoining it: exact for a rational
        square, else from intervals of the root taken from self's."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if self.sign() < 0:
            raise NegativeRadicand("square root of a negative value")
        k, n, d = self._node
        root = None if k else _rational_sqrt(self._node)
        if root is not None:
            return half_up(root[1], root[2], digits)
        return _scaled_iv(n, d, self._ctx, digits, True)

    def approx(self, digits: int) -> str:
        """Decimal approximation with absolute error below 10**-digits."""
        return fixed_text(self.scaled(digits), digits)

    def __repr__(self):
        return f"Constructible({self.approx(6)}...)"

    def __str__(self):
        return to_prefix(self)


def _scaled_iv(p: Poly, d: int, ctx: Optional[FieldContext], digits: int,
               root: bool) -> int:
    """The midpoint of an interval of p/d, or of its square root when
    ``root`` is set, narrower than 10**-digits / 4, from 64 bits and
    doubling, times 10**digits rounded half up."""
    prec = 64
    while True:
        lo, hi = _piv(p, 1, d, ctx, prec)
        if root:  # as _rad_sqrt_interval
            lo, hi = isqrt(max(lo, 0) << prec), isqrt(hi << prec) + 1
        if (hi - lo) * 4 * 10 ** digits < 1 << prec:
            return half_up(lo + hi, 1 << (prec + 1), digits)
        prec *= 2


# ---------------------------------------------------------------------------
# module-level operation surface


def sqrt_nonneg(a: RationalLike) -> Constructible:
    """The non-negative square root of a non-negative value."""
    v = a if isinstance(a, Constructible) else Constructible(a)
    ctx = current_context() if v._ctx is None else v._ctx
    root = _new(Constructible)
    root._node = node = _csqrt(v._node, ctx)
    root._ctx = ctx if node[0] else None
    return root


# ---------------------------------------------------------------------------
# canonical prefix serialization


DIGITS = 6  # decimal places of every coordinate and residual written


def half_up(n: int, d: int, digits: int) -> int:
    """n/d * 10**digits rounded half up, for d > 0: the one rounding rule
    of every decimal the engine writes.  An unreduced n/d rounds alike."""
    return (n * 10 ** digits * 2 + d) // (2 * d)


def fixed_text(m: int, digits: int) -> str:
    """m * 10**-digits written with ``digits >= 1`` decimal places."""
    text = _decimal(abs(m)).rjust(digits + 1, "0")
    return f"{'-' if m < 0 else ''}{text[:-digits]}.{text[-digits:]}"


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any length.  The interpreter writes at most
    ``sys.get_int_max_str_digits()`` digits at once, so a longer int is
    written in chunks of fewer digits."""
    width = sys.get_int_max_str_digits() - 1
    if width < 0 or n.bit_length() < 3 * width:  # under the limit, or none
        return str(n)
    sign, n = "-" if n < 0 else "", abs(n)
    base = 10 ** width
    chunks = []
    while n >= base:
        n, low = divmod(n, base)
        chunks.append(str(low).rjust(width, "0"))
    return sign + str(n) + "".join(reversed(chunks))


def _ser(p: Poly, d: int, ctx: Optional[FieldContext], out: list[str]) -> None:
    """Print p/d, each coefficient as its own reduced rational."""
    if type(p) is int:
        q = Fraction(p, d)
        out.append(_decimal(q.numerator) if q.denominator == 1
                   else f"{_decimal(q.numerator)}/{_decimal(q.denominator)}")
        return
    k, a, b = p
    out.append("+")
    _ser(a, d, ctx, out)
    out.append("×")  # multiplication sign
    _ser(_pscale(b, ctx.radicands[k - 1][2]), d, ctx, out)
    out.append("√")  # square root sign
    _ser(*ctx.radicands[k - 1][1:], ctx, out)


def to_prefix(x: Constructible) -> str:
    """Canonical prefix form over rational literals and + - * / sqrt."""
    out: list[str] = []
    _ser(*x._node[1:], x._ctx, out)
    return " ".join(out)


_PREFIX_OPS = {
    "+": (2, operator.add),
    "−": (2, operator.sub), "-": (2, operator.sub),  # minus sign, hyphen
    "×": (2, operator.mul), "*": (2, operator.mul),  # multiplication sign
    "÷": (2, operator.truediv), "/": (2, operator.truediv),  # division sign
    "√": (1, sqrt_nonneg), "sqrt": (1, sqrt_nonneg),  # square root sign
}


def from_prefix(text: str) -> Constructible:
    """Parse a prefix expression; inverse of :func:`to_prefix`.

    Each operation is applied as soon as its last operand is complete,
    left to right, so square roots are taken (and levels adjoined) in the
    order they are written.  Pending operations live on an explicit stack,
    so any nesting depth parses."""
    pending: list[tuple[tuple, list[Constructible]]] = []
    value = None
    for tok in text.split():
        if value is not None:
            raise ValueError("trailing tokens in expression")
        op = _PREFIX_OPS.get(tok)
        if op is not None:
            pending.append((op, []))
            continue
        v = Constructible(tok.replace("−", "-"))
        while pending:
            (arity, fn), args = pending[-1]
            args.append(v)
            if len(args) < arity:
                break
            pending.pop()
            v = fn(*args)
        else:
            value = v
    if value is None:
        raise ValueError("unexpected end of expression")
    return value
