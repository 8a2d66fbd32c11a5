"""A small construction-script language: parser, checker, interpreter.

Scripts are UTF-8 text, one statement per line, ``#`` comments.  A
statement either declares a named object or asserts an exact predicate:

    point A = (0, 0)
    point B = (1, 0)
    segment s = join(A, B)
    circle c1 = circle(A, B)
    circle c2 = circle(B, A)
    point C = intersect(c1, c2) second
    figure T = prop I.1 (s) side upper
    assert seg_eq(s, s)

Coordinates are rationals or explicit sqrt(...) expressions combined with
+ - * / and parentheses, exactly the closure the number layer supports.  The
parser writes each coordinate as prefix text, and ``number.from_prefix``
evaluates it, left to right.
Intersection selectors are ``first``/``second`` (canonical lexicographic
order), ``left_of(r)``/``right_of(r)`` for a ray, and
``same_side(l, P)``/``opposite_side(l, P)`` for a line and a point.

Each word is one ``Word`` record in ``PRIMITIVES``, ``PREDICATES`` or
``SELECTORS``, which the parser, ``check`` and ``interpret`` all read; the
type words are the lower-case names of the classes the primitives bind.
Each call of a word parses to one ``Call`` node: an assertion is the
``Call`` of its predicate, and an intersection's selector is a ``Call``
nested in the primitive's.  A parsed script is its list of statements.
``interpret`` returns a result and its claims, as ``elements.run`` does.
Grammar (EBNF) ships in the package documentation.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Union

from . import elements
from .errors import DegenerateInput, EuclidError, NoSuchIntersection
from .geom import (
    Angle,
    Circle,
    Figure,
    Line,
    Point,
    Ray,
    Segment,
    angle_eq,
    collinear,
    content,
    intersect_circles,
    intersect_line_circle,
    intersect_lines,
    is_right,
    orientation,
    parallel,
    segment_eq,
)
from .number import from_prefix
from .trace import Checks, PropositionResult, Tracer, describe_object


# ---------------------------------------------------------------------------
# words


@dataclass(frozen=True)
class Word:
    """One script word: its argument type words (the last repeats when
    ``repeats`` is set), its implementation, and the geom classes a
    declaration can bind from it (none for a predicate or a selector).

    A primitive runs as ``run(tracer, declared_type, *args, [choice])``, a
    predicate as ``run(*args) -> bool``, and a selector as ``run(*args)``
    returning the choice that ``Tracer.pick`` takes.
    """

    args: tuple[str, ...]
    run: Callable
    binds: tuple[type, ...] = ()
    repeats: bool = False

    @property
    def types(self) -> tuple[str, ...]:
        """The type words a declaration can bind from this word."""
        return tuple(cls.__name__.lower() for cls in self.binds)


def _registered(tr: Tracer, obj):
    tr.register_input(obj)
    return obj


def _intersect(tr: Tracer, declared, a, b, chosen="only") -> Point:
    if isinstance(a, Circle) and isinstance(b, Circle):
        pts = intersect_circles(a, b)
    elif isinstance(a, Circle):
        pts = intersect_line_circle(b.line(), a)
    elif isinstance(b, Circle):
        pts = intersect_line_circle(a.line(), b)
    else:
        pts = intersect_lines(a.line(), b.line())
    # a segment or a ray keeps only the points that lie on it
    pts = [p for p in pts if a.contains(p) and b.contains(p)]
    return tr.pick(pts, chosen, note="intersect", operands=(a, b))


def _turn(want: int):
    """Pick the point on the left (+1) or right (-1) of a ray."""
    def select(ray: Ray):
        return lambda p: orientation(ray.origin, ray.through, p) == want
    return select


def _side(same: int):
    """Pick the point on the same (+1) or opposite (-1) side as a probe."""
    def select(line, probe: Point):
        ref = line.line()
        s = orientation(ref.p, ref.q, probe)
        if s == 0:
            raise DegenerateInput("reference point lies on the line")
        return lambda p: orientation(ref.p, ref.q, p) == same * s
    return select


PRIMITIVES = {
    "join": Word(("point", "point"),
                 lambda tr, declared, p, q: (tr.join_line(p, q)
                                             if declared == "line"
                                             else tr.join(p, q)),
                 (Segment, Line)),
    "extend": Word(("segment", "endpoint"),
                   lambda tr, declared, s, end: tr.extend(s, end), (Ray,)),
    "circle": Word(("point", "point"),
                   lambda tr, declared, c, p: tr.circle(c, p), (Circle,)),
    "intersect": Word(("curve", "curve"), _intersect, (Point,)),
    "angle": Word(("point", "point", "point"),
                  lambda tr, declared, *pts: _registered(tr, Angle(*pts)),
                  (Angle,)),
    "figure": Word(("point", "point", "point"),
                   lambda tr, declared, *pts: _registered(tr, Figure(pts)),
                   (Figure,), repeats=True),
}

PREDICATES = {
    "seg_eq": Word(("segment", "segment"), segment_eq),
    "angle_eq": Word(("angle", "angle"), angle_eq),
    "area_eq": Word(("figure", "figure"),
                    lambda f, g: (content(f) - content(g)).is_zero()),
    "parallel": Word(("line", "line"),
                     lambda l, m: parallel(l.line(), m.line())),
    "right_angle": Word(("angle",), is_right),
    "collinear": Word(("point", "point", "point"), collinear),
}

SELECTORS = {
    "first": Word((), lambda: "first"),
    "second": Word((), lambda: "second"),
    "left_of": Word(("ray",), _turn(1)),
    "right_of": Word(("ray",), _turn(-1)),
    "same_side": Word(("line", "point"), _side(1)),
    "opposite_side": Word(("line", "point"), _side(-1)),
}

TYPES = tuple(dict.fromkeys(t for w in PRIMITIVES.values() for t in w.types))

# an argument of the key type also accepts these types
_ACCEPTS = {"line": ("line", "segment", "ray"),
            "curve": ("line", "segment", "ray", "circle")}


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


@dataclass
class Diagnostic:
    span: Span
    message: str
    note: str = ""

    def __str__(self):
        note = f" ({self.note})" if self.note else ""
        return f"{self.span}: error: {self.message}{note}"


# --- statement AST ----------------------------------------------------------


@dataclass(frozen=True)
class Name:
    ident: str
    span: Span


@dataclass(frozen=True)
class PointLit:
    x: str  # prefix text for number.from_prefix
    y: str
    span: Span


Arg = Union[Name, PointLit]


@dataclass(frozen=True)
class Call:
    """A call of one registered word: a primitive, a selector or, as a
    statement spanned at its ``assert``, a predicate."""
    fn: str
    args: tuple
    span: Span
    selector: Optional[Call] = None


@dataclass(frozen=True)
class PropCall:
    prop_id: str
    args: tuple
    strategy: Optional[str]
    side: Optional[str]
    span: Span


@dataclass(frozen=True)
class Decl:
    type: str
    names: tuple[Name, ...]
    expr: Union[Call, PropCall, PointLit]
    span: Span


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class Token:
    kind: str  # word | number | propid | punct | end
    text: str
    span: Span


# one alternative per kind; a name never ends in a dot, so "I.42." is the
# propid I.42 and then an unexpected '.'
_TOKEN = re.compile(r"(?P<space>[ \t]+)|(?P<comment>#.*)|(?P<number>[0-9]+)"
                    r"|(?P<word>[A-Za-z_](?:[A-Za-z0-9_.]*[A-Za-z0-9_])?)"
                    r"|(?P<punct>[(),=+\-*/])|(?P<other>.)", re.DOTALL)


def _lex_line(text: str, line_no: int, diags: list[Diagnostic]) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind, tok = m.lastgroup, m.group()
        if kind in ("space", "comment"):
            continue
        span = Span(line_no, m.start() + 1)
        if kind == "other":
            diags.append(Diagnostic(span, f"unexpected character {tok!r}"))
        else:  # only a word can hold a dot
            out.append(Token("propid" if "." in tok else kind, tok, span))
    out.append(Token("end", "", Span(line_no, len(text) + 1)))
    return out


# ---------------------------------------------------------------------------
# parser

# The parser recurses once per open level of a coordinate, so a deeper
# coordinate is a parse error rather than an exhausted Python stack.
MAX_COORD_NESTING = 64


class _LineParser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags
        self.nesting = 0  # open coordinate levels

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def error(self, message: str, note: str = "") -> None:
        self.diags.append(Diagnostic(self.peek().span, message, note))
        raise _ParseAbort

    def at(self, *texts: str) -> bool:
        """Whether the next token is one of these punctuation marks or
        words, or, given none, any word."""
        t = self.peek()
        if not texts:
            return t.kind == "word"
        return t.kind in ("punct", "word") and t.text in texts

    def expect_punct(self, ch: str) -> Token:
        if self.at(ch):
            return self.advance()
        self.error(f"expected {ch!r}")

    def expect_word(self, what: str = "a name") -> Token:
        if self.at():
            return self.advance()
        self.error(f"expected {what}")

    # coordinate expressions: infix in, prefix text out ------------------

    def coord(self) -> str:
        node = self.coord_term()
        while self.at("+", "-"):
            op = self.advance().text
            node = f"{op} {node} {self.coord_term()}"
        return node

    def coord_term(self) -> str:
        node = self.coord_factor()
        while self.at("*", "/"):
            op = self.advance().text
            node = f"{op} {node} {self.coord_factor()}"
        return node

    def coord_factor(self) -> str:
        t = self.peek()
        if t.kind == "number":
            limit = sys.get_int_max_str_digits()
            if limit and len(t.text) > limit:
                self.error(f"number longer than {limit} digits",
                           note="the interpreter's integer string limit")
            return self.advance().text
        if not self.at("-", "(", "sqrt"):
            self.error("expected a number, sqrt(...) or parenthesized "
                       "expression")
        if self.nesting == MAX_COORD_NESTING:
            self.error(f"coordinate nested more than {MAX_COORD_NESTING} "
                       "levels deep",
                       note="each '(', 'sqrt(' and unary '-' opens a level")
        self.nesting += 1
        self.advance()
        if t.text == "-":
            node = f"- 0 {self.coord_factor()}"
        elif t.text == "(":
            node = self.coord()
            self.expect_punct(")")
        else:
            self.expect_punct("(")
            node = f"sqrt {self.coord()}"
            self.expect_punct(")")
        self.nesting -= 1
        return node

    # arguments ----------------------------------------------------------

    def argument(self) -> Arg:
        if self.at("("):
            return self.point_literal()
        t = self.expect_word("an argument")
        return Name(t.text, t.span)

    def point_literal(self) -> PointLit:
        start = self.expect_punct("(")
        x = self.coord()
        self.expect_punct(",")
        y = self.coord()
        self.expect_punct(")")
        return PointLit(x, y, start.span)

    def arg_list(self) -> tuple:
        self.expect_punct("(")
        args = []
        if not self.at(")"):
            args.append(self.argument())
            while self.at(","):
                self.advance()
                args.append(self.argument())
        self.expect_punct(")")
        return tuple(args)

    # statements --------------------------------------------------------

    def statement(self) -> object:
        if self.at("assert"):
            return self.assertion()
        if self.at(*TYPES):
            return self.declaration()
        self.error("expected a declaration or an assertion",
                   note="statements start with a type word or 'assert'")

    def assertion(self) -> Call:
        kw = self.advance()
        pred = self.expect_word()
        if pred.text not in PREDICATES:
            self.error(f"unknown predicate {pred.text!r}",
                       note="one of " + ", ".join(PREDICATES))
        args = self.arg_list()
        self.ensure_line_end()
        return Call(pred.text, args, kw.span)

    def declaration(self) -> Decl:
        type_tok = self.advance()
        first = self.expect_word()
        names = [Name(first.text, first.span)]
        if self.at(","):
            self.advance()
            tok = self.expect_word()
            names.append(Name(tok.text, tok.span))
        self.expect_punct("=")
        expr = self.expression()
        self.ensure_line_end()
        return Decl(type_tok.text, tuple(names), expr, type_tok.span)

    def expression(self):
        if self.at("("):
            return self.point_literal()
        if self.at("prop"):
            return self.prop_call()
        if self.at(*PRIMITIVES):
            t = self.advance()
            args = self.arg_list()
            selector = None
            if t.text == "intersect" and self.at(*SELECTORS):
                s = self.advance()
                selector = Call(s.text, self.arg_list()
                                if SELECTORS[s.text].args else (), s.span)
            return Call(t.text, args, t.span, selector)
        self.error("expected a point literal, a primitive call, or 'prop'")

    def prop_call(self) -> PropCall:
        kw = self.advance()
        if self.peek().kind != "propid":
            self.error("expected a proposition identifier such as I.42")
        t = self.advance()
        args = self.arg_list()
        strategy = self.keyword_value("strategy")
        side = self.keyword_value("side")
        return PropCall(t.text, args, strategy, side, kw.span)

    def keyword_value(self, keyword: str) -> Optional[str]:
        """The name after ``keyword`` if the line continues with it."""
        if self.at(keyword):
            self.advance()
            return self.expect_word().text
        return None

    def ensure_line_end(self) -> None:
        if self.peek().kind != "end":
            self.error("unexpected trailing tokens")


class _ParseAbort(Exception):
    pass


def parse(text: str) -> tuple[list, list[Diagnostic]]:
    """Parse a script; syntax errors are reported with spans and recovery
    happens at statement (line) boundaries."""
    diags: list[Diagnostic] = []
    statements = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(raw, line_no, diags)
        if len(tokens) == 1:  # only the end marker: blank or comment line
            continue
        parser = _LineParser(tokens, diags)
        try:
            statements.append(parser.statement())
        except _ParseAbort:
            continue
    return statements, diags


# ---------------------------------------------------------------------------
# static checking


def _is_endpoint(arg, want: str) -> bool:
    """Whether ``arg`` is the word ``a`` or ``b`` naming a segment's
    endpoint: only ever in an endpoint position."""
    return (want == "endpoint" and isinstance(arg, Name)
            and arg.ident in ("a", "b"))


def _slots(args: tuple, want: tuple[str, ...]):
    """Each argument with the type word of its position ("" past ``want``)."""
    return zip(args, want + ("",) * (len(args) - len(want)))


def check(script: list) -> list[Diagnostic]:
    """Definition-before-use, single definition, arity and type checks."""
    diags: list[Diagnostic] = []
    env: dict[str, str] = {}

    def arg_type(arg, want: str) -> str:
        if isinstance(arg, Name):
            if _is_endpoint(arg, want):
                return "endpoint"
            if arg.ident not in env:
                diags.append(Diagnostic(arg.span,
                                        f"use of undefined name {arg.ident!r}"))
                return "unknown"
            return env[arg.ident]
        return "point"

    def check_args(span, what, want, args, repeats=False) -> None:
        if repeats and len(args) > len(want):
            want = want + want[-1:] * (len(args) - len(want))
        got = [arg_type(a, w) for a, w in _slots(args, want)]
        if len(want) != len(got):
            least = "at least " if repeats else ""
            diags.append(Diagnostic(span,
                                    f"{what} takes {least}{len(want)} "
                                    f"arguments, got {len(got)}"))
            return
        for w, g in zip(want, got):
            if g != "unknown" and g not in _ACCEPTS.get(w, (w,)):
                diags.append(Diagnostic(
                    span, f"{what} expects ({', '.join(want)}), got {g!r}"))
                return

    for st in script:
        if isinstance(st, Call):
            check_args(st.span, f"assert {st.fn}", PREDICATES[st.fn].args,
                       st.args)
            continue
        expr = st.expr
        count = 1  # objects the expression yields
        if isinstance(expr, PointLit):
            result_types = ("point",)
        elif isinstance(expr, Call):
            word = PRIMITIVES[expr.fn]
            check_args(expr.span, expr.fn, word.args, expr.args, word.repeats)
            sel = expr.selector
            if sel is not None:
                check_args(sel.span, sel.fn, SELECTORS[sel.fn].args, sel.args)
            result_types = word.types
        else:  # PropCall
            try:
                elements.validate_call(expr.prop_id, expr.strategy, expr.side)
            except EuclidError as e:
                diags.append(Diagnostic(expr.span, str(e)))
                result_types = ("unknown",)
            else:
                prop = elements.PROPOSITIONS[expr.prop_id]
                check_args(expr.span, expr.prop_id,
                           tuple(w for _, w in prop.params), expr.args)
                result_types = prop.result
                count = len(prop.result)
        if st.type not in result_types and "unknown" not in result_types:
            diags.append(Diagnostic(
                st.span, f"a {st.type} cannot be bound from this expression "
                f"(it yields {result_types[0]})"))
        for name in st.names:
            if name.ident in env:
                diags.append(Diagnostic(name.span,
                                        f"{name.ident!r} is already defined"))
            env[name.ident] = st.type
        if len(st.names) != count and "unknown" not in result_types:
            diags.append(Diagnostic(
                st.span, "one name per yielded object: the expression yields "
                f"{count}, the declaration names {len(st.names)}"))
    return diags


# ---------------------------------------------------------------------------
# interpretation


class ScriptError(EuclidError):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span


def interpret(script: list) -> tuple[PropositionResult, Checks]:
    """Run a checked script; deterministic given the script text.  The
    result names each declared object, in order, as given, and its trace
    is the ``script`` tracer; each assertion is one boolean claim,
    ``line:col: assert predicate(...)``, of ``Checks("script")``."""
    env: dict[str, object] = {}
    tr = Tracer("script")
    checks = Checks("script")

    def value(arg, want: str = ""):
        if isinstance(arg, Name):
            if _is_endpoint(arg, want):
                return arg.ident
            if arg.ident in env:
                return env[arg.ident]
            raise ScriptError(arg.span, f"undefined name {arg.ident!r}")
        return Point(from_prefix(arg.x), from_prefix(arg.y))

    def run_call(expr: Call, declared: str):
        args = [value(a, w)
                for a, w in _slots(expr.args, PRIMITIVES[expr.fn].args)]
        sel = expr.selector
        if sel is not None:
            sel_args = [value(a) for a in sel.args]
            try:
                args.append(SELECTORS[sel.fn].run(*sel_args))
            except DegenerateInput as e:
                raise ScriptError(sel.span, str(e))
        try:
            return PRIMITIVES[expr.fn].run(tr, declared, *args)
        except NoSuchIntersection as e:
            raise ScriptError(expr.span, str(e))

    def run_prop(expr: PropCall):
        elements.validate_call(expr.prop_id, expr.strategy, expr.side)
        params = elements.PROPOSITIONS[expr.prop_id].params
        # a line parameter takes a segment or ray as its line (_ACCEPTS)
        givens = {name: value(a).line() if ptype == "line" else value(a)
                  for (name, ptype), a in zip(params, expr.args)}
        result, certified = elements.run(expr.prop_id, givens, expr.strategy,
                                         expr.side, tr)
        if certified.failed:
            failed = "; ".join(certified.failed)
            raise ScriptError(expr.span, f"{expr.prop_id} fails: {failed}")
        got = result.result
        got = got if isinstance(got, tuple) else (got,)
        tr.attach(result, produced=got)
        return got

    for st in script:
        try:
            if isinstance(st, Call):
                args = [value(a) for a in st.args]
                ok = PREDICATES[st.fn].run(*args)
                text = ", ".join(map(describe_object, args))
                checks.true(f"{st.span}: assert {st.fn}({text})", ok)
                continue
            expr = st.expr
            if isinstance(expr, PointLit):
                got = (_registered(tr, value(expr)),)
            elif isinstance(expr, PropCall):
                got = run_prop(expr)
            else:
                got = (run_call(expr, st.type),)
            for name, obj in zip(st.names, got):
                env[name.ident] = obj
        except ScriptError:
            raise
        except EuclidError as e:
            raise ScriptError(st.span, f"{type(e).__name__}: {e}")
    named = {name: ("given", obj) for name, obj in env.items()}
    return PropositionResult(named, None, tr), checks
