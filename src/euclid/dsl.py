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
Grammar (EBNF) ships in the package documentation.
"""

from __future__ import annotations

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
from .trace import Tracer, describe_object, trace_lines


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
        got = intersect_lines(a.line(), b.line())
        pts = [got] if isinstance(got, Point) else []
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
        s = ref.side_of(probe)
        if s == 0:
            raise DegenerateInput("reference point lies on the line")
        return lambda p: ref.side_of(p) == same * s
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


Arg = Union[Name, PointLit, str]  # a bare str is a number in prefix text


@dataclass(frozen=True)
class Selector:
    kind: str
    args: tuple
    span: Span


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple
    selector: Optional[Selector]
    span: Span


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


@dataclass(frozen=True)
class Assertion:
    predicate: str
    args: tuple
    span: Span


@dataclass
class Script:
    statements: list


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class Token:
    kind: str  # word | number | propid | punct | end
    text: str
    span: Span


def _lex_line(text: str, line_no: int, diags: list[Diagnostic]) -> list[Token]:
    out: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        span = Span(line_no, i + 1)
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(Token("number", text[i:j], span))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            word = text[i:j].rstrip(".")
            j = i + len(word)
            kind = "propid" if "." in word else "word"
            out.append(Token(kind, word, span))
            i = j
            continue
        if ch in "(),=+-*/":
            out.append(Token("punct", ch, span))
            i += 1
            continue
        diags.append(Diagnostic(span, f"unexpected character {ch!r}"))
        i += 1
    out.append(Token("end", "", Span(line_no, n + 1)))
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

    def expect_punct(self, ch: str) -> Token:
        t = self.peek()
        if t.kind == "punct" and t.text == ch:
            return self.advance()
        self.error(f"expected {ch!r}")

    def expect_word(self) -> Token:
        t = self.peek()
        if t.kind == "word":
            return self.advance()
        self.error("expected a name")

    # coordinate expressions: infix in, prefix text out ------------------

    def coord(self) -> str:
        node = self.coord_term()
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.advance().text
            node = f"{op} {node} {self.coord_term()}"
        return node

    def coord_term(self) -> str:
        node = self.coord_factor()
        while self.peek().kind == "punct" and self.peek().text in "*/":
            op = self.advance().text
            node = f"{op} {node} {self.coord_factor()}"
        return node

    def coord_factor(self) -> str:
        t = self.peek()
        if t.kind == "number":
            return self.advance().text
        if not ((t.kind == "punct" and t.text in ("-", "("))
                or (t.kind == "word" and t.text == "sqrt")):
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

    def looks_like_coord(self) -> bool:
        t = self.peek()
        return (t.kind == "number"
                or (t.kind == "word" and t.text == "sqrt")
                or (t.kind == "punct" and t.text == "-"))

    # arguments ----------------------------------------------------------

    def argument(self) -> Arg:
        t = self.peek()
        if t.kind == "punct" and t.text == "(":
            return self.point_literal()
        if self.looks_like_coord():
            return self.coord()
        if t.kind == "word":
            self.advance()
            return Name(t.text, t.span)
        self.error("expected an argument")

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
        if not (self.peek().kind == "punct" and self.peek().text == ")"):
            args.append(self.argument())
            while self.peek().kind == "punct" and self.peek().text == ",":
                self.advance()
                args.append(self.argument())
        self.expect_punct(")")
        return tuple(args)

    def selector(self) -> Optional[Selector]:
        t = self.peek()
        if t.kind != "word" or t.text not in SELECTORS:
            return None
        self.advance()
        args = self.arg_list() if SELECTORS[t.text].args else ()
        return Selector(t.text, args, t.span)

    # statements --------------------------------------------------------

    def statement(self) -> object:
        t = self.peek()
        if t.kind == "word" and t.text == "assert":
            return self.assertion()
        if t.kind == "word" and t.text in TYPES:
            return self.declaration()
        self.error("expected a declaration or an assertion",
                   note="statements start with a type word or 'assert'")

    def assertion(self) -> Assertion:
        kw = self.advance()
        pred = self.expect_word()
        if pred.text not in PREDICATES:
            self.error(f"unknown predicate {pred.text!r}",
                       note="one of " + ", ".join(PREDICATES))
        args = self.arg_list()
        self.ensure_line_end()
        return Assertion(pred.text, args, kw.span)

    def declaration(self) -> Decl:
        type_tok = self.advance()
        first = self.expect_word()
        names = [Name(first.text, first.span)]
        if self.peek().kind == "punct" and self.peek().text == ",":
            self.advance()
            tok = self.expect_word()
            names.append(Name(tok.text, tok.span))
        self.expect_punct("=")
        expr = self.expression()
        self.ensure_line_end()
        return Decl(type_tok.text, tuple(names), expr, type_tok.span)

    def expression(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "(":
            return self.point_literal()
        if t.kind == "word" and t.text == "prop":
            return self.prop_call()
        if t.kind == "word" and t.text in PRIMITIVES:
            self.advance()
            args = self.arg_list()
            selector = self.selector() if t.text == "intersect" else None
            return Call(t.text, args, selector, t.span)
        self.error("expected a point literal, a primitive call, or 'prop'")

    def prop_call(self) -> PropCall:
        kw = self.advance()
        t = self.peek()
        if t.kind != "propid":
            self.error("expected a proposition identifier such as I.42")
        self.advance()
        args = self.arg_list()
        strategy = None
        side = None
        while self.peek().kind == "word" and self.peek().text in ("strategy",
                                                                  "side"):
            which = self.advance().text
            value = self.expect_word().text
            if which == "strategy":
                strategy = value
            else:
                side = value
        return PropCall(t.text, args, strategy, side, kw.span)

    def ensure_line_end(self) -> None:
        if self.peek().kind != "end":
            self.error("unexpected trailing tokens")


class _ParseAbort(Exception):
    pass


def parse(text: str) -> tuple[Script, list[Diagnostic]]:
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
    return Script(statements), diags


# ---------------------------------------------------------------------------
# static checking


def check(script: Script) -> list[Diagnostic]:
    """Definition-before-use, single definition, arity and type checks."""
    diags: list[Diagnostic] = []
    env: dict[str, str] = {}

    def arg_type(arg) -> str:
        if isinstance(arg, Name):
            if arg.ident in ("a", "b") and arg.ident not in env:
                return "endpoint"
            if arg.ident not in env:
                diags.append(Diagnostic(arg.span,
                                        f"use of undefined name {arg.ident!r}"))
                return "unknown"
            return env[arg.ident]
        if isinstance(arg, PointLit):
            return "point"
        return "number"

    def check_args(span, what, want, args, repeats=False) -> None:
        got = [arg_type(a) for a in args]
        if repeats and len(got) > len(want):
            want = want + want[-1:] * (len(got) - len(want))
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

    for st in script.statements:
        if isinstance(st, Assertion):
            check_args(st.span, f"assert {st.predicate}",
                       PREDICATES[st.predicate].args, st.args)
            continue
        expr = st.expr
        if isinstance(expr, PointLit):
            result_types = ("point",)
        elif isinstance(expr, Call):
            word = PRIMITIVES[expr.fn]
            check_args(expr.span, expr.fn, word.args, expr.args, word.repeats)
            sel = expr.selector
            if sel is not None:
                check_args(sel.span, sel.kind, SELECTORS[sel.kind].args,
                           sel.args)
            result_types = word.types
        else:  # PropCall
            try:
                base, id_strategy = elements.split_identifier(expr.prop_id)
            except EuclidError:
                diags.append(Diagnostic(expr.span,
                                        f"unknown proposition {expr.prop_id!r}"))
                base, id_strategy = None, None
            if base is not None:
                prop = elements.PROPOSITIONS[base]
                check_args(expr.span, expr.prop_id,
                           tuple(w for _, w in prop.params), expr.args)
                strategy = expr.strategy or id_strategy
                if strategy is not None and strategy not in prop.strategies:
                    diags.append(Diagnostic(
                        expr.span, f"{base} has no strategy {strategy!r}"))
                if expr.side is not None and not prop.takes_side:
                    diags.append(Diagnostic(expr.span, f"{base} takes no side"))
                elif expr.side not in (None, "upper", "lower"):
                    diags.append(Diagnostic(
                        expr.span, "side must be 'upper' or 'lower', "
                        f"got {expr.side!r}"))
                result_types = (prop.result,)
            else:
                result_types = ("unknown",)
        if st.type not in result_types and "unknown" not in result_types:
            diags.append(Diagnostic(
                st.span, f"a {st.type} cannot be bound from this expression "
                f"(it yields {result_types[0]})"))
        for name in st.names:
            if name.ident in env:
                diags.append(Diagnostic(name.span,
                                        f"{name.ident!r} is already defined"))
            env[name.ident] = st.type
        if len(st.names) == 2 and not (
                isinstance(expr, PropCall) and expr.prop_id.startswith("I.43")):
            diags.append(Diagnostic(st.span, "only prop I.43 yields a pair"))
    return diags


# ---------------------------------------------------------------------------
# interpretation


class ScriptError(EuclidError):
    def __init__(self, span: Span, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span


@dataclass
class AssertionOutcome:
    span: Span
    text: str
    passed: bool


@dataclass
class Interpretation:
    env: dict[str, object]
    tracer: Tracer
    assertions: list[AssertionOutcome]

    @property
    def all_assertions_pass(self) -> bool:
        return all(a.passed for a in self.assertions)

    def trace_text(self) -> str:
        return "\n".join(trace_lines(self.tracer))


def interpret(script: Script) -> Interpretation:
    """Run a checked script; deterministic given the script text."""
    env: dict[str, object] = {}
    tr = Tracer("script")
    outcomes: list[AssertionOutcome] = []

    def value(arg):
        if isinstance(arg, Name):
            if arg.ident in env:
                return env[arg.ident]
            if arg.ident in ("a", "b"):
                return arg.ident
            raise ScriptError(arg.span, f"undefined name {arg.ident!r}")
        if isinstance(arg, PointLit):
            return Point(from_prefix(arg.x), from_prefix(arg.y))
        return from_prefix(arg)

    def run_call(expr: Call, declared: str):
        args = [value(a) for a in expr.args]
        sel = expr.selector
        if sel is not None:
            sel_args = [value(a) for a in sel.args]
            try:
                args.append(SELECTORS[sel.kind].run(*sel_args))
            except DegenerateInput as e:
                raise ScriptError(sel.span, str(e))
        try:
            return PRIMITIVES[expr.fn].run(tr, declared, *args)
        except NoSuchIntersection as e:
            raise ScriptError(expr.span, str(e))

    def run_prop(expr: PropCall):
        base, id_strategy = elements.split_identifier(expr.prop_id)
        params = elements.PROPOSITIONS[base].params
        call = {name: value(a) for (name, _), a in zip(params, expr.args)}
        strategy = expr.strategy or id_strategy
        if strategy is not None:
            call["strategy"] = strategy
        if expr.side is not None:
            call["side"] = expr.side
        sub = tr.sub(base)
        result = elements.CONSTRUCTIONS[base](tracer=sub, **call)
        checks = elements.certify(base, call, result)
        if not checks.all_pass:
            failed = "; ".join(c for c, ok, _ in checks.claims if not ok)
            raise ScriptError(expr.span, f"{base} fails: {failed}")
        got = result.result
        tr.attach(sub, produced=got if isinstance(got, tuple) else (got,))
        return got

    for st in script.statements:
        try:
            if isinstance(st, Assertion):
                args = [value(a) for a in st.args]
                passed = PREDICATES[st.predicate].run(*args)
                text = (f"{st.predicate}"
                        f"({', '.join(describe_object(a) for a in args)})")
                outcomes.append(AssertionOutcome(st.span, text, passed))
                continue
            expr = st.expr
            if isinstance(expr, PointLit):
                got = _registered(tr, value(expr))
            elif isinstance(expr, PropCall):
                got = run_prop(expr)
            else:
                got = run_call(expr, st.type)
            if isinstance(got, tuple):
                for name, obj in zip(st.names, got):
                    env[name.ident] = obj
            else:
                env[st.names[0].ident] = got
        except ScriptError:
            raise
        except EuclidError as e:
            raise ScriptError(st.span, f"{type(e).__name__}: {e}")
    return Interpretation(env, tr, outcomes)
