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
+ - * / and parentheses, exactly the closure the number layer supports.
Intersection selectors are ``first``/``second`` (canonical lexicographic
order), ``left_of(r)``/``right_of(r)`` for a ray, and
``same_side(l, P)``/``opposite_side(l, P)`` for a line and a point.
Grammar (EBNF) ships in the package documentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import elements
from .errors import EuclidError, NoSuchIntersection
from .geom import (
    Angle,
    Circle,
    Figure,
    Line,
    Point,
    Ray,
    angle_eq,
    collinear,
    content,
    intersect_circles,
    intersect_line_circle,
    intersect_lines,
    is_right,
    parallel,
    segment_eq,
)
from .number import Constructible, sqrt_nonneg
from .trace import Tracer, describe_object, trace_lines

TYPES = ("point", "segment", "line", "ray", "circle", "angle", "figure")
PRIMITIVES = ("join", "extend", "circle", "intersect", "angle", "figure")
PREDICATES = ("seg_eq", "angle_eq", "area_eq", "parallel", "right_angle",
              "collinear")
SELECTOR_WORDS = ("first", "second", "left_of", "right_of", "same_side",
                  "opposite_side")


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


@dataclass
class Diagnostic:
    span: Span
    severity: str  # "error" | "warning"
    message: str
    note: str = ""

    def __str__(self):
        note = f" ({self.note})" if self.note else ""
        return f"{self.span}: {self.severity}: {self.message}{note}"


# --- coordinate expressions -------------------------------------------------


@dataclass(frozen=True)
class CoordNum:
    value: Fraction

    def pretty(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CoordSqrt:
    inner: "CoordExpr"

    def pretty(self) -> str:
        return f"sqrt({self.inner.pretty()})"


@dataclass(frozen=True)
class CoordNeg:
    inner: "CoordExpr"

    def pretty(self) -> str:
        return f"-{self.inner.pretty()}"


@dataclass(frozen=True)
class CoordBin:
    op: str
    left: "CoordExpr"
    right: "CoordExpr"

    def pretty(self) -> str:
        return f"({self.left.pretty()} {self.op} {self.right.pretty()})"


CoordExpr = Union[CoordNum, CoordSqrt, CoordNeg, CoordBin]


# --- statement AST ----------------------------------------------------------


@dataclass(frozen=True)
class Name:
    ident: str
    span: Span


@dataclass(frozen=True)
class PointLit:
    x: CoordExpr
    y: CoordExpr
    span: Span


Arg = Union[Name, PointLit, CoordExpr]


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
        diags.append(Diagnostic(span, "error", f"unexpected character {ch!r}"))
        i += 1
    out.append(Token("end", "", Span(line_no, n + 1)))
    return out


# ---------------------------------------------------------------------------
# parser


class _LineParser:
    def __init__(self, tokens: list[Token], diags: list[Diagnostic]):
        self.tokens = tokens
        self.pos = 0
        self.diags = diags

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "end":
            self.pos += 1
        return t

    def error(self, message: str, note: str = "") -> None:
        self.diags.append(Diagnostic(self.peek().span, "error", message, note))
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

    # coordinate expressions ------------------------------------------

    def coord(self) -> CoordExpr:
        node = self.coord_term()
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.coord_term()
            node = CoordBin(op, node, rhs)
        return node

    def coord_term(self) -> CoordExpr:
        node = self.coord_factor()
        while self.peek().kind == "punct" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.coord_factor()
            node = CoordBin(op, node, rhs)
        return node

    def coord_factor(self) -> CoordExpr:
        t = self.peek()
        if t.kind == "punct" and t.text == "-":
            self.advance()
            return CoordNeg(self.coord_factor())
        if t.kind == "punct" and t.text == "(":
            self.advance()
            inner = self.coord()
            self.expect_punct(")")
            return inner
        if t.kind == "word" and t.text == "sqrt":
            self.advance()
            self.expect_punct("(")
            inner = self.coord()
            self.expect_punct(")")
            return CoordSqrt(inner)
        if t.kind == "number":
            self.advance()
            return CoordNum(Fraction(int(t.text)))
        self.error("expected a number, sqrt(...) or parenthesized expression")

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
        if t.kind != "word" or t.text not in SELECTOR_WORDS:
            return None
        self.advance()
        if t.text in ("first", "second"):
            return Selector(t.text, (), t.span)
        args = self.arg_list()
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
        while self.peek().kind == "punct" and self.peek().text == ",":
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


_CALL_SIGNATURES = {
    "join": ("point", "point"),
    "extend": ("segment", "endpoint"),
    "circle": ("point", "point"),
    "angle": ("point", "point", "point"),
}

_CALL_RESULTS = {
    "join": ("segment", "line"),
    "extend": ("ray",),
    "circle": ("circle",),
    "intersect": ("point",),
    "angle": ("angle",),
    "figure": ("figure",),
}

_PREDICATE_SIGNATURES = {
    "seg_eq": ("segment", "segment"),
    "angle_eq": ("angle", "angle"),
    "area_eq": ("figure", "figure"),
    "parallel": ("line", "line"),
    "right_angle": ("angle",),
    "collinear": ("point", "point", "point"),
}


def check(script: Script) -> list[Diagnostic]:
    """Definition-before-use, single definition, arity and type checks."""
    diags: list[Diagnostic] = []
    env: dict[str, str] = {}

    def arg_type(arg) -> str:
        if isinstance(arg, Name):
            if arg.ident in ("a", "b") and arg.ident not in env:
                return "endpoint"
            if arg.ident not in env:
                diags.append(Diagnostic(arg.span, "error",
                                        f"use of undefined name {arg.ident!r}"))
                return "unknown"
            return env[arg.ident]
        if isinstance(arg, PointLit):
            return "point"
        return "number"

    def check_args(span, what, want, got) -> None:
        if len(want) != len(got):
            diags.append(Diagnostic(span, "error",
                                    f"{what} takes {len(want)} arguments, "
                                    f"got {len(got)}"))
            return
        for w, g in zip(want, got):
            if g in ("unknown",):
                continue
            if w == "line" and g in ("line", "segment", "ray"):
                continue
            if w != g:
                diags.append(Diagnostic(
                    span, "error",
                    f"{what} expects ({', '.join(want)}), got {g!r}"))
                return

    for st in script.statements:
        if isinstance(st, Assertion):
            want = _PREDICATE_SIGNATURES[st.predicate]
            got = [arg_type(a) for a in st.args]
            check_args(st.span, f"assert {st.predicate}", want, got)
            continue
        expr = st.expr
        if isinstance(expr, PointLit):
            result_types = ("point",)
        elif isinstance(expr, Call):
            got = [arg_type(a) for a in expr.args]
            if expr.fn == "figure":
                if len(got) < 3:
                    diags.append(Diagnostic(expr.span, "error",
                                            "figure needs at least 3 points"))
                elif any(g not in ("point", "unknown") for g in got):
                    diags.append(Diagnostic(expr.span, "error",
                                            "figure takes points"))
            elif expr.fn == "intersect":
                if len(got) != 2:
                    diags.append(Diagnostic(expr.span, "error",
                                            "intersect takes 2 arguments"))
                elif any(g not in ("line", "segment", "ray", "circle",
                                   "unknown") for g in got):
                    diags.append(Diagnostic(expr.span, "error",
                                            "intersect takes lines or circles"))
                if expr.selector is not None:
                    for a in expr.selector.args:
                        arg_type(a)
            else:
                check_args(expr.span, expr.fn,
                           _CALL_SIGNATURES[expr.fn], got)
            result_types = _CALL_RESULTS[expr.fn]
        else:  # PropCall
            try:
                base, id_strategy = elements.split_identifier(expr.prop_id)
            except EuclidError:
                diags.append(Diagnostic(expr.span, "error",
                                        f"unknown proposition {expr.prop_id!r}"))
                base, id_strategy = None, None
            if base is not None:
                prop = elements.PROPOSITIONS[base]
                got = [arg_type(a) for a in expr.args]
                check_args(expr.span, expr.prop_id,
                           tuple(w for _, w in prop.params), got)
                strategy = expr.strategy or id_strategy
                if strategy is not None and strategy not in prop.strategies:
                    diags.append(Diagnostic(
                        expr.span, "error",
                        f"{base} has no strategy {strategy!r}"))
                result_types = (prop.result,)
            else:
                result_types = ("unknown",)
        if st.type not in result_types and "unknown" not in result_types:
            diags.append(Diagnostic(
                st.span, "error",
                f"a {st.type} cannot be bound from this expression "
                f"(it yields {result_types[0]})"))
        for name in st.names:
            if name.ident in env:
                diags.append(Diagnostic(name.span, "error",
                                        f"{name.ident!r} is already defined"))
            env[name.ident] = st.type
        if len(st.names) == 2 and not (
                isinstance(expr, PropCall) and expr.prop_id.startswith("I.43")):
            diags.append(Diagnostic(st.span, "error",
                                    "only prop I.43 yields a pair"))
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
        return "\n".join(trace_lines(self.tracer.trace, self.tracer.registry))


def _eval_coord(expr: CoordExpr) -> Constructible:
    if isinstance(expr, CoordNum):
        return Constructible(expr.value)
    if isinstance(expr, CoordNeg):
        return -_eval_coord(expr.inner)
    if isinstance(expr, CoordSqrt):
        return sqrt_nonneg(_eval_coord(expr.inner))
    l, r = _eval_coord(expr.left), _eval_coord(expr.right)
    if expr.op == "+":
        return l + r
    if expr.op == "-":
        return l - r
    if expr.op == "*":
        return l * r
    return l / r


def interpret(script: Script) -> Interpretation:
    """Run a checked script; deterministic given the script text."""
    env: dict[str, object] = {}
    tr = Tracer("script")
    outcomes: list[AssertionOutcome] = []

    def value(arg, span=None):
        if isinstance(arg, Name):
            if arg.ident in env:
                return env[arg.ident]
            if arg.ident in ("a", "b"):
                return arg.ident
            raise ScriptError(arg.span, f"undefined name {arg.ident!r}")
        if isinstance(arg, PointLit):
            return Point(_eval_coord(arg.x), _eval_coord(arg.y))
        return _eval_coord(arg)

    def as_line(obj, span) -> Line:
        try:
            return obj.line()
        except AttributeError:
            raise ScriptError(span, "expected a line-like object")

    def run_intersect(expr: Call):
        a = value(expr.args[0])
        b = value(expr.args[1])
        if isinstance(a, Circle) and isinstance(b, Circle):
            pts = intersect_circles(a, b)
        elif isinstance(a, Circle):
            pts = intersect_line_circle(as_line(b, expr.span), a)
        elif isinstance(b, Circle):
            pts = intersect_line_circle(as_line(a, expr.span), b)
        else:
            got = intersect_lines(as_line(a, expr.span), as_line(b, expr.span))
            pts = [got] if isinstance(got, Point) else []
        sel = expr.selector
        if sel is None:
            chosen = "only"
        elif sel.kind in ("first", "second"):
            chosen = sel.kind
        else:
            operand = value(sel.args[0])
            if sel.kind in ("left_of", "right_of"):
                if not isinstance(operand, Ray):
                    raise ScriptError(sel.span, "selector needs a ray")
                want = 1 if sel.kind == "left_of" else -1
                d = operand.direction()
                chosen = lambda p: d.cross(p - operand.origin).sign() == want
            else:
                ref = as_line(operand, sel.span)
                probe = value(sel.args[1])
                s = ref.side_of(probe)
                if s == 0:
                    raise ScriptError(sel.span,
                                      "reference point lies on the line")
                want = s if sel.kind == "same_side" else -s
                chosen = lambda p: ref.side_of(p) == want
        try:
            return tr.pick(pts, chosen, note="intersect",
                           operands=(a, b))
        except NoSuchIntersection as e:
            raise ScriptError(expr.span, str(e))

    def run_prop(expr: PropCall):
        base, id_strategy = elements.split_identifier(expr.prop_id)
        fn = elements.CONSTRUCTIONS[base]
        args = [value(a) for a in expr.args]
        kwargs = {}
        strategy = expr.strategy or id_strategy
        if strategy is not None:
            kwargs["strategy"] = strategy
        if expr.side is not None:
            kwargs["side"] = expr.side
        sub = tr.sub(base)
        result = fn(*args, tracer=sub, **kwargs)
        produced = result.result
        if isinstance(produced, tuple):
            tr.attach(sub, operands=(), produced=produced)
        else:
            tr.attach(sub, operands=(), produced=(produced,))
        return result.result

    for st in script.statements:
        try:
            if isinstance(st, Assertion):
                args = [value(a) for a in st.args]
                passed = _run_predicate(st.predicate, args, st.span)
                text = (f"{st.predicate}"
                        f"({', '.join(describe_object(a) for a in args)})")
                outcomes.append(AssertionOutcome(st.span, text, passed))
                continue
            expr = st.expr
            if isinstance(expr, PointLit):
                got = value(expr)
                tr.register_input(got)
            elif isinstance(expr, PropCall):
                got = run_prop(expr)
            elif expr.fn == "join":
                p, q = value(expr.args[0]), value(expr.args[1])
                got = tr.join_line(p, q) if st.type == "line" else tr.join(p, q)
            elif expr.fn == "extend":
                endpoint = value(expr.args[1])
                if endpoint not in ("a", "b"):
                    raise ScriptError(st.span,
                                      "extend needs an endpoint word a or b")
                got = tr.extend(value(expr.args[0]), endpoint)
            elif expr.fn == "circle":
                got = tr.circle(value(expr.args[0]), value(expr.args[1]))
            elif expr.fn == "intersect":
                got = run_intersect(expr)
            elif expr.fn == "angle":
                got = Angle(value(expr.args[0]), value(expr.args[1]),
                            value(expr.args[2]))
                tr.register_input(got)
            else:  # figure
                got = Figure([value(a) for a in expr.args])
                tr.register_input(got)
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


def _run_predicate(predicate: str, args, span) -> bool:
    try:
        if predicate == "seg_eq":
            return segment_eq(args[0], args[1])
        if predicate == "angle_eq":
            return angle_eq(args[0], args[1])
        if predicate == "area_eq":
            return (content(args[0]) - content(args[1])).is_zero()
        if predicate == "parallel":
            return parallel(args[0].line(), args[1].line())
        if predicate == "right_angle":
            return is_right(args[0])
        return collinear(args[0], args[1], args[2])
    except AttributeError:
        raise ScriptError(span, f"bad arguments for {predicate}")


# ---------------------------------------------------------------------------
# pretty printing


def pretty(script: Script) -> str:
    out = []
    for st in script.statements:
        if isinstance(st, Assertion):
            args = ", ".join(_pretty_arg(a) for a in st.args)
            out.append(f"assert {st.predicate}({args})")
            continue
        names = ", ".join(n.ident for n in st.names)
        out.append(f"{st.type} {names} = {_pretty_expr(st.expr)}")
    return "\n".join(out) + "\n"


def _pretty_arg(arg) -> str:
    if isinstance(arg, Name):
        return arg.ident
    if isinstance(arg, PointLit):
        return f"({arg.x.pretty()}, {arg.y.pretty()})"
    return arg.pretty()


def _pretty_expr(expr) -> str:
    if isinstance(expr, PointLit):
        return _pretty_arg(expr)
    if isinstance(expr, PropCall):
        args = ", ".join(_pretty_arg(a) for a in expr.args)
        text = f"prop {expr.prop_id} ({args})"
        if expr.strategy:
            text += f" strategy {expr.strategy}"
        if expr.side:
            text += f" side {expr.side}"
        return text
    args = ", ".join(_pretty_arg(a) for a in expr.args)
    text = f"{expr.fn}({args})"
    if expr.selector is not None:
        if expr.selector.args:
            sel_args = ", ".join(_pretty_arg(a) for a in expr.selector.args)
            text += f" {expr.selector.kind}({sel_args})"
        else:
            text += f" {expr.selector.kind}"
    return text
