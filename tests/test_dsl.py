import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euclid import dsl
from euclid.dsl import ScriptError, check, interpret, parse
from euclid.geom import Point
from euclid.number import Constructible, new_context, sqrt_nonneg
from euclid.trace import trace_lines

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
EVERY_WORD = ROOT / "tests" / "every_word.euc"

SELECTOR_BASE = ("point A = (0,0)\npoint B = (2,0)\nsegment s = join(A, B)\n"
                 "line l = join(A, B)\nray r = extend(s, b)\n"
                 "circle c1 = circle(A, B)\ncircle c2 = circle(B, A)\n")


def run(text: str):
    script, diags = parse(text)
    assert not diags, [str(d) for d in diags]
    problems = check(script)
    assert not problems, [str(d) for d in problems]
    return interpret(script)


class TestParse:
    def test_single_declaration(self):
        script, diags = parse("point A = (0, 0)\n")
        assert not diags
        assert len(script) == 1

    def test_missing_comma_is_reported(self):
        script, diags = parse("point A = (0 0)\n")
        assert len(diags) == 1
        assert diags[0].span.line == 1
        assert "expected ','" in diags[0].message

    def test_i1_script_has_six_statements(self):
        text = (SCRIPTS / "i1.euc").read_text()
        script, diags = parse(text)
        assert not diags
        assert len(script) == 6

    def test_recovery_at_statement_boundaries(self):
        text = "point A = (0, 0)\npoint B = (1 0)\npoint C = (2, 0)\n"
        script, diags = parse(text)
        assert len(diags) == 1
        assert len(script) == 2

    def test_spans_inside_source(self):
        text = "point A = (0, 0)\nbogus line here\n"
        script, diags = parse(text)
        lines = text.splitlines()
        for d in diags:
            assert 1 <= d.span.line <= len(lines)
            assert 1 <= d.span.col <= len(lines[d.span.line - 1]) + 1

    def test_at_most_two_names(self):
        text = ("figure pg = figure((0,0), (4,0), (6,3), (2,3))\n"
                "point K = (2, 1)\n"
                "figure u, v, w = prop I.43 (pg, K)\n")
        script, diags = parse(text)
        assert [(d.span.line, d.message) for d in diags] == [
            (3, "expected '='")]
        assert len(script) == 2

    @pytest.mark.parametrize("keywords", [
        "strategy alnayrizi side upper strategy campanus side lower",
        "side upper strategy alnayrizi",
        "strategy alnayrizi strategy campanus",
        "side upper side lower",
    ])
    def test_prop_keywords_once_in_grammar_order(self, keywords):
        """At most one ``strategy NAME``, then at most one ``side WORD``."""
        script, diags = parse(f"figure p = prop I.44 (ab, t, d) {keywords}\n")
        assert [d.message for d in diags] == ["unexpected trailing tokens"]
        assert script == []

    def test_coordinate_nesting_cap(self):
        def nested(levels):
            text = "1"
            for i in range(levels):
                text = ("({})", "-{}", "-{}", "sqrt({})")[i % 4].format(text)
            return text

        cap = dsl.MAX_COORD_NESTING
        result, _ = run(f"point P = ({nested(cap)}, 0)\n")
        assert abs(result.objects["P"].x) == 1
        text = f"point P = ({nested(cap + 1)}, 0)\n"
        script, diags = parse(text)
        assert script == []
        assert [(d.span.line, d.span.col, d.message) for d in diags] == [
            (1, text.index("1"),
             f"coordinate nested more than {cap} levels deep")]

    def test_digits_are_ascii(self):
        script, diags = parse("point A = (\u00b2, 0)\n")
        assert script == []
        assert [(d.span.col, d.message) for d in diags][0] == (
            12, "unexpected character '\u00b2'")

    def test_number_length_cap(self):
        limit = sys.get_int_max_str_digits()
        result, _ = run(f"point P = ({'7' * limit}, 0)\n")
        assert result.objects["P"].x == Constructible(int("7" * limit))
        text = f"point P = (1 + {'7' * (limit + 1)}, 0)\n"
        script, diags = parse(text)
        assert script == []
        assert [(d.span.col, d.message) for d in diags] == [
            (16, f"number longer than {limit} digits")]
        sys.set_int_max_str_digits(0)
        try:
            assert parse(text)[1] == []
        finally:
            sys.set_int_max_str_digits(limit)

    def test_radical_coordinates(self):
        result, _ = run("point P = (sqrt(3)/2, 1/2)\n")
        p = result.objects["P"]
        assert (p.x - sqrt_nonneg(Constructible(3)) / 2).is_zero()
        assert (p.y - Constructible(Fraction(1, 2))).is_zero()


def _reference_lex_line(text, line_no, diags):
    """The character loop the token table replaced, kept as a reference."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == "#":
            break
        span = dsl.Span(line_no, i + 1)
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            out.append(dsl.Token("number", text[i:j], span))
            i = j
            continue
        if ch.isascii() and (ch.isalpha() or ch == "_"):
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum()
                                                   or text[j] in "_."):
                j += 1
            word = text[i:j].rstrip(".")
            j = i + len(word)
            kind = "propid" if "." in word else "word"
            out.append(dsl.Token(kind, word, span))
            i = j
            continue
        if ch in "(),=+-*/":
            out.append(dsl.Token("punct", ch, span))
            i += 1
            continue
        diags.append(dsl.Diagnostic(span, f"unexpected character {ch!r}"))
        i += 1
    out.append(dsl.Token("end", "", dsl.Span(line_no, n + 1)))
    return out


# ASCII script characters, then a superscript two, an accented letter, a
# root sign, a minus sign and an Arabic-Indic digit three
SCRIPT_CHARS = ("abgzABGZ_0123456789._#()=,+-*/ \t"
                "\u00b2\u00e9\u221a\u2212\u0663")


class TestLexer:
    @given(st.text(st.sampled_from(SCRIPT_CHARS), max_size=40))
    @example("figure p = prop I.44.alnayrizi (ab, t, d) strategy x # I.44.")
    @example("I.42. a..b _. 0.5 9x x9 .a")
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_token_table_matches_the_character_loop(self, text):
        got_diags, want_diags = [], []
        got = dsl._lex_line(text, 3, got_diags)
        want = _reference_lex_line(text, 3, want_diags)
        assert ([(t.kind, t.text, t.span) for t in got]
                == [(t.kind, t.text, t.span) for t in want])
        assert list(map(str, got_diags)) == list(map(str, want_diags))


class TestCheck:
    def test_use_before_def(self):
        script, _ = parse("segment s = join(A, B)\n")
        diags = check(script)
        assert len(diags) == 2
        assert all("undefined" in d.message for d in diags)

    def test_arity_mismatch(self):
        script, _ = parse("point A = (0,0)\ncircle c = circle(A)\n")
        diags = check(script)
        assert len(diags) == 1
        assert "2 arguments" in diags[0].message

    def test_type_mismatch(self):
        text = "point A = (0,0)\npoint B = (1,0)\ncircle c = join(A, B)\n"
        script, _ = parse(text)
        diags = check(script)
        assert len(diags) == 1

    def test_double_definition(self):
        text = "point A = (0,0)\npoint A = (1,0)\n"
        script, _ = parse(text)
        diags = check(script)
        assert any("already defined" in d.message for d in diags)

    def test_valid_i44_script_is_clean(self):
        text = (SCRIPTS / "i44.euc").read_text()
        script, diags = parse(text)
        assert not diags
        assert check(script) == []

    def test_unknown_strategy(self):
        text = ("point A = (0,0)\npoint B = (4,0)\nsegment ab = join(A, B)\n"
                "figure t = figure((3,4),(0,0),(6,0))\n"
                "angle d = angle((20,20),(21,20),(20,21))\n"
                "figure p = prop I.44 (ab, t, d) strategy bogus\n")
        script, _ = parse(text)
        diags = check(script)
        assert any("no strategy" in d.message for d in diags)

    @pytest.mark.parametrize("prop_id", ["I.99", "I.4"])
    def test_unknown_proposition(self, prop_id):
        text = ("point A = (0,0)\npoint B = (4,0)\nsegment ab = join(A, B)\n"
                f"figure t = prop {prop_id}(ab)\n")
        script, _ = parse(text)
        diags = check(script)
        assert [d.message for d in diags] == [
            f"unknown proposition {prop_id!r}"]

    @pytest.mark.parametrize("selector, message", [
        ("left_of()", "left_of takes 1 arguments, got 0"),
        ("left_of(c1)", "left_of expects (ray), got 'circle'"),
        ("right_of(r, l)", "right_of takes 1 arguments, got 2"),
        ("same_side(l)", "same_side takes 2 arguments, got 1"),
        ("opposite_side(c2, A)",
         "opposite_side expects (line, point), got 'circle'"),
        ("same_side(r, Z)", "use of undefined name 'Z'"),
    ])
    def test_selector_arguments(self, selector, message):
        script, diags = parse(
            SELECTOR_BASE + f"point P = intersect(c1, c2) {selector}\n")
        assert not diags
        assert [d.message for d in check(script)] == [message]

    def test_selector_line_accepts_segment_and_ray(self):
        script, _ = parse(SELECTOR_BASE
                          + "point P = intersect(c1, c2) same_side(s, (0,1))\n"
                          + "point Q = intersect(c1, c2) same_side(r, (0,1))\n")
        assert check(script) == []

    def test_side_word(self):
        script, _ = parse("segment s = join((0,0), (1,0))\n"
                          "figure T = prop I.1 (s) side sideways\n")
        assert [d.message for d in check(script)] == [
            "side must be 'upper' or 'lower', got 'sideways'"]

    def test_side_on_proposition_without_side(self):
        text = ("angle d = angle((0,0),(1,0),(0,1))\n"
                "figure f = figure((0,0),(4,0),(0,3))\n"
                "figure p = prop I.45 (d, f) side upper\n")
        script, _ = parse(text)
        assert [d.message for d in check(script)] == ["I.45 takes no side"]

    def test_one_name_per_yielded_object(self):
        script, _ = parse("figure pg = figure((0,0), (4,0), (6,3), (2,3))\n"
                          "point K = (2, 1)\n"
                          "figure u = prop I.43 (pg, K)\n"
                          "point P, Q = (0, 0)\n")
        assert [d.message for d in check(script)] == [
            "one name per yielded object: the expression yields 2, "
            "the declaration names 1",
            "one name per yielded object: the expression yields 1, "
            "the declaration names 2"]

    @pytest.mark.parametrize("call, message", [
        ("figure f = figure(A, B)", "figure takes at least 3 arguments, got 2"),
        ("figure f = figure(A, B, c1)",
         "figure expects (point, point, point), got 'circle'"),
        ("point P = intersect(A, c1)",
         "intersect expects (curve, curve), got 'point'"),
        ("point P = intersect(c1)", "intersect takes 2 arguments, got 1"),
    ])
    def test_irregular_words(self, call, message):
        script, _ = parse(SELECTOR_BASE + call + "\n")
        assert [d.message for d in check(script)] == [message]


def _grammar_words(rule: str) -> set[str]:
    """The quoted words of one rule of docs/grammar.ebnf."""
    text = (ROOT / "docs" / "grammar.ebnf").read_text()
    body = re.search(rf"^{rule}\s*=(.*?);", text, re.M | re.S).group(1)
    return set(re.findall(r'"([a-z_]+)"', body))


class TestWords:
    def test_every_word_script_uses_every_word(self):
        script, diags = parse(EVERY_WORD.read_text())
        assert not diags and check(script) == []
        decls = [st for st in script if isinstance(st, dsl.Decl)]
        calls = [st.expr for st in decls if isinstance(st.expr, dsl.Call)]
        assert {st.type for st in decls} == set(dsl.TYPES)
        assert {c.fn for c in calls} == set(dsl.PRIMITIVES)
        assert {c.selector.fn for c in calls if c.selector} == set(
            dsl.SELECTORS)
        assert {st.fn for st in script
                if isinstance(st, dsl.Call)} == set(dsl.PREDICATES)

    @pytest.mark.parametrize("rule, words", [
        ("type", dsl.TYPES),
        ("primitive call", dsl.PRIMITIVES),
        ("selector", dsl.SELECTORS),
        ("predicate", dsl.PREDICATES),
    ])
    def test_grammar_lists_the_registry(self, rule, words):
        assert _grammar_words(rule) == set(words)

    def test_type_word_is_class_name(self):
        # cli binds proposition parameters by the lower-case class name
        script, _ = parse(EVERY_WORD.read_text())
        result, _ = interpret(script)
        for st in script:
            if isinstance(st, dsl.Decl):
                for name in st.names:
                    obj = result.objects[name.ident]
                    assert type(obj).__name__.lower() == st.type


class TestInterpret:
    def test_i1_apex(self):
        text = (SCRIPTS / "i1.euc").read_text()
        result, _ = run(text)
        c = result.objects["C"]
        assert c == Point(Constructible(Fraction(1, 2)),
                          sqrt_nonneg(Constructible(3)) / 2)

    def test_result_names_each_object_and_checks_each_assertion(self):
        result, checks = run((SCRIPTS / "i44.euc").read_text())
        assert list(result.named) == ["A", "B", "ab", "t", "d", "par"]
        assert {role for role, _ in result.named.values()} == {"given"}
        assert result.trace.label == "script"
        assert checks.prop_id == "script"
        (claim, ok, residual), = checks.claims
        assert claim.startswith("8:1: assert area_eq(figure[point(4.000000, ")
        assert (ok, residual) == (True, "0")

    def test_i44_assertion_passes(self):
        _, checks = run((SCRIPTS / "i44.euc").read_text())
        assert checks.all_pass

    def test_undefined_name_in_an_unchecked_script(self):
        script, diags = parse("point A = (0,0)\nsegment s = join(A, B)\n")
        assert not diags
        with pytest.raises(ScriptError,
                           match="^2:21: undefined name 'B'$"):
            interpret(script)

    def test_selector_second_missing(self):
        text = ("point A = (0,0)\npoint B = (0,1)\npoint C = (1,1)\n"
                "line l = join(B, C)\ncircle c = circle(A, B)\n"
                "point P = intersect(l, c) second\n")
        script, diags = parse(text)
        assert not diags
        with pytest.raises(ScriptError) as err:
            interpret(script)
        assert err.value.span.line == 6

    def test_intersect_keeps_points_on_segment_or_ray(self):
        base = ("segment s = join((0,0), (2,0))\nray r = extend(s, b)\n"
                "circle c = circle((-5,0), (-4,0))\n"
                "circle u = circle((0,0), (1,0))\n")
        # the circle c meets the ray's line only behind its origin
        script, _ = parse(base + "point P = intersect(r, c) first\n")
        with pytest.raises(ScriptError, match="no intersection point"):
            interpret(script)
        # the segment keeps one of the two points where u meets its line
        result, _ = run(base + "point Q = intersect(s, u)\n")
        assert result.objects["Q"] == Point(Constructible(1), Constructible(0))

    def test_left_of_selector(self):
        text = ("point A = (0,0)\npoint B = (1,0)\n"
                "segment s = join(A, B)\nray r = extend(s, b)\n"
                "circle c1 = circle(A, B)\ncircle c2 = circle(B, A)\n"
                "point C = intersect(c1, c2) left_of(r)\n")
        result, _ = run(text)
        assert result.objects["C"].y.sign() > 0

    def test_opposite_side_selector(self):
        text = ("point A = (0,0)\npoint B = (1,0)\npoint Q = (0,-5)\n"
                "line l = join(A, B)\n"
                "circle c1 = circle(A, B)\ncircle c2 = circle(B, A)\n"
                "point C = intersect(c1, c2) opposite_side(l, Q)\n")
        result, _ = run(text)
        assert result.objects["C"].y.sign() > 0

    def test_deterministic_traces(self):
        text = (SCRIPTS / "i44.euc").read_text()
        a = trace_lines(run(text)[0].trace)
        new_context()
        b = trace_lines(run(text)[0].trace)
        assert a == b

    def test_prop_by_suffixed_id(self):
        """A suffixed id names no construction; the strategy word does."""
        given = "point A = (0,0)\npoint B = (3,0)\nsegment ab = join(A, B)\n"
        script, diags = parse(given + "figure sq = prop I.46.campanus2 (ab)\n")
        assert not diags
        assert list(map(str, check(script))) == [
            "4:13: error: unknown proposition 'I.46.campanus2'"]
        result, _ = run(given + "figure sq = prop I.46 (ab) "
                        "strategy campanus_second\n")
        assert len(result.objects["sq"].vertices) == 4

    def test_endpoint_words_whatever_is_declared(self):
        # Campanus letters his points a, b, g, ...: in an endpoint position
        # a and b are the endpoint words, elsewhere the declared names
        result, _ = run("point a = (0, 0)\npoint b = (1, 0)\n"
                        "segment s = join(a, b)\nray r = extend(s, b)\n"
                        "ray q = extend(s, a)\n")
        a, b, r, q = (result.objects[n] for n in "abrq")
        assert (r.origin, r.through) == (a, b)
        assert (q.origin, q.through) == (b, a)
        result, _ = run("point A = (0, 0)\npoint B = (1, 0)\n"
                        "segment b = join(A, B)\nray r = extend(b, a)\n")
        r = result.objects["r"]
        assert (r.origin, r.through) == (result.objects["B"],
                                         result.objects["A"])

    def test_i43_pair_binding(self):
        text = ("figure pg = figure((0,0), (4,0), (6,3), (2,3))\n"
                "point K = (2, 1)\n"
                "figure u, v = prop I.43 (pg, K)\n"
                "assert area_eq(u, v)\n")
        _, checks = run(text)
        assert checks.all_pass

    def test_prop_with_number_arguments(self):
        """I.22 takes three straight lines; a number is no argument."""
        ray = "segment s = join((0,0), (1,0))\nray r = extend(s, b)\n"
        lines = ("segment a = join((0,0), (3,0))\n"
                 "segment b = join((0,0), (4,0))\n"
                 "segment c = join((0,0), (5,0))\n")
        text = ray + lines + "figure T = prop I.22 (a, b, c, r)\n"
        assert run(text)[0].objects["T"].vertices[0] == Point(0, 3)
        _, diags = dsl.parse(ray + "figure T = prop I.22 (3, 4, 5, r)\n")
        assert [str(d) for d in diags] == [
            "3:23: error: expected an argument"]

    @pytest.mark.parametrize("call", ["I.11 ({}, C)", "I.12 ({}, D)",
                                      "I.31 (D, {})"])
    @pytest.mark.parametrize("given", ["s", "r"])
    def test_prop_takes_segment_or_ray_as_its_line(self, call, given):
        base = ("point A = (0,0)\npoint B = (4,0)\nsegment s = join(A, B)\n"
                "ray r = extend(s, b)\nline l = join(A, B)\n"
                "point C = (1,0)\npoint D = (1,3)\n")
        want, _ = run(base + f"line p = prop {call.format('l')}\n")
        got, _ = run(base + f"line p = prop {call.format(given)}\n")
        assert got.objects["p"] == want.objects["p"]

    @pytest.mark.parametrize("selector, x", [("first", -1), ("second", 1)])
    def test_intersect_circle_first(self, selector, x):
        text = ("circle c = circle((0,0), (1,0))\n"
                "line l = join((-2,0), (2,0))\n"
                f"point P = intersect(c, l) {selector}\n")
        assert run(text)[0].objects["P"] == Point(x, 0)

    def test_failed_assertion_recorded(self):
        text = ("point A = (0,0)\npoint B = (1,0)\npoint C = (5,5)\n"
                "assert collinear(A, B, C)\n")
        _, checks = run(text)
        assert not checks.all_pass



C = Constructible

COORDINATES = [
    ("1 + 2 * 3", lambda: C(1) + C(2) * C(3)),
    ("5 - 2 - 1", lambda: (C(5) - C(2)) - C(1)),
    ("8 / 4 / 2", lambda: (C(8) / C(4)) / C(2)),
    ("-(1)/2", lambda: -C(1) / C(2)),
    ("- -3", lambda: -(-C(3))),
    ("sqrt(5 + 2*sqrt(6))", lambda: sqrt_nonneg(C(2)) + sqrt_nonneg(C(3))),
]


class TestCoordinates:
    @pytest.mark.parametrize("text, expected", COORDINATES,
                             ids=[t for t, _ in COORDINATES])
    def test_value(self, text, expected):
        result, _ = run(f"point P = ({text}, {text})\n")
        want = expected()
        assert result.objects["P"] == Point(want, want)

    @pytest.mark.parametrize("text, error", [
        ("point P = (sqrt(0 - 1), 0)\n", "1:1: NegativeRadicand: "),
        ("point P = (1/0, 0)\n", "1:1: DivisionByZero: "),
        ("point A = (0, 0)\nsegment s = join(A, A)\n",
         "2:1: DegenerateInput: segment endpoints coincide"),
        ("point A = (0, 0)\nline l = join(A, A)\n",
         "2:1: DegenerateInput: a line needs two distinct points"),
    ], ids=["sqrt(0 - 1)-NegativeRadicand", "1/0-DivisionByZero",
            "join-segment-coincident", "join-line-coincident"])
    def test_run_fails(self, tmp_path, capsys, text, error):
        from euclid.cli import main

        script = tmp_path / "bad.euc"
        script.write_text(text)
        assert main(["run", str(script)]) == 1
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("point P = (\u00b2, 0)\n",
         "1:12: error: unexpected character '\u00b2'"),
        (f"point P = ({'7' * (sys.get_int_max_str_digits() + 1)}, 0)\n",
         f"1:12: error: number longer than {sys.get_int_max_str_digits()} "
         "digits"),
        ("point A\u00b2 = (0, 0)\n",
         "1:8: error: unexpected character '\u00b2'"),
    ], ids=["superscript", "over-long", "superscript-in-name"])
    def test_parse_fails(self, tmp_path, capsys, text, error):
        from euclid.cli import main

        script = tmp_path / "bad.euc"
        script.write_text(text, encoding="utf-8")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr().err.startswith(error)
