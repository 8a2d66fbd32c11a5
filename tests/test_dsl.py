from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from euclid import dsl
from euclid.dsl import ScriptError, check, interpret, parse, pretty
from euclid.geom import Point
from euclid.number import Constructible, new_context, sqrt_nonneg

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(autouse=True)
def _fresh_field():
    new_context()


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
        assert len(script.statements) == 1

    def test_missing_comma_is_reported(self):
        script, diags = parse("point A = (0 0)\n")
        assert len(diags) == 1
        assert diags[0].span.line == 1
        assert "expected ','" in diags[0].message

    def test_i1_script_has_six_statements(self):
        text = (SCRIPTS / "i1.euc").read_text()
        script, diags = parse(text)
        assert not diags
        assert len(script.statements) == 6

    def test_recovery_at_statement_boundaries(self):
        text = "point A = (0, 0)\npoint B = (1 0)\npoint C = (2, 0)\n"
        script, diags = parse(text)
        assert len(diags) == 1
        assert len(script.statements) == 2

    def test_spans_inside_source(self):
        text = "point A = (0, 0)\nbogus line here\n"
        script, diags = parse(text)
        lines = text.splitlines()
        for d in diags:
            assert 1 <= d.span.line <= len(lines)
            assert 1 <= d.span.col <= len(lines[d.span.line - 1]) + 1

    def test_radical_coordinates(self):
        inter = run("point P = (sqrt(3)/2, 1/2)\n")
        p = inter.env["P"]
        assert (p.x - sqrt_nonneg(Constructible(3)) / 2).is_zero()
        assert (p.y - Constructible(Fraction(1, 2))).is_zero()


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


class TestInterpret:
    def test_i1_apex(self):
        text = (SCRIPTS / "i1.euc").read_text()
        inter = run(text)
        c = inter.env["C"]
        assert c == Point(Constructible(Fraction(1, 2)),
                          sqrt_nonneg(Constructible(3)) / 2)

    def test_i44_assertion_passes(self):
        inter = run((SCRIPTS / "i44.euc").read_text())
        assert inter.all_assertions_pass

    def test_selector_second_missing(self):
        text = ("point A = (0,0)\npoint B = (0,1)\npoint C = (1,1)\n"
                "line l = join(B, C)\ncircle c = circle(A, B)\n"
                "point P = intersect(l, c) second\n")
        script, diags = parse(text)
        assert not diags
        with pytest.raises(ScriptError) as err:
            interpret(script)
        assert err.value.span.line == 6

    def test_left_of_selector(self):
        text = ("point A = (0,0)\npoint B = (1,0)\n"
                "segment s = join(A, B)\nray r = extend(s, b)\n"
                "circle c1 = circle(A, B)\ncircle c2 = circle(B, A)\n"
                "point C = intersect(c1, c2) left_of(r)\n")
        inter = run(text)
        assert inter.env["C"].y.sign() > 0

    def test_opposite_side_selector(self):
        text = ("point A = (0,0)\npoint B = (1,0)\npoint Q = (0,-5)\n"
                "line l = join(A, B)\n"
                "circle c1 = circle(A, B)\ncircle c2 = circle(B, A)\n"
                "point C = intersect(c1, c2) opposite_side(l, Q)\n")
        inter = run(text)
        assert inter.env["C"].y.sign() > 0

    def test_deterministic_traces(self):
        text = (SCRIPTS / "i44.euc").read_text()
        a = run(text).trace_text()
        new_context()
        b = run(text).trace_text()
        assert a == b

    def test_prop_by_suffixed_id(self):
        text = ("point A = (0,0)\npoint B = (3,0)\nsegment ab = join(A, B)\n"
                "figure sq = prop I.46.campanus2 (ab)\n")
        inter = run(text)
        assert len(inter.env["sq"].vertices) == 4

    def test_i43_pair_binding(self):
        text = ("figure pg = figure((0,0), (4,0), (6,3), (2,3))\n"
                "point K = (2, 1)\n"
                "figure u, v = prop I.43 (pg, K)\n"
                "assert area_eq(u, v)\n")
        inter = run(text)
        assert inter.all_assertions_pass

    def test_failed_assertion_recorded(self):
        text = ("point A = (0,0)\npoint B = (1,0)\npoint C = (5,5)\n"
                "assert collinear(A, B, C)\n")
        inter = run(text)
        assert not inter.all_assertions_pass


class TestPretty:
    def test_round_trip_identity(self):
        text = (SCRIPTS / "i44.euc").read_text()
        script, _ = parse(text)
        printed = pretty(script)
        script2, diags = parse(printed)
        assert not diags
        assert pretty(script2) == printed

    def test_round_trip_i1(self):
        script, _ = parse((SCRIPTS / "i1.euc").read_text())
        printed = pretty(script)
        script2, _ = parse(printed)
        assert pretty(script2) == printed

    @given(st.integers(-40, 40), st.integers(1, 12), st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_coordinate_round_trip(self, num, den, rad):
        text = f"point P = ({num}/{den} + sqrt({rad}), -{den})\n"
        script, diags = parse(text)
        assert not diags
        printed = pretty(script)
        script2, diags2 = parse(printed)
        assert not diags2
        assert pretty(script2) == printed
