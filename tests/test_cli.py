import os
import subprocess
import sys
from pathlib import Path

import pytest

import euclid
from euclid.cli import build_parser, main
from euclid.elements import validate_call
from euclid.number import new_context

TESTS = Path(__file__).resolve().parent
SCRIPTS = TESTS.parent / "scripts"

# an I.44 instance in a right angle; its triangle's apex is filled in
TRIANGLE_IN_RIGHT_ANGLE = (
    "point A = (0,0)\npoint B = (4,0)\nsegment ab = join(A, B)\n"
    "figure t = figure({},(0,0),(6,0))\n"
    "angle d = angle((20,20),(21,20),(20,21))\n")
TINEMUE_TILTED = ("StrategyInapplicable: the bisecting slant does not equal "
                  "the given angle; the tilted cases are out of scope")

SELECTOR_BASE = ("point A = (0,0)\npoint B = (2,0)\nsegment s = join(A, B)\n"
                 "ray r = extend(s, b)\n"
                 "circle c1 = circle(A, B)\ncircle c2 = circle(B, A)\n")


@pytest.fixture(autouse=True)
def _fresh_field():
    new_context()


class TestRun:
    def test_clean_script(self, capsys):
        assert main(["run", str(SCRIPTS / "i44.euc")]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_script_file_is_closed(self):
        # development mode shows the ResourceWarning of an unclosed file,
        # and -W error turns that or any other warning into a failure
        env = dict(os.environ,
                   PYTHONPATH=str(Path(euclid.__file__).resolve().parents[1]))
        for argv in (["run", str(SCRIPTS / "i1.euc")],
                     ["run", str(SCRIPTS / "i44.euc")],
                     ["prop", "I.45", "--input", str(SCRIPTS / "decagon.txt")]):
            got = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m", "euclid",
                 *argv], capture_output=True, text=True, env=env)
            assert got.returncode == 0, got.stderr
            assert got.stderr == ""

    def test_svg_written(self, tmp_path, capsys):
        target = tmp_path / "i1.svg"
        assert main(["run", str(SCRIPTS / "i1.euc"), "--svg", str(target)]) == 0
        assert target.read_bytes().startswith(b"<svg")

    def test_svg_unwritable_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "i1.svg"
        assert main(["run", str(SCRIPTS / "i1.euc"), "--svg", str(target)]) == 2
        assert f"cannot write {target}: " in capsys.readouterr().err

    def test_svg_nothing_drawable_exit_2(self, tmp_path, capsys):
        script = tmp_path / "comment.euc"
        script.write_text("# nothing to draw\n")
        target = tmp_path / "empty.svg"
        assert main(["run", str(script), "--svg", str(target)]) == 2
        assert capsys.readouterr().err == "no drawable objects\n"
        assert not target.exists()

    def test_svg_line_and_ray_without_direction_exit_0(
            self, tmp_path, capsys):
        # A and B round to one model point, so the line and the ray have
        # no direction to draw: only the segment's zero-length line is drawn
        script = tmp_path / "tiny.euc"
        script.write_text("point A = (0, 0)\npoint B = (1/10000000, 0)\n"
                          "line l = join(A, B)\nsegment s = join(A, B)\n"
                          "ray r = extend(s, b)\n")
        target = tmp_path / "tiny.svg"
        assert main(["run", str(script), "--svg", str(target)]) == 0
        assert target.read_text().count("<line ") == 1

    def test_strategy_conflicts_with_suffix_exit_2(self, tmp_path, capsys):
        script = tmp_path / "conflict.euc"
        script.write_text(
            "point A = (0,0)\npoint B = (4,0)\nsegment ab = join(A, B)\n"
            "figure t = figure((3,4),(0,0),(6,0))\n"
            "angle d = angle((20,20),(21,20),(20,21))\n"
            "figure p = prop I.44.chester (ab, t, d) strategy alnayrizi\n")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr().err == (
            "6:12: error: unknown proposition 'I.44.chester'\n")

    def test_script_not_utf8_exit_2(self, tmp_path, capsys):
        script = tmp_path / "latin1.euc"
        script.write_bytes(b"point A = (0,0) # \xff\n")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr().err == (
            f"{script}: 'utf-8' codec can't decode byte 0xff in position 18: "
            "invalid start byte\n")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.euc"
        bad.write_text("point A = (0 0)\n")
        assert main(["run", str(bad)]) == 2
        assert "expected" in capsys.readouterr().err

    def test_unknown_prop_exit_2(self, tmp_path, capsys):
        script = tmp_path / "u.euc"
        script.write_text("point A = (0,0)\npoint B = (4,0)\n"
                          "segment ab = join(A, B)\nfigure t = prop I.4(ab)\n")
        assert main(["run", str(script)]) == 2
        assert "unknown proposition 'I.4'" in capsys.readouterr().err

    def test_long_coordinate_exit_0(self, tmp_path, capsys):
        script = tmp_path / "sum.euc"
        script.write_text(f"point A = ({' + '.join(['1'] * 1200)}, 0)\n"
                          "assert collinear(A, A, A)\n")
        assert main(["run", str(script)]) == 0
        assert "point(1200.000000, 0.000000)" in capsys.readouterr().out

    def test_long_literals_trace_exit_0(self, tmp_path, capsys):
        # the product has 4400 digits, past the int-to-str limit of 4300
        a, b = "1" + "2" * 2199, "3" + "4" * 2199
        script = tmp_path / "long.euc"
        script.write_text(f"point A = ({a}, {b})\npoint B = ({a} * {b}, 0)\n"
                          "segment s = join(A, B)\n")
        assert main(["run", str(script), "--trace"]) == 0
        assert f"point({a}.000000, {b}.000000)" in capsys.readouterr().out

    def test_deep_coordinate_exit_2(self, tmp_path, capsys):
        script = tmp_path / "parens.euc"
        script.write_text(f"point A = ({'(' * 400}1{')' * 400}, 0)\n")
        assert main(["run", str(script)]) == 2
        assert "1:76: error: coordinate nested more than 64 levels deep" \
            in capsys.readouterr().err

    def test_failing_assertion_exit_1(self, tmp_path, capsys):
        script = tmp_path / "f.euc"
        script.write_text("point A = (0,0)\npoint B = (1,0)\npoint C = (3,4)\n"
                          "assert collinear(A, B, C)\n")
        assert main(["run", str(script)]) == 1

    def test_trace_deterministic(self, tmp_path, capsys):
        main(["run", str(SCRIPTS / "i44.euc"), "--trace"])
        first = capsys.readouterr().out
        new_context()
        main(["run", str(SCRIPTS / "i44.euc"), "--trace"])
        second = capsys.readouterr().out
        assert first == second

    def test_every_word_trace_pinned(self, capsys):
        assert main(["run", str(TESTS / "every_word.euc"), "--trace"]) == 0
        expected = (TESTS / "every_word.out").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected

    def test_declared_b_is_still_the_endpoint_word(self, tmp_path, capsys):
        script = tmp_path / "campanus.euc"
        script.write_text("point a = (0, 0)\npoint b = (1, 0)\n"
                          "segment s = join(a, b)\nray r = extend(s, b)\n")
        assert main(["run", str(script), "--trace"]) == 0
        assert "extend (beyond b)" in capsys.readouterr().out

    @pytest.mark.parametrize("last, where", [
        ("segment s = join(A, a)", "5:21"),
        ("assert collinear(A, B, a)", "5:24"),
        ("point P = intersect(l, c) left_of(b)", "5:35"),
    ])
    def test_undeclared_a_or_b_elsewhere_is_undefined(self, tmp_path, capsys,
                                                      last, where):
        # only an endpoint position reads a and b as the endpoint words
        script = tmp_path / "undeclared.euc"
        script.write_text("point A = (0, 0)\npoint B = (4, 0)\n"
                          "line l = join(A, B)\ncircle c = circle(A, B)\n"
                          + last + "\n")
        assert main(["run", str(script)]) == 2
        name = last[-2]
        assert capsys.readouterr().err == (
            f"{where}: error: use of undefined name {name!r}\n")

    @pytest.mark.parametrize("selector, message", [
        ("left_of()", "left_of takes 1 arguments, got 0"),
        ("same_side(s)", "same_side takes 2 arguments, got 1"),
        ("left_of(c1)", "left_of expects (ray), got 'circle'"),
    ])
    def test_selector_arguments_exit_2(self, tmp_path, capsys, selector,
                                       message):
        script = tmp_path / "sel.euc"
        script.write_text(SELECTOR_BASE
                          + f"point P = intersect(c1, c2) {selector}\n")
        assert main(["run", str(script)]) == 2
        assert f"7:29: error: {message}" in capsys.readouterr().err
        assert main(["prop", "I.1", "--input", str(script)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, code, err", [
        ("point A = (0,0)\nassert foo(A)\n", 2,
         "2:11: error: unknown predicate 'foo' (one of seg_eq, angle_eq, "
         "area_eq, parallel, right_angle, collinear)"),
        ("point 3 = (0, 0)\n", 2, "1:7: error: expected a name"),
        ("point B = (1,1)\npoint A = foo(B)\n", 2,
         "2:11: error: expected a point literal, a primitive call, or 'prop'"),
        ("segment s = join((0,0),(1,0))\nfigure p = prop 42 (s)\n", 2,
         "2:17: error: expected a proposition identifier such as I.42"),
        (SELECTOR_BASE + "line l = join(A, B)\npoint P = (1, 0)\n"
         "point C = intersect(c1, c2) same_side(l, P)\n", 1,
         "9:29: reference point lies on the line"),
    ])
    def test_diagnostic_and_exit_code(self, tmp_path, capsys, text, code,
                                      err):
        script = tmp_path / "diag.euc"
        script.write_text(text)
        assert main(["run", str(script)]) == code
        assert capsys.readouterr().err == err + "\n"

    def test_side_on_proposition_without_side(self, tmp_path, capsys):
        script = tmp_path / "side.euc"
        script.write_text("angle d = angle((0,0),(1,0),(0,1))\n"
                          "figure f = figure((0,0),(4,0),(0,3))\n"
                          "figure p = prop I.45 (d, f) side upper\n")
        assert main(["run", str(script)]) == 2
        assert "I.45 takes no side" in capsys.readouterr().err

    def test_side_word_exit_2(self, tmp_path, capsys):
        script = tmp_path / "side.euc"
        script.write_text("segment s = join((0,0), (1,0))\n"
                          "figure T = prop I.1 (s) side sideways\n")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr().err == (
            "2:12: error: side must be 'upper' or 'lower', got 'sideways'\n")

    def test_three_names_exit_2(self, tmp_path, capsys):
        script = tmp_path / "three.euc"
        script.write_text("figure pg = figure((0,0), (4,0), (6,3), (2,3))\n"
                          "point K = (2, 1)\n"
                          "figure u, v, w = prop I.43 (pg, K)\n")
        assert main(["run", str(script)]) == 2
        assert "3:12: error: expected '='" in capsys.readouterr().err

    def test_one_name_for_two_complements_exit_2(self, tmp_path, capsys):
        script = tmp_path / "one.euc"
        script.write_text("figure pg = figure((0,0), (4,0), (6,3), (2,3))\n"
                          "point K = (2, 1)\n"
                          "figure T = prop I.43 (pg, K)\n")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr().err == (
            "3:1: error: one name per yielded object: the expression yields "
            "2, the declaration names 1\n")

    def test_repeated_prop_keywords_exit_2(self, tmp_path, capsys):
        script = tmp_path / "twice.euc"
        script.write_text(TRIANGLE_IN_RIGHT_ANGLE.format("(3,4)")
                          + "figure p = prop I.44 (ab, t, d) strategy alnayrizi"
                          " side upper strategy campanus side lower\n")
        assert main(["run", str(script)]) == 2
        assert capsys.readouterr().err == (
            "6:63: error: unexpected trailing tokens\n")

    def test_circle_through_its_centre_exit_1(self, tmp_path, capsys):
        script = tmp_path / "circle.euc"
        script.write_text("point A = (0, 0)\ncircle c = circle(A, A)\n")
        assert main(["run", str(script)]) == 1
        assert capsys.readouterr().err == (
            "2:1: DegenerateInput: circle must have positive radius\n")


class TestProp:
    def test_decagon_triangles(self, capsys):
        code = main(["prop", "I.45", "--input", str(SCRIPTS / "decagon.txt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "triangles: 8" in out

    def test_prop_with_strategy(self, capsys):
        code = main(["prop", "I.44", "--strategy", "alnayrizi", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "superpositions=0" in out

    def test_unknown_prop(self, capsys):
        assert main(["prop", "I.77"]) == 2

    def test_side_word_exit_2(self, capsys):
        assert main(["prop", "I.1", "--side", "left"]) == 2
        assert capsys.readouterr().err == (
            "side must be 'upper' or 'lower', got 'left'\n")

    def test_side_not_a_parameter(self, capsys):
        for prop_id in ("I.45", "I.10"):
            assert main(["prop", prop_id, "--side", "upper"]) == 2
            assert f"{prop_id} takes no side" in capsys.readouterr().err
        assert main(["prop", "I.1", "--side", "lower", "--seed", "3"]) == 0

    def test_strategy_by_name_alone(self, capsys):
        # the header names the run; the id it is run by is the bare id
        for argv in (["prop", "I.44.chester"],
                     ["prop", "I.44.robert_of_chester"],
                     ["prop", "I.44.chester", "--strategy", "alnayrizi"]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"unknown proposition {argv[1]!r}\n"
        assert main(["prop", "I.44", "--strategy", "robert_of_chester",
                     "--seed", "3"]) == 0
        assert "# I.44.robert_of_chester" in capsys.readouterr().out

    def test_strategy_on_degenerate_input_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text(
            "point A = (0,0)\npoint B = (4,0)\nsegment ab = join(A, B)\n"
            "figure t = figure((0,0),(1,1),(2,2))\n"
            "angle d = angle((20,20),(21,20),(20,21))\n")
        assert main(["prop", "I.44", "--strategy", "tinemue_equal_case",
                     "--input", str(inst)]) == 1
        assert capsys.readouterr().err == (
            "PreconditionViolated: degenerate (collinear) triangle\n")

    def test_given_instance_runs_as_given(self, tmp_path, capsys):
        # a drawn instance gets Tinemue's matching angle; a given one keeps
        # its own angle, which fits the isosceles triangle only
        inst = tmp_path / "inst.txt"
        argv = ["prop", "I.44", "--strategy", "tinemue_equal_case",
                "--input", str(inst)]
        inst.write_text(TRIANGLE_IN_RIGHT_ANGLE.format("(1,4)"))
        assert main(argv) == 1
        assert capsys.readouterr().err == TINEMUE_TILTED + "\n"
        inst.write_text(TRIANGLE_IN_RIGHT_ANGLE.format("(3,4)"))
        assert main(argv) == 0
        assert "# I.44.tinemue_equal_case" in capsys.readouterr().out

    def test_input_not_utf8_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_bytes(b"\xff")
        assert main(["prop", "I.1", "--input", str(inst)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{inst}: 'utf-8' codec can't decode")

    def test_missing_input(self, tmp_path, capsys):
        missing = str(tmp_path / "none.txt")
        assert main(["prop", "I.44", "--input", missing]) == 2
        assert "No such file" in capsys.readouterr().err
        assert main(["compare", "I.44", "--strategies", "alnayrizi",
                     "--input", missing]) == 2
        assert "No such file" in capsys.readouterr().err

    def test_input_without_a_parameter_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("point A = (0,0)\npoint B = (4,0)\n"
                        "segment ab = join(A, B)\n")
        assert main(["prop", "I.44", "--input", str(inst)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{inst}: no figure found for parameter 't' of I.44\n")

    def test_input_binds_a_number_to_a_segment_length(self, tmp_path,
                                                      capsys):
        # I.22 takes three lengths, each the length of a declared segment
        inst = tmp_path / "lengths.euc"
        inst.write_text("point O = (0, 0)\npoint A = (3, 0)\n"
                        "point B = (4, 0)\npoint C = (5, 0)\n"
                        "segment p = join(O, A)\nsegment q = join(O, B)\n"
                        "segment u = join(O, C)\npoint E = (1, 0)\n"
                        "segment s = join(O, E)\nray r = extend(s, b)\n")
        assert main(["prop", "I.22", "--input", str(inst)]) == 0
        assert capsys.readouterr().out == (
            "# I.22\n"
            "KF equals the first length\tPASS\t0\n"
            "FG equals the second length\tPASS\t0\n"
            "GK equals the third length\tPASS\t0\n"
            "the second side lies along the ray from its origin\tPASS\t0\n"
            "joins=2 extends=0 circles=2 superpositions=0 "
            "max_radical_depth=0\n")

    def test_degenerate_input(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("point A = (0,0)\nsegment ab = join(A, A)\n")
        assert main(["prop", "I.1", "--input", str(inst)]) == 2
        assert "DegenerateInput" in capsys.readouterr().err

    def test_svg(self, tmp_path, capsys):
        target = tmp_path / "p.svg"
        assert main(["prop", "I.1", "--seed", "3", "--svg", str(target)]) == 0
        assert target.exists()

    def test_svg_unwritable_exit_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "p.svg"
        assert main(["prop", "I.1", "--seed", "3", "--svg", str(target)]) == 2
        assert f"cannot write {target}: " in capsys.readouterr().err


class TestSuite:
    def test_i44_suite(self, capsys):
        code = main(["suite", "I.44", "--n", "2", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "failures=0" in out
        assert "superpositions[euclid_superposition]=2" in out

    def test_unknown_suite(self, capsys):
        assert main(["suite", "I.99", "--n", "1"]) == 2
        assert capsys.readouterr().err == "unknown proposition 'I.99'\n"

    def test_negative_count(self, capsys):
        assert main(["suite", "I.1", "--n", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "--n must be a non-negative integer, got -1\n"


class TestCompare:
    def test_i44_compare(self, capsys):
        code = main(["compare", "I.44",
                     "--strategies", "euclid_superposition,alnayrizi",
                     "--seed", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "strategy=euclid_superposition" in out
        assert "superpositions=1" in out and "superpositions=0" in out

    def test_bad_strategy(self, capsys):
        assert main(["compare", "I.44", "--strategies", "nope"]) == 2

    def test_suffixed_id_exit_2(self, capsys):
        assert main(["compare", "I.44.chester",
                     "--strategies", "alnayrizi"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "unknown proposition 'I.44.chester'\n"

    def test_empty_strategy_list(self, capsys):
        assert main(["compare", "I.44", "--strategies", ","]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--strategies" in captured.err

    def test_instance_file(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text(
            "point A = (0,0)\npoint B = (4,0)\nsegment ab = join(A, B)\n"
            "figure t = figure((3,4),(0,0),(6,0))\n"
            "angle d = angle((20,20),(21,20),(20,21))\n")
        code = main(["compare", "I.44", "--strategies",
                     "alnayrizi,campanus", "--input", str(inst)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") >= 8

    def test_instance_file_runs_as_given(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        argv = ["compare", "I.44", "--strategies",
                "alnayrizi,tinemue_equal_case", "--input", str(inst)]
        inst.write_text(TRIANGLE_IN_RIGHT_ANGLE.format("(1,4)"))
        assert main(argv) == 1
        out = capsys.readouterr().out.splitlines()
        assert f"tinemue_equal_case\tERROR\t{TINEMUE_TILTED}" in out
        assert not any(line.startswith("alnayrizi: ") and "\tFAIL\t" in line
                       for line in out)
        inst.write_text(TRIANGLE_IN_RIGHT_ANGLE.format("(3,4)"))
        assert main(argv) == 0


class TestMain:
    def test_help_exit_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: euclid")

    def test_closed_stdout_exit_0(self, monkeypatch):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["suite", "I.1", "--n", "1"]) == 0

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_every_record_names_a_call(self, capsys):
        """Each ``--records`` line names its run by a proposition and a
        strategy that a call takes as they stand."""
        assert main(["suite", "all", "--n", "1", "--records"]) == 0
        records = [dict(field.split("=", 1) for field in line.split(" "))
                   for line in capsys.readouterr().out.splitlines()]
        named = {(r["proposition"], r["strategy"]) for r in records
                 if r["strategy"] != "-"}
        assert len(named) == 15
        for prop_id, strategy in named:
            validate_call(prop_id, strategy)

    def test_readme_commands_parse_and_resolve(self):
        """Every ``euclid ...`` line of the README's "Command line" block
        parses, names files that exist, and passes its id and strategies
        to ``validate_call``, so a removed id form cannot stay
        documented."""
        text = (TESTS.parent / "README.md").read_text(encoding="utf-8")
        block = text.split("## Command line\n", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        argvs = [line.split()[1:] for line in block.splitlines()
                 if line.startswith("euclid ")]
        assert len(argvs) == 7
        for argv in argvs:
            args = build_parser().parse_args(argv)
            for path in (getattr(args, "script", None),
                         getattr(args, "input", None)):
                assert path is None or (TESTS.parent / path).is_file(), argv
            if args.command == "run" or args.id == "all":
                continue
            strategies = (args.strategies.split(",")
                          if args.command == "compare"
                          else [getattr(args, "strategy", None)])
            for strategy in strategies:
                validate_call(args.id, strategy, getattr(args, "side", None))

    def test_records_flag_is_not_kept(self, capsys):
        assert main(["suite", "I.1", "--n", "1", "--records"]) == 0
        records = capsys.readouterr().out.splitlines()
        assert records and all(r.startswith("proposition=") for r in records)
        assert main(["suite", "I.1", "--n", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# suite I.1 n=1 seed=7"
        assert not any(line.startswith("proposition=") for line in lines)

    def test_same_call_twice_same_stdout(self, capsys):
        assert main(["prop", "I.1", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["prop", "I.1", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_usage_error_and_help_leave_the_next_call_working(self, capsys):
        assert main(["prop"]) == 2
        assert main(["--help"]) == 0
        capsys.readouterr()
        assert main(["prop", "I.1", "--seed", "3"]) == 0
        assert capsys.readouterr().out.startswith("# I.1\n")
