import os
from pathlib import Path

import pytest

from euclid.cli import main
from euclid.number import new_context

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(autouse=True)
def _fresh_field():
    new_context()
    os.environ.pop("EUCLID_SEED", None)


class TestRun:
    def test_clean_script(self, capsys):
        assert main(["run", str(SCRIPTS / "i44.euc")]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_svg_written(self, tmp_path, capsys):
        target = tmp_path / "i1.svg"
        assert main(["run", str(SCRIPTS / "i1.euc"), "--svg", str(target)]) == 0
        assert target.read_bytes().startswith(b"<svg")

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

    def test_missing_input(self, tmp_path, capsys):
        missing = str(tmp_path / "none.txt")
        assert main(["prop", "I.44", "--input", missing]) == 2
        assert "No such file" in capsys.readouterr().err
        assert main(["compare", "I.44", "--strategies", "alnayrizi",
                     "--input", missing]) == 2
        assert "No such file" in capsys.readouterr().err

    def test_degenerate_input(self, tmp_path, capsys):
        inst = tmp_path / "inst.txt"
        inst.write_text("point A = (0,0)\nsegment ab = join(A, A)\n")
        assert main(["prop", "I.1", "--input", str(inst)]) == 2
        assert "DegenerateInput" in capsys.readouterr().err

    def test_svg(self, tmp_path, capsys):
        target = tmp_path / "p.svg"
        assert main(["prop", "I.1", "--seed", "3", "--svg", str(target)]) == 0
        assert target.exists()


class TestSuite:
    def test_i44_suite(self, capsys):
        code = main(["suite", "I.44", "--n", "2", "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "failures=0" in out
        assert "superpositions[euclid_superposition]=2" in out

    def test_env_seed_override(self, capsys):
        os.environ["EUCLID_SEED"] = "11"
        try:
            main(["suite", "I.1", "--n", "2", "--seed", "5"])
            out = capsys.readouterr().out
            assert "seed=11" in out
        finally:
            del os.environ["EUCLID_SEED"]

    def test_unknown_suite(self, capsys):
        assert main(["suite", "I.99", "--n", "1"]) == 2


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
