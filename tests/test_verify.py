import pytest

from euclid import elements, verify
from euclid.errors import DegenerateInput, UnknownProposition
from euclid.verify import compare, generate_instance, run_suite


class TestSuites:
    def test_i1_all_pass(self):
        report = run_suite("I.1", 20, seed=7)
        assert report.failures == 0
        assert report.runs == 20

    def test_i44_superposition_ledger(self):
        report = run_suite("I.44", 10, seed=7)
        assert report.failures == 0
        totals = report.superposition_totals()
        assert totals["euclid_superposition"] == 10
        assert totals["alnayrizi"] == 0
        assert totals["robert_of_chester"] == 0
        assert totals["campanus"] == 0
        assert totals["tinemue_equal_case"] == 0

    def test_i43_exact(self):
        report = run_suite("I.43", 15, seed=7)
        assert report.failures == 0

    def test_theorem_suite(self):
        report = run_suite("I.41", 15, seed=3)
        assert report.failures == 0

    def test_error_line(self, monkeypatch):
        def construction(*args, **kwargs):
            raise DegenerateInput("no figure")

        monkeypatch.setitem(elements.CONSTRUCTIONS, "I.1", construction)
        report = run_suite("I.1", 2, seed=7)
        assert report.failures == 2
        assert [line for line in report.lines() if "\tERROR\t" in line] == [
            f"instance {i} [-]\tERROR\tDegenerateInput: no figure"
            for i in range(2)]

    def test_unknown_id(self):
        with pytest.raises(UnknownProposition):
            run_suite("I.99", 1, seed=0)

    def test_deterministic(self):
        a = run_suite("I.23.proclus", 5, seed=11)
        b = run_suite("I.23.proclus", 5, seed=11)
        assert a.lines() == b.lines()

    def test_strategy_suffix(self):
        report = run_suite("I.44.chester", 5, seed=2)
        assert report.failures == 0
        assert report.superposition_totals() == {"robert_of_chester": 0}


class TestCompare:
    def test_i23_euclid_vs_proclus(self):
        import random

        from euclid.number import new_context

        new_context()
        rng = random.Random(5)
        kwargs = generate_instance("I.23", rng)
        report = compare("I.23", {"euclid": kwargs, "proclus": kwargs})
        assert all(oc.passed for oc in report.outcomes.values())
        eu = report.outcomes["euclid"]
        pr = report.outcomes["proclus"]
        assert eu.costs["circles"] == pr.costs["circles"] == 2
        assert eu.costs["joins"] != pr.costs["joins"]

    def test_i44_superposition_difference(self):
        import random

        from euclid.number import new_context

        new_context()
        rng = random.Random(6)
        kwargs = generate_instance("I.44", rng)
        report = compare("I.44", {"euclid_superposition": kwargs,
                                  "alnayrizi": kwargs})
        costs = {name: oc.costs for name, oc in report.outcomes.items()}
        assert costs["euclid_superposition"]["superpositions"] == 1
        assert costs["alnayrizi"]["superpositions"] == 0

    def test_i46_identical_vertex_sets(self):
        import random

        from euclid.number import new_context

        new_context()
        rng = random.Random(8)
        kwargs = generate_instance("I.46", rng)
        from euclid.elements.areas import p46_square

        a = p46_square(**dict(kwargs, strategy="campanus_first"))
        b = p46_square(**dict(kwargs, strategy="campanus_second"))
        assert set(a.result.vertices) == set(b.result.vertices)

    def test_strategy_must_agree_with_suffix(self):
        import random

        from euclid.number import new_context

        new_context()
        kwargs = generate_instance("I.44", random.Random(6))
        with pytest.raises(UnknownProposition,
                           match="I.44.chester names 'robert_of_chester', "
                                 "not 'alnayrizi'"):
            compare("I.44.chester", {"alnayrizi": kwargs})

    def test_records_export(self):
        import random

        from euclid.number import new_context

        new_context()
        rng = random.Random(5)
        kwargs = generate_instance("I.42", rng)
        report = compare("I.42", {"euclid": kwargs, "alnayrizi": kwargs})
        recs = report.records()
        assert len(recs) == 2
        assert {r["strategy"] for r in recs} == {"euclid", "alnayrizi"}
        assert all(r["passed"] for r in recs)


class TestGenerators:
    @pytest.mark.parametrize("prop_id", verify.SUITE_IDS)
    def test_small_suite_everywhere(self, prop_id):
        report = run_suite(prop_id, 4, seed=13)
        assert report.failures == 0, "\n".join(report.lines())
