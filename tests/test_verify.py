import pytest

from euclid import elements, verify
from euclid.elements import instances
from euclid.errors import DegenerateInput, UnknownProposition
from euclid.number import current_context, sqrt_nonneg
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
        a = run_suite("I.23", 5, seed=11)
        b = run_suite("I.23", 5, seed=11)
        assert a.lines() == b.lines()

    def test_strategy_suffix(self):
        """A suite runs every strategy of a bare id; a suffixed id names
        no construction."""
        with pytest.raises(UnknownProposition,
                           match="^unknown proposition 'I.44.chester'$"):
            run_suite("I.44.chester", 0)
        report = run_suite("I.44", 2, seed=2)
        assert report.failures == 0
        assert report.superposition_totals() == {
            "alnayrizi": 0, "campanus": 0, "euclid_superposition": 2,
            "robert_of_chester": 0, "tinemue_equal_case": 0}


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

    def test_unknown_id_or_strategy(self):
        import random

        from euclid.number import new_context

        new_context()
        kwargs = generate_instance("I.44", random.Random(6))
        with pytest.raises(UnknownProposition,
                           match="^unknown proposition 'I.44.chester'$"):
            compare("I.44.chester", {"alnayrizi": kwargs})
        with pytest.raises(UnknownProposition,
                           match="^I.44 has no strategy 'chester'$"):
            compare("I.44", {"alnayrizi": kwargs, "chester": kwargs})
        with pytest.raises(UnknownProposition,
                           match="^unknown proposition 'I.34'$"):
            compare("I.34", {"euclid": {}})

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


def _nested_ids(seeds=(0, 1, 2)):
    """The ids whose one-instance suite at some seed adjoins a radicand
    of positive level (an irrational one), and the lines of every suite
    that failed."""
    nested, failed = set(), []
    for prop_id in verify.SUITE_IDS:
        for seed in seeds:
            report = run_suite(prop_id, 1, seed)
            if report.failures:
                failed += report.lines()
            if any(r[0] for r in current_context().radicands):
                nested.add(prop_id)
    return nested, failed


class TestIrrationalGivens:
    def test_every_suite_passes_on_irrational_givens(self, monkeypatch):
        """Every coordinate the generators draw becomes u + v*s/8 with u
        and v drawn as before, for s = sqrt(2) and then the nested
        s = sqrt(2 + sqrt(3)), so the constructions run on irrational
        givens and build nested radicands."""
        coord = instances._coord
        for radical in (lambda: sqrt_nonneg(2),
                        lambda: sqrt_nonneg(2 + sqrt_nonneg(3))):

            def irrational_coord(rng):
                u, v = coord(rng), coord(rng)
                return u + v * radical() / 8

            monkeypatch.setattr(instances, "_coord", irrational_coord)
            nested, failed = _nested_ids()
            assert failed == []
            assert nested

    def test_rational_givens_adjoin_rational_radicands(self):
        """On rational givens only I.9 roots an irrational value; the set
        may shrink, never grow."""
        nested, failed = _nested_ids()
        assert failed == []
        assert nested <= {"I.9"}
