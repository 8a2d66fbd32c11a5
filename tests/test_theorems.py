from fractions import Fraction

import pytest

from euclid.elements import certify, check_theorem, THEOREM_IDS
from euclid.elements.areas import p43_complements
from euclid.errors import HypothesisNotSatisfied
from euclid.geom import Figure, Line, Point, Segment
from euclid.number import Constructible, new_context


def P(x, y):
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


@pytest.fixture(autouse=True)
def _fresh_field():
    new_context()


def assert_all_pass(report):
    assert report.claims, "no claims checked"
    for claim, ok, residual in report.claims:
        assert ok, f"{report.prop_id}: {claim} failed ({residual})"


class TestCongruence:
    def test_i4_sas(self):
        t1 = Figure([P(0, 0), P(4, 0), P(1, 3)])
        t2 = Figure([P(10, 0), P(10, 4), P(7, 1)])  # rotated a quarter turn
        assert_all_pass(check_theorem("I.4", {"t1": t1, "t2": t2}))

    def test_i4_rejects_unequal_sides(self):
        t1 = Figure([P(0, 0), P(4, 0), P(1, 3)])
        t2 = Figure([P(0, 0), P(5, 0), P(1, 3)])
        with pytest.raises(HypothesisNotSatisfied):
            check_theorem("I.4", {"t1": t1, "t2": t2})

    def test_i7_uniqueness(self):
        base = Segment(P(0, 0), P(4, 0))
        report = check_theorem("I.7", {"base": base, "c": P(1, 2), "d": P(1, 2)})
        assert_all_pass(report)

    def test_i8_sss(self):
        t1 = Figure([P(0, 0), P(4, 0), P(1, 3)])
        t2 = Figure([P(2, 2), P(6, 2), P(3, 5)])  # translated
        assert_all_pass(check_theorem("I.8", {"t1": t1, "t2": t2}))

    def test_i26_asa(self):
        t1 = Figure([P(0, 0), P(4, 0), P(1, 3)])
        t2 = Figure([P(5, 5), P(9, 5), P(6, 8)])
        assert_all_pass(check_theorem("I.26", {"t1": t1, "t2": t2}))


class TestAngleSums:
    def test_i13(self):
        report = check_theorem(
            "I.13", {"a": P(1, 2), "b": P(0, 0), "c": P(-3, 0), "d": P(2, 0)})
        assert_all_pass(report)

    def test_i13_right_case(self):
        report = check_theorem(
            "I.13", {"a": P(0, 5), "b": P(0, 0), "c": P(-3, 0), "d": P(2, 0)})
        assert_all_pass(report)

    def test_i14(self):
        report = check_theorem(
            "I.14", {"a": P(0, 2), "b": P(0, 0), "c": P(-3, 0), "d": P(2, 0)})
        assert_all_pass(report)

    def test_i15_vertical_angles(self):
        report = check_theorem(
            "I.15", {"a": P(-2, -2), "b": P(2, 2), "c": P(-1, 2), "d": P(1, -2)})
        assert_all_pass(report)

    def test_i15_rejects_a_line_through_one_point(self):
        a, b, c = P(-2, -2), P(2, 2), P(-1, 2)
        for bundle in ({"a": a, "b": a, "c": c, "d": b},
                       {"a": a, "b": b, "c": b, "d": b}):
            with pytest.raises(HypothesisNotSatisfied,
                               match="^each line needs two distinct points$"):
                check_theorem("I.15", bundle)

    def test_i16_exterior(self):
        t = Figure([P(0, 0), P(4, 0), P(1, 3)])
        assert_all_pass(check_theorem("I.16", {"t": t}))

    def test_i20_triangle_inequality(self):
        t = Figure([P(0, 0), P(4, 0), P(1, 3)])
        assert_all_pass(check_theorem("I.20", {"t": t}))

    def test_i32_angle_sum(self):
        t = Figure([P(0, 0), P(4, 0), P(1, 3)])
        assert_all_pass(check_theorem("I.32", {"t": t}))


class TestParallels:
    def bundle(self):
        l1 = Line(P(0, 0), P(4, 1))
        l2 = Line(P(0, 3), P(4, 4))
        t = Line(P(1, -1), P(2, 5))
        return {"l1": l1, "l2": l2, "transversal": t}

    def test_i27(self):
        assert_all_pass(check_theorem("I.27", self.bundle()))

    def test_i28_both_forms(self):
        """Parallel lines satisfy both of Euclid's forms of the hypothesis,
        whichever point of l2 comes first (the two orders reach l2's arm
        point with and without a reflection through h)."""
        b = self.bundle()
        assert_all_pass(check_theorem("I.28", b))
        assert_all_pass(check_theorem("I.28",
                                      dict(b, l2=Line(P(4, 4), P(0, 3)))))

    def test_i29(self):
        assert_all_pass(check_theorem("I.29", self.bundle()))

    def test_i29_rejects_nonparallel(self):
        b = self.bundle()
        b["l2"] = Line(P(0, 3), P(4, 5))
        with pytest.raises(HypothesisNotSatisfied):
            check_theorem("I.29", b)

    def test_i30(self):
        assert_all_pass(check_theorem("I.30", {
            "l1": Line(P(0, 0), P(2, 1)),
            "l2": Line(P(0, 5), P(2, 6)),
            "l3": Line(P(1, -3), P(3, -2))}))

    def test_i33(self):
        assert_all_pass(check_theorem("I.33", {
            "ab": Segment(P(0, 0), P(3, 1)),
            "cd": Segment(P(1, 4), P(4, 5))}))


def F(*points):
    return Figure([P(x, y) for x, y in points])


PG = F((0, 0), (4, 0), (5, 3), (1, 3))
TRI = F((0, 0), (4, 0), (1, 3))

# Per area theorem: a valid bundle, one whose second base is another (or,
# for I.36 and I.38, longer), and one whose second figure leaves the
# parallels (for a parallelogram, by its whole top side).
IN_PARALLELS = {
    "I.35": ({"pg1": PG, "pg2": F((0, 0), (4, 0), (10, 3), (6, 3))},
             {"pg1": PG, "pg2": F((1, 0), (5, 0), (11, 3), (7, 3))},
             {"pg1": PG, "pg2": F((0, 0), (4, 0), (10, 4), (6, 4))}),
    "I.36": ({"pg1": PG, "pg2": F((6, 0), (10, 0), (11, 3), (7, 3))},
             {"pg1": PG, "pg2": F((6, 0), (11, 0), (12, 3), (7, 3))},
             {"pg1": PG, "pg2": F((6, 0), (10, 0), (11, 4), (7, 4))}),
    "I.37": ({"t1": TRI, "t2": F((0, 0), (4, 0), (9, 3))},
             {"t1": TRI, "t2": F((1, 0), (5, 0), (9, 3))},
             {"t1": TRI, "t2": F((0, 0), (4, 0), (9, 4))}),
    "I.38": ({"t1": TRI, "t2": F((5, 0), (9, 0), (2, 3))},
             {"t1": TRI, "t2": F((5, 0), (10, 0), (2, 3))},
             {"t1": TRI, "t2": F((5, 0), (9, 0), (2, 4))}),
    "I.41": ({"pg": PG, "t": F((0, 0), (4, 0), (2, 3))},
             {"pg": PG, "t": F((0, 0), (3, 0), (2, 3))},
             {"pg": PG, "t": F((0, 0), (4, 0), (2, 4))}),
}
BASE_MESSAGE = {"I.36": "the bases must be equal",
                "I.38": "the bases must be equal"}


class TestAreas:
    def test_i34(self):
        pg = Figure([P(0, 0), P(4, 0), P(6, 3), P(2, 3)])
        assert_all_pass(check_theorem("I.34", {"pg": pg}))

    def test_i35_same_base(self):
        pg1 = Figure([P(0, 0), P(4, 0), P(5, 3), P(1, 3)])
        pg2 = Figure([P(0, 0), P(4, 0), P(10, 3), P(6, 3)])
        report = check_theorem("I.35", {"pg1": pg1, "pg2": pg2})
        assert_all_pass(report)
        # both contents are exactly 12
        assert report.claims[0][2].startswith("0")

    def test_i36_equal_bases(self):
        pg1 = Figure([P(0, 0), P(4, 0), P(5, 3), P(1, 3)])
        pg2 = Figure([P(6, 0), P(10, 0), P(11, 3), P(7, 3)])
        assert_all_pass(check_theorem("I.36", {"pg1": pg1, "pg2": pg2}))

    def test_i37_triangles_same_base(self):
        t1 = Figure([P(0, 0), P(4, 0), P(1, 3)])
        t2 = Figure([P(0, 0), P(4, 0), P(9, 3)])
        assert_all_pass(check_theorem("I.37", {"t1": t1, "t2": t2}))

    def test_i38_triangles_equal_bases(self):
        t1 = Figure([P(0, 0), P(4, 0), P(1, 3)])
        t2 = Figure([P(5, 0), P(9, 0), P(2, 3)])
        assert_all_pass(check_theorem("I.38", {"t1": t1, "t2": t2}))

    def test_i41_double(self):
        pg = Figure([P(0, 0), P(4, 0), P(5, 3), P(1, 3)])
        t = Figure([P(0, 0), P(4, 0), P(2, 3)])
        assert_all_pass(check_theorem("I.41", {"pg": pg, "t": t}))

    def test_i41_rejects_different_base(self):
        pg = Figure([P(0, 0), P(4, 0), P(5, 3), P(1, 3)])
        t = Figure([P(0, 0), P(3, 0), P(2, 3)])
        with pytest.raises(HypothesisNotSatisfied):
            check_theorem("I.41", {"pg": pg, "t": t})

    @pytest.mark.parametrize("theorem_id", sorted(IN_PARALLELS))
    def test_one_rule_decides_base_and_parallels(self, theorem_id):
        valid, other_base, off_parallels = IN_PARALLELS[theorem_id]
        assert_all_pass(check_theorem(theorem_id, valid))
        base = BASE_MESSAGE.get(theorem_id, "the figures must share their base")
        with pytest.raises(HypothesisNotSatisfied, match=f"^{base}$"):
            check_theorem(theorem_id, other_base)
        with pytest.raises(HypothesisNotSatisfied,
                           match="^the figures must lie in the same parallels$"):
            check_theorem(theorem_id, off_parallels)

    def test_i43_complements(self):
        # I.43 is certified by its construction's postcondition
        pg = Figure([P(0, 0), P(4, 0), P(6, 3), P(2, 3)])
        call = {"pg": pg, "k": P(2, 1)}
        assert_all_pass(certify("I.43", call, p43_complements(**call)))


class TestReport:
    def test_lines_format(self):
        t = Figure([P(0, 0), P(4, 0), P(1, 3)])
        report = check_theorem("I.20", {"t": t})
        for line in report.lines():
            claim, outcome, residual = line.split("\t")
            assert outcome in ("PASS", "FAIL")

    def test_ids_cover_catalogue(self):
        assert "I.41" in THEOREM_IDS and "I.13" in THEOREM_IDS
        assert len(THEOREM_IDS) == 21


def _outcome(theorem_id, bundle):
    """The claims of a check, or the message of its failed hypothesis."""
    try:
        return check_theorem(theorem_id, bundle).claims
    except HypothesisNotSatisfied as e:
        return str(e)


class TestBundleBinding:
    """A bundle binds to the givens of a theorem's check by name."""

    T1 = Figure([P(0, 0), P(4, 0), P(1, 3)])
    T2 = Figure([P(5, 5), P(9, 5), P(6, 8)])    # T1 translated
    DOUBLE = Figure([P(0, 0), P(8, 0), P(2, 6)])  # T1 scaled by two

    def test_missing_given_fails_the_hypothesis(self):
        with pytest.raises(HypothesisNotSatisfied, match="t2"):
            check_theorem("I.4", {"t1": self.T1})

    def test_extra_given_fails_the_hypothesis(self):
        with pytest.raises(HypothesisNotSatisfied, match="t3"):
            check_theorem("I.4", {"t1": self.T1, "t2": self.T2, "t3": self.T1})

    def test_i26_needs_one_equal_side(self):
        """Two triangles with equal angles but no equal side are similar,
        not congruent."""
        assert _outcome("I.26", {"t1": self.T1, "t2": self.DOUBLE}) == \
            "one side must equal its corresponding side"

    def test_i28_needs_one_of_its_two_hypotheses(self):
        l1, t = Line(P(0, 0), P(4, 1)), Line(P(1, -1), P(2, 5))
        tilted = {"l1": l1, "l2": Line(P(0, 3), P(4, 5)), "transversal": t}
        assert _outcome("I.28", tilted) == (
            "the exterior angle must equal the interior and opposite one, or "
            "the interior angles on the same side must equal two right angles")

    @pytest.mark.parametrize("theorem_id, bundle", [
        ("I.26", {"t1": T1, "t2": T2, "case": "adjoining"}),
        ("I.28", {"l1": Line(P(0, 0), P(4, 1)), "l2": Line(P(0, 3), P(4, 4)),
                  "transversal": Line(P(1, -1), P(2, 5)),
                  "form": "exterior"})])
    def test_no_option_picks_a_hypothesis(self, theorem_id, bundle):
        """I.26 and I.28 take no option: a bundle naming one carries an
        extra given."""
        option = list(bundle)[-1]
        with pytest.raises(HypothesisNotSatisfied, match=option):
            check_theorem(theorem_id, bundle)
