"""A result that misses its postcondition is reported claim by claim.

Each test changes a construction's result after it is built (most move one
defining point by a rational offset), so only the checks the registry runs
on the returned result can notice.
"""

import dataclasses
import random
from collections import Counter
from fractions import Fraction

import pytest

from euclid import elements, verify
from euclid.cli import main
from euclid.geom import Angle, Figure, Line, Point, Ray, Segment
from euclid.number import current_context, new_context
from euclid.verify import run_suite


@pytest.fixture(autouse=True)
def _fresh_field():
    new_context()


# the defining points of each result type that is not a figure, in order
FIELDS = {Segment: ("a", "b"), Ray: ("origin", "through"), Line: ("p", "q"),
          Angle: ("vertex", "arm1", "arm2")}


def _mutated(obj, change):
    """``obj`` with ``change`` applied to the list of its defining points:
    a figure's vertices, the fields of a segment, ray, line or angle, a
    bare point alone, or those of the first of two complements."""
    if isinstance(obj, tuple):
        return (_mutated(obj[0], change), *obj[1:])
    if isinstance(obj, Point):
        return change([obj])[0]
    if isinstance(obj, Figure):
        return Figure(change(list(obj.vertices)))
    names = FIELDS[type(obj)]
    points = change([getattr(obj, name) for name in names])
    return dataclasses.replace(obj, **dict(zip(names, points)))


def _shift(p):
    return Point(p.x + Fraction(1, 3), p.y + Fraction(1, 7))


def _move(points):
    """Move one point by (1/3, 1/7): vertex 2 of a figure or an angle's
    ``arm2``, else the last."""
    i = min(2, len(points) - 1)
    return [*points[:i], _shift(points[i]), *points[i + 1:]]


def _move_first(points):
    """Move the first point by (1/3, 1/7)."""
    return [_shift(points[0]), *points[1:]]


def _scale(points):
    """Scale by 2 about the first point."""
    o = points[0]
    return [o + (p - o) * 2 for p in points]


def _swap(points):
    """Swap the first two points."""
    return [*points[1::-1], *points[2:]]


def _mirror(points):
    """Reflect every point across the line through the first two, which is
    the base for I.1, I.44 and I.46; a bare point stays as it is."""
    if len(points) < 2:
        return points
    a, d = points[0], points[1] - points[0]
    out = []
    for p in points:
        v = p - a
        out.append(a + d * (2 * v.dot(d) / d.norm_sq()) + v * -1)
    return out


MUTATIONS = {"moved": _move, "first moved": _move_first, "scaled": _scale,
             "swapped": _swap, "mirrored": _mirror}

# The (id, mutation) pairs whose postcondition fails no claim; every other
# pair fails a claim at seeds 0-2.  The set may only shrink.  A bare point
# is its one defining point, so scaling, swapping or mirroring leaves it as
# it is; scaling a ray, line or angle about its first point leaves the same
# one, as does swapping a line's two points or I.1's base, and mirroring a
# segment, ray or line across itself.  A figure mirrored across its first
# side is the same figure on the other side of its base, and the
# postconditions of I.42 to I.46 check no side.
UNNOTICED = {
    ("I.1", "swapped"),
    ("I.2", "mirrored"),
    ("I.3", "scaled"), ("I.3", "swapped"), ("I.3", "mirrored"),
    ("I.9", "scaled"), ("I.9", "mirrored"),
    ("I.10", "scaled"), ("I.10", "swapped"), ("I.10", "mirrored"),
    ("I.11", "scaled"), ("I.11", "swapped"), ("I.11", "mirrored"),
    ("I.12", "swapped"), ("I.12", "mirrored"),
    ("I.23", "scaled"),
    ("I.31", "scaled"), ("I.31", "swapped"), ("I.31", "mirrored"),
    ("I.42", "mirrored"), ("I.43", "mirrored"), ("I.44", "mirrored"),
    ("I.45", "mirrored"), ("I.46", "mirrored"),
}

# The (id, claim) pairs that fail under no mutation, on any route at seeds
# 0-2.  Each reads the trace or the named objects rather than the result,
# so a changed result cannot reach it.  The set may only shrink.
NEVER_FAILS = {
    ("I.2", "no superposition used"),
    ("I.12", "CG equals CE"),
    ("I.23", "one arm lies along the target ray"),
    ("I.31", "alternate angles are equal (I.27 hypothesis)"),
    ("I.44", "superposition count is exactly 0"),
    ("I.44", "superposition count is exactly 1"),
    ("I.45", "piece 2: shared side is a full side of both"),
    ("I.45", "piece 3: abutting angles sum to two right angles"),
    ("I.45", "piece 3: shared side is a full side of both"),
    ("I.45", "piece 3: the outer edges meet in a straight line"),
    ("I.45", "piece 4: abutting angles sum to two right angles"),
    ("I.45", "piece 4: shared side is a full side of both"),
    ("I.45", "piece 4: the outer edges meet in a straight line"),
    ("I.45", "the figure splits into two fewer triangles than sides"),
}

ROUTES = [(prop_id, strategy) for prop_id in elements.CONSTRUCTIONS
          for strategy in elements.STRATEGIES.get(prop_id, (None,))]


def _outcome(prop_id, call, result):
    checks = elements.certify(prop_id, call, result)
    return "fails" if checks.failed else "passes"


def _built(prop_id, strategy, seed):
    """The call of a route on its seed's drawn instance, and its result,
    in a fresh context."""
    new_context()
    kwargs = verify.generate_instance(prop_id, random.Random(seed))
    call = elements.drawn_instance(strategy, kwargs)
    if strategy is not None:
        call = dict(call, strategy=strategy)
    return call, elements.CONSTRUCTIONS[prop_id](**call)


@pytest.fixture
def moved(monkeypatch):
    """Rebind a construction so that its result is moved (``_move``)."""
    def move(prop_id):
        fn = elements.CONSTRUCTIONS[prop_id]

        def construction(*args, **kwargs):
            got = fn(*args, **kwargs)
            return dataclasses.replace(got,
                                       result=_mutated(got.result, _move))

        monkeypatch.setitem(elements.CONSTRUCTIONS, prop_id, construction)
    return move


@pytest.mark.parametrize("prop_id, strategy", ROUTES)
def test_every_postcondition_notices_a_moved_result(prop_id, strategy):
    """Every route's postcondition passes its own result and fails the
    same result with one defining point moved, and, unless ``UNNOTICED``
    lists the pair, with its first point moved, the result scaled, two of
    its points swapped or all mirrored across its first two."""
    for seed in range(3):
        call, result = _built(prop_id, strategy, seed)
        assert _outcome(prop_id, call, result) == "passes", seed
        for name, change in MUTATIONS.items():
            mutated = dataclasses.replace(
                result, result=_mutated(result.result, change))
            want = "passes" if (prop_id, name) in UNNOTICED else "fails"
            assert _outcome(prop_id, call, mutated) == want, (seed, name)


def test_every_claim_fails_under_some_mutation():
    """Every claim but those in ``NEVER_FAILS`` fails for some route, seed
    and mutation: a claim no changed result can fail checks nothing about
    the result."""
    claims, failed = set(), set()
    for prop_id, strategy in ROUTES:
        for seed in range(3):
            call, result = _built(prop_id, strategy, seed)
            for change in MUTATIONS.values():
                mutated = dataclasses.replace(
                    result, result=_mutated(result.result, change))
                for claim, ok, _ in elements.certify(prop_id, call,
                                                     mutated).claims:
                    claims.add((prop_id, claim))
                    if not ok:
                        failed.add((prop_id, claim))
    assert claims - failed == NEVER_FAILS


@pytest.mark.parametrize("prop_id", ["I.1", "I.44"])
def test_suite_counts_and_lists_failed_claims(moved, prop_id):
    moved(prop_id)
    report = run_suite(prop_id, 2, seed=7)
    assert report.runs == 2 * len(elements.STRATEGIES.get(prop_id, (None,)))
    assert report.failures == report.runs
    lines = report.lines()
    assert not any("\tERROR\t" in line for line in lines)
    fails = Counter(line.split(":")[0] for line in lines if "\tFAIL\t" in line)
    assert len(fails) == report.runs
    assert all(n > 1 for n in fails.values()), fails


@pytest.mark.parametrize("prop_id, claims", [("I.1", 3), ("I.44", 5)])
def test_prop_prints_every_check_and_exits_1(moved, capsys, prop_id, claims):
    moved(prop_id)
    assert main(["prop", prop_id, "--seed", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    checks = [line for line in out if line.count("\t") == 2]
    assert len(checks) == claims
    assert sum("\tFAIL\t" in line for line in checks) > 1


def test_script_prop_stops_with_exit_1(moved, tmp_path, capsys):
    moved("I.1")
    script = tmp_path / "i1.euc"
    script.write_text("segment s = join((0,0), (1,0))\n"
                      "figure T = prop I.1 (s)\n")
    assert main(["run", str(script)]) == 1
    assert capsys.readouterr().err == (
        "2:12: I.1 fails: side CA equals AB; side CB equals AB\n")


def test_reports_write_claims_as_checks_does(moved):
    """compare prints each run's claims, and suite its failed claims,
    exactly as the run's own Checks writes them."""
    moved("I.44")
    seed = 3
    strategies = elements.STRATEGIES["I.44"]

    def ledgers():
        new_context()
        drawn = verify.generate_instance("I.44", random.Random(seed))
        instances = {s: elements.drawn_instance(s, drawn) for s in strategies}
        return instances, {s: elements.run("I.44", givens, s)[1]
                           for s, givens in instances.items()}

    instances, checks = ledgers()
    lines = verify.compare("I.44", instances).lines()
    want = [line for s in strategies for line in checks[s].lines(f"{s}: ")]
    assert lines[1:len(want) + 2] == [*want, "# metrics"]

    lines = run_suite("I.44", 1, seed).lines()
    _, checks = ledgers()
    want = [line for s in strategies for line in
            checks[s].lines(f"instance 0 [{s}]: ", failed_only=True)]
    assert want and lines[2:len(want) + 2] == want
    assert lines[len(want) + 2].startswith("superpositions[")


def test_failed_boolean_claim_shows_no_zero_residual(moved, capsys):
    moved("I.44")
    assert main(["prop", "I.44", "--seed", "3"]) == 1
    line, = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("result is a parallelogram\t")]
    assert line.endswith("\tFAIL\t-") and not line.endswith("\t0")


def test_side_blind_postconditions_are_pinned():
    """A result built on the upper side, certified against the same call on
    the lower side, should fail.  The ids pinned here still pass: their
    postconditions check no side.  Adding a side claim to one of them
    removes it from this set."""
    still_pass = set()
    sided = [prop_id for prop_id, prop in elements.PROPOSITIONS.items()
             if "side" in prop.signature.parameters]
    for prop_id in sided:
        for strategy in elements.STRATEGIES.get(prop_id, (None,)):
            for seed in range(10):
                new_context()
                kwargs = verify.generate_instance(prop_id, random.Random(seed))
                call = dict(elements.drawn_instance(strategy, kwargs),
                            side="upper")
                if strategy is not None:
                    call["strategy"] = strategy
                result = elements.CONSTRUCTIONS[prop_id](**call)
                lower = elements.certify(prop_id, dict(call, side="lower"),
                                         result)
                if lower.all_pass:
                    still_pass.add(prop_id)
    assert still_pass == {"I.2", "I.22", "I.44", "I.46"}


@pytest.mark.parametrize("prop_id", verify.SUITE_IDS)
def test_no_certificate_grows_the_tower(prop_id):
    """A postcondition or theorem check decides by exact signs of the
    values it is given: it adjoins no radical to the run's field."""
    for seed in range(5):
        new_context()
        kwargs = verify.generate_instance(prop_id, random.Random(seed))
        for strategy in elements.STRATEGIES.get(prop_id, (None,)):
            call = elements.drawn_instance(strategy, kwargs)
            if prop_id in elements.THEOREMS:
                tower = len(current_context().radicands)
                elements.check_theorem(prop_id, call)
            else:
                if strategy is not None:
                    call = dict(call, strategy=strategy)
                result = elements.CONSTRUCTIONS[prop_id](**call)
                tower = len(current_context().radicands)
                elements.certify(prop_id, call, result)
            assert len(current_context().radicands) == tower, (seed, strategy)
