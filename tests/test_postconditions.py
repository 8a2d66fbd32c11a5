"""A result that misses its postcondition is reported claim by claim.

Each test moves one defining point of a construction's result by a
rational offset after it is built, so only the checks the registry runs
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


# the defining point moved in each result type that is not a figure
MOVED_FIELD = {Segment: "b", Ray: "through", Line: "q", Angle: "arm2"}


def _moved(obj):
    """``obj`` with one defining point moved by (1/3, 1/7): a figure's
    vertex 2, a segment's ``b``, a ray's ``through``, a line's ``q``, an
    angle's ``arm2``, a bare point, or the first of two complements."""
    if isinstance(obj, tuple):
        return (_moved(obj[0]), *obj[1:])
    if isinstance(obj, Point):
        return Point(obj.x + Fraction(1, 3), obj.y + Fraction(1, 7))
    if isinstance(obj, Figure):
        vs = list(obj.vertices)
        vs[2] = _moved(vs[2])
        return Figure(vs)
    name = MOVED_FIELD[type(obj)]
    return dataclasses.replace(obj, **{name: _moved(getattr(obj, name))})


@pytest.fixture
def moved(monkeypatch):
    """Rebind a construction so that its result is moved (``_moved``)."""
    def move(prop_id):
        fn = elements.CONSTRUCTIONS[prop_id]

        def construction(*args, **kwargs):
            got = fn(*args, **kwargs)
            return dataclasses.replace(got, result=_moved(got.result))

        monkeypatch.setitem(elements.CONSTRUCTIONS, prop_id, construction)
    return move


@pytest.mark.parametrize("prop_id, strategy", [
    (prop_id, strategy) for prop_id in elements.CONSTRUCTIONS
    for strategy in elements.STRATEGIES.get(prop_id, (None,))])
def test_every_postcondition_notices_a_moved_result(prop_id, strategy):
    """Every route's postcondition passes its own result and fails the
    same result with one defining point moved."""
    for seed in range(3):
        new_context()
        kwargs = verify.generate_instance(prop_id, random.Random(seed))
        call = elements.drawn_instance(strategy, kwargs)
        if strategy is not None:
            call = dict(call, strategy=strategy)
        result = elements.CONSTRUCTIONS[prop_id](**call)
        assert elements.certify(prop_id, call, result).all_pass, seed
        moved = dataclasses.replace(result, result=_moved(result.result))
        assert elements.certify(prop_id, call, moved).failed, seed


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
