import random
import re

import pytest

from euclid import dsl, elements, verify
from euclid.elements import validate_call
from euclid.elements.areas import P42_STRATEGIES, P44_STRATEGIES, P46_STRATEGIES
from euclid.elements.triangles import P23_STRATEGIES
from euclid.errors import UnknownProposition
from euclid.number import new_context

ENGINE_STRATEGIES = {"I.23": P23_STRATEGIES, "I.42": P42_STRATEGIES,
                     "I.44": P44_STRATEGIES, "I.46": P46_STRATEGIES}


# each construction's positional parameters as (name, type word) pairs,
# as the registry listed them by hand before it read them from signatures
PARAMS = {
    "I.1": (("ab", "segment"),),
    "I.2": (("a", "point"), ("bc", "segment")),
    "I.3": (("greater", "segment"), ("less", "segment")),
    "I.9": (("angle", "angle"),),
    "I.10": (("ab", "segment"),),
    "I.11": (("l", "line"), ("c", "point")),
    "I.12": (("l", "line"), ("c", "point")),
    "I.22": (("a_len", "number"), ("b_len", "number"), ("c_len", "number"),
             ("base_ray", "ray")),
    "I.23": (("target_ray", "ray"), ("model", "angle")),
    "I.31": (("p", "point"), ("l", "line")),
    "I.42": (("t", "figure"), ("d", "angle")),
    "I.43": (("pg", "figure"), ("k", "point")),
    "I.44": (("ab", "segment"), ("t", "figure"), ("d", "angle")),
    "I.45": (("d_angle", "angle"), ("f", "figure")),
    "I.46": (("ab", "segment"),),
}


@pytest.mark.parametrize("prop_id", list(elements.PROPOSITIONS))
def test_record(prop_id):
    prop = elements.PROPOSITIONS[prop_id]
    assert prop.params == PARAMS[prop_id]
    assert all(word in dsl.TYPES or word == "number"
               for _, word in prop.params)
    assert elements.CONSTRUCTIONS[prop_id] is prop.fn
    assert elements.STRATEGIES.get(prop_id, ()) == \
        tuple(ENGINE_STRATEGIES.get(prop_id, ()))
    assert validate_call(prop_id) is None
    for strategy, route in prop.strategies.items():
        assert validate_call(prop_id, strategy) is None
        assert callable(route)


@pytest.mark.parametrize("prop_id", list(elements.PROPOSITIONS))
def test_result_type_words(prop_id):
    """A record's type words name what its construction yields, one word
    per object, on the seed-0 instance."""
    new_context()
    prop = elements.PROPOSITIONS[prop_id]
    got = prop.fn(**verify.generate_instance(prop_id, random.Random(0))).result
    yielded = got if isinstance(got, tuple) else (got,)
    assert tuple(type(obj).__name__.lower() for obj in yielded) == prop.result
    assert len(prop.result) == (2 if prop_id == "I.43" else 1)


def test_suite_ids():
    assert verify.SUITE_IDS == (
        "I.1", "I.2", "I.3", "I.9", "I.10", "I.11", "I.12", "I.22", "I.23",
        "I.31", "I.42", "I.43", "I.44", "I.45", "I.46", "I.4", "I.7", "I.8",
        "I.13", "I.14", "I.15", "I.16", "I.20", "I.26", "I.27", "I.28",
        "I.29", "I.30", "I.32", "I.33", "I.34", "I.35", "I.36", "I.37",
        "I.38", "I.41")


def test_construction_and_theorem_ids_are_disjoint():
    assert not set(elements.CONSTRUCTIONS) & set(elements.THEOREM_IDS)


@pytest.mark.parametrize("prop_id", ["I.99", "I.4", "I.44.nope", "I.4.x",
                                     "I.44.chester.x", "I.46.euclid",
                                     "I.44.chester", "I.46.campanus2",
                                     "I.23.euclid"])
def test_unknown_identifier(prop_id):
    """A proposition id is the bare id: a strategy is never part of it."""
    with pytest.raises(UnknownProposition,
                       match=f"^{re.escape(f'unknown proposition {prop_id!r}')}$"):
        validate_call(prop_id)
