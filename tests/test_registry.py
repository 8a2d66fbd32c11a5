import inspect

import pytest

from euclid import elements, verify
from euclid.elements import (
    P23_STRATEGIES,
    P42_STRATEGIES,
    P44_STRATEGIES,
    P46_STRATEGIES,
    split_identifier,
)
from euclid.errors import UnknownProposition

ENGINE_STRATEGIES = {"I.23": P23_STRATEGIES, "I.42": P42_STRATEGIES,
                     "I.44": P44_STRATEGIES, "I.46": P46_STRATEGIES}


@pytest.mark.parametrize("prop_id", list(elements.PROPOSITIONS))
def test_record(prop_id):
    prop = elements.PROPOSITIONS[prop_id]
    positional = [p.name for p in inspect.signature(prop.fn).parameters.values()
                  if p.default is inspect.Parameter.empty]
    assert [name for name, _ in prop.params] == positional
    assert elements.CONSTRUCTIONS[prop_id] is prop.fn
    assert elements.STRATEGIES.get(prop_id, ()) == \
        ENGINE_STRATEGIES.get(prop_id, ())
    assert split_identifier(prop_id) == (prop_id, None)
    for strategy, suffix in prop.strategies.items():
        assert split_identifier(prop_id + suffix) == (prop_id, strategy)


def test_suite_ids():
    assert verify.SUITE_IDS == (
        "I.1", "I.2", "I.3", "I.9", "I.10", "I.11", "I.12", "I.22", "I.23",
        "I.31", "I.42", "I.43", "I.44", "I.45", "I.46", "I.4", "I.7", "I.8",
        "I.13", "I.14", "I.15", "I.16", "I.20", "I.26", "I.27", "I.28",
        "I.29", "I.30", "I.32", "I.33", "I.34", "I.35", "I.36", "I.37",
        "I.38", "I.41")


@pytest.mark.parametrize("prop_id", ["I.99", "I.4", "I.44.nope", "I.4.x",
                                     "I.44.chester.x", "I.46.euclid"])
def test_unknown_identifier(prop_id):
    with pytest.raises(UnknownProposition):
        split_identifier(prop_id)
