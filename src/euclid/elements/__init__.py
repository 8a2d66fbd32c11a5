"""The proposition catalogue: constructions and theorem validators.

Proposition identifiers are stable strings ("I.1" ... "I.46"); variant
strategies are selected either by keyword argument or by a suffixed
identifier such as "I.44.alnayrizi".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import UnknownProposition
from .basics import (
    p1_equilateral,
    p2_place,
    p3_cut,
    p9_bisect_angle,
    p10_bisect_segment,
    p11_perp_at,
    p12_perp_from,
)
from .triangles import (
    P23_STRATEGIES,
    p22_triangle,
    p23_copy_angle,
    p31_parallel,
    place_triangle_on_ray,
)
from .areas import (
    P42_STRATEGIES,
    P44_STRATEGIES,
    P46_STRATEGIES,
    p42_on_ray,
    p42_parallelogram_eq_triangle,
    p43_complements,
    p44_apply,
    p45_apply_figure,
    p46_square,
    tinemue_matching_angle,
    triangulate,
)
from .theorems import THEOREM_IDS, check_theorem


@dataclass(frozen=True)
class Proposition:
    """One construction: its function, its positional parameters as
    (name, type word) pairs, the type of its principal result, and its
    variant strategies in order, each with its identifier suffix."""

    fn: Callable
    params: tuple[tuple[str, str], ...]
    result: str
    strategies: dict[str, str] = field(default_factory=dict)


PROPOSITIONS = {
    "I.1": Proposition(p1_equilateral, (("ab", "segment"),), "figure"),
    "I.2": Proposition(p2_place, (("a", "point"), ("bc", "segment")),
                       "segment"),
    "I.3": Proposition(p3_cut, (("greater", "segment"), ("less", "segment")),
                       "point"),
    "I.9": Proposition(p9_bisect_angle, (("angle", "angle"),), "ray"),
    "I.10": Proposition(p10_bisect_segment, (("ab", "segment"),), "point"),
    "I.11": Proposition(p11_perp_at, (("l", "line"), ("c", "point")), "line"),
    "I.12": Proposition(p12_perp_from, (("l", "line"), ("c", "point")),
                        "line"),
    "I.22": Proposition(p22_triangle,
                        (("a_len", "number"), ("b_len", "number"),
                         ("c_len", "number"), ("base_ray", "ray")), "figure"),
    "I.23": Proposition(p23_copy_angle,
                        (("target_ray", "ray"), ("model", "angle")), "angle",
                        {"euclid": ".euclid", "proclus": ".proclus",
                         "albertus": ".albertus",
                         "commandinus": ".commandinus",
                         "clavius": ".clavius", "campanus": ".campanus"}),
    "I.31": Proposition(p31_parallel, (("p", "point"), ("l", "line")), "line"),
    "I.42": Proposition(p42_parallelogram_eq_triangle,
                        (("t", "figure"), ("d", "angle")), "figure",
                        {"euclid": ".euclid", "alnayrizi": ".alnayrizi"}),
    "I.43": Proposition(p43_complements, (("pg", "figure"), ("k", "point")),
                        "figure"),
    "I.44": Proposition(p44_apply,
                        (("ab", "segment"), ("t", "figure"), ("d", "angle")),
                        "figure",
                        {"euclid_superposition": ".euclid",
                         "alnayrizi": ".alnayrizi",
                         "robert_of_chester": ".chester",
                         "campanus": ".campanus",
                         "tinemue_equal_case": ".tinemue"}),
    "I.45": Proposition(p45_apply_figure,
                        (("d_angle", "angle"), ("f", "figure")), "figure"),
    "I.46": Proposition(p46_square, (("ab", "segment"),), "figure",
                        {"campanus_first": ".campanus",
                         "campanus_second": ".campanus2"}),
}

# calls go through CONSTRUCTIONS, never through a record's fn, so that a
# function rebound in this dict (as a profiler does) is the one that runs
CONSTRUCTIONS = {pid: p.fn for pid, p in PROPOSITIONS.items()}
STRATEGIES = {pid: tuple(p.strategies) for pid, p in PROPOSITIONS.items()
              if p.strategies}


def split_identifier(prop_id: str) -> tuple[str, str | None]:
    """Split e.g. "I.44.chester" into ("I.44", "robert_of_chester").

    Raises UnknownProposition unless the base names a construction and the
    suffix, if any, one of its strategies.
    """
    base = ".".join(prop_id.split(".")[:2])
    prop = PROPOSITIONS.get(base)
    if prop is not None:
        if prop_id == base:
            return base, None
        for strategy, suffix in prop.strategies.items():
            if prop_id == base + suffix:
                return base, strategy
    raise UnknownProposition(f"unknown proposition identifier {prop_id!r}")


def strategy_kwargs(strategy: str | None, kwargs: dict) -> dict:
    """The keyword arguments that run ``strategy`` on an instance.

    Tinemue's equal case covers only the angle matched to the triangle, so
    that angle replaces the given one.
    """
    if strategy is None:
        return kwargs
    call = dict(kwargs, strategy=strategy)
    if strategy == "tinemue_equal_case":
        call["d"] = tinemue_matching_angle(call["t"])
    return call


__all__ = [
    "PROPOSITIONS", "Proposition", "CONSTRUCTIONS", "STRATEGIES",
    "THEOREM_IDS",
    "check_theorem", "split_identifier", "strategy_kwargs",
    "p1_equilateral", "p2_place", "p3_cut", "p9_bisect_angle",
    "p10_bisect_segment", "p11_perp_at", "p12_perp_from",
    "p22_triangle", "place_triangle_on_ray", "p23_copy_angle", "p31_parallel",
    "p42_parallelogram_eq_triangle", "p42_on_ray", "p43_complements",
    "p44_apply", "p45_apply_figure", "p46_square", "triangulate",
    "tinemue_matching_angle",
]
