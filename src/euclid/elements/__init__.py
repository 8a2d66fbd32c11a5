"""The proposition catalogue: constructions and theorem validators.

Proposition identifiers are stable strings ("I.1" ... "I.46"); a variant
strategy is selected by its name alone, as the ``strategy`` keyword
argument ("alnayrizi" for I.44), never through the id.  A construction
and its strategy table are listed once, in their ``PROPOSITIONS``
record, and are imported from their defining module
(``euclid.elements.areas.p44_apply``).
A step the constructions share is written once in ``_common``:
``produce``, ``cut_at``, ``cite_midpoint``, ``cite_parallel``, the
I.1/I.22 step ``apex``, the forward selector ``ahead`` and the side
word ``far_side`` of an I.44 scaffold.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from ..errors import UnknownProposition
from ..trace import Checks, PropositionResult, Tracer
from . import areas, basics, instances as gen, triangles
from .areas import triangulate
from .theorems import THEOREM_IDS, THEOREMS, check_theorem


@dataclass(frozen=True)
class Proposition:
    """One construction: its function, the type word of each object its
    result yields (one, or I.43's two complements), its instance generator
    ``generate(rng) -> kwargs``, its postcondition ``post(checks, call,
    result)`` on ``result = fn(**call)``, and its strategy table: each
    variant strategy's name, in order, and its route."""

    fn: Callable
    result: tuple[str, ...]
    generate: Callable
    post: Callable
    strategies: dict[str, Callable] = field(default_factory=dict)

    @cached_property
    def signature(self) -> inspect.Signature:
        """The construction's signature, read once."""
        return inspect.signature(self.fn)

    @property
    def params(self) -> tuple[tuple[str, str], ...]:
        """The positional parameters as (name, type word) pairs, read from
        the signature: the annotated class name in lower case."""
        return tuple((p.name, p.annotation.lower())
                     for p in self.signature.parameters.values()
                     if p.default is inspect.Parameter.empty)


PROPOSITIONS = {
    "I.1": Proposition(basics.p1_equilateral, ("figure",), gen.i1,
                       basics.post_i1),
    "I.2": Proposition(basics.p2_place, ("segment",), gen.i2, basics.post_i2),
    "I.3": Proposition(basics.p3_cut, ("point",), gen.i3, basics.post_i3),
    "I.9": Proposition(basics.p9_bisect_angle, ("ray",), gen.i9,
                       basics.post_i9),
    "I.10": Proposition(basics.p10_bisect_segment, ("point",), gen.i10,
                        basics.post_i10),
    "I.11": Proposition(basics.p11_perp_at, ("line",), gen.i11,
                        basics.post_i11),
    "I.12": Proposition(basics.p12_perp_from, ("line",), gen.i12,
                        basics.post_i12),
    "I.22": Proposition(triangles.p22_triangle, ("figure",), gen.i22,
                        triangles.post_i22),
    "I.23": Proposition(triangles.p23_copy_angle, ("angle",), gen.i23,
                        triangles.post_i23, triangles.P23_STRATEGIES),
    "I.31": Proposition(triangles.p31_parallel, ("line",), gen.i31,
                        triangles.post_i31),
    "I.42": Proposition(areas.p42_parallelogram_eq_triangle, ("figure",),
                        gen.i42, areas.post_i42, areas.P42_STRATEGIES),
    "I.43": Proposition(areas.p43_complements, ("figure", "figure"), gen.i43,
                        areas.post_i43),
    "I.44": Proposition(areas.p44_apply, ("figure",), gen.i44, areas.post_i44,
                        areas.P44_STRATEGIES),
    "I.45": Proposition(areas.p45_apply_figure, ("figure",), gen.i45,
                        areas.post_i45),
    "I.46": Proposition(areas.p46_square, ("figure",), gen.i1, areas.post_i46,
                        areas.P46_STRATEGIES),
}

# calls go through CONSTRUCTIONS, never through a record's fn, so that a
# function rebound in this dict (as a profiler does) is the one that runs
CONSTRUCTIONS = {pid: p.fn for pid, p in PROPOSITIONS.items()}
STRATEGIES = {pid: tuple(p.strategies) for pid, p in PROPOSITIONS.items()
              if p.strategies}


def validate_call(prop_id: str, strategy: str | None = None,
                  side: str | None = None) -> None:
    """Check one call of a construction: ``prop_id`` is a construction's
    bare id, ``strategy`` one of its strategies, and ``side`` a side word
    of a construction that takes one.

    Raises UnknownProposition for any call this rejects.
    """
    prop = PROPOSITIONS.get(prop_id)
    if prop is None:
        raise UnknownProposition(f"unknown proposition {prop_id!r}")
    if strategy is not None and strategy not in prop.strategies:
        raise UnknownProposition(f"{prop_id} has no strategy {strategy!r}")
    if side is not None and "side" not in prop.signature.parameters:
        raise UnknownProposition(f"{prop_id} takes no side")
    if side not in (None, "upper", "lower"):
        raise UnknownProposition(
            f"side must be 'upper' or 'lower', got {side!r}")


def drawn_instance(strategy: str | None, kwargs: dict) -> dict:
    """A drawn instance adapted to ``strategy``.  Tinemue's equal case
    covers only the angle matched to the triangle, so that angle replaces
    the drawn one; a given instance is run as given."""
    if strategy == "tinemue_equal_case":
        return dict(kwargs, d=areas.tinemue_matching_angle(kwargs["t"]))
    return kwargs


def certify(prop_id: str, call: dict, result: PropositionResult) -> Checks:
    """The postcondition of construction ``prop_id`` on ``result``, the
    value of ``fn(**call)``.  Keywords the call left out take the
    function's defaults, so the checks see the side and strategy that ran,
    and the checks name the run: ``prop_id``, then ``.strategy`` if it has
    one.  Raises UnknownProposition for an id that names no construction."""
    validate_call(prop_id)
    prop = PROPOSITIONS[prop_id]
    bound = prop.signature.bind(**call)
    bound.apply_defaults()
    strategy = bound.arguments.get("strategy")
    checks = Checks(prop_id if strategy is None else f"{prop_id}.{strategy}")
    prop.post(checks, bound.arguments, result)
    return checks


def run(prop_id: str, givens: dict, strategy: str | None = None,
        side: str | None = None, parent: Tracer | None = None
        ) -> tuple[PropositionResult, Checks]:
    """Run construction ``prop_id`` on ``givens`` with the given strategy
    and side (``None`` takes the function's default), nested under
    ``parent`` if one is given, and certify the result.  Raises
    UnknownProposition for a call that ``validate_call`` rejects."""
    validate_call(prop_id, strategy, side)
    call = dict(givens)
    if strategy is not None:
        call["strategy"] = strategy
    if side is not None:
        call["side"] = side
    result = CONSTRUCTIONS[prop_id](**call, parent=parent)
    return result, certify(prop_id, call, result)


__all__ = [
    "PROPOSITIONS", "Proposition", "CONSTRUCTIONS", "STRATEGIES",
    "THEOREMS", "THEOREM_IDS",
    "certify", "check_theorem", "drawn_instance", "run", "triangulate",
    "validate_call",
]
