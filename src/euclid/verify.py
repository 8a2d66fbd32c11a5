"""Cross-construction verification: postcondition suites, strategy
comparison, and cost metrics (postulate counts, superposition counts,
radical depth).

Every instance runs in a fresh arithmetic context, and every claim of a
result's postcondition is recorded, passed or failed, in the run's own
``trace.Checks``, whose lines the reports print.  Cost metrics are
descriptive output only; nothing about them is asserted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import elements
from .elements import THEOREM_IDS, check_theorem
from .errors import EuclidError, UnknownProposition
from .number import new_context
from .trace import Checks, PropositionResult, Tracer, key_values

SUITE_IDS = (*elements.CONSTRUCTIONS, *THEOREM_IDS)


def generate_instance(prop_id: str, rng: random.Random) -> dict:
    """A random valid instance (keyword arguments) for the proposition."""
    record = (elements.PROPOSITIONS.get(prop_id)
              or elements.THEOREMS.get(prop_id))
    if record is None:
        raise UnknownProposition(f"no instance generator for {prop_id!r}")
    return record.generate(rng)


# ---------------------------------------------------------------------------
# reports


# the ledger of a run that built nothing: a theorem or an error outcome
# prints the same keys as a construction, each at 0
_NO_COSTS = PropositionResult({}, None, Tracer()).costs()


@dataclass
class StrategyOutcome:
    """One strategy's run: its claims and costs, or the error that stopped
    it, with no claims."""

    checks: Checks
    costs: dict[str, int] = field(default_factory=_NO_COSTS.copy)
    error: str = ""

    @property
    def passed(self) -> bool:
        return not self.error and self.checks.all_pass

    def lines(self, tag: str, failed_only: bool = False) -> list[str]:
        """The error line, or the claim lines, each led by ``tag``."""
        if self.error:
            return [f"{tag}\tERROR\t{self.error}"]
        return self.checks.lines(f"{tag}: ", failed_only)


@dataclass
class ComparisonReport:
    prop_id: str
    outcomes: dict[str, StrategyOutcome]

    @property
    def failures(self) -> int:
        return sum(not oc.passed for oc in self.outcomes.values())

    def lines(self) -> list[str]:
        out = [f"# comparison {self.prop_id}"]
        for name, oc in self.outcomes.items():
            out += oc.lines(name)
        out.append("# metrics")
        for name, oc in self.outcomes.items():
            out.append(f"strategy={name} {key_values(oc.costs)}")
        return out

    def records(self) -> list[dict]:
        out = []
        for name, oc in self.outcomes.items():
            out.append({
                "proposition": self.prop_id,
                "strategy": name,
                "passed": oc.passed,
                "error": oc.error or "; ".join(oc.checks.failed),
                **oc.costs,
            })
        return out


@dataclass
class SuiteReport:
    prop_id: str
    count: int
    seed: int
    instances: list[ComparisonReport] = field(default_factory=list)

    @property
    def failures(self) -> int:
        return sum(inst.failures for inst in self.instances)

    @property
    def runs(self) -> int:
        return sum(len(i.outcomes) for i in self.instances)

    def superposition_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for inst in self.instances:
            for name, oc in inst.outcomes.items():
                totals[name] = totals.get(name, 0) + oc.costs["superpositions"]
        return totals

    def lines(self) -> list[str]:
        out = [f"# suite {self.prop_id} n={self.count} seed={self.seed}"]
        out.append(f"runs={self.runs} failures={self.failures}")
        for idx, inst in enumerate(self.instances):
            for name, oc in inst.outcomes.items():
                out += oc.lines(f"instance {idx} [{name}]", failed_only=True)
        for name, total in sorted(self.superposition_totals().items()):
            out.append(f"superpositions[{name}]={total}")
        depth = 0
        for inst in self.instances:
            for oc in inst.outcomes.values():
                depth = max(depth, oc.costs["max_radical_depth"])
        out.append(f"max_radical_depth={depth}")
        return out

    def records(self) -> list[dict]:
        """Each comparison's records, with its instance index."""
        return [dict(rec, instance=idx)
                for idx, inst in enumerate(self.instances)
                for rec in inst.records()]


# ---------------------------------------------------------------------------
# running


def _validate(prop_id: str, strategy: Optional[str] = None) -> None:
    """``elements.validate_call``, except that a theorem id, which has no
    strategies, is valid by itself."""
    if prop_id not in THEOREM_IDS or strategy is not None:
        elements.validate_call(prop_id, strategy)


def _run_strategy(prop_id: str, strategy: Optional[str], givens: dict
                  ) -> StrategyOutcome:
    """Run one construction strategy and its postcondition, or the
    validator of a theorem."""
    try:
        if prop_id in THEOREM_IDS:
            return StrategyOutcome(check_theorem(prop_id, givens))
        result, checks = elements.run(prop_id, givens, strategy)
    except EuclidError as e:
        return StrategyOutcome(Checks(prop_id),
                               error=f"{type(e).__name__}: {e}")
    return StrategyOutcome(checks, result.costs())


def compare(prop_id: str, instances: dict) -> ComparisonReport:
    """Run each strategy on its instance (``None`` stands for an id
    without strategies and is shown as ``-``); deterministic report.

    Raises UnknownProposition for an id or strategy that
    ``elements.validate_call`` rejects, before anything runs.
    """
    for strategy in (None, *instances):
        _validate(prop_id, strategy)
    return ComparisonReport(prop_id, {
        "-" if strategy is None else strategy:
            _run_strategy(prop_id, strategy, givens)
        for strategy, givens in instances.items()})


def run_suite(prop_id: str, count: int = 100, seed: int = 7) -> SuiteReport:
    """Random-instance postcondition suite over every strategy of
    ``prop_id``; failures are expected to be 0."""
    _validate(prop_id)
    strategies = elements.STRATEGIES.get(prop_id, (None,))
    rng = random.Random(seed)
    report = SuiteReport(prop_id, count, seed)
    for _ in range(count):
        new_context()
        kwargs = generate_instance(prop_id, rng)
        report.instances.append(compare(prop_id, {
            s: elements.drawn_instance(s, kwargs) for s in strategies}))
    return report
