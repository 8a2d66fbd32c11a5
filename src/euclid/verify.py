"""Cross-construction verification: postcondition suites, strategy
comparison, and cost metrics (postulate counts, superposition counts,
radical depth).

Every instance runs in a fresh arithmetic context, and every claim of a
result's postcondition is recorded, passed or failed.  Cost metrics are
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
from .trace import PropositionResult, Tracer, key_values

SUITE_IDS = (*elements.CONSTRUCTIONS, *THEOREM_IDS)


def generate_instance(base: str, rng: random.Random) -> dict:
    """A random valid instance (keyword arguments) for the proposition."""
    record = elements.PROPOSITIONS.get(base) or elements.THEOREMS.get(base)
    if record is None:
        raise UnknownProposition(f"no instance generator for {base!r}")
    return record.generate(rng)


# ---------------------------------------------------------------------------
# reports


# the ledger of a run that built nothing: a theorem or an error outcome
# prints the same keys as a construction, each at 0
_NO_COSTS = PropositionResult("", {}, None, Tracer()).costs()


@dataclass
class StrategyOutcome:
    """One strategy's run: the error that stopped it, or its claims and
    costs."""

    error: str = ""
    checks: list = field(default_factory=list)
    costs: dict[str, int] = field(default_factory=_NO_COSTS.copy)

    @property
    def passed(self) -> bool:
        return not self.error and all(ok for _, ok, _ in self.checks)


@dataclass
class ComparisonReport:
    prop_id: str
    outcomes: dict[str, StrategyOutcome]

    def lines(self) -> list[str]:
        out = [f"# comparison {self.prop_id}"]
        for name, oc in self.outcomes.items():
            if oc.error:
                out.append(f"{name}\tERROR\t{oc.error}")
                continue
            for claim, ok, residual in oc.checks:
                out.append(f"{name}: {claim}\t{'PASS' if ok else 'FAIL'}\t{residual}")
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
                "error": oc.error or "; ".join(
                    claim for claim, ok, _ in oc.checks if not ok),
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
        return sum(not oc.passed for inst in self.instances
                   for oc in inst.outcomes.values())

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
                if oc.passed:
                    continue
                if oc.error:
                    out.append(f"instance {idx} [{name}]\tERROR\t{oc.error}")
                for claim, ok, residual in oc.checks:
                    if not ok:
                        out.append(f"instance {idx} [{name}]: {claim}"
                                   f"\tFAIL\t{residual}")
        for name, total in sorted(self.superposition_totals().items()):
            out.append(f"superpositions[{name}]={total}")
        depth = 0
        for inst in self.instances:
            for oc in inst.outcomes.values():
                depth = max(depth, oc.costs["max_radical_depth"])
        out.append(f"max_radical_depth={depth}")
        return out

    def records(self) -> list[dict]:
        out = []
        for idx, inst in enumerate(self.instances):
            for rec in inst.records():
                rec = dict(rec, instance=idx)
                out.append(rec)
        return out


# ---------------------------------------------------------------------------
# running


def _run_strategy(base: str, strategy: Optional[str], kwargs: dict
                  ) -> StrategyOutcome:
    """Run one construction strategy and its postcondition, or the
    validator of a theorem base."""
    try:
        if base not in elements.CONSTRUCTIONS:
            return StrategyOutcome(checks=check_theorem(base, kwargs).claims)
        call = elements.strategy_kwargs(strategy, kwargs)
        result = elements.CONSTRUCTIONS[base](**call)
        report = elements.certify(base, call, result)
    except EuclidError as e:
        return StrategyOutcome(error=f"{type(e).__name__}: {e}")
    return StrategyOutcome(checks=report.claims, costs=result.costs())


def compare(prop_id: str, strategies, kwargs: dict) -> ComparisonReport:
    """Run several strategies on one instance; deterministic report."""
    base, _ = elements.split_identifier(prop_id)
    outcomes = {}
    for strategy in strategies:
        outcomes[strategy] = _run_strategy(base, strategy, kwargs)
    return ComparisonReport(prop_id, outcomes)


def run_suite(prop_id: str, count: int = 100, seed: int = 7) -> SuiteReport:
    """Random-instance postcondition suite; failures are expected to be 0."""
    if prop_id in THEOREM_IDS:
        base, strategy = prop_id, None
    else:
        base, strategy = elements.split_identifier(prop_id)
    rng = random.Random(seed)
    report = SuiteReport(prop_id, count, seed)
    if strategy is not None:
        strategies = [strategy]
    else:
        strategies = list(elements.STRATEGIES.get(base, (None,)))
    for _ in range(count):
        new_context()
        kwargs = generate_instance(base, rng)
        outcomes = {}
        for strat in strategies:
            outcomes[strat if strat is not None else "-"] = \
                _run_strategy(base, strat, kwargs)
        report.instances.append(ComparisonReport(prop_id, outcomes))
    return report

