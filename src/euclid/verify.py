"""Cross-construction verification: postcondition suites, strategy
comparison, and cost metrics (postulate counts, superposition counts,
radical depth).

Instances are generated on a small rational grid (denominators at most 16,
magnitudes at most 32) to keep radical depth and runtime bounded at desk
scale.  Every instance runs in a fresh arithmetic context.  Cost metrics
are descriptive output only; nothing about them is asserted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import elements
from .elements import THEOREM_IDS, check_theorem
from .errors import EuclidError, UnknownProposition, VerificationFailure
from .geom import (
    Angle,
    Figure,
    Line,
    Point,
    Ray,
    Segment,
    collinear,
    is_simple,
    signed_area,
)
from .number import Constructible, new_context

SUITE_IDS = tuple(dict.fromkeys((*elements.CONSTRUCTIONS, *THEOREM_IDS)))


# ---------------------------------------------------------------------------
# random instances


def _coord(rng: random.Random) -> Constructible:
    num = rng.randint(-24, 24)
    den = rng.choice((1, 1, 1, 2, 2, 4))
    return Constructible(Fraction(num, den))


def _point(rng) -> Point:
    return Point(_coord(rng), _coord(rng))


def _distinct_points(rng, n: int) -> list[Point]:
    pts: list[Point] = []
    while len(pts) < n:
        p = _point(rng)
        if all(p != q for q in pts):
            pts.append(p)
    return pts


def _segment(rng) -> Segment:
    a, b = _distinct_points(rng, 2)
    return Segment(a, b)


def _line(rng) -> Line:
    a, b = _distinct_points(rng, 2)
    return Line(a, b)


def _angle(rng) -> Angle:
    while True:
        v, p, q = _distinct_points(rng, 3)
        if not collinear(v, p, q):
            return Angle(v, p, q)


def _triangle(rng) -> Figure:
    while True:
        a, b, c = _distinct_points(rng, 3)
        if not collinear(a, b, c):
            return Figure([a, b, c])


def _length(rng) -> Constructible:
    return Constructible(Fraction(rng.randint(1, 24), rng.choice((1, 1, 2, 4))))


def _triangle_lengths(rng):
    while True:
        a, b, c = _length(rng), _length(rng), _length(rng)
        if ((a + b - c).sign() > 0 and (b + c - a).sign() > 0
                and (c + a - b).sign() > 0):
            return a, b, c


def _ray(rng) -> Ray:
    a, b = _distinct_points(rng, 2)
    return Ray(a, b)


def _parallelogram(rng) -> Figure:
    while True:
        a = _point(rng)
        u = _point(rng) - a
        v = _point(rng) - a
        if u.cross(v).sign() != 0:
            b = a + u
            c = Point(a.x + u.dx + v.dx, a.y + u.dy + v.dy)
            d = a + v
            return Figure([a, b, c, d])


def _simple_polygon(rng, n: int) -> Figure:
    """A simple polygon via an exact angular sort around the centroid."""
    while True:
        pts = _distinct_points(rng, n)
        cx = sum((p.x for p in pts), Constructible(0)) / n
        cy = sum((p.y for p in pts), Constructible(0)) / n
        center = Point(cx, cy)
        if any(p == center for p in pts):
            continue

        def half(p: Point) -> int:
            dy = (p.y - center.y).sign()
            if dy != 0:
                return 0 if dy > 0 else 1
            return 0 if (p.x - center.x).sign() > 0 else 1

        import functools

        def cmp(p: Point, q: Point) -> int:
            hp, hq = half(p), half(q)
            if hp != hq:
                return -1 if hp < hq else 1
            cross = (p - center).cross(q - center).sign()
            if cross != 0:
                return -cross
            return 0

        ordered = sorted(pts, key=functools.cmp_to_key(cmp))
        collinear_tie = any(
            cmp(ordered[i], ordered[(i + 1) % n]) == 0 for i in range(n))
        if collinear_tie:
            continue
        fig = Figure(ordered)
        if signed_area(fig).sign() != 0 and is_simple(fig):
            return fig


def _rational_rotation(rng):
    m = rng.randint(1, 5)
    n = rng.randint(0, m - 1)
    den = m * m + n * n
    c = Fraction(m * m - n * n, den)
    s = Fraction(2 * m * n, den)
    return Constructible(c), Constructible(s)


def _congruent_copy(rng, t: Figure) -> Figure:
    c, s = _rational_rotation(rng)
    tx, ty = _coord(rng), _coord(rng)
    flip = rng.choice((1, -1))
    out = []
    for p in t.vertices:
        x, y = p.x, p.y * flip
        out.append(Point(c * x - s * y + tx, s * x + c * y + ty))
    return Figure(out)


def _parallel_pair(rng):
    while True:
        l1 = _line(rng)
        off = _point(rng) - l1.p
        if l1.direction().cross(off).sign() == 0:
            continue
        p2 = l1.p + off
        l2 = Line(p2, p2 + l1.direction())
        return l1, l2


def _transversal(rng, l1: Line, l2: Line) -> Line:
    from .geom import intersect_lines

    while True:
        t = _line(rng)
        g = intersect_lines(t, l1)
        h = intersect_lines(t, l2)
        if isinstance(g, Point) and isinstance(h, Point) and g != h:
            return t


def generate_instance(base: str, rng: random.Random) -> dict:
    """A random valid instance (keyword arguments) for the proposition."""
    gen = _GENERATORS.get(base)
    if gen is None:
        raise UnknownProposition(f"no instance generator for {base!r}")
    return gen(rng)


def _gen_i1(rng):
    return {"ab": _segment(rng), "side": rng.choice(("upper", "lower"))}


def _gen_i2(rng):
    while True:
        a = _point(rng)
        bc = _segment(rng)
        if a != bc.a:
            return {"a": a, "bc": bc}


def _gen_i3(rng):
    while True:
        g, l = _segment(rng), _segment(rng)
        if (g.length_sq() - l.length_sq()).sign() > 0:
            return {"greater": g, "less": l}


def _gen_i11(rng):
    l = _line(rng)
    t = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))
    d = l.direction()
    c = Point(l.p.x + d.dx * t, l.p.y + d.dy * t)
    return {"l": l, "c": c}


def _gen_i12(rng):
    while True:
        l = _line(rng)
        c = _point(rng)
        if not l.contains(c):
            return {"l": l, "c": c}


def _gen_i22(rng):
    a, b, c = _triangle_lengths(rng)
    return {"a_len": a, "b_len": b, "c_len": c, "base_ray": _ray(rng),
            "side": rng.choice(("upper", "lower"))}


def _gen_i23(rng):
    return {"target_ray": _ray(rng), "model": _angle(rng),
            "side": rng.choice(("upper", "lower"))}


def _gen_i31(rng):
    got = _gen_i12(rng)
    return {"p": got["c"], "l": got["l"]}


def _gen_i42(rng):
    return {"t": _triangle(rng), "d": _angle(rng)}


def _gen_i43(rng):
    pg = _parallelogram(rng)
    t = Fraction(rng.randint(1, 15), 16)
    a, _, c, _ = pg.vertices
    k = Point(a.x + (c.x - a.x) * t, a.y + (c.y - a.y) * t)
    return {"pg": pg, "k": k}


def _gen_i44(rng):
    return {"ab": _segment(rng), "t": _triangle(rng), "d": _angle(rng),
            "side": rng.choice(("upper", "lower"))}


def _gen_i45(rng):
    n = rng.randint(3, 8)
    return {"d_angle": _angle(rng), "f": _simple_polygon(rng, n)}


def _gen_i46(rng):
    return {"ab": _segment(rng), "side": rng.choice(("upper", "lower"))}


def _gen_t_pair(rng):
    t1 = _triangle(rng)
    return {"t1": t1, "t2": _congruent_copy(rng, t1)}


def _gen_i7(rng):
    while True:
        base = _segment(rng)
        c = _point(rng)
        if base.line().side_of(c) != 0:
            return {"base": base, "c": c, "d": c}


def _gen_i13(rng):
    while True:
        b, d, a = _distinct_points(rng, 3)
        c = Point(b.x * 2 - d.x, b.y * 2 - d.y)
        if not collinear(a, b, d):
            return {"a": a, "b": b, "c": c, "d": d}


def _gen_i15(rng):
    while True:
        e = _point(rng)
        u = _point(rng) - e
        v = _point(rng) - e
        if u.cross(v).sign() == 0 or (u.dx.is_zero() and u.dy.is_zero()) \
                or (v.dx.is_zero() and v.dy.is_zero()):
            continue
        return {"a": e + u, "b": Point(e.x - u.dx, e.y - u.dy),
                "c": e + v, "d": Point(e.x - v.dx, e.y - v.dy)}


def _gen_triangle_only(rng):
    return {"t": _triangle(rng)}


def _gen_i26(rng):
    got = _gen_t_pair(rng)
    got["case"] = rng.choice(("adjoining", "subtending"))
    return got


def _gen_transversal_bundle(rng):
    l1, l2 = _parallel_pair(rng)
    return {"l1": l1, "l2": l2, "transversal": _transversal(rng, l1, l2)}


def _gen_i28(rng):
    got = _gen_transversal_bundle(rng)
    got["form"] = rng.choice(("exterior", "cointerior"))
    return got


def _gen_i30(rng):
    l1, l2 = _parallel_pair(rng)
    while True:
        p = _point(rng)
        if not l1.contains(p) and not l2.contains(p):
            l3 = Line(p, p + l1.direction())
            return {"l1": l1, "l2": l2, "l3": l3}


def _gen_i33(rng):
    while True:
        ab = _segment(rng)
        off = _point(rng) - ab.a
        if ab.direction().cross(off).sign() == 0:
            continue
        cd = Segment(ab.a + off, ab.b + off)
        return {"ab": ab, "cd": cd}


def _gen_i34(rng):
    return {"pg": _parallelogram(rng)}


def _shear_pg(rng, a: Point, b: Point, v) -> Figure:
    t = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
    u = b - a
    w_x, w_y = v.dx + u.dx * t, v.dy + u.dy * t
    return Figure([a, b, Point(b.x + w_x, b.y + w_y), Point(a.x + w_x, a.y + w_y)])


def _base_and_offset(rng):
    """Distinct points a, b and an offset v not parallel to b - a."""
    while True:
        a, b = _distinct_points(rng, 2)
        v = _point(rng) - a
        if (b - a).cross(v).sign() != 0:
            return a, b, v


def _slid_base(rng, a: Point, b: Point) -> tuple[Point, Point]:
    """The base a, b moved along its own line by a random multiple."""
    r = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
    u = b - a
    return (Point(a.x + u.dx * r, a.y + u.dy * r),
            Point(b.x + u.dx * r, b.y + u.dy * r))


def _apex_on_parallel(rng, a: Point, b: Point, v) -> Point:
    s = Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
    u = b - a
    return Point(a.x + v.dx + u.dx * s, a.y + v.dy + u.dy * s)


def _gen_i35(rng):
    a, b, v = _base_and_offset(rng)
    return {"pg1": _shear_pg(rng, a, b, v), "pg2": _shear_pg(rng, a, b, v)}


def _gen_i36(rng):
    a, b, v = _base_and_offset(rng)
    a2, b2 = _slid_base(rng, a, b)
    return {"pg1": _shear_pg(rng, a, b, v), "pg2": _shear_pg(rng, a2, b2, v)}


def _gen_i37(rng):
    a, b, v = _base_and_offset(rng)
    return {"t1": Figure([a, b, _apex_on_parallel(rng, a, b, v)]),
            "t2": Figure([a, b, _apex_on_parallel(rng, a, b, v)])}


def _gen_i38(rng):
    a, b, v = _base_and_offset(rng)
    a2, b2 = _slid_base(rng, a, b)
    return {"t1": Figure([a, b, _apex_on_parallel(rng, a, b, v)]),
            "t2": Figure([a2, b2, _apex_on_parallel(rng, a2, b2, v)])}


def _gen_i41(rng):
    a, b, v = _base_and_offset(rng)
    return {"pg": _shear_pg(rng, a, b, v),
            "t": Figure([a, b, _apex_on_parallel(rng, a, b, v)])}


_GENERATORS: dict[str, Callable] = {
    "I.1": _gen_i1, "I.2": _gen_i2, "I.3": _gen_i3,
    "I.9": lambda rng: {"angle": _angle(rng)},
    "I.10": lambda rng: {"ab": _segment(rng)},
    "I.11": _gen_i11, "I.12": _gen_i12,
    "I.22": _gen_i22, "I.23": _gen_i23, "I.31": _gen_i31,
    "I.42": _gen_i42, "I.43": _gen_i43, "I.44": _gen_i44,
    "I.45": _gen_i45, "I.46": _gen_i46,
    "I.4": _gen_t_pair, "I.7": _gen_i7, "I.8": _gen_t_pair,
    "I.13": _gen_i13, "I.14": _gen_i13, "I.15": _gen_i15,
    "I.16": _gen_triangle_only, "I.20": _gen_triangle_only,
    "I.26": _gen_i26,
    "I.27": _gen_transversal_bundle, "I.28": _gen_i28,
    "I.29": _gen_transversal_bundle, "I.30": _gen_i30,
    "I.32": _gen_triangle_only, "I.33": _gen_i33, "I.34": _gen_i34,
    "I.35": _gen_i35, "I.36": _gen_i36, "I.37": _gen_i37, "I.38": _gen_i38,
    "I.41": _gen_i41,
}


# ---------------------------------------------------------------------------
# reports


@dataclass
class StrategyOutcome:
    strategy: Optional[str]
    passed: bool
    error: str = ""
    checks: list = field(default_factory=list)
    postulates: tuple[int, int, int] = (0, 0, 0)
    superpositions: int = 0
    max_radical_depth: int = 0
    object_count: int = 0

    def metric_lines(self) -> list[str]:
        name = self.strategy or "-"
        return [
            f"strategy={name} joins={self.postulates[0]}"
            f" extends={self.postulates[1]} circles={self.postulates[2]}"
            f" superpositions={self.superpositions}"
            f" max_radical_depth={self.max_radical_depth}"
            f" objects={self.object_count}"
        ]


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
            out.extend(oc.metric_lines())
        return out

    def records(self) -> list[dict]:
        out = []
        for name, oc in self.outcomes.items():
            out.append({
                "proposition": self.prop_id,
                "strategy": name,
                "passed": oc.passed,
                "error": oc.error,
                "joins": oc.postulates[0],
                "extends": oc.postulates[1],
                "circles": oc.postulates[2],
                "superpositions": oc.superpositions,
                "max_radical_depth": oc.max_radical_depth,
                "objects": oc.object_count,
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
        n = 0
        for inst in self.instances:
            for oc in inst.outcomes.values():
                if not oc.passed:
                    n += 1
        return n

    @property
    def runs(self) -> int:
        return sum(len(i.outcomes) for i in self.instances)

    def superposition_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for inst in self.instances:
            for name, oc in inst.outcomes.items():
                totals[name] = totals.get(name, 0) + oc.superpositions
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
                depth = max(depth, oc.max_radical_depth)
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
    """Run one construction strategy, or the validator of a theorem base."""
    try:
        if base not in elements.CONSTRUCTIONS:
            report = check_theorem(base, kwargs)
            return StrategyOutcome(None, report.all_pass,
                                   checks=list(report.claims))
        result = elements.CONSTRUCTIONS[base](
            **elements.strategy_kwargs(strategy, kwargs))
    except VerificationFailure as e:
        return StrategyOutcome(strategy, False, error=str(e))
    except EuclidError as e:
        return StrategyOutcome(strategy, False,
                               error=f"{type(e).__name__}: {e}")
    trace = result.trace
    return StrategyOutcome(
        strategy, all(c.passed for c in result.verification),
        checks=[(c.claim, c.passed, c.residual) for c in result.verification],
        postulates=trace.postulate_counts(),
        superpositions=trace.superposition_count,
        max_radical_depth=result.max_radical_depth(),
        object_count=trace.object_count)


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


def run_all(count: int = 100, seed: int = 7) -> dict[str, SuiteReport]:
    out = {}
    for prop_id in SUITE_IDS:
        out[prop_id] = run_suite(prop_id, count, seed)
    return out
