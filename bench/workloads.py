"""The four workloads.  Each maps a seed to a pool of operations that the
loop in run.py replays, pass after pass, in an order drawn per pass.

An operation is a callable ``op(probe)`` that does its work and returns a
``check`` callable; the loop times only ``op`` and counts a ``check`` that
returns False, or an error raised by either, as one failed operation.
Operations can be run again: each repeat does all of its work afresh.
The areas and figures pools are the same for every seed (see AREA_SEEDS
and the recorded digests); the seed still sets the order of each pass.
``probe`` is a ``spans.NullProbe`` in timed runs and the ``Recorder`` in
the traced run.  All calls go through the public functions of the engine,
looked up on their modules at call time so the recorder's rebinding sees
them.

Why each workload exists is in NOTES.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from euclid import cli, elements, number, verify

# Instance seeds per areas proposition.  areas replays the same instances
# in every run: I.45 cost is heavy-tailed (over seeds 0..63 four instances
# take 1.4 to 2.3 s, the median 52 ms, coefficient of variation 1.9), so a
# sample drawn afresh per run and small enough to time in one run would
# move ops_per_s by about 15% between seeds.  The counts put the median op
# inside the dense I.44 cluster (30 to 70 ms).  At equal counts it fell on
# the gap below it, after the cheap I.42 and I.46 suites (about 5 ms) and
# the small I.45 instances, and op_p50_ms jumped across that gap.
AREA_SEEDS = {"I.42": range(10), "I.44": range(48), "I.45": range(32),
              "I.46": range(10)}
BOOK1_IDS = tuple(i for i in verify.SUITE_IDS if i not in AREA_SEEDS)
BOOK1_PER_ID = 32
TOWER_LEVELS = (0, 4, 8, 12)
TOWERS_PER_KIND = 64
FIGURE_SEEDS = range(8)
SVG_PATH = ".bench_build/figure.svg"
# Passes per run, at least: the repeats an op's median latency is taken
# over.  areas' 100 fixed ops put single I.45 instances at op_p90_ms, and a
# median of three repeats of one left about 7% between runs, so areas
# repeats five times; the other pools are large enough to average it out.
PASSES = {"areas": 5, "book1": 3, "towers": 3, "figures": 3}
DIGESTS = Path(__file__).with_name("figures.sha256")


def _rng(name: str, seed: int) -> random.Random:
    # string seeds are hashed with SHA-512, so no PYTHONHASHSEED dependence
    return random.Random(f"{name}:{seed}")


def _suite_op(prop_id: str, instance_seed: int):
    """A one-instance suite over every strategy, in its own field context."""
    expected = len(elements.STRATEGIES.get(prop_id, (None,)))

    def op(probe):
        report = verify.run_suite(prop_id, 1, instance_seed)
        probe.tower()
        return lambda: report.runs == expected and report.failures == 0

    return op


def areas_pool(seed: int) -> list:
    return [_suite_op(prop_id, s) for prop_id, seeds in AREA_SEEDS.items()
            for s in seeds]


def book1_pool(seed: int) -> list:
    rng = _rng("book1", seed)
    return [_suite_op(prop_id, rng.getrandbits(32))
            for _ in range(BOOK1_PER_ID) for prop_id in BOOK1_IDS]


# ---------------------------------------------------------------------------
# towers: the number layer alone against tower size


def _squarefree(rng: random.Random) -> int:
    while True:
        n = rng.randint(2, 97)
        if all(n % (p * p) for p in (2, 3, 5, 7)):
            return n


def _tower(rng: random.Random, levels: int, nested: bool) -> list:
    """Generators sqrt(r_1) .. sqrt(r_levels) of a fresh tower.

    Radicands are squarefree integers; with ``nested`` the top two are
    ``a + b*sqrt(r_j)`` over a lower generator.  A radicand whose root the
    tower already holds is drawn again, so the tower has exactly
    ``levels`` levels.
    """
    ctx = number.current_context()
    gens = []
    while len(gens) < levels:
        if nested and len(gens) >= levels - 2:
            a = rng.randint(2, 12)
            b = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3)))
            rad = a + b * rng.choice(gens)
            if rad.sign() <= 0:
                continue
        else:
            rad = number.Constructible(_squarefree(rng))
        before = len(ctx.radicands)
        root = number.sqrt_nonneg(rad)
        if len(ctx.radicands) > before:
            gens.append(root)
    return gens


def _element(rng: random.Random, gens: list):
    """c0 + c1*g_top + c2*g_i + c3*g_j*g_k over random lower generators."""
    def coeff():
        return Fraction(rng.randint(1, 5), rng.randint(1, 3))

    x = number.Constructible(rng.choice((-1, 1))
                             * Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    if gens:
        x = x + coeff() * gens[-1]
    if len(gens) >= 4:
        i, j, k = rng.sample(range(len(gens) - 1), 3)
        x = x + coeff() * gens[i] + coeff() * gens[j] * gens[k]
    return x


def _tower_op(levels: int, nested: bool, op_seed: int):
    kind = f"L{levels}-nested" if nested else f"L{levels}"

    def op(probe):
        rng = random.Random(op_seed)
        t0 = perf_counter()
        gens = _tower(rng, levels, nested)
        t1 = perf_counter()
        p = _element(rng, gens)
        q = _element(rng, gens)
        t2 = perf_counter()
        pq = p * q
        t3 = perf_counter()
        p_inv = 1 / p
        t4 = perf_counter()
        p_sign = p.sign()
        t5 = perf_counter()
        square = p * p
        height = len(number.current_context().radicands)
        t6 = perf_counter()
        root = number.sqrt_nonneg(square)
        t7 = perf_counter()
        probe.tower()
        for step, seconds in (("build", t1 - t0), ("mul", t3 - t2),
                              ("inv", t4 - t3), ("sign", t5 - t4),
                              ("sqrt", t7 - t6)):
            probe.step(f"{step}.{kind}", seconds)

        def check():
            return (height == levels
                    and p * p_inv == 1
                    and pq == q * p
                    and p_sign == (1 if p.approx(40)[0] != "-" else -1)
                    and root == abs(p)
                    and len(number.current_context().radicands) == height)
        return check

    return op


def towers_pool(seed: int) -> list:
    rng = _rng("towers", seed)
    return [_tower_op(levels, nested, rng.getrandbits(32))
            for _ in range(TOWERS_PER_KIND)
            for levels in TOWER_LEVELS for nested in (False, True)]


# ---------------------------------------------------------------------------
# figures: in-process command lines whose output is checked byte for byte


def figure_calls() -> list[list[str]]:
    """Every figures command line, without the --trace --svg suffix."""
    calls = [["run", "scripts/i1.euc"], ["run", "scripts/i44.euc"],
             ["prop", "I.45", "--input", "scripts/decagon.txt"]]
    for prop_id in elements.CONSTRUCTIONS:
        for strategy in elements.STRATEGIES.get(prop_id, (None,)):
            pick = ["--strategy", strategy] if strategy else []
            calls.extend(["prop", prop_id, *pick, "--seed", str(s)]
                         for s in FIGURE_SEEDS)
    return calls


def run_figure(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and standard output of one CLI call that writes SVG_PATH."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--trace", "--svg", SVG_PATH])
    return code, out.getvalue().encode("utf-8")


def figure_digest(stdout: bytes) -> str:
    svg_path = Path(SVG_PATH)
    svg = svg_path.read_bytes()
    svg_path.unlink()
    return hashlib.sha256(stdout + b"\0" + svg).hexdigest()


def load_digests() -> dict[str, str]:
    digests = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        digest, argv = line.split("  ", 1)
        digests[argv] = digest
    return digests


def _figure_op(argv: list[str], digest: str):
    def op(probe):
        code, stdout = run_figure(argv)
        probe.tower()
        return lambda: code == 0 and figure_digest(stdout) == digest

    return op


def figures_pool(seed: int) -> list:
    digests = load_digests()
    return [_figure_op(argv, digests[" ".join(argv)]) for argv in figure_calls()]


WORKLOADS = {
    "areas": areas_pool,
    "book1": book1_pool,
    "towers": towers_pool,
    "figures": figures_pool,
}
