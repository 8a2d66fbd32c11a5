"""Benchmark harness for the euclid engine.

One process, one caller, no threads: a closed loop that starts each
operation in a fresh field context once the previous one has finished.
Each workload's pool of operations is replayed in passes.  Every time is
scaled by a fixed reference job timed beside it (see ``Reference``), and
an operation's latency is the median of its repeats.

    python3 bench/run.py --workload areas --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --results runs.jsonl
    python3 bench/run.py --compare parent.jsonl change.jsonl

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
BENCHMARK.json is the registry of metric names, units and bounds.
``--workload all`` runs every workload in its own process and prints a
table; ``--results`` appends each result, tagged with its workload, to a
JSON-lines file that ``--compare`` reads.  NOTES.md explains the choices.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("areas", "book1", "towers", "figures")
MIN_OPS = 100           # so that at least ten operations lie beyond p90
SETUP_RUNS = 15
CHUNK_S = 0.2           # wall time between two timings of the reference job
MIN_REPEATS = 3         # repeats of every op, however long
OP_BUDGET_S = 1.0       # scaled repeats of one op that settle its median
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import euclid.cli, euclid.dsl, euclid.render, euclid.verify
from euclid.number import new_context
new_context()
print(time.perf_counter() - t0, flush=True)
"""
TABLE = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "failed_ratio",
         "peak_rss_mb")


def import_engine() -> None:
    """Import the engine from this checkout's source tree, or exit."""
    if not (SRC / "euclid" / "__init__.py").is_file():
        raise SystemExit(f"bench: no engine source under {SRC}")
    sys.path.insert(0, str(SRC))
    import euclid

    if Path(euclid.__file__).resolve().parent != SRC / "euclid":
        raise SystemExit(f"bench: imported euclid from {euclid.__file__}")


class Reference:
    """A fixed pure-Python job that stands in for the speed of the host.

    The host switches between a fast and a slow state (the slow one takes
    1.6 to 1.8 times as long), in stretches of a second to minutes, and the
    switch moves the engine and this job alike.  So each measured time is
    multiplied by ``(REFERENCE_S / job time beside it) ** EXPONENT``: the
    time the work would take on a host where the job takes ``REFERENCE_S``.
    Engine calls slow down a little less than the job; EXPONENT is the
    power that left no trend against other probes of the host's state
    (NOTES.md).  The job uses only the standard library, so a change to the
    engine moves the scaled times in full.
    """

    REFERENCE_S = 0.0024    # the job's time on this benchmark's first host, fast state
    EXPONENT = 0.85

    @staticmethod
    def job() -> int:
        x, acc, table = Fraction(1, 3), 0, {}
        for i in range(1, 300):
            y = Fraction(i, i + 7)
            x = (x * y + Fraction(1, i)) / (y + 1)
            table[i % 97, i] = acc = (acc + x.numerator) % 1000003
            if x.denominator > 10**40:
                x = Fraction(x.numerator % 1009, x.denominator % 1013 + 1)
        return len(table)

    def __call__(self) -> float:
        """Seconds the job takes now.  The garbage collector is off while
        it runs: a collection then walks whatever the process holds (the
        traced run's spans, for one) and would be charged to the host."""
        gc.disable()
        try:
            t0 = perf_counter()
            self.job()
            return perf_counter() - t0
        finally:
            gc.enable()

    def scale(self, before: float, after: float) -> float:
        """Factor for a time measured between two timings of the job."""
        return (self.REFERENCE_S / ((before + after) / 2)) ** self.EXPONENT


class SetupSampler:
    """Set-up time: wall time from interpreter start until the engine is
    imported and a first context exists, in a child process, and the import
    time the child measures itself; both scaled by the reference job timed
    just before and just after the child.

    Called between operations, the sampler starts one child every
    ``every`` seconds, so the children are spread over the run; ``median``
    tops up to SETUP_RUNS children and reports the median of each.  One
    uncounted child first fills the bytecode cache.
    """

    def __init__(self, seconds: float, reference: Reference) -> None:
        self.every = seconds / SETUP_RUNS
        self.reference = reference
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.walls: list[float] = []
        self.imports: list[float] = []
        self._child()
        self.walls.clear()
        self.imports.clear()
        self.due = perf_counter()

    def _child(self) -> None:
        before = self.reference()
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD], cwd=ROOT,
                              env=self.env, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            t1 = perf_counter()
        if child.returncode != 0:
            raise SystemExit("bench: the set-up child failed")
        scale = self.reference.scale(before, self.reference())
        self.walls.append((t1 - t0) * scale)
        self.imports.append(float(line) * scale)

    def __call__(self) -> None:
        if len(self.walls) < SETUP_RUNS and perf_counter() >= self.due:
            self._child()
            self.due = perf_counter() + self.every

    def median(self) -> tuple[float, float]:
        while len(self.walls) < SETUP_RUNS:
            self._child()
        return statistics.median(self.walls), statistics.median(self.imports)


def run_passes(pool: list, seed: int, probe, reference: Reference,
               passes: int, min_seconds: float = 0.0, between=None) -> dict:
    """Replay the pool, passes in an order drawn from the seed, until
    ``passes`` are done and ``min_seconds`` have passed.

    The reference job is timed every CHUNK_S seconds between operations;
    each latency is scaled by the job's times on either side of its chunk,
    and an operation's latency is the median of its scaled repeats.  A
    pass skips an operation that has MIN_REPEATS repeats summing to at
    least OP_BUDGET_S: its median is settled, and the few long operations
    (I.45 instances of 0.4 to 1.2 s) would otherwise take half of every
    areas pass.
    ``between`` runs between chunks."""
    from euclid import number

    samples: list[list[float]] = [[] for _ in pool]
    attempted = failed = done = 0
    errors: list[str] = []
    order = list(range(len(pool)))
    chunk: list[tuple[int, float]] = []
    before = reference()
    chunk_end = perf_counter() + CHUNK_S
    start = perf_counter()
    while True:
        random.Random(f"order:{seed}:{done}").shuffle(order)
        for i in order:
            if len(samples[i]) >= MIN_REPEATS and sum(samples[i]) >= OP_BUDGET_S:
                continue
            probe.op_id = i
            number.new_context()
            t0 = perf_counter()
            latency = None
            try:
                check = pool[i](probe)
                latency = perf_counter() - t0
                ok = check()
            except Exception as exc:  # an engine error fails this op only
                if latency is None:
                    latency = perf_counter() - t0
                ok = False
                errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            # drop this op's results here, not inside the next op's timing
            check = None
            chunk.append((i, latency))
            attempted += 1
            if not ok:
                failed += 1
                if len(errors) < failed:
                    errors.append(f"op {i}: output check failed")
            if perf_counter() >= chunk_end:
                before = _close_chunk(chunk, samples, reference, before)
                if between is not None:
                    between()
                    before = reference()
                chunk_end = perf_counter() + CHUNK_S
        done += 1
        elapsed = perf_counter() - start
        if done >= passes and elapsed >= min_seconds:
            break
    _close_chunk(chunk, samples, reference, before)
    return {"latency": [statistics.median(s) for s in samples],
            "attempted": attempted, "failed": failed, "errors": errors}


def _close_chunk(chunk: list, samples: list, reference: Reference,
                 before: float) -> float:
    """Scale the chunk's latencies into ``samples``; return the job's time
    after the chunk, the ``before`` of the next one."""
    after = reference()
    scale = reference.scale(before, after)
    for i, latency in chunk:
        samples[i].append(latency * scale)
    chunk.clear()
    return after


def end_to_end(run: dict, setup_s: float) -> dict:
    latency = run["latency"]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latency) / sum(latency),
        "op_p50_ms": statistics.median(latency) * 1e3,
        "op_p90_ms": statistics.quantiles(latency, n=10)[-1] * 1e3,
        "failed_ratio": run["failed"] / run["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(names: list[str], rec, extra: dict) -> dict:
    """Per-layer values by metric name, over one traced pass of the pool.
    ``X.calls`` and ``X.self_s`` are span X's calls and self seconds;
    ``number.S.K.mean_ms`` is the mean of towers step S on tower kind K."""
    counts = rec.counts
    adjoined, in_tower = counts["sqrt.adjoined"], counts["sqrt.in_tower"]
    levels = rec.tower_levels
    values = dict(extra)
    values.update({
        "number.sqrt.adjoined": adjoined,
        "number.sqrt.in_tower_ratio": in_tower / max(adjoined + in_tower, 1),
        "number.tower.levels_max": max(levels, default=0),
        "number.tower.levels_mean": statistics.fmean(levels) if levels else 0.0,
        "number.tower.rational_radicand_ratio":
            rec.tower_rational / max(sum(levels), 1),
        "number.memo.entries_mean":
            statistics.fmean(rec.memo_entries) if rec.memo_entries else 0.0,
        "number.memo.entries_max": max(rec.memo_entries, default=0),
        "render.svg_bytes": counts["render.svg_bytes"],
    })
    for name in names:
        if name in values:
            continue
        stem, _, kind = name.rpartition(".")
        if kind in ("calls", "self_s"):
            if stem not in rec.names:
                raise SystemExit(f"bench: no span is recorded as {stem!r}")
            calls, self_s = rec.total(stem)
            values[name] = calls if kind == "calls" else self_s
        elif kind == "mean_ms" and stem.startswith("number."):
            times = rec.steps.get(stem[len("number."):])
            values[name] = statistics.fmean(times) * 1e3 if times else 0.0
        else:
            raise SystemExit(f"bench: no rule computes {name!r}")
    return values


def run_workload(args, spec: dict) -> int:
    import_engine()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads

    os.environ.pop("EUCLID_SEED", None)     # the CLI would let it override --seed
    os.chdir(ROOT)
    BUILD.mkdir(exist_ok=True)
    pool = workloads.WORKLOADS[args.workload](args.seed)
    if len(pool) < MIN_OPS:
        raise SystemExit(f"bench: {args.workload} has {len(pool)} operations")
    reference = Reference()
    setup = SetupSampler(args.seconds, reference)
    passes = workloads.PASSES[args.workload]
    if not args.trace:
        run = run_passes(pool, args.seed, spans.NullProbe(), reference, passes,
                         args.seconds, between=setup)
        values = end_to_end(run, setup.median()[0])
        section, runs = spec["end_to_end"], [run]
    else:
        # untraced passes for half the time, then one traced pass; the
        # ratio of their summed op latencies is the tracing overhead
        plain = run_passes(pool, args.seed, spans.NullProbe(), reference,
                           passes, args.seconds / 2, between=setup)
        rec = spans.Recorder()
        rec.install()
        try:
            traced = run_passes(pool, args.seed, rec, reference, 1)
        finally:
            rec.uninstall()
        spans_dir = BUILD / "spans"
        spans_dir.mkdir(exist_ok=True)
        rec.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.tsv")
        plain_rate = len(pool) / sum(plain["latency"])
        traced_rate = len(pool) / sum(traced["latency"])
        section, runs = spec["per_layer"], [plain, traced]
        values = per_layer([m["name"] for m in section], rec, {
            "setup.import_s": setup.median()[1],
            "bench.ops_per_s.untraced": plain_rate,
            "bench.ops_per_s.traced": traced_rate,
            "bench.trace_overhead": plain_rate / traced_rate,
        })
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for run in runs:
        for line in run["errors"][:5]:
            print(f"bench: {args.workload}: {line}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} attempted={attempted} "
          f"failed={failed} failed_ratio={failed / attempted:.6g}",
          file=sys.stderr)
    for metric in section:
        print(f"bench:   {metric['name']} = {values[metric['name']]:.6g} "
              f"{metric['unit']}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    if args.results:
        append_result(args.results, args, result)
    print(json.dumps(result))
    return 0


def append_result(path: str, args, result: dict) -> None:
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "result": result}
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")


def run_all(args, spec: dict) -> int:
    """Each workload in its own process; one table row per workload."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units["failed_ratio"] = "ratio"
    status = 0
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.results:
            cmd += ["--results", args.results]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}, no result")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values["failed_ratio"] = result["failed"] / result["attempted"]
        rows.append((name, values))
    if args.trace:
        for name, values in rows:
            for metric, value in values.items():
                print(f"{name:8} {metric:44} {value:14.6g}")
        return status
    print(f"{'workload':8}" + "".join(f"{m:>22}" for m in TABLE))
    print(f"{'':8}" + "".join(f"{'(' + units[m] + ')':>22}" for m in TABLE))
    for name, values in rows:
        print(f"{name:8}" + "".join(f"{values[m]:>22.6g}" for m in TABLE))
    return status


# ---------------------------------------------------------------------------
# compare mode


def load_results(path: str) -> dict:
    """{(workload, trace): [result, ...]} in file order."""
    groups: dict = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            groups.setdefault((rec["workload"], rec["trace"]), []).append(
                rec["result"])
    return groups


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> str:
    """The choosing-metrics rule over runs paired in file order."""
    def wins(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    mp, mc = statistics.median(parent), statistics.median(change)
    q1p, _, q3p = statistics.quantiles(parent, n=4)
    q1c, _, q3c = statistics.quantiles(change, n=4)
    pairs = list(zip(parent, change))
    won = sum(wins(c, p) for p, c in pairs)
    if won >= 0.9 * len(pairs) and abs(mc - mp) > q3p - q1p:
        return "gain"
    if max((q3p - q1p) / abs(mp), (q3c - q1c) / abs(mc)) > bound:
        if all(wins(c, p) for c in change for p in parent):
            return "better in every run"
        return "unresolved"
    worse = (mc - mp) / abs(mp) if better == "lower" else (mp - mc) / abs(mp)
    return "regression" if worse > bound else "within bound"


def compare(parent_path: str, change_path: str, spec: dict) -> int:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_results(parent_path), load_results(change_path)
    status = 0
    print("workload metric unit: parent median [q1, q3] (n) | change median "
          "[q1, q3] (n) | change/parent | verdict")
    for key in sorted(set(parent) & set(change)):
        workload, _ = key
        p_runs, c_runs = parent[key], change[key]
        for name in p_runs[0]["metrics"]:
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            unit = p_runs[0]["metrics"][name]["unit"]
            cells = []
            for vals in (pv, cv):
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                cells.append(f"{statistics.median(vals):.6g} "
                             f"[{q[0]:.6g}, {q[2]:.6g}] ({len(vals)})")
            mp = statistics.median(pv)
            ratio = statistics.median(cv) / mp if mp else float("nan")
            judged = ""
            if name in bounds and len(pv) > 1 and len(cv) > 1:
                judged = verdict(pv, cv, bounds[name]["better"],
                                 bounds[name]["bound"])
                status |= judged == "regression"
            print(f"{workload} {name} {unit}: {cells[0]} | {cells[1]} | "
                  f"{ratio:.4f} | {judged}")
        for results, side in ((p_runs, "parent"), (c_runs, "change")):
            failed = sum(r["failed"] for r in results)
            if failed:
                print(f"{workload}: {failed} failed operations on the {side}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append results to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if not SPEC.is_file():
        raise SystemExit(f"bench: {SPEC.name} is missing")
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
