"""The acceptance gate: one test per criterion, exact tolerances, stated
time budgets.  Each test prints a PASS line (visible with pytest -s)."""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath

from euclid import verify
from euclid.elements import instances
from euclid.elements.areas import (
    P44_STRATEGIES,
    p44_apply,
    p45_apply_figure,
    triangulate,
)
from euclid.geom import Angle, Figure, Point, Segment, signed_area
from euclid.number import Constructible, new_context, sqrt_nonneg
from euclid.render import render_result

ROOT = Path(__file__).resolve().parent.parent


def P(x, y):
    return Point(Constructible(Fraction(x)), Constructible(Fraction(y)))


class Budget:
    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.2f}s exceeds {self.seconds}s")
            print(f"ACCEPTANCE {self.label}: PASS ({elapsed:.2f}s)")
        return False


def test_1_proclus_area_example():
    """Right triangles with legs (3,4) and (5,2) have contents 6 and 5."""
    with Budget(1.0, "1 proclus-areas"):
        t34 = Figure([P(0, 0), P(3, 0), P(3, 4)])
        t52 = Figure([P(0, 0), P(5, 0), P(5, 2)])
        assert (abs(signed_area(t34)) - 6).sign() == 0
        assert (abs(signed_area(t52)) - 5).sign() == 0


def test_2_application_breadth_three():
    """A content-12 triangle applied to a length-4 segment at a right angle
    yields a breadth of exactly three, in every strategy."""
    with Budget(1.0, "2 breadth-three"):
        ab = Segment(P(0, 0), P(4, 0))
        t = Figure([P(3, 4), P(0, 0), P(6, 0)])  # isoceles: all routes apply
        right = Angle(P(20, 20), P(21, 20), P(20, 21))
        for strategy in P44_STRATEGIES:
            new_context()
            got = p44_apply(ab, t, right, strategy)
            vs = got.result.vertices
            idx = next(i for i, p in enumerate(vs) if p == ab.a)
            nb = vs[idx - 1] if vs[(idx + 1) % 4] == ab.b else vs[(idx + 1) % 4]
            assert (ab.a.dist_sq(nb) - 9).sign() == 0, strategy


def test_3_triangulation_counts():
    """A simple 10-gon splits into exactly 8 triangles; an n-gon into n-2."""
    with Budget(1.0, "3 triangulation-counts"):
        rng = random.Random(11)
        right = Angle(P(20, 20), P(21, 20), P(20, 21))
        decagon = instances._simple_polygon(rng, 10)
        assert len(triangulate(decagon)) == 8
        for n in (4, 5, 6, 7, 8):
            new_context()
            poly = instances._simple_polygon(rng, n)
            got = p45_apply_figure(right, poly)
            assert len(got.objects["triangles"]) == n - 2


def test_4_superposition_ledger():
    """Over 100 random instances the placement step appears exactly once in
    the classical route and never in the three medieval routes."""
    with Budget(10.0, "4 superposition-ledger"):
        rng = random.Random(7)
        strategies = ("euclid_superposition", "alnayrizi",
                      "robert_of_chester", "campanus")
        for _ in range(100):
            new_context()
            kwargs = verify.generate_instance("I.44", rng)
            for strategy in strategies:
                got = p44_apply(**dict(kwargs, strategy=strategy))
                want = 1 if strategy == "euclid_superposition" else 0
                assert got.trace.superposition_count == want


SUITE_PLAN = (
    ("I.1", 100), ("I.2", 100), ("I.3", 100), ("I.9", 100), ("I.10", 100),
    ("I.11", 100), ("I.12", 100), ("I.22", 100), ("I.23", 100),
    ("I.31", 100), ("I.42", 100), ("I.43", 100), ("I.44", 100),
    ("I.45", 100), ("I.46", 100),
)


def test_5_exact_postcondition_suites():
    """100 random instances per construction (all strategies), exact."""
    with Budget(60.0, "5 construction-suites"):
        for prop_id, n in SUITE_PLAN:
            report = verify.run_suite(prop_id, n, seed=7)
            assert report.failures == 0, "\n".join(report.lines())


THEOREM_PLAN = ("I.13", "I.15", "I.27", "I.28", "I.29", "I.30", "I.32",
                "I.33", "I.34", "I.35", "I.36", "I.37", "I.38", "I.41")


def test_6_theorem_validators():
    """100 hypothesis-conforming instances per theorem, conclusions exact."""
    with Budget(30.0, "6 theorem-suites"):
        for theorem_id in THEOREM_PLAN:
            report = verify.run_suite(theorem_id, 100, seed=7)
            assert report.failures == 0, "\n".join(report.lines())


def test_7_number_oracle_agreement():
    """10,000 random radical expressions of depth at most three: sign
    decisions agree with a 100-digit interval oracle whenever the interval
    excludes zero; the identically-zero family reports sign 0."""
    with Budget(60.0, "7 number-oracle"):
        rng = random.Random(20260809)

        def build(depth):
            kind = rng.randint(0, 5 if depth > 0 else 2)
            if kind == 0:
                q = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                return Constructible(q), mpmath.mpf(q.numerator) / q.denominator
            if kind == 1:
                q = rng.randint(1, 30)
                return Constructible(q), mpmath.mpf(q)
            if kind == 2:
                q = rng.randint(-5, 5)
                return Constructible(q), mpmath.mpf(q)
            a, fa = build(depth - 1)
            b, fb = build(depth - 1)
            if kind == 3:
                return a + b, fa + fb
            if kind == 4:
                return a * b, fa * fb
            if a.sign() < 0:
                a, fa = -a, -fa
            return sqrt_nonneg(a), mpmath.sqrt(fa)

        with mpmath.workdps(100):
            threshold = mpmath.mpf(10) ** -80
            for _ in range(10000):
                new_context()
                value, approx = build(3)
                if abs(approx) > threshold:
                    assert value.sign() == (1 if approx > 0 else -1)

        for _ in range(500):
            new_context()
            a = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            b = Fraction(rng.randint(1, 40), rng.randint(1, 12))
            ra = sqrt_nonneg(Constructible(a))
            rb = sqrt_nonneg(Constructible(b))
            inner = sqrt_nonneg(Constructible(a * b))
            total = sqrt_nonneg(Constructible(a) + Constructible(b) + 2 * inner)
            assert (ra + rb - total).sign() == 0


def test_8_determinism():
    """Identical scripts and seeds give byte-identical traces, reports and
    SVG across two consecutive runs."""
    with Budget(30.0, "8 determinism"):
        script = str(ROOT / "scripts" / "i44.euc")
        env_cmds = [
            [sys.executable, "-m", "euclid", "run", script, "--trace"],
            [sys.executable, "-m", "euclid", "suite", "I.42", "--n", "3",
             "--seed", "9"],
        ]
        for cmd in env_cmds:
            a = subprocess.run(cmd, capture_output=True, cwd=ROOT)
            b = subprocess.run(cmd, capture_output=True, cwd=ROOT)
            assert a.returncode == b.returncode == 0
            assert a.stdout and a.stdout == b.stdout

        from euclid.elements.basics import p1_equilateral

        first = render_result(p1_equilateral(Segment(P(0, 0), P(1, 0))))
        new_context()
        second = render_result(p1_equilateral(Segment(P(0, 0), P(1, 0))))
        assert first == second
