"""The field context is per thread: concurrent suites give the same
reports as sequential ones, and a new context in one thread leaves the
others alone."""

import sys
import threading

from euclid.number import current_context, new_context
from euclid.verify import run_suite

JOBS = (("I.44", 7), ("I.23", 8), ("I.42", 5), ("I.46", 3))
N = 4


def _in_thread(fn):
    """Run fn in a new thread and return its result."""
    out = []
    t = threading.Thread(target=lambda: out.append(fn()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    return out[0]


def test_concurrent_suites_match_sequential():
    expected = {job: run_suite(job[0], N, job[1]) for job in JOBS}
    got: dict = {}

    def work(job):
        got[job] = run_suite(job[0], N, job[1])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(job,)) for job in JOBS]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for job in JOBS:
        assert got[job].lines() == expected[job].lines()
        assert got[job].records() == expected[job].records()


def test_new_context_stays_in_its_thread():
    main_ctx = new_context()
    worker_ctx = _in_thread(new_context)
    assert worker_ctx is not main_ctx
    assert current_context() is main_ctx


def test_fresh_thread_gets_its_own_context():
    main_ctx = current_context()
    first = _in_thread(current_context)
    assert first is not main_ctx
    assert current_context() is main_ctx
