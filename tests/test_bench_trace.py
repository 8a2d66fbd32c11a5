"""The traced benchmark run (bench/run.py --trace 1) rebinds engine names
for its span recorder; it breaks if one of them disappears."""

import sys
from pathlib import Path

from euclid import elements, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _rebound():
    return (elements.check_theorem, elements.triangulate,
            dict(elements.CONSTRUCTIONS), dict(elements.STRATEGIES),
            verify.generate_instance, verify.run_suite)


def test_recorder_install_and_uninstall(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = _rebound()
    recorder = spans.Recorder()
    recorder.install()
    try:
        verify.run_suite("I.44", 1, 3)
    finally:
        recorder.uninstall()
    assert recorder.total("verify.generate_instance")[0] > 0
    assert recorder.total("elements.I.44.alnayrizi")[0] > 0
    assert _rebound() == before
