"""Report and trace bytes are pinned.  ``test_8_determinism`` compares two
runs of the same code; these digests compare a run with the bytes recorded
before the last change to the engine.  A change that alters report or trace
output on purpose re-records the digests and says why in CHANGES.md."""

import hashlib
import os
from pathlib import Path

import pytest

from euclid import elements
from euclid.cli import main

FIVE = ("euclid_superposition,alnayrizi,robert_of_chester,campanus,"
        "tinemue_equal_case")

PINNED = [
    ("suite all --n 2 --seed 7",
     "8d5f315d7542a1562e117bd6cca1f369ccd3ce2a75a40d3a1d00bd7ffcd57915"),
    ("suite all --n 2 --seed 7 --records",
     "38a8df6d14cd6036494fc1bc3cacac873ef28925977c122768bf44cb536fee9f"),
    (f"compare I.44 --strategies {FIVE} --seed 3",
     "c51a076379d309f4b27d70fcc772c8d26103ab120410c4d3cfe3e081d4107838"),
    (f"compare I.44 --strategies {FIVE} --seed 3 --records",
     "1e54c38e2b715314ec2dff3b1680eec156af90479728a5910be2dc6bdc62037e"),
]


@pytest.mark.parametrize("argv, digest", PINNED, ids=[a for a, _ in PINNED])
def test_report_bytes(monkeypatch, capsys, argv, digest):
    monkeypatch.delenv("EUCLID_SEED", raising=False)
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _trace_argvs(flags=("--trace",)):
    """``prop <id> [--strategy s] --seed 3`` and ``flags`` for every
    construction and strategy, in registry order."""
    for pid, prop in elements.PROPOSITIONS.items():
        for strategy in list(prop.strategies) or [None]:
            extra = ["--strategy", strategy] if strategy else []
            yield ["prop", pid, *extra, "--seed", "3", *flags]


TRACE_DIGEST = ("4c1e0dd7845409bf3a1822eaa2cdb4d4"
                "322d0a38440d4a4b0273c92d1391aa91")


def test_trace_bytes(monkeypatch, capsys):
    monkeypatch.delenv("EUCLID_SEED", raising=False)
    digest = hashlib.sha256()
    argvs = list(_trace_argvs())
    assert len(argvs) == 26
    for argv in argvs:
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert digest.hexdigest() == TRACE_DIGEST


SVG_DIGEST = ("12c61d875bbf06663ee9f8425eb1869e"
              "2e0a31d61b063e881464305f29f06712")


def test_svg_bytes(monkeypatch, capsys, tmp_path):
    """The stdout and the SVG file of ``prop ... --svg`` for every
    construction and strategy, then of ``run scripts/i44.euc --svg``."""
    monkeypatch.delenv("EUCLID_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    script = Path(__file__).resolve().parent.parent / "scripts" / "i44.euc"
    argvs = [*_trace_argvs(("--svg", "fig.svg")),
             ["run", str(script), "--svg", "fig.svg"]]
    assert len(argvs) == 27
    digest = hashlib.sha256()
    for argv in argvs:
        assert main(argv) == 0
        digest.update(capsys.readouterr().out.encode("utf-8"))
        digest.update((tmp_path / "fig.svg").read_bytes())
    assert digest.hexdigest() == SVG_DIGEST
