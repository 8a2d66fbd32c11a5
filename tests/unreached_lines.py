"""Print each executable line of ``src/`` that the tier-1 tests do not reach.

Runs the tier-1 tests in this process under ``sys.settrace`` (threads
too), then lists every line that holds code and never ran, as
``path:line``.  Subprocess children are not traced, so a line that only
a child process runs, such as ``python -m euclid``'s ``__main__.py``, is
listed as well.  pytest does not collect this file; run it from the
repository root, with extra pytest arguments if wanted::

    PYTHONPATH=src python tests/unreached_lines.py [-x ...]

Tracing makes the run several times slower than plain tier-1.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that hold at least one instruction."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args: list[str]) -> int:
    prefix = str(SRC)
    reached: dict[str, set[int]] = {}

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(SRC.rglob("*.py")):
        seen = reached.get(str(path), set())
        for line in sorted(executable_lines(path) - seen):
            print(f"{path.relative_to(ROOT)}:{line}")
            missed += 1
    print(f"{missed} unreached lines in src/; subprocess children are not "
          "traced, so lines they alone run are listed too")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
