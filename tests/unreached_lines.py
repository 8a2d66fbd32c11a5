"""Print each executable line of ``src/`` that the tier-1 tests do not reach.

Reads the executable lines of every source file, runs the tier-1 tests
in this process under ``sys.settrace`` (threads too), then lists every one
of those lines that never ran, as ``path:line``.  The lines are read
before the tests start.  A source file edited during the run could have
been imported either way, so when one differs afterwards from what was
read, it is named, nothing is listed and the exit status is 2.
Subprocess children are not traced, so a line that only a child process
runs, such as ``python -m euclid``'s ``__main__.py``, is listed as well.
pytest does not collect this file; run it from the repository root, with
extra pytest arguments if wanted::

    PYTHONPATH=src python tests/unreached_lines.py [-x ...]

With ``--traffic`` it runs the front doors' traffic in place of the
tests: one pass of each ``bench/workloads.py`` pool at seed 0, from a
temporary copy of ``scripts/``, then ``suite all`` (plain and with
``--records``) and one ``compare`` of the I.44 routes, each operation in
a fresh field context as ``bench/run.py`` starts it; the exit status is
1 if an operation failed::

    PYTHONPATH=src python tests/unreached_lines.py --traffic

Tracing makes the run several times slower than plain tier-1.
"""

import contextlib
import io
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def executable_lines(path: Path, source: str) -> set[int]:
    """The lines of a source file that hold at least one instruction."""
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traffic() -> int:
    """Run the traffic; the number of operations that failed.  Every
    euclid module is first imported here, under the trace."""
    sys.dont_write_bytecode = True  # leave no __pycache__ in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import spans
    import workloads
    from euclid import cli, elements, number

    probe, failed = spans.NullProbe(), 0
    commands = (["suite", "all"], ["suite", "all", "--records"],
                ["compare", "I.44", "--strategies",
                 ",".join(elements.STRATEGIES["I.44"])])
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "scripts", Path(tmp) / "scripts")
        (Path(tmp) / ".bench_build").mkdir()
        os.chdir(tmp)
        try:
            for pool in workloads.WORKLOADS.values():
                for op in pool(0):
                    number.new_context()
                    failed += not op(probe)()
            for argv in commands:
                number.new_context()
                with contextlib.redirect_stdout(io.StringIO()):
                    failed += cli.main(argv) != 0
        finally:
            os.chdir(cwd)
    return failed


def main(args: list[str]) -> int:
    prefix = str(SRC)
    sources = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    executable = {path: executable_lines(path, source)
                  for path, source in sources.items()}
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
        if args == ["--traffic"]:
            status = int(traffic() > 0)
        else:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    changed = [path for path, source in sources.items()
               if not path.is_file() or path.read_text() != source]
    if changed:
        for path in changed:
            print(f"{path.relative_to(ROOT)} changed during the run")
        print("no lines listed: run again on unchanged sources")
        return 2
    missed = 0
    for path, lines in executable.items():
        seen = reached.get(str(path), set())
        for line in sorted(lines - seen):
            print(f"{path.relative_to(ROOT)}:{line}")
            missed += 1
    print(f"{missed} unreached lines in src/; subprocess children are not "
          "traced, so lines they alone run are listed too")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
