"""Record the expected output of every figures command line.

    python3 bench/record_figures.py

Writes bench/figures.sha256: per command line, the SHA-256 of its standard
output, a zero byte and the SVG it wrote.  The engine's output must stay
byte-identical, so record again only from a commit whose output is known
good, and say why in the change that commits the new table.
"""

import os
import sys

from run import BUILD, ROOT, import_engine

import_engine()
os.chdir(ROOT)
BUILD.mkdir(exist_ok=True)

import workloads  # noqa: E402  (needs the engine on sys.path)
from euclid.number import new_context  # noqa: E402

lines = []
for argv in workloads.figure_calls():
    new_context()
    code, stdout = workloads.run_figure(argv)
    if code != 0:
        sys.exit(f"{' '.join(argv)}: exit code {code}")
    lines.append(f"{workloads.figure_digest(stdout)}  {' '.join(argv)}")
workloads.DIGESTS.write_text("\n".join(lines) + "\n", encoding="utf-8")
print(f"recorded {len(lines)} digests in {workloads.DIGESTS}")
