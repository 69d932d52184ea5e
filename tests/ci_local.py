"""Run the steps of the CI workflow here, one after another, and time them.

The workflow file ``.github/workflows/tests.yml`` is read with the standard
library alone: each step's ``- name:`` and its ``run:`` line or ``run: |``
block.  Every step with a ``run:`` is run with bash from the repository
root, as the workflow runs it, except the steps that ``pip install``, which
are skipped with a note so that nothing is installed into this Python.
Each step's exit code and wall time are printed, and the exit status is 1
if any step failed.

    python tests/ci_local.py                     # every step
    python tests/ci_local.py --match 'U_6\\(2\\)'  # the steps whose name matches
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

_ITEM = re.compile(r"^(\s*)- (\w+):\s*(.*)$")
_KEY = re.compile(r"^(\s*)(\w+):\s*(.*)$")


def _indent(line):
    return len(line) - len(line.lstrip(" "))


def parse_steps(text):
    """The workflow's steps that have a ``run:``, as (name, command) pairs
    in order; a step without a name has None.  A ``run: |`` block is its
    lines dedented, each ending in a newline, as YAML's literal block
    gives it."""
    steps, step = [], None
    lines = text.splitlines()
    k = 0
    while k < len(lines):
        line = lines[k]
        k += 1
        item = _ITEM.match(line)
        if item:
            step = {}
            steps.append(step)
            key, value, indent = item.group(2), item.group(3), _indent(line) + 2
        else:
            match = _KEY.match(line)
            if step is None or not match:
                continue
            key, value, indent = match.group(2), match.group(3), _indent(line)
        if value == "|":
            block = []
            while k < len(lines) and (not lines[k].strip() or _indent(lines[k]) > indent):
                block.append(lines[k])
                k += 1
            while block and not block[-1].strip():
                block.pop()
            margin = _indent(block[0]) if block else 0
            value = "".join(line[margin:] + "\n" for line in block)
        step[key] = value
    return [(s.get("name"), s["run"]) for s in steps if "run" in s]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--match", metavar="REGEX",
                        help="run only the steps whose name this regular expression finds")
    args = parser.parse_args(argv)
    results = []
    for name, command in parse_steps(WORKFLOW.read_text()):
        label = name or command.splitlines()[0]
        if args.match and not re.search(args.match, label):
            continue
        if "pip install" in command:
            print("--- skipped (installs with pip): %s" % label, flush=True)
            continue
        print("--- %s" % label, flush=True)
        start = time.perf_counter()
        code = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", command], cwd=ROOT
        ).returncode
        results.append((code, time.perf_counter() - start, label))
        print("--- exit %d in %.1f s" % results[-1][:2], flush=True)
    print("\nexit  wall_s  step")
    for code, wall, label in results:
        print("%4d  %6.1f  %s" % (code, wall, label))
    return 1 if any(code for code, _, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
