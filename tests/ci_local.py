"""Run the steps of the CI workflow here, one after another, and time them.

The workflow file ``.github/workflows/tests.yml`` is read with the standard
library alone: each step's ``- name:`` and its ``run:`` line or ``run: |``
block.  Every step with a ``run:`` is run with bash from the repository
root, as the workflow runs it, except the steps that ``pip install``, which
are skipped with a note so that nothing is installed into this Python.
Each step's exit code and wall time are printed, and the exit status is 1
if any step failed.  With ``--max-seconds S`` a step still running after S
seconds is stopped, with every process it started, and reported as over
the limit; that is not counted as a failure.

    python tests/ci_local.py                     # every step
    python tests/ci_local.py --match 'U_6\\(2\\)'  # the steps whose name matches
    python tests/ci_local.py --max-seconds 5     # stop each step after 5 s
"""

from __future__ import annotations

import argparse
import os
import re
import signal
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


def run_step(command, max_seconds=None):
    """Run one step's command with bash from the repository root, in a
    session of its own: its exit code, or None if it ran past
    ``max_seconds``.  Whatever of the session is still running when the
    step ends, is stopped or is interrupted is killed."""
    proc = subprocess.Popen(
        ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c", command],
        cwd=ROOT, start_new_session=True,
    )
    try:
        return proc.wait(timeout=max_seconds)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--match", metavar="REGEX",
                        help="run only the steps whose name this regular expression finds")
    parser.add_argument("--max-seconds", type=float, metavar="S",
                        help="stop a step still running after S seconds; it is reported "
                             "as over the limit, not as a failure")
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
        code = run_step(command, args.max_seconds)
        results.append(("over" if code is None else code, time.perf_counter() - start, label))
        if code is None:
            print("--- over the limit of %g s: stopped" % args.max_seconds, flush=True)
        else:
            print("--- exit %d in %.1f s" % (code, results[-1][1]), flush=True)
    print("\nexit  wall_s  step")
    for code, wall, label in results:
        print("%4s  %6.1f  %s" % (code, wall, label))
    return 1 if any(code not in (0, "over") for code, _, _ in results) else 0


if __name__ == "__main__":
    sys.exit(main())
