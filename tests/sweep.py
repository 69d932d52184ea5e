"""Output sweeps: every rendering of a fixed family of requests, hashed.

A sweep renders each result of its requests as one text line; its sha256
over the lines, each ending in a newline, pins every output byte at once.
A change that must leave the outputs alone keeps the hashes that
``tests/test_sweep.py`` pins; a change of renderings on purpose updates
them.  Run ``PYTHONPATH=src python tests/sweep.py`` to print each sweep's
line count and hash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools

from superchar import cli
from superchar.ring import (
    CharCombo,
    restrict,
    restriction_table,
    superinduce,
    superinduction_table,
    tensor,
)
from superchar.setpart import PartitionIndex, enumerate_compatible, set_partitions

# (p, largest n) of the branching sweep
BRANCHING_GROUPS = ((2, 5), (3, 4))


def branching_lines():
    """``restrict`` of every label of U_n to every parabolic, ``superinduce``
    of every label of every parabolic up to U_n, both tables of every
    parabolic, and ``tensor`` of every ordered pair of labels of U_n, for
    each (p, n) up to ``BRANCHING_GROUPS``."""
    for p, max_n in BRANCHING_GROUPS:
        for n in range(1, max_n + 1):
            full = PartitionIndex.full(n)
            labels = list(enumerate_compatible(full, p))
            for parts in set_partitions(range(1, n + 1)):
                K = PartitionIndex(n, parts)
                at = "p=%d %s" % (p, K.to_text())
                for lam in labels:
                    yield "%s restrict %s: %s" % (at, lam.to_text(), restrict(lam, K, p))
                for mu in enumerate_compatible(K, p):
                    yield "%s superinduce %s: %s" % (at, mu.to_text(), superinduce(mu, K, p))
                for nu, row in restriction_table(K, p).items():
                    yield "%s restriction_table %s: %s" % (at, nu.to_text(), row)
                for mu, col in superinduction_table(K, p).items():
                    yield "%s superinduction_table %s: %s" % (at, mu.to_text(), col)
            for lam, mu in itertools.product(labels, repeat=2):
                t = tensor(CharCombo.of(lam, full), CharCombo.of(mu, full), p)
                yield "p=%d tensor %s (x) %s: %s" % (p, lam.to_text(), mu.to_text(), t)


# the settings of the verify sweep, each after ``verify --suite all``
VERIFY_SETTINGS = ("--q 2 --max-n 4", "--q 3 --max-n 3", "--q 5 --max-n 3 --budget 200")


def verify_lines():
    """The text report of ``verify --suite all``, one line per suite, at
    each of ``VERIFY_SETTINGS``."""
    for setting in VERIFY_SETTINGS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--suite", "all"] + setting.split())
        if code != 0:
            raise RuntimeError("verify %s exited %d" % (setting, code))
        yield from out.getvalue().splitlines()


SWEEPS = {"branching": branching_lines, "verify": verify_lines}


def digest(lines):
    """(number of lines, sha256 hex of the lines, each ending in a newline)."""
    h = hashlib.sha256()
    count = 0
    for line in lines:
        h.update(line.encode() + b"\n")
        count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    for name, lines in SWEEPS.items():
        count, sha = digest(lines())
        print("%s %d %s" % (name, count, sha))
