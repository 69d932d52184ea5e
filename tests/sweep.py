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
from superchar.oracle import PatternGroup, _classes_in, brute_superinduction_table
from superchar.ring import (
    CharCombo,
    restrict,
    restriction_table,
    straighten,
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


# (p, largest n) of the oracle sweep, and its group bound: U_5(2) has 2^10
# elements
ORACLE_GROUPS = ((2, 5), (3, 4), (5, 3))
ORACLE_MAX_SIZE = 2 ** 10


def _values(row):
    return "[%s]" % ", ".join(map(str, row))


def oracle_lines():
    """For every parabolic U_K of U_n(p), up to ``ORACLE_GROUPS``: each
    label's superclass size and character-table row, the superclass of U_n
    that ``_classes_in`` gives each superclass of U_K, and every row of
    ``brute_superinduction_table`` from U_K to U_n of U_K's rows."""
    for p, max_n in ORACLE_GROUPS:
        for n in range(1, max_n + 1):
            G = PatternGroup.full(n, p, max_size=ORACLE_MAX_SIZE)
            for parts in set_partitions(range(1, n + 1)):
                K = PartitionIndex(n, parts)
                H = PatternGroup.parabolic(K, p, max_size=ORACLE_MAX_SIZE)
                table = H.superclass_table()
                rows = H.character_table()
                at = "p=%d %s" % (p, K.to_text())
                for lam, size, row in zip(table.labels, table.sizes(), rows):
                    yield "%s %s: size %d, row %s" % (at, lam.to_text(), size, _values(row))
                yield "%s classes in U_%d: %s" % (at, n, _classes_in(G, H))
                for lam, row in zip(table.labels, brute_superinduction_table(G, H, rows)):
                    yield "%s sind %s: %s" % (at, lam.to_text(), _values(row))


# (p, largest n) of the straighten sweep, and its largest multiset of arcs
STRAIGHTEN_GROUPS = ((2, 6), (3, 5))
STRAIGHTEN_MAX_ARCS = 3


def straighten_lines():
    """``straighten`` of every multiset of one to ``STRAIGHTEN_MAX_ARCS``
    labeled arcs on {1..n}, for each (p, n) up to ``STRAIGHTEN_GROUPS``."""
    for p, max_n in STRAIGHTEN_GROUPS:
        for n in range(2, max_n + 1):
            arcs = [(i, l, a) for i, l in itertools.combinations(range(1, n + 1), 2)
                    for a in range(1, p)]
            for k in range(1, STRAIGHTEN_MAX_ARCS + 1):
                for chosen in itertools.combinations_with_replacement(arcs, k):
                    text = ", ".join("%d-%d:%d" % arc for arc in chosen)
                    yield "p=%d n=%d straighten %s: %s" % (p, n, text, straighten(chosen, n, p))


SWEEPS = {
    "branching": branching_lines,
    "oracle": oracle_lines,
    "straighten": straighten_lines,
    "verify": verify_lines,
}


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
