"""Seeded random inputs, built with the benchmark's own code.

Partitions are plain data: a set partition is a list of sorted blocks, a
labeled set partition is a sorted tuple of arcs (i, j, label) joining
consecutive elements of each block, labels in 1..p-1.
"""

from __future__ import annotations


def set_partition(elems, rnd, blocks=None):
    """A random set partition of ``elems``; with ``blocks`` given, exactly
    that many blocks (each element joins a random block after the first
    ``blocks`` elements of a shuffled order seed one block each)."""
    elems = list(elems)
    if blocks is None:
        out = []
        for v in elems:
            k = rnd.randrange(len(out) + 1)
            if k == len(out):
                out.append([v])
            else:
                out[k].append(v)
    else:
        if not 1 <= blocks <= len(elems):
            raise ValueError("cannot split %d elements into %d blocks" % (len(elems), blocks))
        order = elems[:]
        rnd.shuffle(order)
        out = [[v] for v in order[:blocks]]
        for v in order[blocks:]:
            out[rnd.randrange(blocks)].append(v)
    return sorted((sorted(b) for b in out), key=lambda b: b[0])


def arcs_of(blocks, p, rnd):
    """Random labels on the arc skeleton of a set partition."""
    arcs = []
    for b in blocks:
        for u, v in zip(b, b[1:]):
            arcs.append((u, v, rnd.randrange(1, p)))
    return tuple(sorted(arcs))


def labeled(elems, p, rnd, blocks=None):
    return arcs_of(set_partition(elems, rnd, blocks), p, rnd)


def compatible(parts, p, rnd):
    """A random labeled partition whose arcs stay inside the given parts."""
    arcs = []
    for part in parts:
        arcs.extend(labeled(part, p, rnd))
    return tuple(sorted(arcs))


def two_blocks(n, rnd, first=None):
    """A random ordered two-block partition of 1..n (first block of size
    ``first`` when given)."""
    k = first if first is not None else rnd.randrange(1, n)
    block1 = sorted(rnd.sample(range(1, n + 1), k))
    block2 = [v for v in range(1, n + 1) if v not in block1]
    return [block1, block2]


def partition_text(n, arcs):
    body = ", ".join("%d-%d:%d" % a for a in arcs)
    return "n=%d; %s" % (n, body) if body else "n=%d" % n


def index_text(parts):
    return "{" + "|".join(",".join(str(v) for v in part) for part in parts) + "}"
