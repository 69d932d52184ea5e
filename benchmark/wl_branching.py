"""``branching``: an in-process library session of seeded branching rules.

Every round runs the same fixed list of request slots; the seed only picks
the partitions, labels and indices inside each slot, so a round's cost
hardly depends on the seed.  The many cheap forward rules (restrict,
tensor, straighten) set the median latency; superinduction's
enumerate-then-restrict (two-block and multi-block indices, and the glued
star product built on it) sets the tail and the total.
"""

from __future__ import annotations

import checks
import inputs
from harness import Workload, rng

# (kind, n, q, shape).  Sizes run over n = 4..7 at q = 2, with restriction
# up to n = 8 and superinduction up to n = 5 at q = 3.  A slot fixes the
# shape of its inputs (blocks of each partition, number of arcs) and the
# seed draws the rest, so the seed moves a round's cost little.
#
# The 235 cheap forward requests put the median in the middle of 160
# restrictions of one shape (n = 6, q = 2), so that it is the median of many
# draws of similar cost; over a mix of sizes it moved 10% with the seed.  The cost of a superinduction swings
# several-fold with the arcs of the induced character, so the 12 seeded
# ones stay small.  Inducing the trivial character from a seeded index of
# fixed block sizes costs about the same for every seed: 41 small ones hold
# the 90th percentile, and 5 large ones, led by the ROADMAP's two-block
# anchor U_{1,2,3|4,5,6,7}(2) (the same request for every seed, since its
# cost swings by a third with the block positions), dominate the total.
SLOTS = (
    [("restrict", 6, 2, None) for _ in range(160)]
    + [("restrict", n, 2, None) for n in (4, 5, 7) for _ in range(3)]
    + [("restrict", n, 3, None) for n in (5, 6, 7, 8) for _ in range(3)]
    + [("tensor", n, 2, None) for n in (4, 5, 6, 7) for _ in range(5)]
    + [("tensor", n, 3, None) for n in (4, 5) for _ in range(5)]
    + [("straighten", n, q, None) for q in (2, 3) for n in (4, 5, 6, 7) for _ in range(3)]
    + [("star", n, q, None) for n, q in ((4, 2), (4, 2), (5, 2), (5, 2), (4, 3), (4, 3))]
    + [("sind2", n, q, (sizes, "seeded")) for n, q, sizes in
       ((5, 2, (2, 3)), (5, 2, (1, 4)), (4, 3, (2, 2)))]
    + [("sindk", n, q, (sizes, "seeded")) for n, q, sizes in
       ((5, 2, (2, 2, 1)), (5, 2, (3, 1, 1)), (4, 3, (2, 1, 1)))]
    + [("sind2", 5, 2, (sizes, "trivial")) for sizes in ((2, 3), (3, 2), (1, 4), (4, 1))
       for _ in range(5)]
    + [("sind2", 4, 3, (sizes, "trivial")) for sizes in ((2, 2), (1, 3), (3, 1)) for _ in range(3)]
    + [("sindk", 5, 2, (sizes, "trivial")) for sizes in ((2, 2, 1), (1, 2, 2), (3, 1, 1))
       for _ in range(3)]
    + [("sindk", 4, 3, ((2, 1, 1), "trivial")) for _ in range(3)]
    + [("sind2", 7, 2, ((3, 4), "anchor"))]
    + [("sind2", 6, 2, ((3, 3), "trivial")), ("sindk", 6, 2, ((2, 2, 2), "trivial")),
       ("sind2", 5, 3, ((2, 3), "trivial")), ("sindk", 5, 3, ((2, 2, 1), "trivial"))]
)
WARMUP_SLOTS = [("restrict", 4, 2, None), ("tensor", 4, 2, None), ("straighten", 4, 3, None),
                ("star", 4, 2, None), ("sind2", 4, 2, ((2, 2), "seeded")),
                ("sindk", 4, 3, ((2, 1, 1), "trivial"))]


def _sized_parts(n, sizes, rnd):
    """A random index of 1..n with blocks of the given sizes, in order."""
    order = list(range(1, n + 1))
    rnd.shuffle(order)
    parts, k = [], 0
    for size in sizes:
        parts.append(sorted(order[k:k + size]))
        k += size
    return parts


def _random_arcs(n, p, rnd):
    """3 arcs on 1..n drawn independently, so endpoints often clash."""
    arcs = []
    for _ in range(3):
        i, j = sorted(rnd.sample(range(1, n + 1), 2))
        arcs.append((i, j, rnd.randrange(1, p)))
    return tuple(sorted(arcs))


def _make(slot, rnd):
    kind, n, p, shape = slot
    item = {"kind": kind, "n": n, "p": p}
    elems = range(1, n + 1)
    half = (n + 1) // 2  # blocks of a seeded character: n - half arcs
    if kind == "restrict":
        item["arcs"] = inputs.labeled(elems, p, rnd, half)
        item["parts"] = inputs.set_partition(elems, rnd, 2 + n % 2)
    elif kind == "tensor":
        item["factors"] = (inputs.labeled(elems, p, rnd, half), inputs.labeled(elems, p, rnd, half))
    elif kind == "straighten":
        item["arcs"] = _random_arcs(n, p, rnd)
    elif kind == "star":
        m = rnd.randint(1, n - 1)
        item["left"] = inputs.labeled(range(1, m + 1), p, rnd)
        item["right"] = inputs.labeled(range(1, n - m + 1), p, rnd)
        item["parts"] = inputs.two_blocks(n, rnd, first=m)
    else:
        sizes, mode = shape
        if mode == "anchor":
            parts = [list(range(1, sizes[0] + 1)), list(range(sizes[0] + 1, n + 1))]
        else:
            parts = _sized_parts(n, sizes, rnd)
        item["parts"] = parts
        item["arcs"] = inputs.compatible(parts, p, rnd) if mode == "seeded" else ()
    return item


class Branching(Workload):
    name = "branching"
    modules = ("qcoeff", "setpart", "ring")

    def generate(self, seed):
        return [_make(slot, rng(seed, "branching/%d" % k)) for k, slot in enumerate(SLOTS)]

    def warmup(self, seed):
        return [_make(slot, rng(seed, "branching-warm/%d" % k)) for k, slot in enumerate(WARMUP_SLOTS)]

    def prepare(self, lib, plain):
        sp, ring = lib["setpart"], lib["ring"]

        def lsp(n, arcs):
            return sp.LabeledSetPartition(range(1, n + 1), arcs)

        out = []
        for item in plain:
            kind, n = item["kind"], item["n"]
            if kind == "restrict":
                obj = (lsp(n, item["arcs"]), sp.PartitionIndex(n, item["parts"]))
            elif kind == "tensor":
                full = sp.PartitionIndex.full(n)
                obj = tuple(ring.CharCombo.of(lsp(n, a), full) for a in item["factors"])
            elif kind == "straighten":
                obj = (item["arcs"],)
            elif kind == "star":
                m = len(item["parts"][0])
                obj = (lsp(m, item["left"]), lsp(n - m, item["right"]),
                       sp.PartitionIndex(n, item["parts"]))
            else:
                obj = (lsp(n, item["arcs"]), sp.PartitionIndex(n, item["parts"]))
            out.append(dict(item, obj=obj))
        return out

    def execute(self, lib, item):
        ring, p, obj = lib["ring"], item["p"], item["obj"]
        kind = item["kind"]
        if kind == "restrict":
            return ring.restrict(obj[0], obj[1], p)
        if kind == "tensor":
            return ring.tensor(obj[0], obj[1], p)
        if kind == "straighten":
            return ring.straighten(obj[0], item["n"], p)
        if kind == "star":
            return ring.star_K(obj[0], obj[1], obj[2], p)
        return ring.superinduce(obj[0], obj[1], p)

    def check(self, item, output):
        return checks.check_rule(item, output.to_text())
