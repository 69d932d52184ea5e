"""``ncsym``: seeded shuffle products and basis changes of symmetric
functions in noncommuting variables.

Products of two single basis elements along a two-block index K
(``star_K_product``, with K's blocks drawn by the seed) or along the
concatenation index (``concat_product``), in the m and the p bases, at total
degree 4 to 7; p-basis products are converted back to the p basis as the
command line does.  A slot fixes the basis, the two degrees and the number
of blocks of each factor, which fixes the number of word pairs the
word-expansion product walks, so the seed moves a round's cost very little.
Basis-change slots take a seeded element through p_from_m and m_from_p and
back.  Nearly all the work is the word-expansion product; ring and oracle
are not used.
"""

from __future__ import annotations

from fractions import Fraction

import checks
import inputs
from harness import Workload, rng

# (basis, m, n, blocks of the first factor, blocks of the second)
PRODUCT_SLOTS = [
    ("p", 1, 3, 1, 2), ("p", 2, 2, 2, 2), ("p", 2, 3, 2, 2), ("p", 3, 2, 2, 2),
    ("p", 2, 3, 1, 2), ("p", 3, 3, 2, 2), ("p", 2, 4, 2, 3), ("p", 4, 2, 3, 2),
    ("p", 3, 4, 2, 2), ("p", 2, 5, 2, 2), ("p", 3, 4, 3, 2), ("p", 4, 3, 2, 2),
    ("m", 2, 2, 2, 2), ("m", 1, 3, 1, 3), ("m", 2, 3, 2, 3), ("m", 3, 2, 3, 2),
    ("m", 3, 3, 3, 3), ("m", 3, 3, 2, 3), ("m", 2, 4, 2, 3), ("m", 4, 3, 3, 2),
    ("m", 3, 4, 3, 2), ("m", 2, 5, 2, 3), ("m", 5, 2, 3, 2), ("m", 3, 4, 2, 2),
]
# (from basis, degree, number of terms, blocks per term): x -> other basis
# -> back.  Every term has 4 blocks, so every change walks about the same
# number of coarsenings; these 24 near-equal requests hold the median.
CHANGE_SLOTS = [(b, d, 3, 4) for d in (5, 6, 7) for b in ("m", "p") for _ in range(4)]
WARMUP_PRODUCT_SLOTS = [("p", 2, 2, 2, 2), ("m", 2, 2, 2, 2)]
WARMUP_CHANGE_SLOTS = [("m", 4, 2, 3), ("p", 4, 2, 3)]


def _product(slot, rnd, op):
    basis, m, n, a, b = slot
    A = inputs.set_partition(range(1, m + 1), rnd, a)
    B = inputs.set_partition(range(1, n + 1), rnd, b)
    if op == "concat":
        K = [list(range(1, m + 1)), list(range(m + 1, m + n + 1))]
    else:
        K = inputs.two_blocks(m + n, rnd, first=m)
    return {"kind": op, "basis": basis, "A": A, "B": B, "K": K}


def _change(slot, rnd):
    basis, d, terms, blocks = slot
    coeffs = {}
    while len(coeffs) < terms:
        key = frozenset(frozenset(b) for b in inputs.set_partition(range(1, d + 1), rnd, blocks))
        coeffs[key] = Fraction(rnd.choice((-3, -2, -1, 1, 2, 5)), rnd.choice((1, 2, 3)))
    return {"kind": "change", "basis": basis, "degree": d, "coeffs": coeffs}


def _items(product_slots, change_slots, seed, tag):
    out = [_product(s, rng(seed, "%s/p%d" % (tag, k)), "star" if k % 2 == 0 else "concat")
           for k, s in enumerate(product_slots)]
    out += [_change(s, rng(seed, "%s/c%d" % (tag, k))) for k, s in enumerate(change_slots)]
    return out


class NCSym(Workload):
    name = "ncsym"
    modules = ("setpart", "ncsym")

    def generate(self, seed):
        return _items(PRODUCT_SLOTS, CHANGE_SLOTS, seed, "ncsym")

    def warmup(self, seed):
        return _items(WARMUP_PRODUCT_SLOTS, WARMUP_CHANGE_SLOTS, seed, "ncsym-warm")

    def prepare(self, lib, plain):
        sp, nc = lib["setpart"], lib["ncsym"]
        out = []
        for item in plain:
            if item["kind"] == "change":
                coeffs = {nc.canonical_index(sp.PartitionIndex(item["degree"], [sorted(b) for b in k])): c
                          for k, c in item["coeffs"].items()}
                obj = (nc.NCSymElem(item["basis"], item["degree"], coeffs),)
            else:
                A, B, K = item["A"], item["B"], item["K"]
                m, n = sum(map(len, A)), sum(map(len, B))
                obj = (nc.NCSymElem.single(item["basis"], nc.canonical_index(sp.PartitionIndex(m, A))),
                       nc.NCSymElem.single(item["basis"], nc.canonical_index(sp.PartitionIndex(n, B))),
                       sp.PartitionIndex(m + n, K))
            out.append(dict(item, obj=obj))
        return out

    def execute(self, lib, item):
        nc, obj = lib["ncsym"], item["obj"]
        kind, basis = item["kind"], item["basis"]
        if kind == "change":
            if basis == "m":
                return nc.m_from_p(nc.p_from_m(obj[0]))
            return nc.p_from_m(nc.m_from_p(obj[0]))
        if kind == "star":
            out = nc.star_K_product(obj[0], obj[1], obj[2])
        else:
            out = nc.concat_product(obj[0], obj[1])
        return nc.p_from_m(out) if basis == "p" else out

    def check(self, item, output):
        return check_ncsym(item, output.to_text())

    def describe(self, item):
        if item["kind"] == "change":
            return "change %s degree %d" % (item["basis"], item["degree"])
        return "%s %s A=%s B=%s K=%s" % (item["kind"], item["basis"], item["A"], item["B"], item["K"])


def check_ncsym(item, text):
    if item["kind"] == "change":
        return checks.check_round_trip(text, item["basis"], item["coeffs"])
    A = [frozenset(b) for b in item["A"]]
    B = [frozenset(b) for b in item["B"]]
    return checks.check_ncsym_product(text, item["basis"], A, B, item["K"][0], item["K"][1])
