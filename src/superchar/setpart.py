"""Labeled set partitions and subgroup index partitions.

A labeled set partition of {1..n} is a set of labeled arcs ``i-j:a``
(1 <= i < j <= n, label a a nonzero residue) such that every vertex is the
left endpoint of at most one arc and the right endpoint of at most one arc.
The parts are the chains traced out by the arcs, and the arcs connect
consecutive elements of their part, so this degree condition is the whole
validity story.

Labels are stored as plain positive ints and interpreted mod a prime p; the
prime is passed to whichever operation enumerates labels or evaluates
characters.

This module imports only the package root's scalar checks: the checks on
partition input (arcs, labels mod p, ``check_on``, whether partitions
label U_K(p), and ``shuffle_blocks``, whether an index glues two factors)
and the label count live here, so a request refused while it is parsed
loads no algebra.

A :class:`PartitionIndex` names a parabolic subgroup: an ordered list of
disjoint parts covering {1..n}.  Part order matters for the two-block glue
and product operations, so it is preserved as given.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from operator import add

from . import check_ints, check_prime

__all__ = [
    "BudgetError",
    "check_labels",
    "check_on",
    "check_walk_budget",
    "LabeledSetPartition",
    "PartitionIndex",
    "set_partitions",
    "enumerate_compatible",
    "walk_choices",
    "count_sn",
    "shuffle_blocks",
    "shuffle_index",
    "union_K",
]


def _stripped(text):
    """``text`` without its surrounding whitespace; refuse, with TypeError,
    a partition text that is not a str."""
    if not isinstance(text, str):
        raise TypeError("partition text must be a str, got %r" % (text,))
    return text.strip()


def _check_arc(arc, n):
    """``arc`` as a tuple, refused with ValueError unless it is three values
    increasing on 1..n, and with TypeError unless they are ints."""
    arc = tuple(arc)
    if len(arc) != 3:
        raise ValueError("arc %r is not (left, right, label)" % (arc,))
    check_ints(arc, "an arc end or label")
    i, l, _ = arc
    if not 1 <= i < l <= n:
        raise ValueError("arc %d-%d is not an increasing arc on 1..%d" % (i, l, n))
    return arc


def _check_label(arc, p):
    """Refuse, with ValueError, an arc whose label is outside 1..p-1."""
    if not 0 < arc[2] < p:
        raise ValueError("arc %d-%d:%d has a label outside 1..%d" % (*arc, p - 1))


def check_labels(lams, p):
    """Refuse, with ValueError, a p that is not prime, or a labeled
    partition in ``lams`` with an arc label outside 1..p-1 (the labels of
    U_n(p)); the public rules call this at their entry, their cores trust
    it."""
    check_prime(p)
    for lam in lams:
        for arc in lam.arcs:
            _check_label(arc, p)


def check_on(lams, index, p=None):
    """Refuse, with ValueError, a partition in ``lams`` that does not label
    U_K(p), K the PartitionIndex ``index``: one off K's n, one refused by
    ``check_labels`` when p is given, or one with an arc across two parts
    of K (``crossings_within``, run only when K has more than one part).
    Returns the crossings that test counts, one per partition inside the
    parts of K, or None for a K of one part, which needs no test."""
    for lam in lams:
        if lam.n != index.n:
            raise ValueError("partition has n=%d, the index n=%d" % (lam.n, index.n))
    if p is not None:
        check_labels(lams, p)
    if len(index.parts) > 1:
        return [lam.crossings_within(index) for lam in lams]
    return None


class LabeledSetPartition:
    """An F_q-labeled set partition of {1..n}: the size n plus labeled arcs.

    The constructor takes the vertex set, which must be {1..n}, refuses an
    arc that is not three values with ValueError, and a vertex, arc end or
    label that is not an int with TypeError.  Immutable and hashable; arcs
    are kept as (left, right, label) tuples sorted by (left, right).
    """

    __slots__ = ("n", "arcs")

    def __init__(self, support, arcs=()):
        vertices = sorted(support)
        check_ints(vertices, "a vertex")
        n = len(vertices)
        if vertices != list(range(1, n + 1)):
            raise ValueError("partition vertices %s are not 1..%d" % (vertices, n))
        clean = []
        lefts, rights = set(), set()
        for arc in arcs:
            i, l, a = arc = _check_arc(arc, n)
            if a < 1:
                raise ValueError("arc label must be a nonzero residue")
            if i in lefts:
                raise ValueError("vertex %d starts two arcs" % i)
            if l in rights:
                raise ValueError("vertex %d ends two arcs" % l)
            lefts.add(i)
            rights.add(l)
            clean.append(arc)
        clean.sort()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", tuple(clean))

    @classmethod
    def _valid(cls, n, arcs):
        """The partition of {1..n} with ``arcs``, a tuple of (left, right,
        label) tuples already sorted and valid, built without checking them."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", arcs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LabeledSetPartition is immutable")

    # -- structure ----------------------------------------------------------

    def parts(self):
        """The parts, as sorted tuples, ordered by minimum element.

        Parts are the chains: follow arcs from each vertex that is not the
        right endpoint of any arc.
        """
        nxt = {i: l for i, l, _ in self.arcs}
        has_in = set(nxt.values())
        out = []
        for v in range(1, self.n + 1):
            if v in has_in:
                continue
            chain = [v]
            while chain[-1] in nxt:
                chain.append(nxt[chain[-1]])
            out.append(tuple(chain))
        return tuple(out)

    def num_crossings(self):
        """Number of crossings i < j < k < l of arcs i-k, j-l: ``_crossings``
        with the full group's part lookup, every vertex in part 0."""
        return _crossings(self.arcs, dict.fromkeys(range(1, self.n + 1), 0))

    def crossings_within(self, index):
        """Number of crossings computed inside the parts of a PartitionIndex.

        Every arc must stay inside a single part of ``index``; a straddling
        arc is an error.
        """
        part_of = index.part_lookup()
        for i, l, _ in self.arcs:
            if part_of[i] != part_of[l]:
                raise ValueError("arc %d-%d straddles the parts of %s" % (i, l, index.to_text()))
        return _crossings(self.arcs, part_of)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, LabeledSetPartition)
            and self.n == other.n
            and self.arcs == other.arcs
        )

    def __hash__(self):
        return hash((self.n, self.arcs))

    def __repr__(self):
        return "LabeledSetPartition(%r)" % self.to_text()

    # -- serialization ------------------------------------------------------

    def to_text(self):
        """Canonical text: ``"n=9; 1-5:1, 5-7:2"`` (arcs sorted)."""
        body = ", ".join("%d-%d:%d" % arc for arc in self.arcs)
        return "n=%d; %s" % (self.n, body) if body else "n=%d" % self.n

    @classmethod
    def from_text(cls, s, n=None):
        """Parse ``"n=9; 1-5:1, 5-7:2"``; the ``n=`` prefix may be omitted
        when ``n`` is supplied.  A non-str is refused with TypeError."""
        s = _stripped(s)
        m = re.match(r"^n\s*=\s*(\d+)\s*(?:;\s*(.*))?$", s)
        if m:
            n = int(m.group(1))
            body = m.group(2) or ""
        else:
            if n is None:
                raise ValueError("partition text without n= prefix needs explicit n")
            if n < 0:
                raise ValueError("n must be nonnegative, not %d" % n)
            body = s
        arcs = []
        body = body.strip()
        if body:
            for chunk in body.split(","):
                am = re.match(r"^\s*(\d+)\s*-\s*(\d+)\s*:\s*(\d+)\s*$", chunk)
                if not am:
                    raise ValueError("bad arc %r" % chunk)
                arcs.append((int(am.group(1)), int(am.group(2)), int(am.group(3))))
        return cls(range(1, n + 1), arcs)


def _crossings(arcs, part_of):
    """Number of crossings i < j < k < l of arcs i-k, j-l among sorted
    ``arcs`` with i and j in one part (``part_of``: vertex -> part)."""
    total = 0
    for x, y in itertools.combinations(arcs, 2):
        if y[0] < x[1] < y[1] and part_of[x[0]] == part_of[y[0]]:
            total += 1
    return total


class PartitionIndex:
    """An ordered partition of {1..n} naming a parabolic subgroup.

    Parts are kept in the order given (the glue and product operations read
    the first/second block off that order); semantic comparisons that should
    ignore order go through :meth:`grouping`.  The constructor refuses an n
    or a part element that is not an int with TypeError.  Its hash is
    computed once, when it is built (``_hash``), since the rules' tables
    are keyed by indices.
    """

    __slots__ = ("n", "parts", "_hash")

    def __init__(self, n, parts):
        check_ints((n,), "n")
        clean = []
        seen = set()
        for part in parts:
            tup = tuple(sorted(part))
            check_ints(tup, "a part element")
            if not tup:
                raise ValueError("empty part")
            for v in tup:
                if v < 1 or v > n:
                    raise ValueError("part element %d outside 1..%d" % (v, n))
                if v in seen:
                    raise ValueError("element %d in two parts" % v)
                seen.add(v)
            clean.append(tup)
        if len(seen) != n:
            raise ValueError("parts must cover {1..%d}" % n)
        clean = tuple(clean)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parts", clean)
        object.__setattr__(self, "_hash", hash((n, clean)))

    def __setattr__(self, name, value):
        raise AttributeError("PartitionIndex is immutable")

    @classmethod
    @functools.lru_cache(maxsize=1 << 6, typed=True)
    def full(cls, n):
        """The one-part index of U_n; at n = 0, the empty index.  Only ``n``
        is checked (an int, at least 0): the part is valid by construction.
        One shared index per n, so a table keyed by it finds it by identity
        (``ring._layout``); no refusal is kept."""
        part = tuple(range(1, n + 1))
        if n < 0:
            raise ValueError("n must be nonnegative, not %d" % n)
        self = object.__new__(cls)
        n, parts = len(part), (part,) if part else ()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash((n, parts)))
        return self

    @classmethod
    def from_subset(cls, subset, n):
        """The index with one part ``subset`` and singletons elsewhere."""
        subset = tuple(sorted(set(subset)))
        rest = [[v] for v in range(1, n + 1) if v not in subset]
        return cls(n, [subset] + rest)

    def part_lookup(self):
        """{vertex: part position}."""
        out = {}
        for i, part in enumerate(self.parts):
            for v in part:
                out[v] = i
        return out

    def grouping(self):
        """Order-insensitive canonical form (parts sorted by minimum)."""
        return tuple(sorted(self.parts, key=lambda part: part[0]))

    def refines(self, other):
        """True when every part of self sits inside a part of other."""
        if self.n != other.n:
            return False
        lk = other.part_lookup()
        return all(len({lk[v] for v in part}) == 1 for part in self.parts)

    def __eq__(self, other):
        return (
            isinstance(other, PartitionIndex)
            and self.n == other.n
            and self.parts == other.parts
        )

    def __hash__(self):
        return self._hash

    def to_text(self):
        return "{" + "|".join(",".join(str(v) for v in part) for part in self.parts) + "}"

    def __repr__(self):
        return "PartitionIndex(n=%d, %s)" % (self.n, self.to_text())

    @classmethod
    def from_text(cls, s, n=None):
        """Parse ``"{1,5,7|2,3|4|6,8,9}"``; n defaults to the cover size.  A
        non-str is refused with TypeError.

        The interval shorthand ``"[j,k]"`` gives the index with the single
        nontrivial part {j..k} (n must be supplied for that form).
        """
        s = _stripped(s)
        m = re.match(r"^\[\s*(\d+)\s*,\s*(\d+)\s*\]$", s)
        if m:
            if n is None:
                raise ValueError("interval shorthand needs explicit n")
            j, k = int(m.group(1)), int(m.group(2))
            if not (1 <= j <= k <= n):
                raise ValueError("interval [%d,%d] outside 1..%d" % (j, k, n))
            return cls.from_subset(range(j, k + 1), n)
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError("bad partition index text %r" % s)
        if s == "{}":
            return cls(0 if n is None else n, [])
        parts = []
        for chunk in s[1:-1].split("|"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError("empty part in %r" % s)
            parts.append([int(v) for v in chunk.split(",")])
        cover = {v for part in parts for v in part}
        if n is None:
            n = max(cover) if cover else 0
        return cls(n, parts)


# ---------------------------------------------------------------------------
# Enumeration and counting
# ---------------------------------------------------------------------------

def set_partitions(elements):
    """All set partitions of ``elements`` as tuples of sorted tuples, parts
    ordered by minimum: the parts of the labels of U_n at q = 2, in the
    order of :func:`enumerate_compatible`, carried onto the sorted
    elements, which must be ints (TypeError otherwise)."""
    elements = list(elements)
    check_ints(elements, "element")
    elems = sorted(set(elements))
    for lam in enumerate_compatible(PartitionIndex.full(len(elems)), 2):
        yield tuple(tuple(elems[v - 1] for v in part) for part in lam.parts())


def enumerate_compatible(index, p, choices=None):
    """All F_p-labeled partitions of {1..n} whose arcs stay inside the
    parts of ``index`` -- the supercharacter/superclass labels of U_index.

    A depth-first walk over the vertices in increasing order: each vertex
    starts no arc, or an arc, with each label in 1..p-1, to a later vertex
    of its own part that ends no arc yet.  The empty partition comes first,
    and every label's arcs come out sorted.  The walk fills one list per
    call, then yields from it.  Its choices are ``walk_choices(index, p)``;
    given ``choices``, a ``walk_choices`` of index and p with trace tables
    built once by the caller, it yields per label its arc tuple and its
    traces, one per table: an arc's steps are appended at the vertex
    choosing it, shared by all below."""
    starts, traces = walk_choices(index, p) if choices is None else choices
    n, out = index.n, []
    _walk(starts, 0, [False] * (n + 1), [], traces, out)
    if choices is not None:
        yield from out
        return
    valid = LabeledSetPartition._valid
    for arcs, _ in out:
        yield valid(n, arcs)


def walk_choices(index, p, tables=()):
    """``enumerate_compatible``'s choices and empty traces: for each vertex
    v of ``index`` that can start an arc, in increasing order, each later
    vertex w of its part with, per label a, the arc (v, w, a) and what it
    appends to the trace of each of ``tables`` (arc -> steps), None for
    nothing to any; equal appends are one tuple."""
    starts, seen = {}, {}
    for part in index.parts:
        for k, v in enumerate(part[:-1]):
            starts[v] = tuple([(w, tuple([_choice((v, w, a), tables, seen) for a in range(1, p)]))
                               for w in part[k + 1:]])
    return tuple([starts[v] for v in sorted(starts)]), ((),) * len(tables)


def _choice(arc, tables, seen):
    """``arc`` and what it appends to each trace of ``tables`` (None for
    nothing to any), the first equal one in ``seen``."""
    appends = tuple([table[arc] for table in tables])
    return arc, seen.setdefault(appends, appends) if any(appends) else None


def _walk(starts, k, ended, arcs, traces, out):
    """enumerate_compatible's recursion: append to ``out`` each extension
    of ``arcs`` and its ``traces`` by the choices of the vertices
    ``starts[k:]`` (module-level, so it leaves no closure to collect)."""
    if k == len(starts):
        out.append((tuple(arcs), traces))
        return
    _walk(starts, k + 1, ended, arcs, traces, out)
    for w, labeled in starts[k]:
        if not ended[w]:
            ended[w] = True
            for arc, appends in labeled:
                arcs.append(arc)
                _walk(starts, k + 1, ended, arcs,
                      traces if appends is None else tuple(map(add, traces, appends)), out)
                arcs.pop()
            ended[w] = False


class BudgetError(RuntimeError):
    """A request exceeded its enumeration budget: an oracle group over its
    size bound, or a superinduction walking more labels (``count_sn``) than
    the CLI's ``--budget``."""


def count_sn(n, q):
    """The number of F_q-labeled set partitions of an n-set (q >= 2 any
    integer, else TypeError; the count is polynomial in q): s_n of the
    recurrence s_{m+1} = sum_k C(m,k) (q-1)^k s_{m-k}, s_0 = 1."""
    check_ints((q,), "q")
    if q < 2:
        raise ValueError("q must be at least 2")
    if n < 0:
        raise ValueError("n must be nonnegative")
    s = [1]
    for m in range(n):
        s.append(sum(math.comb(m, k) * (q - 1) ** k * s[m - k] for k in range(m + 1)))
    return s[n]


def check_walk_budget(n, q, budget, walk="superinduction to"):
    """Superinduction to U_n, and the restriction and tensor verify suites
    up to U_n, walk every label of U_n(q) (the words suite every label of
    U_n(2)); refuse the walk when they outnumber a budget that is not
    None."""
    if budget is None:
        return
    labels = count_sn(n, q)
    if labels > budget:
        raise BudgetError(
            "%s U_%d(%d) walks %d labels, over the budget of %d"
            % (walk, n, q, labels, budget)
        )


def shuffle_blocks(K, m, n):
    """The two blocks of ``K``, in order, that carry factors on m and n
    vertices in a shuffle or a glue along K.  An index has no empty block,
    so an empty factor's block is absent from K and comes back as ``()``;
    any other K is refused with ValueError."""
    if [len(block) for block in K.parts] != [s for s in (m, n) if s]:
        raise ValueError("%s is not a shuffle index for factors of sizes %d and %d"
                         % (K.to_text(), m, n))
    blocks = iter(K.parts)
    return (next(blocks) if m else (), next(blocks) if n else ())


def shuffle_index(m, n):
    """The concatenation index {1..m | m+1..m+n}, an empty factor's block
    left out."""
    blocks = (range(1, m + 1), range(m + 1, m + n + 1))
    return PartitionIndex(m + n, [block for block in blocks if block])


def union_K(lam, mu, K):
    """Glue two labeled partitions along a two-block index.

    ``lam`` lives on {1..m}, ``mu`` on {1..n}; ``K`` is a shuffle index for
    them (``shuffle_blocks``), its blocks in order carrying the factors.
    Vertex v of each factor goes to the v-th element of its block.
    """
    block1, block2 = shuffle_blocks(K, lam.n, mu.n)
    arcs = [(block1[i - 1], block1[l - 1], a) for i, l, a in lam.arcs]
    arcs += [(block2[i - 1], block2[l - 1], a) for i, l, a in mu.arcs]
    return LabeledSetPartition(range(1, K.n + 1), arcs)
