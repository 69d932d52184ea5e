"""The supercharacter calculus.

Supercharacters of U_n(q) and its parabolic subgroups U_K are indexed by
F_q-labeled set partitions.  This module implements the symbolic layer:
exact character values, degrees, restriction to parabolic subgroups, tensor
products with diagram straightening, superinflation, superinduction, the
glued ``star`` products, inner products, and conversion between the
supercharacter and superclass-indicator bases.

Coefficients are Laurent polynomials in a formal q even though arc labels
live in a concrete F_p; every structural rule here keeps its coefficients in
Z[q, q^-1], and all cross-checks against the brute-force oracle evaluate at
q = p.
"""

from __future__ import annotations

import functools
import itertools
import re
from fractions import Fraction

from .qcoeff import Cyclotomic, LaurentPoly, json_fields, reduce_full
from .setpart import (
    Arc,
    LabeledSetPartition,
    PartitionIndex,
    _crossings,
    enumerate_compatible,
    union_K,
)

__all__ = [
    "CharCombo",
    "check_labels",
    "degree",
    "char_value",
    "combo_value",
    "straighten",
    "tensor",
    "restrict",
    "restrict_combo",
    "restriction_table",
    "sinf",
    "inner_product",
    "superinduce",
    "superinduction_table",
    "star_K",
    "chi_to_kappa",
    "kappa_to_chi",
]

_LABEL_OUTSIDE = "arc %d-%d:%d has a label outside 1..%d"


def check_labels(lams, p):
    """Refuse, with ValueError, a labeled partition in ``lams`` with an arc
    label outside 1..p-1 (the labels of U_n(p)); the public rules call
    this at their entry, their cores trust it."""
    for lam in lams:
        for i, l, a in lam.arcs:
            if a >= p:
                raise ValueError(_LABEL_OUTSIDE % (i, l, a, p - 1))


def _check_n(lams, K):
    """Refuse, with ValueError, a partition in ``lams`` off the index K's n."""
    for lam in lams:
        if lam.n != K.n:
            raise ValueError("partition has n=%d, the index n=%d" % (lam.n, K.n))


def _add(acc, key, c):
    """acc[key] += c, keeping only nonzero coefficients."""
    s = acc.get(key)
    s = c if s is None else s + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


class CharCombo:
    """A finite linear combination of supercharacters of U_K with Laurent
    polynomial coefficients.

    ``ambient`` is the PartitionIndex K (a single part means the full group);
    ``terms`` maps labeled set partitions, each with arcs inside parts of K,
    to nonzero LaurentPoly coefficients.  Instances are immutable.  The
    public constructor checks every term; results are built with ``_make``.
    """

    __slots__ = ("ambient", "terms")

    def __init__(self, ambient, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        acc = {}
        for lam, c in items:
            if not isinstance(c, LaurentPoly):
                c = LaurentPoly.const(c)
            if not c:
                continue
            if lam.n != ambient.n:
                raise ValueError("term n=%d does not match ambient n=%d" % (lam.n, ambient.n))
            lam.crossings_within(ambient)  # refuses an arc across two parts
            _add(acc, lam, c)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", acc)

    @classmethod
    def _make(cls, ambient, terms):
        """A combination owning the trusted dict ``terms`` (partitions with
        arcs inside parts of ``ambient`` to nonzero LaurentPolys), with no
        checks: the constructor of internal results."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CharCombo is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, ambient):
        return cls._make(ambient, {})

    @classmethod
    def one(cls, ambient):
        """The trivial character."""
        return cls(ambient, [(LabeledSetPartition(range(1, ambient.n + 1), ()), 1)])

    @classmethod
    def of(cls, lam, ambient=None, coeff=1):
        if ambient is None:
            ambient = PartitionIndex.full(lam.n)
        return cls(ambient, [(lam, coeff)])

    # -- ring-module structure ------------------------------------------------

    def _same_ambient(self, other):
        if self.ambient.grouping() != other.ambient.grouping():
            raise ValueError("ambient mismatch")

    def __add__(self, other):
        self._same_ambient(other)
        acc = dict(self.terms)
        for lam, c in other.terms.items():
            _add(acc, lam, c)
        return CharCombo._make(self.ambient, acc)

    def __neg__(self):
        return CharCombo._make(self.ambient, {t: -c for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, LaurentPoly):
            c = LaurentPoly.const(c)
        if not c:
            return CharCombo.zero(self.ambient)
        return CharCombo._make(self.ambient, {t: k * c for t, k in self.terms.items()})

    def coeff(self, lam):
        return self.terms.get(lam, LaurentPoly.zero())

    def __eq__(self, other):
        if not isinstance(other, CharCombo):
            return NotImplemented
        return (
            self.ambient.grouping() == other.ambient.grouping()
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].arcs)

    # -- rendering -------------------------------------------------------------

    def to_text(self):
        if not self.terms:
            return "0"
        return " + ".join(
            "(%s)*chi[%s]" % (c, lam.to_text()) for lam, c in self.sorted_terms()
        )

    __str__ = to_text

    def __repr__(self):
        return "CharCombo(%s, %s)" % (self.ambient.to_text(), self.to_text())

    def to_json(self):
        return {
            "ambient": self.ambient.to_text(),
            "terms": [
                {"partition": lam.to_text(), "coeff": c.to_json()}
                for lam, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, obj):
        """The combination of ``to_json``'s form; a non-object, a missing
        field or ``terms`` that is not a list is refused with ValueError, and
        a partition that is not a str with TypeError."""
        ambient, terms = json_fields(obj, "combination", "ambient", "terms")
        if not isinstance(terms, list):
            raise ValueError("combination JSON terms must be a list")
        pairs = [json_fields(t, "combination term", "partition", "coeff") for t in terms]
        return cls(PartitionIndex.from_text(ambient), [
            (LabeledSetPartition.from_text(text), LaurentPoly.from_json(c)) for text, c in pairs])

    _TERM_RE = re.compile(r"\(([^()]*)\)\*chi\[([^\]]*)\]")

    @classmethod
    def from_text(cls, s, ambient):
        """Parse the canonical rendering back into a combination."""
        s = s.strip()
        if s == "0":
            return cls.zero(ambient)
        matches = cls._TERM_RE.findall(s)
        rebuilt = " + ".join("(%s)*chi[%s]" % m for m in matches)
        if rebuilt != s:
            raise ValueError("unparseable combination text")
        terms = [
            (LabeledSetPartition.from_text(part, n=ambient.n), LaurentPoly.from_text(c))
            for c, part in matches
        ]
        return cls(ambient, terms)


# ---------------------------------------------------------------------------
# Degrees and character values
# ---------------------------------------------------------------------------

def degree(lam, index=None):
    """chi^lam(1) inside U_K (default: the full group, where it is the
    product over arcs i-l of q^(l-i-1)): q to the number of vertices
    strictly under an arc and in its part of K, each part's arcs read in
    the part's own numbering as ``char_value`` reads them."""
    if index is None:
        index = PartitionIndex.full(lam.n)
    _check_n((lam,), index)
    return LaurentPoly.q_power(sum(l - i - 1 for part in index.parts
                                   for i, l, _ in _local(lam.arcs, _numbering(part))))


@functools.lru_cache(maxsize=None)
def _char_value_std(arcs_lam, arcs_mu, p):
    """chi^lam(u_mu) on {1..n}, arcs as sorted (i, l, a) tuples, as a
    monomial: None when the value is 0, else (e, k) for p^e zeta^k, with e
    summed over lam's arcs and k the sum of a*t mod p (t the label of mu's
    arc with the same ends, or 0)."""
    mu_left = {}
    mu_right = {}
    mu_label = {}
    for arc in arcs_mu:
        i, l, a = arc
        mu_left[i] = arc
        mu_right[l] = arc
        mu_label[(i, l)] = a
    e = k = 0
    for (i, l, a) in arcs_lam:
        blocker = mu_left.get(i)
        if blocker is not None and blocker[1] < l:
            return None
        blocker = mu_right.get(l)
        if blocker is not None and blocker[0] > i:
            return None
        inside = sum(1 for b in arcs_mu if i < b[0] and b[1] < l)
        e += (l - i - 1) - inside
        k += a * mu_label.get((i, l), 0)
    return e, k % p


@functools.lru_cache(maxsize=None)
def _mono_coords(mono, p):
    """Cyclotomic's coordinates of the monomial (e, k), p^e zeta^k, or of 0
    for None: slot i minus slot p-1 of the full vector with p^e in slot k."""
    vec = [0] * p
    if mono is not None:
        vec[mono[1]] = p ** mono[0]
    return reduce_full(vec)


def _char_value(lam, mu, index, p):
    """char_value's core: the monomial (or None) of chi^lam(u_mu) inside
    U_K, the per-part monomials multiplied."""
    e = k = 0
    for part in index.parts:
        fwd = _numbering(part)
        mono = _char_value_std(_local(lam.arcs, fwd), _local(mu.arcs, fwd), p)
        if mono is None:
            return None
        e, k = e + mono[0], k + mono[1]
    return e, k % p


def char_value(lam, mu, p, index=None):
    """chi^lam(u_mu), exact in Q(zeta_p), inside U_K (default: the full
    group): the product of per-part values.

    Each factor lives on the part alone, so the arcs are renumbered by the
    part's own vertices -- gap positions of a non-contiguous part do not
    exist inside U_K and must not enter the exponent counts.  Arcs that
    leave the part do not enter its factor.
    """
    if index is None:
        index = PartitionIndex.full(lam.n)
    _check_n((lam, mu), index)
    check_labels((lam, mu), p)
    return Cyclotomic._make(p, _mono_coords(_char_value(lam, mu, index, p), p))


def _value_rows(terms, labels, K, p):
    """Each partition of ``terms`` -> its monomials inside U_K
    (``_char_value``) at ``labels``, in order: a table read once per
    pair."""
    return {lam: [_char_value(lam, mu, K, p) for mu in labels] for lam in terms}


def _combo_coords(x, labels, p, rows=None):
    """The values of a combination at ``labels``, each as Cyclotomic's
    coordinates (ints or Fractions): every term's c(p) p^e added into slot k
    of one full vector per label.  ``rows`` (``_value_rows`` on x's ambient
    and ``labels``) may hold the terms' monomials already."""
    rows = rows or {}
    vecs = [[0] * p for _ in labels]
    for lam, c in x.terms.items():
        row = rows.get(lam) or _value_rows((lam,), labels, x.ambient, p)[lam]
        c = c.eval_at(p)
        for vec, mono in zip(vecs, row):
            if mono is not None:
                vec[mono[1]] += c * p ** mono[0]
    return [reduce_full(vec) for vec in vecs]


def combo_value(x, mu, p):
    """Pointwise value of a combination at the superclass of u_mu."""
    _check_n((mu,), x.ambient)
    check_labels((mu, *x.terms), p)
    return Cyclotomic._make(p, _combo_coords(x, [mu], p)[0])


# ---------------------------------------------------------------------------
# Arc tuples: the internal representation of the branching rules
# ---------------------------------------------------------------------------
#
# Inside the rules a character is a sorted tuple of (i, l, a) arcs and a
# combination is a dict from such tuples to LaurentPoly coefficients.  Each
# public rule checks its input at entry; its result is valid by construction
# and is built unchecked (``_combo`` turns a dict into its CharCombo).

def _combo(K, acc):
    """The combination on U_K of a dict from sorted straight arc tuples on
    {1..n}, each inside a part of K, to nonzero coefficients."""
    valid, arc = LabeledSetPartition._valid, functools.partial(tuple.__new__, Arc)
    return CharCombo._make(K, {valid(K.n, tuple(map(arc, a))): c for a, c in acc.items()})


def _numbering(part):
    """The increasing numbering of a sorted part by 1..m."""
    return {v: t for t, v in enumerate(part, 1)}


def _local(arcs, fwd):
    """The arcs with both ends in a part, renumbered by the part's
    numbering ``fwd`` (vertex -> 1..m)."""
    return tuple((fwd[i], fwd[l], a) for i, l, a in arcs if i in fwd and l in fwd)


def _superimpose(K, factors, coeff, acc):
    """Add coeff times a product over the parts of K into ``acc``.

    U_K is the direct product of its parts' groups, so every branching rule
    computes one factor per part and superimposes the factors.  ``factors``
    gives each part's factor, in ``K.parts`` order, as (arcs, LaurentPoly)
    pairs with the arcs in the part's numbering 1..m.  The arcs are carried
    back onto the part, and each choice of one term per part adds its
    superimposed arcs, sorted, to ``acc`` (arc tuple -> LaurentPoly).  A
    running coefficient that is the shared ``one`` is skipped, not multiplied.
    """
    one = LaurentPoly.one()
    partial = [((), coeff)]
    for part, factor in zip(K.parts, factors):
        terms = [
            (tuple((part[i - 1], part[l - 1], a) for i, l, a in arcs), c)
            for arcs, c in factor
        ]
        partial = [(base + arcs, c if bc is one else bc * c)
                   for base, bc in partial for arcs, c in terms]
    for arcs, c in partial:
        _add(acc, tuple(sorted(arcs)), c)


@functools.lru_cache(maxsize=None)
def _bracket(i, l, left, right, p):
    """The subset restriction rule's bracket of an arc i-l for a vertex set
    that keeps i (``left``), keeps l (``right``) or keeps neither, with its
    vertices between them numbered i+1..l-1, as a tuple of (arc tuple,
    LaurentPoly) pairs.  Keeping l, it is the empty diagram plus every j-l;
    keeping i, the empty diagram plus every i-k; keeping neither,
    (q-1)(l-i-1)+1 times the empty diagram plus q-1 times every j-k with
    i < j < k < l.  A table: the key is bounded by n and p."""
    units = range(1, p)
    between = range(i + 1, l)
    one = LaurentPoly.one()
    if right:
        return ((), one), *((((j, l, b),), one) for j in between for b in units)
    if left:
        return ((), one), *((((i, k, b),), one) for k in between for b in units)
    qm1 = LaurentPoly.q_minus_one()
    return ((), qm1 * len(between) + one), *(
        (((j, k, c),), qm1) for j, k in itertools.combinations(between, 2) for c in units
    )


# ---------------------------------------------------------------------------
# Tensor products and straightening
# ---------------------------------------------------------------------------

def tensor_pair(arc1, arc2, p):
    """Product of two single-arc supercharacters of U_n, as (sorted arc
    tuple, coefficient) pairs read off ``_bracket``: an arc i-l times itself
    is its brackets keeping i and keeping l superimposed when the labels
    cancel, else the merged arc over its bracket keeping neither end; a
    shorter arc sharing an end with a longer one gives the longer arc over
    the shorter one's bracket keeping its other end.  The two arcs must
    share their left end or their right end."""
    (i1, l1, a1), (i2, l2, a2) = arc1, arc2
    if (i1, l1) == (i2, l2):
        if (a1 + a2) % p == 0:
            lefts, rights = _bracket(i1, l1, True, False, p), _bracket(i1, l1, False, True, p)
            return [(x + y, cx * cy) for x, cx in lefts for y, cy in rights]
        merged = ((i1, l1, (a1 + a2) % p),)
        return [(merged + arcs, c) for arcs, c in _bracket(i1, l1, False, False, p)]
    # the longer arc sorts before every arc of the shorter one's bracket
    keep, (i, l, _) = (arc1, arc2) if l1 - i1 > l2 - i2 else (arc2, arc1)
    return [((tuple(keep),) + arcs, c) for arcs, c in _bracket(i, l, l1 == l2, i1 == i2, p)]


def _conflicting_pair(arcs):
    """Lexicographically least pair sharing a left or a right endpoint."""
    for x, y in itertools.combinations(arcs, 2):
        if x[0] == y[0] or x[1] == y[1]:
            return x, y
    return None


def _straighten(arcs, p):
    """straighten's core: the expansion as a dict from sorted arc tuples to
    coefficients."""
    acc = {}
    work = [(tuple(sorted(arcs)), LaurentPoly.one())]
    while work:
        cur, coeff = work.pop()
        pair = _conflicting_pair(cur)
        if pair is None:
            _add(acc, cur, coeff)
            continue
        x, y = pair
        rest = list(cur)
        rest.remove(x)
        rest.remove(y)
        measure = (len(cur), sum(l - i for i, l, _ in cur))
        for arcs2, c in tensor_pair(x, y, p):
            new = tuple(sorted(rest + list(arcs2)))
            if not (len(new), sum(l - i for i, l, _ in new)) < measure:
                raise RuntimeError("straightening measure must drop")
            work.append((new, coeff * c))
    return acc


def straighten(arcs, n, p):
    """Expand a multiset of labeled arcs on {1..n} into the supercharacter
    basis by repeatedly rewriting the least conflicting pair."""
    arcs = [tuple(a) for a in arcs]
    for i, l, a in arcs:
        if not 1 <= i < l <= n:
            raise ValueError("arc %d-%d is not an increasing arc on 1..%d" % (i, l, n))
        if not 0 < a < p:
            raise ValueError(_LABEL_OUTSIDE % (i, l, a, p - 1))
    return _combo(PartitionIndex.full(n), _straighten(arcs, p))


def tensor(x, y, p):
    """Pointwise product of two combinations over the same ambient, expanded
    back into the supercharacter basis part by part."""
    x._same_ambient(y)
    check_labels(itertools.chain(x.terms, y.terms), p)
    K = x.ambient
    acc = {}
    for lam1, c1 in x.terms.items():
        for lam2, c2 in y.terms.items():
            arcs = lam1.arcs + lam2.arcs
            factors = [_straighten(_local(arcs, _numbering(part)), p).items() for part in K.parts]
            _superimpose(K, factors, c1 * c2, acc)
    return _combo(K, acc)


# ---------------------------------------------------------------------------
# Restriction to parabolic subgroups
# ---------------------------------------------------------------------------

def _ranks(part, n):
    """Every vertex's rank against the sorted part P, indexed by v in
    0..n+1: 2k-1 on P's k-th vertex, 2k in the gap after it."""
    rank = []
    for k, v in enumerate(part):
        rank += [2 * k] * (v - len(rank)) + [2 * k + 1]
    return rank + [2 * len(part)] * (n + 2 - len(rank))


def _trace(arcs, rank, block, where):
    """All that part P of K sees of the character of U_L with ``arcs``
    (``where`` maps a vertex to its part of L, ``block`` is P's part of L
    and ``rank`` is ``_ranks(P, n)``): for each arc in P's part of L with a
    vertex of P under it or both ends on P, its endpoints' ranks and its
    label if both ends lie on P.  Any other arc's bracket is 1."""
    trace = []
    for i, l, a in arcs:
        if where[i] != block:
            continue
        ri = rank[i]
        rl = rank[l]
        if rl - ri > 1:
            trace.append((ri, rl, a if ri & rl & 1 else 0))
    return tuple(trace)


def _step_bracket(step, p):
    """One arc ``step`` of a ``_trace`` as (arc tuple, LaurentPoly) pairs in
    P's numbering 1..m: the arc's bracket of the subset restriction rule for
    the vertex set P, the arc itself if P keeps both ends, else ``_bracket``."""
    ri, rl, a = step
    # i is P's last vertex at or left of the arc's left end (0 if none),
    # l its first vertex at or right of the right end (m+1 if none);
    # P's vertices strictly under the arc lie between them
    i, l = (ri + 1) // 2, rl // 2 + 1
    if ri & rl & 1:
        return ((((i, l, a),), LaurentPoly.one()),)
    return _bracket(i, l, bool(ri & 1), bool(rl & 1), p)


def _extend(product, step, p):
    """One arc ``step`` of a ``_trace`` times the factor ``product`` (a dict
    from straight arc tuples in P's numbering 1..m to coefficients): the
    step's ``_step_bracket``, multiplied in by straightening.  A bracket arc
    sharing no end with a key's arcs is inserted in order instead: that
    multiset is straight already."""
    one = LaurentPoly.one()
    bracket = _step_bracket(step, p)
    nxt = {}
    for arcs1, c1 in product.items():
        lefts, rights = {x[0] for x in arcs1}, {x[1] for x in arcs1}
        for arcs2, c2 in bracket:
            c = c1 if c2 is one else c1 * c2
            if not arcs2:
                # the keys of ``product`` are straight already
                _add(nxt, arcs1, c)
            elif arcs2[0][0] not in lefts and arcs2[0][1] not in rights:
                _add(nxt, tuple(sorted(arcs1 + arcs2)), c)
            else:
                for loc, c_loc in _straighten(arcs1 + arcs2, p).items():
                    _add(nxt, loc, c if c_loc is one else c * c_loc)
    return nxt


# bounded, for the memory it keeps: the n = 9 superinductions from {1|2..9}
# and {1..8|9} build 17007 factors, and dropping the least recently used
# makes them rebuild none (as many misses as with no bound)
@functools.lru_cache(maxsize=1 << 14)
def _factor(trace, p):
    """P's factor in a restriction from U_L, from P's ``_trace``: a dict
    from arc tuples in P's numbering 1..m to coefficients, the product of
    the trace's brackets, each multiplied into the factor of the trace
    without it (``_extend``); a one-step trace's factor is its
    ``_step_bracket``.  A table shared by every rule and every call, so a
    trace extends its prefix's entry, built once; its callers only read
    the dicts."""
    if len(trace) > 1:
        return _extend(_factor(trace[:-1], p), trace[-1], p)
    return dict(_step_bracket(trace[0], p)) if trace else {(): LaurentPoly.one()}


def _walk_parts(K, L):
    """L (default: the full group, which K refines), once a given L is
    checked, its part lookup, and each part of K's ``_ranks`` and part of
    L, for ``_trace``."""
    if L is None:
        L = PartitionIndex.full(K.n)
    elif not K.refines(L):
        raise ValueError("the subgroup must refine the target of superinduction, "
                         "the source of restriction")
    where = L.part_lookup()
    return L, where, [(_ranks(part, K.n), where[part[0]]) for part in K.parts]


def _step_tables(L, p, where, walk):
    """For each part of K, every arc (i, l, a) inside a part of L -> its
    ``_trace`` there: ``enumerate_compatible``'s step tables for carrying
    each label's traces (``where`` and ``walk`` from ``_walk_parts``)."""
    arcs = [(i, l, a) for part in L.parts for i, l in itertools.combinations(part, 2)
            for a in range(1, p)]
    return [{arc: _trace((arc,), rank, block, where) for arc in arcs} for rank, block in walk]


def _row(K, traces, p):
    """The restriction from U_L to a refinement U_K of the character whose
    parts' ``_trace``s are ``traces`` (in ``K.parts`` order), as a dict from
    sorted arc tuples to coefficients: the parts' factors, superimposed."""
    acc = {}
    _superimpose(K, [_factor(trace, p).items() for trace in traces], LaurentPoly.one(), acc)
    return acc


def restrict(lam, K, p):
    """Restriction of chi^lam from U_n to the parabolic U_K."""
    _check_n((lam,), K)
    check_labels((lam,), p)
    _, where, walk = _walk_parts(K, None)
    return _combo(K, _row(K, [_trace(lam.arcs, rank, block, where) for rank, block in walk], p))


def restrict_combo(x, K, p):
    """Restrict a combination on U_L to a finer parabolic U_K (every part of
    K inside a part of L): each term's row (``_row``) of its parts'
    ``_trace``s, scaled and summed."""
    if not K.refines(x.ambient):
        raise ValueError("target index must refine the ambient")
    check_labels(x.terms, p)
    _, where, walk = _walk_parts(K, x.ambient)
    acc = {}
    for lam, c in x.terms.items():
        traces = [_trace(lam.arcs, rank, block, where) for rank, block in walk]
        for mu, b in _row(K, traces, p).items():
            _add(acc, mu, c * b)
    return _combo(K, acc)


def restriction_table(K, p, L=None):
    """The matrix of branching coefficients by rows: each supercharacter nu
    of U_L (default: the full group) -> ``restrict_combo(CharCombo.of(nu,
    L), K, p)``, from one walk over the labels nu that carries each nu's
    traces (``_step_tables``) to ``_row``."""
    L, where, walk = _walk_parts(K, L)
    valid = LabeledSetPartition._valid
    return {valid(L.n, arcs): _combo(K, _row(K, traces, p))
            for arcs, traces in enumerate_compatible(L, p, _step_tables(L, p, where, walk))}


# ---------------------------------------------------------------------------
# Superinflation, inner products, superinduction
# ---------------------------------------------------------------------------

def sinf(lam, K, L):
    """Superinflation at the index level: the same arcs, read in the coarser
    group.  Validates that K refines L and that lam is K-compatible."""
    _check_n((lam,), K)
    if not K.refines(L):
        raise ValueError("superinflation needs the source index to refine the target")
    lam.crossings_within(K)  # refuses an arc across two parts
    return lam


def inner_product(x, y):
    """<x, y> over the common ambient: supercharacters are orthogonal with
    squared norm q^(number of same-part crossings)."""
    x._same_ambient(y)
    total = LaurentPoly.zero()
    for lam, cx in x.terms.items():
        cy = y.terms.get(lam)
        if cy is not None:
            total = total + (cx * cy).shift(lam.crossings_within(x.ambient))
    return total


def superinduce(mu, K, p, L=None):
    """Superinduction from U_K up to U_L (default: the full group), computed
    through its adjointness with restriction: the coefficient of chi^nu is
    q^(crossings of mu in K minus crossings of nu in L) times the coefficient
    of chi^mu in the restriction of chi^nu.  An arc of mu across two parts
    of K is refused with ValueError.

    The parts of K are disjoint, so that coefficient is the product over
    the parts P of P's restriction factor read at mu's arcs on P.  The
    factor is a function of nu's ``_trace`` on P alone, read from the
    factor table (``_factor``) that every call and rule shares, and each
    part keeps the entry read at each trace.  The label walk carries the
    traces (``_step_tables``): a label costs a read per part until one is
    0, and only a kept label is built."""
    _check_n((mu,), K)
    L, where, walk = _walk_parts(K, L)
    check_labels((mu,), p)
    c_mu = mu.crossings_within(K)
    if K.grouping() == L.grouping():
        return CharCombo.of(mu, L)
    reads = [(_local(mu.arcs, _numbering(part)), {}) for part in K.parts]
    terms = {}
    for arcs, traces in enumerate_compatible(L, p, _step_tables(L, p, where, walk)):
        b = None
        for (loc, read), trace in zip(reads, traces):
            if trace not in read:
                read[trace] = _factor(trace, p).get(loc)
            c = read[trace]
            if c is None:
                break
            b = c if b is None else b * c
        else:
            terms[LabeledSetPartition._valid(L.n, arcs)] = b.shift(c_mu - _crossings(arcs, where))
    return CharCombo._make(L, terms)


def superinduction_table(K, p, L=None):
    """The matrix by columns: each supercharacter mu of U_K ->
    ``superinduce(mu, K, p, L)``.  It is ``restriction_table``'s walk, with
    its carried traces, each term c chi^mu of nu's row adding
    q^(cr_K mu - cr_L nu) c chi^nu to mu's column; one mu alone is cheaper
    through ``superinduce``."""
    L, where, walk = _walk_parts(K, L)
    cols = {mu.arcs: (mu, mu.crossings_within(K), {}) for mu in enumerate_compatible(K, p)}
    for arcs, traces in enumerate_compatible(L, p, _step_tables(L, p, where, walk)):
        nu, c_nu = LabeledSetPartition._valid(L.n, arcs), _crossings(arcs, where)
        for key, c in _row(K, traces, p).items():
            mu, c_mu, col = cols[key]
            col[nu] = c.shift(c_mu - c_nu)
    return {mu: CharCombo._make(L, col) for mu, _, col in cols.values()}


def star_K(lam, mu, K, p):
    """The glued product: transport lam (degree m) and mu (degree n) onto the
    two blocks of K with ``union_K`` and superinduce up to U_(m+n), which
    checks the glued labels."""
    return superinduce(union_K(lam, mu, K), K, p)


# ---------------------------------------------------------------------------
# Basis conversion
# ---------------------------------------------------------------------------

def chi_to_kappa(x, p):
    """Value vector of a combination on the full group: superclass label ->
    exact value, i.e. the coefficients on the superclass-indicator basis."""
    if x.ambient != PartitionIndex.full(x.ambient.n):
        raise ValueError("basis conversion lives on the full group")
    check_labels(x.terms, p)
    labels = list(enumerate_compatible(x.ambient, p))
    return {mu: Cyclotomic._make(p, v) for mu, v in zip(labels, _combo_coords(x, labels, p))}


def kappa_to_chi(values, p):
    """Inverse conversion: given one exact value f(mu) (a Cyclotomic) per
    superclass label of U_n, read off the supercharacter coefficients by
    column orthogonality.  With ||chi^nu||^2 = q^{cr nu} at q = p, the coefficient
    of chi^lam is the sum over mu of f(mu) conj chi^lam(u_mu) /
    (q^{cr lam} z_mu), where z_mu = sum over nu of |chi^nu(u_mu)|^2 /
    q^{cr nu} is |U_n| over the size of the superclass of u_mu.  Returns
    superchar label -> Cyclotomic coefficient."""
    if not values:
        return {}
    n = min(lam.n for lam in values)
    labels = list(enumerate_compatible(PartitionIndex.full(n), p))
    if set(values) != set(labels):
        raise ValueError("need a value for every superclass label of U_%d" % n)
    if any(v.p != p for v in values.values()):
        raise ValueError("need values in Q(zeta_%d)" % p)
    inv_norms = [Fraction(1, p ** lam.num_crossings()) for lam in labels]
    table = list(_value_rows(labels, labels, PartitionIndex.full(n), p).values())
    weights = []  # the coordinates of f(mu) / z_mu
    for j, mu in enumerate(labels):
        z = sum(p ** (2 * row[j][0]) * w for row, w in zip(table, inv_norms) if row[j])
        weights.append([a / z for a in values[mu].coords])
    out = {}
    for lam, row, w in zip(labels, table, inv_norms):
        # f(mu) times conj(p^e zeta^k) = p^e zeta^-k moves slot i to i - k
        vec = [0] * p
        for f, mono in zip(weights, row):
            if mono is not None:
                e, k = mono
                s = p ** e * w
                for i, a in enumerate(f):
                    if a:
                        vec[(i - k) % p] += s * a
        c = Cyclotomic._from_full(p, vec)
        if c:
            out[lam] = c
    return out
