"""Symmetric functions in non-commuting variables, at desk scale.

The degree-n homogeneous component is spanned by monomial functions m_K
indexed by unlabeled set partitions K of {1..n}: m_K is the sum of all words
x_{k_1}...x_{k_n} whose positions carry equal letters exactly on the blocks
of K.  On top of the monomials sits a multiplicative basis p_K (coarsening
sums of monomials, inverted by partition-lattice Mobius inversion) chosen so
that the K-indexed shuffle products concatenate indices:

    p_lam *_K p_mu = p_{lam glued along K with mu}.

Coefficients are exact rationals, each stored as an int when integral, else
as a Fraction in lowest terms, and no zero is stored.  The constructor,
``single``, ``scale`` and ``from_json`` set this and refuse floats, so sums
and products of integral coefficients run on plain ints, and basis changes
sum in ints over their input's least common denominator.  Shuffle products
are computed in the m-basis by the Rosas-Sagan rule (a p-basis factor is
first rewritten in the m-basis), and basis changes walk the coarsenings of
each index once.  The independent checks live in :mod:`superchar.verify`:
the ``words`` suite reads the product one set partition of its degree at a
time (one class of words, whose m-coefficient is the factors' coefficients
at its two standardized traces), and the ``charmap`` suite checks the
bridge to the group side -- scaled superclass indicators multiply the same
way under superinduction at p = 2, checked against the brute-force oracle.
The tests check the class route against the word expansions multiplied
word by word, and the Mobius function against the partition lattice.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import check_ints
from .qcoeff import json_fields, rational
from .setpart import PartitionIndex, set_partitions, shuffle_blocks, shuffle_index

__all__ = [
    "NCSymElem",
    "canonical_index",
    "p_from_m",
    "m_from_p",
    "star_K_product",
    "concat_product",
]


# ---------------------------------------------------------------------------
# unlabeled partition plumbing


def canonical_index(K):
    """The same partition with parts sorted by minimum (hash-stable key)."""
    grouping = K.grouping()
    return K if grouping == K.parts else PartitionIndex(K.n, grouping)


# bounded: the key r counts an index's blocks, and no request reaches 32
@functools.lru_cache(maxsize=1 << 5)
def _merges_with_mobius(r):
    """The set partitions of range(r), each with its Mobius factor (see
    ``_coarsenings_with_mobius``).  They depend only on r, so every index
    with r blocks shares them."""
    out = []
    for merge in set_partitions(range(r)):
        mu = 1
        for group in merge:
            k = len(group)
            mu *= (-1) ** (k - 1) * math.factorial(k - 1)
        out.append((merge, mu))
    return tuple(out)


def _coarsenings_with_mobius(K):
    """Yield (parts of M, the Mobius value mu(K, M) of the partition lattice)
    for every coarsening M of K.

    Each M comes from a set partition of K's blocks into groups, merged
    group by group.  The groups arrive ordered by their first block and
    the blocks are sorted by minimum, so the parts are already in canonical
    form.  The interval [K, M] is a product of full partition lattices, one
    per group, so the Mobius value is the product of (-1)^(k-1) (k-1)! over
    the group sizes k.
    """
    blocks = K.grouping()
    for merge, mu in _merges_with_mobius(len(blocks)):
        parts = []
        for group in merge:
            if len(group) == 1:
                parts.append(blocks[group[0]])
            else:
                parts.append(tuple(sorted(v for b in group for v in blocks[b])))
        yield tuple(parts), mu


# ---------------------------------------------------------------------------
# elements in the m and p bases


class NCSymElem:
    """A homogeneous element in the m- or p-basis.

    ``coeffs`` maps canonical indices to nonzero exact rationals, each an
    int when integral, else a Fraction in lowest terms.
    """

    __slots__ = ("basis", "degree", "coeffs")

    def __init__(self, basis, degree, coeffs):
        if basis not in ("m", "p"):
            raise ValueError("basis must be 'm' or 'p', not %r" % (basis,))
        check_ints((degree,), "degree")
        if degree < 0:
            raise ValueError("degree must be nonnegative, not %d" % degree)
        clean = {}
        for K, c in coeffs.items():
            if not isinstance(K, PartitionIndex):
                raise TypeError("coefficient keys must be PartitionIndex")
            if K.n != degree:
                raise ValueError(
                    "partition %s is not of degree %d" % (K.to_text(), degree)
                )
            c = rational(c)
            if c:
                key = canonical_index(K)
                if key in clean:
                    raise ValueError("duplicate key %s" % key.to_text())
                clean[key] = c
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("NCSymElem is immutable")

    @classmethod
    def single(cls, basis, K, coeff=1):
        return cls(basis, K.n, {K: coeff})

    @classmethod
    def zero(cls, basis, degree):
        return cls(basis, degree, {})

    def coeff(self, K):
        return self.coeffs.get(canonical_index(K), 0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, NCSymElem)
            and self.basis == other.basis
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if not isinstance(other, NCSymElem):
            return NotImplemented
        if (self.basis, self.degree) != (other.basis, other.degree):
            raise ValueError("cannot add across bases or degrees")
        coeffs = dict(self.coeffs)
        for K, c in other.coeffs.items():
            coeffs[K] = coeffs.get(K, 0) + c
        return NCSymElem(self.basis, self.degree, coeffs)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = rational(c)
        return NCSymElem(
            self.basis, self.degree, {K: c * v for K, v in self.coeffs.items()}
        )

    def sorted_terms(self):
        return sorted(self.coeffs.items(), key=lambda kv: kv[0].parts)

    def to_text(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            "(%s)*%s[%s]" % (c, self.basis, K.to_text())
            for K, c in self.sorted_terms()
        )

    __str__ = to_text

    def __repr__(self):
        return "NCSymElem(%s, %s)" % (self.basis, self.to_text())

    def to_json(self):
        return {
            "basis": self.basis,
            "degree": self.degree,
            "terms": [
                {"partition": K.to_text(), "coeff": str(c)}
                for K, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data):
        """The element of ``to_json``'s form; the coefficients of repeated
        partitions are summed."""
        basis, degree, terms = json_fields(data, "NCSym", "basis", "degree", "terms")
        check_ints((degree,), "degree")
        if not isinstance(terms, list):
            raise ValueError("NCSym JSON terms must be a list")
        coeffs = {}
        for term in terms:
            text, c = json_fields(term, "NCSym term", "partition", "coeff")
            K = canonical_index(PartitionIndex.from_text(text, n=degree))
            coeffs[K] = coeffs.get(K, 0) + rational(c)
        return cls(basis, degree, coeffs)


def _from_parts(basis, degree, coeffs, denominator=1):
    """An element from int or rational coefficients keyed by canonical parts
    tuples, each divided by ``denominator``."""
    return NCSymElem(basis, degree, {
        PartitionIndex(degree, parts): c if denominator == 1 else Fraction(c, denominator)
        for parts, c in coeffs.items()
    })


def _over_common_denominator(x):
    """(d, pairs (K, d * c)) for the coefficients c of ``x``, with d the
    least common denominator, so every scaled coefficient is an int."""
    d = math.lcm(*(c.denominator for c in x.coeffs.values()))
    return d, [(K, c.numerator * (d // c.denominator)) for K, c in x.coeffs.items()]


def p_from_m(x):
    """Rewrite an m-basis element in the p-basis.

    With p_K the sum of m_M over coarsenings M of K, the inverse direction
    is Mobius inversion: m_K is the alternating sum of p_M over the same
    coarsenings.  The sums run in ints over the input's common denominator.
    """
    if x.basis != "m":
        raise ValueError("p_from_m starts from the m basis")
    d, scaled = _over_common_denominator(x)
    coeffs = {}
    for K, c in scaled:
        for parts, mu in _coarsenings_with_mobius(K):
            coeffs[parts] = coeffs.get(parts, 0) + c * mu
    return _from_parts("p", x.degree, coeffs, d)


def m_from_p(x):
    """Rewrite a p-basis element in the m-basis (plain coarsening sums, in
    ints over the input's common denominator)."""
    if x.basis != "p":
        raise ValueError("m_from_p starts from the p basis")
    d, scaled = _over_common_denominator(x)
    coeffs = {}
    for K, c in scaled:
        for parts, _ in _coarsenings_with_mobius(K):
            coeffs[parts] = coeffs.get(parts, 0) + c
    return _from_parts("m", x.degree, coeffs, d)


# ---------------------------------------------------------------------------
# shuffle products


def _pushed(K, positions):
    """The blocks of K carried onto ``positions`` (sorted) by the increasing
    bijection from {1..n}."""
    return [tuple(positions[v - 1] for v in block) for block in K.parts]


def _partial_matchings(left, right, free, parts):
    """Canonical parts of every partition whose blocks are those of ``left``
    and ``right`` (disjoint supports), with each block of ``left`` merged
    into at most one block of ``right`` and vice versa.  ``parts`` holds the
    blocks chosen for the first ``len(parts)`` blocks of ``left``, and
    ``free`` the indices of the blocks of ``right`` not merged yet (a
    module-level recursion, so no call leaves a self-referencing closure to
    the cyclic collector)."""
    i = len(parts)
    if i == len(left):
        yield tuple(sorted(parts + [right[j] for j in free]))
        return
    block = left[i]
    yield from _partial_matchings(left, right, free, parts + [block])
    for j in free:
        merged = tuple(sorted(block + right[j]))
        yield from _partial_matchings(left, right, [k for k in free if k != j], parts + [merged])


def star_K_product(x, y, K):
    """Shuffle product along a shuffle index (``setpart.shuffle_blocks``),
    in the m-basis.

    The first factor's positions are laid onto the first block of K (in
    increasing order), the second factor's onto the second block; a
    degree-0 factor's block is empty, so it pushes nothing.  A p-basis
    factor is rewritten in the m-basis first.  By the Rosas-Sagan rule,
    m_A *_K m_B is the sum of m_C over the partitions C whose traces on the
    two blocks of K are the pushed A and B, i.e. one C per partial matching
    between the blocks of A and those of B.  The result is in the m-basis;
    the ``words`` suite of ``superchar.verify`` computes the same product
    class by class.
    """
    m, n = x.degree, y.degree
    pos1, pos2 = shuffle_blocks(K, m, n)
    if x.basis == "p":
        x = m_from_p(x)
    if y.basis == "p":
        y = m_from_p(y)
    right = [(_pushed(B, pos2), cb) for B, cb in y.coeffs.items()]
    coeffs = {}
    for A, ca in x.coeffs.items():
        left = _pushed(A, pos1)
        for blocks, cb in right:
            c = ca * cb
            for parts in _partial_matchings(left, blocks, range(len(blocks)), []):
                coeffs[parts] = coeffs.get(parts, 0) + c
    return _from_parts("m", m + n, coeffs)


def concat_product(x, y):
    """Ordinary polynomial product: the shuffle along {1..m | m+1..m+n}, in
    the m-basis.  A degree-0 factor's block is absent from the index, so
    the product is the other factor, scaled by its coefficient."""
    return star_K_product(x, y, shuffle_index(x.degree, y.degree))
