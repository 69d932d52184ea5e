"""Symmetric functions in non-commuting variables, at desk scale.

The degree-n homogeneous component is spanned by monomial functions m_K
indexed by unlabeled set partitions K of {1..n}: m_K is the sum of all words
x_{k_1}...x_{k_n} whose positions carry equal letters exactly on the blocks
of K.  On top of the monomials sits a multiplicative basis p_K (coarsening
sums of monomials, inverted by partition-lattice Mobius inversion) chosen so
that the K-indexed shuffle products concatenate indices:

    p_lam *_K p_mu = p_{lam glued along K with mu}.

Everything here is exact rational arithmetic.  Shuffle products are
computed in the m-basis by the Rosas-Sagan rule (a p-basis factor is first
rewritten in the m-basis), and basis changes walk the coarsenings of each
index once.  Finite word expansions (an element of degree n is faithful over
an alphabet of n letters) remain as an independent reference: the product
computed word by word is what the tests and the ``words`` verify suite
compare against.  The bridge to the group side -- scaled superclass
indicators multiply the same way under superinduction at p = 2 -- is checked
against the brute-force oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from fractions import Fraction

from .setpart import (
    LabeledSetPartition,
    PartitionIndex,
    arcs_of_parts,
    set_partitions,
    union_K,
)

__all__ = [
    "WordExpansion",
    "NCSymElem",
    "canonical_index",
    "coarsenings",
    "mobius_partition",
    "m_expand",
    "p_from_m",
    "m_from_p",
    "star_K_product",
    "concat_product",
    "characteristic_map_check",
    "mobius_telescope_check",
]


# ---------------------------------------------------------------------------
# unlabeled partition plumbing


def canonical_index(K):
    """The same partition with parts sorted by minimum (hash-stable key)."""
    grouping = K.grouping()
    return K if grouping == K.parts else PartitionIndex(K.n, grouping)


def _parts_of_word(word):
    """Equal-positions partition of a word: 1-based positions grouped by
    letter, parts sorted by minimum."""
    where = {}
    for pos, letter in enumerate(word, start=1):
        where.setdefault(letter, []).append(pos)
    return tuple(sorted((tuple(v) for v in where.values()), key=lambda t: t[0]))


@functools.lru_cache(maxsize=None)
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
    """Yield (parts of M, mobius_partition(K, M)) for every coarsening M of K.

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


def coarsenings(K):
    """All partitions obtained by merging blocks of K (K itself included)."""
    return [PartitionIndex(K.n, parts) for parts, _ in _coarsenings_with_mobius(K)]


def mobius_partition(A, B):
    """Mobius function of the interval [A, B] in the partition lattice.

    A must refine B; the interval is a product of full partition lattices,
    one per block of B, giving the product of (-1)^(k-1) (k-1)! over the
    number k of A-blocks inside each B-block.
    """
    if not A.refines(B):
        raise ValueError("Mobius function needs A refining B")
    lk = A.part_lookup()
    value = 1
    for block in B.parts:
        k = len({lk[v] for v in block})
        sign = -1 if (k - 1) % 2 else 1
        value *= sign * math.factorial(k - 1)
    return value


def mobius_telescope_check(n):
    """Sum of mobius(M, B) over A <= M <= B is the delta on A == B; checked
    for every refinement pair of partitions of {1..n}."""
    idx = [canonical_index(PartitionIndex(n, pp)) for pp in set_partitions(range(1, n + 1))]
    for B in idx:
        below = [A for A in idx if A.refines(B)]
        for A in below:
            total = sum(mobius_partition(M, B) for M in below if A.refines(M))
            if total != (1 if A == B else 0):
                return False
    return True


# ---------------------------------------------------------------------------
# word expansions


class WordExpansion:
    """Exact expansion of a degree-n element over a finite alphabet.

    Words are length-n tuples of letters 1..alphabet with rational
    coefficients.  Construction asserts the defining symmetry: the
    coefficient only depends on the equal-positions partition of the word,
    and a class is either absent or fully present.
    """

    __slots__ = ("alphabet", "degree", "coeffs")

    def __init__(self, alphabet, degree, coeffs):
        alphabet = int(alphabet)
        degree = int(degree)
        if alphabet < 0 or degree < 0:
            raise ValueError("alphabet and degree must be nonnegative")
        clean = {}
        for word, c in coeffs.items():
            word = tuple(int(v) for v in word)
            if len(word) != degree:
                raise ValueError("word %r is not of degree %d" % (word, degree))
            if any(v < 1 or v > alphabet for v in word):
                raise ValueError("word %r leaves the alphabet 1..%d" % (word, alphabet))
            c = Fraction(c)
            if c:
                clean[word] = c
        # symmetry: constant and complete on every equal-positions class
        by_class = {}
        for word, c in clean.items():
            by_class.setdefault(_parts_of_word(word), []).append(c)
        for parts, values in by_class.items():
            if any(c != values[0] for c in values[1:]):
                raise ValueError(
                    "expansion is not symmetric on the class of %s" % (parts,)
                )
            expected = math.perm(alphabet, len(parts))
            if len(values) != expected:
                raise ValueError(
                    "class of %s holds %d of its %d words"
                    % (parts, len(values), expected)
                )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WordExpansion is immutable")

    def coeff(self, word):
        return self.coeffs.get(tuple(word), Fraction(0))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, WordExpansion)
            and self.alphabet == other.alphabet
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if (self.alphabet, self.degree) != (other.alphabet, other.degree):
            raise ValueError("expansions live on different word sets")
        coeffs = dict(self.coeffs)
        for word, c in other.coeffs.items():
            coeffs[word] = coeffs.get(word, Fraction(0)) + c
        return WordExpansion(self.alphabet, self.degree, coeffs)

    def scale(self, c):
        c = Fraction(c)
        return WordExpansion(
            self.alphabet, self.degree, {w: c * v for w, v in self.coeffs.items()}
        )

    def class_coefficients(self):
        """Map equal-positions partition -> the common coefficient."""
        out = {}
        for word, c in self.coeffs.items():
            parts = _parts_of_word(word)
            if parts not in out:
                out[parts] = c
        return out


def _monomial_words(K, N):
    """The words over 1..N whose equal-positions partition is K: one word
    per injective assignment of letters to blocks."""
    blocks = K.grouping()
    if N < len(blocks):
        warnings.warn(
            "alphabet of %d letters cannot separate %d blocks; expansion is empty"
            % (N, len(blocks)),
            stacklevel=3,
        )
        return []
    words = []
    for letters in itertools.permutations(range(1, N + 1), len(blocks)):
        word = [0] * K.n
        for block, letter in zip(blocks, letters):
            for pos in block:
                word[pos - 1] = letter
        words.append(tuple(word))
    return words


def m_expand(K, N):
    """Word expansion of the monomial m_K over the alphabet 1..N.

    Coefficient 1 sits exactly on the words whose equal-positions partition
    is K.
    """
    N = int(N)
    return WordExpansion(N, K.n, dict.fromkeys(_monomial_words(K, N), Fraction(1)))


# ---------------------------------------------------------------------------
# elements in the m and p bases


class NCSymElem:
    """A homogeneous element in the m- or p-basis with rational coefficients."""

    __slots__ = ("basis", "degree", "coeffs")

    def __init__(self, basis, degree, coeffs):
        if basis not in ("m", "p"):
            raise ValueError("basis must be 'm' or 'p', not %r" % (basis,))
        degree = int(degree)
        clean = {}
        for K, c in coeffs.items():
            if not isinstance(K, PartitionIndex):
                raise TypeError("coefficient keys must be PartitionIndex")
            if K.n != degree:
                raise ValueError(
                    "partition %s is not of degree %d" % (K.to_text(), degree)
                )
            c = Fraction(c)
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
        return cls(basis, K.n, {K: Fraction(coeff)})

    @classmethod
    def zero(cls, basis, degree):
        return cls(basis, degree, {})

    def coeff(self, K):
        return self.coeffs.get(canonical_index(K), Fraction(0))

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
            coeffs[K] = coeffs.get(K, Fraction(0)) + c
        return NCSymElem(self.basis, self.degree, coeffs)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
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
        degree = int(data["degree"])
        coeffs = {}
        for term in data["terms"]:
            K = PartitionIndex.from_text(term["partition"], n=degree)
            coeffs[canonical_index(K)] = Fraction(term["coeff"])
        return cls(data["basis"], degree, coeffs)

    def expand(self, N=None):
        """Word expansion over 1..N (default: one letter per position)."""
        N = self.degree if N is None else int(N)
        x = self if self.basis == "m" else m_from_p(self)
        # distinct monomials own disjoint word sets
        coeffs = {}
        for K, c in x.coeffs.items():
            for word in _monomial_words(K, N):
                coeffs[word] = c
        return WordExpansion(N, self.degree, coeffs)


def _from_parts(basis, degree, coeffs):
    """An element from coefficients keyed by canonical parts tuples."""
    return NCSymElem(
        basis, degree, {PartitionIndex(degree, parts): c for parts, c in coeffs.items()}
    )


def p_from_m(x):
    """Rewrite an m-basis element in the p-basis.

    With p_K the sum of m_M over coarsenings M of K, the inverse direction
    is Mobius inversion: m_K is the alternating sum of p_M over the same
    coarsenings.
    """
    if x.basis != "m":
        raise ValueError("p_from_m starts from the m basis")
    coeffs = {}
    for K, c in x.coeffs.items():
        for parts, mu in _coarsenings_with_mobius(K):
            coeffs[parts] = coeffs.get(parts, 0) + c * mu
    return _from_parts("p", x.degree, coeffs)


def m_from_p(x):
    """Rewrite a p-basis element in the m-basis (plain coarsening sums)."""
    if x.basis != "p":
        raise ValueError("m_from_p starts from the p basis")
    coeffs = {}
    for K, c in x.coeffs.items():
        for parts, _ in _coarsenings_with_mobius(K):
            coeffs[parts] = coeffs.get(parts, 0) + c
    return _from_parts("m", x.degree, coeffs)


# ---------------------------------------------------------------------------
# shuffle products


def _validate_shuffle_index(K, m, n):
    if len(K.parts) != 2:
        raise ValueError("shuffle index must have exactly two blocks")
    if K.n != m + n:
        raise ValueError("shuffle index covers %d, factors give %d" % (K.n, m + n))
    if (len(K.parts[0]), len(K.parts[1])) != (m, n):
        raise ValueError(
            "block sizes (%d,%d) do not match factor degrees (%d,%d)"
            % (len(K.parts[0]), len(K.parts[1]), m, n)
        )


def _pushed(K, positions):
    """The blocks of K carried onto ``positions`` (sorted) by the increasing
    bijection from {1..n}."""
    return [tuple(positions[v - 1] for v in block) for block in K.parts]


def _partial_matchings(left, right):
    """Canonical parts of every partition whose blocks are those of ``left``
    and ``right`` (disjoint supports), with each block of ``left`` merged
    into at most one block of ``right`` and vice versa."""

    def rec(i, free, parts):
        if i == len(left):
            yield tuple(sorted(parts + [right[j] for j in free]))
            return
        block = left[i]
        yield from rec(i + 1, free, parts + [block])
        for j in free:
            merged = tuple(sorted(block + right[j]))
            yield from rec(i + 1, [k for k in free if k != j], parts + [merged])

    return rec(0, list(range(len(right))), [])


def star_K_product(x, y, K):
    """Shuffle product along a two-block index, in the m-basis.

    The first factor's positions are laid onto the first block of K (in
    increasing order), the second factor's onto the second block.  A p-basis
    factor is rewritten in the m-basis first.  By the Rosas-Sagan rule,
    m_A *_K m_B is the sum of m_C over the partitions C whose traces on the
    two blocks of K are the pushed A and B, i.e. one C per partial matching
    between the blocks of A and those of B.  The result is in the m-basis;
    ``_star_K_product_words`` computes the same product on word expansions.
    """
    m, n = x.degree, y.degree
    _validate_shuffle_index(K, m, n)
    if x.basis == "p":
        x = m_from_p(x)
    if y.basis == "p":
        y = m_from_p(y)
    pos1, pos2 = K.parts
    right = [(_pushed(B, pos2), cb) for B, cb in y.coeffs.items()]
    coeffs = {}
    for A, ca in x.coeffs.items():
        left = _pushed(A, pos1)
        for blocks, cb in right:
            c = ca * cb
            for parts in _partial_matchings(left, blocks):
                coeffs[parts] = coeffs.get(parts, 0) + c
    return _from_parts("m", m + n, coeffs)


def _star_K_product_words(x, y, K):
    """The shuffle product computed on words: the reference for
    :func:`star_K_product`.

    Both factors are expanded over m+n letters, which is faithful for
    degree m+n, and multiplied word by word; the resulting expansion is
    recognized back into the m-basis.
    """
    m, n = x.degree, y.degree
    _validate_shuffle_index(K, m, n)
    N = max(m + n, 1)
    xe = x.expand(N)
    ye = y.expand(N)
    pos1, pos2 = K.parts
    coeffs = {}
    for u, cu in xe.coeffs.items():
        for v, cv in ye.coeffs.items():
            word = [0] * (m + n)
            for pos, letter in zip(pos1, u):
                word[pos - 1] = letter
            for pos, letter in zip(pos2, v):
                word[pos - 1] = letter
            word = tuple(word)
            coeffs[word] = coeffs.get(word, Fraction(0)) + cu * cv
    product = WordExpansion(N, m + n, coeffs)
    # recognition: symmetry was asserted on construction, so the class
    # coefficients are the m-basis coefficients
    out = {}
    for parts, c in product.class_coefficients().items():
        out[PartitionIndex(m + n, parts)] = c
    return NCSymElem("m", m + n, out)


def concat_product(x, y):
    """Ordinary polynomial product: the shuffle along {1..m | m+1..m+n}."""
    m, n = x.degree, y.degree
    K = PartitionIndex(m + n, [range(1, m + 1), range(m + 1, m + n + 1)])
    return star_K_product(x, y, K)


# ---------------------------------------------------------------------------
# the bridge to the group side (q = 2)


def _labeled_of_parts(parts, n):
    """The labeled partition with the arc skeleton of an unlabeled one; all
    labels 1, which is the only choice at p = 2."""
    return LabeledSetPartition(range(1, n + 1), [(u, v, 1) for u, v in arcs_of_parts(parts)])


def characteristic_map_check(max_total=4, budget=None):
    """Products match across the bridge at p = 2, for all degrees m + n up
    to ``max_total`` and all two-block shuffles.

    Group side: superinducing the product of scaled superclass indicators
    (z_mu kappa_mu) x (z_nu kappa_nu) from the K-parabolic to the full group
    lands on z kappa of the glued partition -- computed by the brute-force
    double sum.  NCSym side: p_mu *_K p_nu = p of the glued partition, with
    the product computed by the m-basis rule.  Returns the conjunction of
    all the checks.
    """
    from .oracle import PatternGroup, brute_superinduce, z_value
    from .qcoeff import Cyclotomic

    p = 2
    for total in range(2, max_total + 1):
        G = PatternGroup.full(total, p)
        gt = G.superclass_table()
        for m in range(1, total):
            n = total - m
            Gm = PatternGroup.full(m, p)
            Gn = PatternGroup.full(n, p)
            for block1 in itertools.combinations(range(1, total + 1), m):
                block2 = tuple(v for v in range(1, total + 1) if v not in block1)
                K = PartitionIndex(total, [block1, block2])
                H = PatternGroup.parabolic(K, p)
                ht = H.superclass_table()
                for mu_parts in set_partitions(range(1, m + 1)):
                    mu = _labeled_of_parts(mu_parts, m)
                    z_mu = z_value(Gm, mu)
                    for nu_parts in set_partitions(range(1, n + 1)):
                        nu = _labeled_of_parts(nu_parts, n)
                        z_nu = z_value(Gn, nu)
                        glued = union_K(mu, nu, K)
                        z_glued = z_value(G, glued)
                        scale = Fraction(z_mu * z_nu)
                        chi_vals = tuple(
                            Cyclotomic.from_rational(p, scale if lab == glued else 0)
                            for lab in ht.labels
                        )
                        vals = brute_superinduce(G, H, chi_vals, budget=budget)
                        for lab, got in zip(gt.labels, vals):
                            want = Fraction(z_glued) if lab == glued else Fraction(0)
                            if got.as_rational() != want:
                                return False
                        # NCSym side of the same product
                        lhs = p_from_m(
                            star_K_product(
                                NCSymElem.single("p", canonical_index(PartitionIndex(m, mu_parts))),
                                NCSymElem.single("p", canonical_index(PartitionIndex(n, nu_parts))),
                                K,
                            )
                        )
                        rhs = NCSymElem.single(
                            "p", canonical_index(PartitionIndex(total, glued.parts()))
                        )
                        if lhs != rhs:
                            return False
    return True
