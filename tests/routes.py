"""Second routes that only the tests call.

Each operation has one implementation in ``superchar``; these recompute
answers, or identities behind them, by independent routes.  The word-by-word
shuffle product (an element of degree n is faithful over n letters, so a
product of degree m+n can be multiplied word by word over m+n letters and
recognized back into the m-basis) checks the class route that the ``words``
suite of ``superchar.verify`` reads, so the chain of independent checks down
to ``superchar.ncsym.star_K_product`` stays unbroken.
"""

from __future__ import annotations

import itertools
import math
import warnings

from superchar.ncsym import (
    NCSymElem,
    _coarsenings_with_mobius,
    _validate_shuffle_index,
    canonical_index,
    m_from_p,
)
from superchar.oracle import _classes_in, brute_superinduce
from superchar.qcoeff import Cyclotomic, LaurentPoly, rational
from superchar.ring import (
    CharCombo,
    chi_to_kappa,
    degree,
    restrict,
    sinf,
    superinduce,
    tensor,
)
from superchar.setpart import LabeledSetPartition, PartitionIndex, set_partitions
from superchar.verify import _class_product, _shuffle_traces


def _parts_are_intervals_within(K, L):
    """True when every part of K occupies consecutive positions of its
    enclosing L-part."""
    lookup = L.part_lookup()
    for part in K.parts:
        ambient = sorted(L.parts[lookup[part[0]]])
        first = ambient.index(part[0])
        if list(part) != ambient[first : first + len(part)]:
            return False
    return True


def superinduce_via_permchar(mu, K, p, L=None):
    """Superinduction through the permutation-character factorization: the
    degree ratio (a q-power) times the inflated character tensored with the
    superinduced trivial character.

    The factorization is an identity only when every part of K is an
    interval inside its L-part.  With a gap in a part, positions of U_L
    sitting under one of its arcs belong to other parts, and the inflated
    character is no longer proportional to the original on U_K (the
    enumeration oracle exhibits failures at n = 4: K = {1,4|2,3} with a
    1-4 arc).  Such indices are refused; ``superinduce`` handles them.
    """
    n = K.n
    if L is None:
        L = PartitionIndex.full(n)
    if not _parts_are_intervals_within(K, L):
        raise ValueError(
            "the factorization needs each part of %s to be an interval "
            "inside its part of %s; use superinduce for general indices"
            % (K.to_text(), L.to_text())
        )
    # both degrees are monic q-powers
    (ek, ck), = degree(mu, K).coeffs.items()
    (el, cl), = degree(sinf(mu, K, L), L).coeffs.items()
    if ck != 1 or cl != 1:
        raise RuntimeError("degrees must be monic q-powers")
    sind_triv = superinduce(LabeledSetPartition(range(1, n + 1)), K, p, L)
    lifted = CharCombo.of(mu, L)
    return tensor(lifted, sind_triv, p).scale(LaurentPoly.q_power(ek - el))


def permchar_hypothesis_check(G, H, mu_coords):
    """Check, by enumeration, the proportionality hypothesis and the
    factorization conclusion for a supercharacter of H inside G.

    mu_coords: functional on the H-mask as {(i,j): value}.

    hypothesis: chi(1) * Sinf(chi)(h) == Sinf(chi)(1) * chi(h) for all h in H,
    where Sinf(chi) is the G-supercharacter of the functional extended by 0.

    conclusion: SInd(chi) == (chi(1)/Sinf(chi)(1)) * Sinf(chi) * SInd(triv),
    compared on every G-superclass.

    Returns (hypothesis_holds, conclusion_holds, ratio).
    """
    p = G.p
    g_table = G.superclass_table()
    h_table = H.superclass_table()

    chi_h = H.char_values_of_functional(mu_coords)
    sinf_g = G.char_values_of_functional(mu_coords)

    # the identity sits in the class of the zero algebra element
    chi_deg = chi_h[h_table.class_of[(0,) * len(H.positions)]]
    sinf_deg = sinf_g[g_table.class_of[(0,) * len(G.positions)]]

    # both sides are constant on an H-superclass: check one point of each
    hypothesis = all(
        chi_deg * sinf_g[g_cid] == sinf_deg * chi_h[h_cid]
        for h_cid, g_cid in enumerate(_classes_in(G, H))
    )

    triv = tuple(Cyclotomic.one(p) for _ in range(len(h_table)))
    sind_triv = brute_superinduce(G, H, triv)
    sind_chi = brute_superinduce(G, H, chi_h)

    ratio = chi_deg.as_rational() / sinf_deg.as_rational()
    conclusion = all(
        sind_chi[c] == ratio * sinf_g[c] * sind_triv[c]
        for c in range(len(g_table))
    )
    return hypothesis, conclusion, ratio


def sinfres_identities_check(i, j, k, l, a, b, n, p):
    """Check the four restriction-inflation product identities for the
    quadruple i<j<k<l by exhaustive pointwise evaluation."""
    if not (1 <= i < j < k < l <= n):
        raise ValueError("need 1 <= i < j < k < l <= n")
    full = PartitionIndex.full(n)

    def single(arc):
        return LabeledSetPartition(range(1, n + 1), [arc])

    def chi(arc):
        return CharCombo.of(single(arc), full)

    def res(arc, lo, hi):
        # restricted to the interval subgroup on [lo,hi] and read back in the
        # full group (inflation keeps the arcs)
        sub = restrict(single(arc), PartitionIndex.from_subset(range(lo, hi + 1), n), p)
        return CharCombo(full, sub.terms)

    def values(x, y):
        # tensor values are plain pointwise products, with no straightening
        vx, vy = chi_to_kappa(x, p), chi_to_kappa(y, p)
        return tuple(vx[mu] * vy[mu] for mu in vx)

    neg_a, ab = (-a) % p, (a + b) % p
    checks = [
        ((chi((i, k, a)), chi((i, l, b))), (res((i, k, a), i + 1, l), chi((i, l, b)))),
        ((chi((i, l, a)), chi((j, l, b))), (chi((i, l, a)), res((j, l, b), i, l - 1))),
        (
            (chi((i, l, a)), chi((i, l, neg_a))),
            (res((i, l, a), i + 1, l), res((i, l, neg_a), i, l - 1)),
        ),
    ]
    if ab:
        checks.append(
            ((chi((i, l, a)), chi((i, l, b))), (chi((i, l, ab)), res((i, l, ab), i + 1, l - 1)))
        )
    return all(values(*lhs) == values(*rhs) for lhs, rhs in checks)


def reflect_partition(lam):
    """Mirror through the vertical axis of {1..n}: arc i-j:a goes to
    (n+1-j)-(n+1-i):a."""
    n = lam.n
    return LabeledSetPartition(
        range(1, n + 1), [(n + 1 - a.right, n + 1 - a.left, a.label) for a in lam.arcs]
    )


def reflect_index(K):
    """Mirror i -> n+1-i, reversing the part order."""
    return PartitionIndex(K.n, [[K.n + 1 - v for v in part] for part in reversed(K.parts)])


def reflect_combo(x):
    """Conjugate a combination by the order-reversing symmetry."""
    return CharCombo(
        reflect_index(x.ambient),
        [(reflect_partition(lam), c) for lam, c in x.terms.items()],
    )


def sg_matrices(m, n):
    """All m x n 0-1 matrices with at most one 1 per row and per column,
    as tuples of row-tuples, deterministically ordered."""
    out = []
    for k in range(min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.permutations(range(n), k):
                w = [[0] * n for _ in range(m)]
                for r, c in zip(rows, cols):
                    w[r][c] = 1
                out.append(tuple(tuple(r) for r in w))
    out.sort()
    return out


def sg_ones(w):
    return sum(sum(row) for row in w)


def sg_sow(w):
    """Zeros of w lying below a 1 in their column or left of a 1 in their row."""
    m, n = len(w), len(w[0]) if w else 0
    count = 0
    for j in range(m):
        for k in range(n):
            if w[j][k]:
                continue
            if any(w[i][k] for i in range(j)) or any(w[j][l] for l in range(k + 1, n)):
                count += 1
    return count


def sg_identity_a(m, n):
    """sum over w of (q-1)^ones(w) q^sow(w), as a Laurent polynomial.
    Equals q^(mn)."""
    qm1 = LaurentPoly.q_minus_one()
    return sum((qm1 ** sg_ones(w)).shift(sg_sow(w)) for w in sg_matrices(m, n))


def sg_identity_b(m, n):
    """The signed sum over w of (-1)^(w_1n) (q-1)^(ones(w) - w_1n) q^sow(w).

    Shapes whose top-right corner carries a 1 enter with one fewer label
    factor (the corner label is summed against theta, contributing -1), so
    the signed sum vanishes identically in q.
    """
    qm1 = LaurentPoly.q_minus_one()
    return sum(
        (-1) ** w[0][n - 1] * (qm1 ** (sg_ones(w) - w[0][n - 1])).shift(sg_sow(w))
        for w in sg_matrices(m, n)
    )


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
        value *= (-1) ** (k - 1) * math.factorial(k - 1)
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


def _parts_of_word(word):
    """Equal-positions partition of a word: 1-based positions grouped by
    letter, parts sorted by minimum."""
    where = {}
    for pos, letter in enumerate(word, start=1):
        where.setdefault(letter, []).append(pos)
    return tuple(sorted((tuple(v) for v in where.values()), key=lambda t: t[0]))


class WordExpansion:
    """Exact expansion of a degree-n element over a finite alphabet.

    Words are length-n tuples of letters 1..alphabet with exact rational
    coefficients, stored as ``NCSymElem`` stores them: an int when integral,
    else a Fraction, and no zero.  Construction asserts the defining
    symmetry: the coefficient only depends on the equal-positions partition
    of the word, and a class is either absent or fully present.
    """

    __slots__ = ("alphabet", "degree", "coeffs", "_classes")

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
            c = rational(c)
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
        object.__setattr__(self, "_classes", {parts: v[0] for parts, v in by_class.items()})

    def __setattr__(self, name, value):
        raise AttributeError("WordExpansion is immutable")

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
            coeffs[word] = coeffs.get(word, 0) + c
        return WordExpansion(self.alphabet, self.degree, coeffs)

    def scale(self, c):
        c = rational(c)
        return WordExpansion(
            self.alphabet, self.degree, {w: c * v for w, v in self.coeffs.items()}
        )

    def class_coefficients(self):
        """Map equal-positions partition -> the common coefficient, as the
        constructor found it."""
        return dict(self._classes)


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
    return WordExpansion(N, K.n, dict.fromkeys(_monomial_words(K, N), 1))


def expand(x, N=None):
    """Word expansion of an NCSym element over 1..N (default: one letter
    per position)."""
    N = x.degree if N is None else int(N)
    m = x if x.basis == "m" else m_from_p(x)
    # distinct monomials own disjoint word sets
    coeffs = {}
    for K, c in m.coeffs.items():
        for word in _monomial_words(K, N):
            coeffs[word] = c
    return WordExpansion(N, x.degree, coeffs)


def _star_K_product_words(x, y, K):
    """The shuffle product computed on words: the reference for the class
    route and for :func:`superchar.ncsym.star_K_product`.

    Both factors are expanded over m+n letters, which is faithful for
    degree m+n, and multiplied word by word; the resulting expansion is
    recognized back into the m-basis.
    """
    m, n = x.degree, y.degree
    _validate_shuffle_index(K, m, n)
    N = max(m + n, 1)
    xe = expand(x, N)
    ye = expand(y, N)
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
            coeffs[word] = coeffs.get(word, 0) + cu * cv
    product = WordExpansion(N, m + n, coeffs)
    # recognition: symmetry was asserted on construction, so the class
    # coefficients are the m-basis coefficients
    out = {}
    for parts, c in product.class_coefficients().items():
        out[PartitionIndex(m + n, parts)] = c
    return NCSymElem("m", m + n, out)


def star_K_product_classes(x, y, K):
    """The shuffle product by the class route of ``superchar.verify``, as an
    m-basis element."""
    m, n = x.degree, y.degree
    _validate_shuffle_index(K, m, n)
    x, y = (e if e.basis == "m" else m_from_p(e) for e in (x, y))
    coeffs = _class_product(
        {P.parts: c for P, c in x.coeffs.items()},
        {P.parts: c for P, c in y.coeffs.items()},
        _shuffle_traces(K, set_partitions(range(1, m + n + 1))),
    )
    return NCSymElem("m", m + n, {PartitionIndex(m + n, C): c for C, c in coeffs.items()})
